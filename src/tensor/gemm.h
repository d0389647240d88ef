// Cache-blocked, register-tiled SGEMM — the compute core every matrix
// product routes through (Dense forward/backward and the Conv2d im2col
// products).
//
// Design (BLIS-style): the driver tiles C into MC×NC macro-blocks and
// calls kernels::MicroKernel for every kMr×kNr tile. A is packed into
// k-major kMr-row micro-panels. B's kNr-column slivers are read in place
// when B is untransposed (row stride ldb); a transposed B is packed by
// register transposes, and a ragged last sliver is packed zero-padded. A
// full tile is stored from registers straight into C; only ragged tiles go
// through a scratch tile.
//
// Determinism contract: for fixed inputs the output is bit-identical across
// runs and across thread counts. Each C element is owned by exactly one
// row-tile task, the K dimension is reduced strictly in ascending block
// order (the pc loop is sequential, outside the parallel fan-out), and the
// micro-kernel accumulates ascending in k. So every C element is, per
// KC-deep block, one float chain from +0 in ascending k, landed as
// C = block (+ bias) for the first block of an overwrite and C += block
// otherwise — whatever the loop order and whether B is packed or read in
// place (GemmTest.MatchesBlockedContractBitForBit emulates exactly this).
// Parallelism only distributes disjoint row tiles. The scalar and AVX2 micro-kernels may differ in final
// ulps (FMA); the ISA is fixed per process (kernels::ActiveIsa), so this
// never varies within or across runs on one machine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace util {
class ThreadPool;
}

namespace tensor {

enum class Op : std::uint8_t { kNone, kTranspose };

// C = op_a(A) · op_b(B) [+ bias] [+ beta·C], raw-pointer form.
//
//   op_a(A) is m×k, op_b(B) is k×n, C is m×n.
//   lda/ldb/ldc are row strides of the matrices as stored (A is stored
//   m×k when op_a == kNone, k×m when op_a == kTranspose; same for B).
//   bias: optional length-n row vector added to every row of C.
//   beta: 0 overwrites C, any nonzero value accumulates (C += A·B);
//         bias requires beta == 0.
//   pool: optional thread pool to fan row tiles out over; nullptr runs
//         serially. Results are bit-identical either way.
void Sgemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, const float* bias = nullptr,
           float beta = 0.0f, util::ThreadPool* pool = nullptr);

// Tensor convenience wrapper: shapes are taken from the tensors (all rank
// 2), dimension mismatches throw util::CheckError; runs serially.
void Gemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b, Tensor& c,
          const float* bias = nullptr, float beta = 0.0f);

}  // namespace tensor
