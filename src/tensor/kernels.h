// Low-level compute kernels: raw-pointer BLAS-1 primitives and the SGEMM
// micro-kernel, with runtime ISA dispatch (portable scalar vs AVX2+FMA).
//
// Everything here is deterministic by construction: each function fixes its
// accumulation order (unrolled multi-accumulator lanes combined in a fixed
// tree), so repeated calls on the same inputs are bit-identical. The scalar
// and AVX2 paths may differ in the last ulp (FMA fuses the rounding); a
// process always picks one path at startup, so results are stable within a
// run and across runs on the same machine.
//
// This header is deliberately tensor-free (only standard headers): it sits
// below both tensor_ops and stats::vec_ops in the dependency graph, so the
// defense distance math (Krum, k-means, Zeno++, FLtrust, AsyncFilter
// scoring) and the NN layers share one compute core.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tensor::kernels {

enum class Isa {
  kScalar,  // portable fallback, auto-vectorizes at -O2/-O3
  kAvx2,    // AVX2 + FMA (+ F16C) intrinsics, runtime-detected
};

// The ISA every kernel dispatches to. Detected once (cached); honours the
// AF_KERNEL_ISA environment variable ("scalar" | "avx2" | "auto") and any
// ForceIsa override. Requesting avx2 on a CPU without it falls back to
// scalar.
Isa ActiveIsa();

// Test hook: force a specific path (kAvx2 is ignored when unsupported).
void ForceIsa(Isa isa);
// Test hook: drop the ForceIsa override and return to detection + env.
void ResetForcedIsa();

// True when the CPU (and compiler) support the AVX2+FMA path. It also
// requires F16C, which the fp16 codec's conversions use on the same path.
bool Avx2Available();

// ---- BLAS-1 style primitives (double accumulation, fixed order) ----------

// <a, b> accumulated in double.
double Dot(const float* a, const float* b, std::size_t n);

// Rows per register tile of DotMany's AVX2 path: callers that can hand it
// row pairs get the full tile.
inline constexpr std::size_t kDotRows = 2;

// out[r * ldo + c] = Dot(a[r], b[c], n) for r in [0, rows), c in [0, cols);
// every entry is bit-identical to Dot on the same pair. The AVX2 path
// register-blocks kDotRows rows × 3 columns: twelve accumulators, two per
// pair in Dot's own lane layout, so each loaded element is widened once per
// tile instead of once per pair. The scalar path is per-pair Dot.
void DotMany(const float* const* a, std::size_t rows, const float* const* b,
             std::size_t cols, std::size_t n, double* out, std::size_t ldo);

// sum of v[i]^2 accumulated in double.
double SumSquares(const float* v, std::size_t n);

// ||a - b||^2 accumulated in double.
double SquaredDistance(const float* a, const float* b, std::size_t n);

// y[i] = float(y[i] + alpha * x[i]) with the product in double.
void Axpy(double alpha, const float* x, float* y, std::size_t n);

// v[i] = float(v[i] * alpha) with the product in double.
void Scale(float* v, double alpha, std::size_t n);

// out[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* out, std::size_t n);

// a[i] += b[i].
void AddInPlace(float* a, const float* b, std::size_t n);

// row[i] += bias[i].
void AddBias(float* row, const float* bias, std::size_t n);

// out[j] += sum over rows of m[i * cols + j] (row-major m, rows × cols).
// Accumulates row-by-row in ascending order, matching the historical
// SumRows semantics.
void SumRowsAccum(const float* m, std::size_t rows, std::size_t cols,
                  float* out);

// ---- SGEMM micro-kernel ---------------------------------------------------

// Micro-tile geometry shared with the blocked driver in gemm.cc. kMr rows ×
// kNr columns; kNr is two AVX2 vectors wide, kMr leaves headroom for 12
// vector accumulators plus loads in 16 ymm registers.
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 16;

// How MicroKernel lands its kMr × kNr tile of sums in C.
enum class TileStore : std::uint8_t {
  kAssign,      // C = acc
  kAddBias,     // C = acc + bias[j]
  kAccumulate,  // C += acc
};

// acc[r][j] = sum over p in [0, kc) of ap[p*kMr + r] * bp[p*ldb + j],
// accumulated ascending in p from +0, then stored into the kMr × kNr tile
// at `c` (row stride ldc) as `store` says. `ap` is a packed A micro-panel
// (kMr rows, k-major); `bp` is kc rows of kNr columns with row stride ldb,
// either a packed sliver (ldb == kNr) or B itself read in place. The AVX2
// path updates C with vector adds, which round exactly as the scalar path's
// per-element `acc + bias` and `C += acc` do. A ragged tile passes a kMr ×
// kNr buffer as C (ldc == kNr, kAssign) and copies out what it needs.
void MicroKernel(std::size_t kc, const float* ap, const float* bp,
                 std::size_t ldb, float* c, std::size_t ldc, TileStore store,
                 const float* bias);

// Packs a full kNr-column sliver of a transposed B operand: out[p*kNr + j]
// = b[j*ldb + p] for p in [0, kc), j in [0, kNr). A pure copy (8×8 register
// transposes on AVX2), so the ISA never changes a result bit.
void PackTransposedSliver(std::size_t kc, const float* b, std::size_t ldb,
                          float* out);

}  // namespace tensor::kernels
