#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tensor {
namespace {

using kernels::kMr;
using kernels::kNr;
using kernels::TileStore;

// Macro-block sizes. KC×NC of packed B (~2 MB max) streams through L2/L3,
// MC×KC of packed A (~96 KB) sits in L1/L2 per row-tile task. MC is a
// multiple of kMr and NC a multiple of kNr so only the final micro-tile of
// a block is ragged.
constexpr std::size_t kMc = 96;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 2048;

// Up to this K block depth, a row tile with B read in place walks its row
// panels outermost: a tile does so little arithmetic per C element that
// the C stores dominate, and this order writes each C row as one stream
// instead of touching mc rows (often a power-of-two stride apart, so they
// collide in the same cache sets) per sliver. The B block it re-reads per
// row panel is at most kRowsOuterMaxK·kNc floats (128 KB), L2-resident.
constexpr std::size_t kRowsOuterMaxK = 16;

std::size_t RoundUp(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Reads element (i, j) of an op-transformed matrix stored with row stride
// ld. Only the ragged edges of the packers use it.
inline float LogicalAt(Op op, const float* p, std::size_t ld, std::size_t i,
                       std::size_t j) {
  return op == Op::kNone ? p[i * ld + j] : p[j * ld + i];
}

// Packs rows [row0, row0+rows) × cols [pc, pc+kc) of op(A) into kMr-row
// micro-panels: panel s holds logical rows [s·kMr, (s+1)·kMr), stored
// k-major (ap[p·kMr + r]). Rows past `rows` are zero so the micro-kernel
// never needs a bounds check. Returns the bytes written.
std::size_t PackA(Op op, const float* a, std::size_t lda, std::size_t row0,
                  std::size_t rows, std::size_t pc, std::size_t kc,
                  float* ap) {
  const std::size_t full = rows / kMr;
  for (std::size_t s = 0; s < full; ++s) {
    float* panel = ap + s * kc * kMr;
    const std::size_t row = row0 + s * kMr;
    if (op == Op::kNone) {
      const float* src = a + row * lda + pc;  // logical row r at src + r·lda
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t p = 0; p < kc; ++p) {
          panel[p * kMr + r] = src[r * lda + p];
        }
      }
    } else {
      const float* src = a + pc * lda + row;  // logical column p at src + p·lda
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t r = 0; r < kMr; ++r) {
          panel[p * kMr + r] = src[p * lda + r];
        }
      }
    }
  }
  const std::size_t left = rows - full * kMr;
  if (left > 0) {
    float* panel = ap + full * kc * kMr;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < kMr; ++r) {
        panel[p * kMr + r] =
            r < left ? LogicalAt(op, a, lda, row0 + full * kMr + r, pc + p)
                     : 0.0f;
      }
    }
  }
  return RoundUp(rows, kMr) * kc * sizeof(float);
}

// Packs the kNr-column slivers of rows [pc, pc+kc) × cols [col0, col0+cols)
// of op(B) that the micro-kernel cannot read where they are: every sliver
// of a transposed B (sliver t at bp + t·kc·kNr), but only the ragged last
// sliver of an untransposed one (at bp), whose full slivers are read in
// place. Slivers are k-major (bp[p·kNr + j]) and zero-padded past `cols`.
// Returns the bytes written.
std::size_t PackB(Op op, const float* b, std::size_t ldb, std::size_t pc,
                  std::size_t kc, std::size_t col0, std::size_t cols,
                  float* bp) {
  const std::size_t full = cols / kNr;
  std::size_t packed = 0;
  if (op == Op::kTranspose) {
    for (std::size_t t = 0; t < full; ++t) {
      kernels::PackTransposedSliver(kc, b + (col0 + t * kNr) * ldb + pc, ldb,
                                    bp + t * kc * kNr);
    }
    packed = full;
  }
  const std::size_t left = cols - full * kNr;
  if (left > 0) {
    float* sliver = bp + packed * kc * kNr;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < kNr; ++j) {
        sliver[p * kNr + j] =
            j < left ? LogicalAt(op, b, ldb, pc + p, col0 + full * kNr + j)
                     : 0.0f;
      }
    }
    ++packed;
  }
  return packed * kc * kNr * sizeof(float);
}

struct GemmCounters {
  obs::Counter* calls = nullptr;
  obs::Counter* flops = nullptr;
  obs::Counter* bytes_packed = nullptr;
};

// Resolved once per thread, and again only after DefaultRegistry().Reset()
// (which frees the old counters and bumps the registry's generation), so a
// call takes no registry mutex and allocates no key.
const GemmCounters& Counters() {
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  thread_local GemmCounters cached;
  thread_local std::uint64_t cached_generation = 0;
  const std::uint64_t generation = reg.Generation();
  if (cached.calls == nullptr || cached_generation != generation) {
    cached = {&reg.GetCounter("gemm.calls"), &reg.GetCounter("gemm.flops"),
              &reg.GetCounter("gemm.bytes_packed")};
    cached_generation = generation;
  }
  return cached;
}

}  // namespace

void Sgemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, const float* bias, float beta,
           util::ThreadPool* pool) {
  if (m == 0 || n == 0) {
    return;
  }
  const bool accumulate = beta != 0.0f;
  if (k == 0) {
    // Empty reduction: C = bias (broadcast) or zero; accumulate is a no-op.
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        if (bias != nullptr) {
          std::memcpy(c + i * ldc, bias, n * sizeof(float));
        } else {
          std::memset(c + i * ldc, 0, n * sizeof(float));
        }
      }
    }
    return;
  }

  const GemmCounters& counters = Counters();
  counters.calls->Increment();
  counters.flops->Increment(2ull * m * n * k);
  std::atomic<std::uint64_t> bytes_packed{0};

  // Full slivers of an untransposed B are read in place (row stride ldb);
  // everything else the micro-kernel reads comes from packed scratch.
  const bool b_in_place = op_b == Op::kNone;

  // Packed-B slivers for the current (jc, pc) block, shared read-only by
  // all row-tile tasks. thread_local so repeated calls reuse the allocation.
  thread_local std::vector<float> tl_bpanel;

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const std::size_t bpanel_size =
          kc * (b_in_place ? kNr : RoundUp(nc, kNr));
      if (tl_bpanel.size() < bpanel_size) {
        tl_bpanel.resize(bpanel_size);
      }
      bytes_packed.fetch_add(
          PackB(op_b, b, ldb, pc, kc, jc, nc, tl_bpanel.data()),
          std::memory_order_relaxed);
      const float* bpanel = tl_bpanel.data();

      const TileStore store = pc != 0 || accumulate ? TileStore::kAccumulate
                              : bias != nullptr     ? TileStore::kAddBias
                                                    : TileStore::kAssign;
      const std::size_t tiles = (m + kMc - 1) / kMc;
      const bool rows_outer = b_in_place && kc <= kRowsOuterMaxK;
      auto tile_body = [&](std::size_t t) {
        const std::size_t ic = t * kMc;
        const std::size_t mc = std::min(kMc, m - ic);
        thread_local std::vector<float> tl_apanel;
        if (tl_apanel.size() < kc * RoundUp(mc, kMr)) {
          tl_apanel.resize(kc * RoundUp(mc, kMr));
        }
        bytes_packed.fetch_add(
            PackA(op_a, a, lda, ic, mc, pc, kc, tl_apanel.data()),
            std::memory_order_relaxed);
        const float* apanel = tl_apanel.data();

        // One kMr × kNr tile of C at (ic + ir, jc + jr).
        auto micro_tile = [&](std::size_t ir, std::size_t jr) {
          const std::size_t mr = std::min(kMr, mc - ir);
          const std::size_t nr = std::min(kNr, nc - jr);
          const float* ap = apanel + (ir / kMr) * kc * kMr;
          const bool in_place = b_in_place && nr == kNr;
          const float* bs =
              in_place ? b + pc * ldb + jc + jr
                       : bpanel + (b_in_place ? 0 : jr / kNr) * kc * kNr;
          const std::size_t bld = in_place ? ldb : kNr;
          float* ctile = c + (ic + ir) * ldc + jc + jr;
          const float* brow = bias != nullptr ? bias + jc + jr : nullptr;
          if (mr == kMr && nr == kNr) {
            kernels::MicroKernel(kc, ap, bs, bld, ctile, ldc, store, brow);
            return;
          }
          float acc[kMr * kNr];
          kernels::MicroKernel(kc, ap, bs, bld, acc, kNr, TileStore::kAssign,
                               nullptr);
          for (std::size_t r = 0; r < mr; ++r) {
            float* crow = ctile + r * ldc;
            const float* arow = acc + r * kNr;
            for (std::size_t j = 0; j < nr; ++j) {
              switch (store) {
                case TileStore::kAssign:
                  crow[j] = arow[j];
                  break;
                case TileStore::kAddBias:
                  crow[j] = arow[j] + brow[j];
                  break;
                case TileStore::kAccumulate:
                  crow[j] += arow[j];
                  break;
              }
            }
          }
        };
        if (rows_outer) {
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            for (std::size_t jr = 0; jr < nc; jr += kNr) {
              micro_tile(ir, jr);
            }
          }
        } else {
          for (std::size_t jr = 0; jr < nc; jr += kNr) {
            for (std::size_t ir = 0; ir < mc; ir += kMr) {
              micro_tile(ir, jr);
            }
          }
        }
      };
      if (pool != nullptr && tiles > 1) {
        pool->ParallelFor(tiles, tile_body);
      } else {
        for (std::size_t t = 0; t < tiles; ++t) {
          tile_body(t);
        }
      }
    }
  }
  counters.bytes_packed->Increment(
      bytes_packed.load(std::memory_order_relaxed));
}

void Gemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b, Tensor& c,
          const float* bias, float beta) {
  AF_CHECK_EQ(a.rank(), 2u);
  AF_CHECK_EQ(b.rank(), 2u);
  AF_CHECK_EQ(c.rank(), 2u);
  const std::size_t m = op_a == Op::kNone ? a.dim(0) : a.dim(1);
  const std::size_t k = op_a == Op::kNone ? a.dim(1) : a.dim(0);
  const std::size_t kb = op_b == Op::kNone ? b.dim(0) : b.dim(1);
  const std::size_t n = op_b == Op::kNone ? b.dim(1) : b.dim(0);
  AF_CHECK_EQ(k, kb) << "inner dimensions differ";
  AF_CHECK_EQ(c.dim(0), m);
  AF_CHECK_EQ(c.dim(1), n);
  AF_CHECK(bias == nullptr || beta == 0.0f) << "bias requires beta == 0";
  Sgemm(op_a, op_b, m, n, k, a.data().data(), a.dim(1), b.data().data(),
        b.dim(1), c.data().data(), n, bias, beta);
}

}  // namespace tensor
