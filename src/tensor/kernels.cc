#include "tensor/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define AF_KERNELS_X86 1
#include <immintrin.h>
#else
#define AF_KERNELS_X86 0
#endif

namespace tensor::kernels {
namespace {

// -1 = no override; otherwise a static_cast<int>(Isa).
std::atomic<int> g_forced_isa{-1};

Isa DetectIsa() {
  if (const char* env = std::getenv("AF_KERNEL_ISA"); env != nullptr) {
    const std::string v(env);
    if (v == "scalar") {
      return Isa::kScalar;
    }
    if (v == "avx2") {
      return Avx2Available() ? Isa::kAvx2 : Isa::kScalar;
    }
    // anything else (incl. "auto") falls through to detection
  }
  return Avx2Available() ? Isa::kAvx2 : Isa::kScalar;
}

}  // namespace

bool Avx2Available() {
#if AF_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

Isa ActiveIsa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<Isa>(forced);
  }
  static const Isa detected = DetectIsa();
  return detected;
}

void ForceIsa(Isa isa) {
  if (isa == Isa::kAvx2 && !Avx2Available()) {
    isa = Isa::kScalar;
  }
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ResetForcedIsa() {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

// ---- scalar reductions ----------------------------------------------------
//
// Four independent double accumulator lanes (lane j takes i ≡ j mod 4), the
// tail joins lane order 0,1,2,..., and the lanes combine as (s0+s1)+(s2+s3).
// The fixed order makes results reproducible; the independent lanes break
// the add dependency chain so the loop pipelines.

namespace {

double DotScalar(const float* a, const float* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<double>(a[i]) * b[i];
    s1 += static_cast<double>(a[i + 1]) * b[i + 1];
    s2 += static_cast<double>(a[i + 2]) * b[i + 2];
    s3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return (s0 + s1) + (s2 + s3) + tail;
}

double SumSquaresScalar(const float* v, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<double>(v[i]) * v[i];
    s1 += static_cast<double>(v[i + 1]) * v[i + 1];
    s2 += static_cast<double>(v[i + 2]) * v[i + 2];
    s3 += static_cast<double>(v[i + 3]) * v[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += static_cast<double>(v[i]) * v[i];
  }
  return (s0 + s1) + (s2 + s3) + tail;
}

double SquaredDistanceScalar(const float* a, const float* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = static_cast<double>(a[i]) - b[i];
    const double d1 = static_cast<double>(a[i + 1]) - b[i + 1];
    const double d2 = static_cast<double>(a[i + 2]) - b[i + 2];
    const double d3 = static_cast<double>(a[i + 3]) - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    tail += d * d;
  }
  return (s0 + s1) + (s2 + s3) + tail;
}

void AxpyScalar(double alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(y[i] + alpha * x[i]);
  }
}

void ScaleScalar(float* v, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(v[i] * alpha);
  }
}

// ---- AVX2 reductions ------------------------------------------------------
//
// Same lane structure as the scalar path but with 4-wide double vectors
// (floats widened via cvtps_pd), so every product still rounds exactly once
// in double. Lane combination order is fixed: ((l0+l1)+(l2+l3)) per vector,
// vectors low-to-high, then the scalar tail.

#if AF_KERNELS_X86

__attribute__((target("avx2,fma"))) double HSumFixed(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// The end of every AVX2 dot: `lanes` holds acc0 then acc1, combined in
// HSumFixed's order, then the scalar tail from i. Out of line so every tile
// shape runs the very same instructions, down to which NaN an add keeps.
__attribute__((noinline)) double FinishDot(const double* lanes, const float* a,
                                           const float* b, std::size_t i,
                                           std::size_t n) {
  double sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
               ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; i < n; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

// R × C dots: out[r * ldo + c] = <a[r], b[c]>. Pair (r, c) keeps two
// accumulators, acc0 over floats 0–3 and acc1 over floats 4–7 of each
// 8-float step, then FinishDot. Dot is the 1 × 1 tile, so every pair of a
// wider tile gets Dot's bits; the wider tile widens each 4-float half once
// and reuses it across the tile instead of once per pair.
template <std::size_t R, std::size_t C>
__attribute__((target("avx2,fma"))) void DotTileAvx2(const float* const* a,
                                                     const float* const* b,
                                                     std::size_t n, double* out,
                                                     std::size_t ldo) {
  __m256d acc[R][C][2];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      acc[r][c][0] = _mm256_setzero_pd();
      acc[r][c][1] = _mm256_setzero_pd();
    }
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t h = 0; h < 2; ++h) {
      __m256d x[R];
      for (std::size_t r = 0; r < R; ++r) {
        x[r] = _mm256_cvtps_pd(_mm_loadu_ps(a[r] + i + 4 * h));
      }
      for (std::size_t c = 0; c < C; ++c) {
        const __m256d y = _mm256_cvtps_pd(_mm_loadu_ps(b[c] + i + 4 * h));
        for (std::size_t r = 0; r < R; ++r) {
          acc[r][c][h] = _mm256_fmadd_pd(x[r], y, acc[r][c][h]);
        }
      }
    }
  }
  alignas(32) double lanes[8];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      _mm256_store_pd(lanes, acc[r][c][0]);
      _mm256_store_pd(lanes + 4, acc[r][c][1]);
      out[r * ldo + c] = FinishDot(lanes, a[r], b[c], i, n);
    }
  }
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a,
                                                   const float* b,
                                                   std::size_t n) {
  double sum;
  DotTileAvx2<1, 1>(&a, &b, n, &sum, 1);
  return sum;
}

// Columns per DotMany tile: kDotRows × kDotCols pairs keep 12 accumulators,
// kDotRows row halves and one column half in the 16 ymm registers.
constexpr std::size_t kDotCols = 3;

template <std::size_t R>
__attribute__((target("avx2,fma"))) void DotRowsAvx2(
    const float* const* a, const float* const* b, std::size_t cols,
    std::size_t n, double* out, std::size_t ldo) {
  std::size_t c = 0;
  for (; c + kDotCols <= cols; c += kDotCols) {
    DotTileAvx2<R, kDotCols>(a, b + c, n, out + c, ldo);
  }
  for (; c < cols; ++c) {
    DotTileAvx2<R, 1>(a, b + c, n, out + c, ldo);
  }
}

__attribute__((target("avx2,fma"))) void DotManyAvx2(
    const float* const* a, std::size_t rows, const float* const* b,
    std::size_t cols, std::size_t n, double* out, std::size_t ldo) {
  std::size_t r = 0;
  for (; r + kDotRows <= rows; r += kDotRows) {
    DotRowsAvx2<kDotRows>(a + r, b, cols, n, out + r * ldo, ldo);
  }
  for (; r < rows; ++r) {
    DotRowsAvx2<1>(a + r, b, cols, n, out + r * ldo, ldo);
  }
}

__attribute__((target("avx2,fma"))) double SumSquaresAvx2(const float* v,
                                                          std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    const __m256d v1 = _mm256_cvtps_pd(_mm_loadu_ps(v + i + 4));
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  double sum = HSumFixed(acc0) + HSumFixed(acc1);
  for (; i < n; ++i) {
    sum += static_cast<double>(v[i]) * v[i];
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double SquaredDistanceAvx2(
    const float* a, const float* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                      _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                      _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double sum = HSumFixed(acc0) + HSumFixed(acc1);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(double alpha, const float* x,
                                                  float* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d yv = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    _mm_storeu_ps(y + i, _mm256_cvtpd_ps(_mm256_fmadd_pd(va, xv, yv)));
  }
  for (; i < n; ++i) {
    y[i] = static_cast<float>(y[i] + alpha * x[i]);
  }
}

__attribute__((target("avx2,fma"))) void ScaleAvx2(float* v, double alpha,
                                                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vv = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    _mm_storeu_ps(v + i, _mm256_cvtpd_ps(_mm256_mul_pd(vv, va)));
  }
  for (; i < n; ++i) {
    v[i] = static_cast<float>(v[i] * alpha);
  }
}

#endif  // AF_KERNELS_X86

}  // namespace

double Dot(const float* a, const float* b, std::size_t n) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    return DotAvx2(a, b, n);
  }
#endif
  return DotScalar(a, b, n);
}

void DotMany(const float* const* a, std::size_t rows, const float* const* b,
             std::size_t cols, std::size_t n, double* out, std::size_t ldo) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    DotManyAvx2(a, rows, b, cols, n, out, ldo);
    return;
  }
#endif
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out[r * ldo + c] = DotScalar(a[r], b[c], n);
    }
  }
}

double SumSquares(const float* v, std::size_t n) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    return SumSquaresAvx2(v, n);
  }
#endif
  return SumSquaresScalar(v, n);
}

double SquaredDistance(const float* a, const float* b, std::size_t n) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    return SquaredDistanceAvx2(a, b, n);
  }
#endif
  return SquaredDistanceScalar(a, b, n);
}

void Axpy(double alpha, const float* x, float* y, std::size_t n) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    AxpyAvx2(alpha, x, y, n);
    return;
  }
#endif
  AxpyScalar(alpha, x, y, n);
}

void Scale(float* v, double alpha, std::size_t n) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    ScaleAvx2(v, alpha, n);
    return;
  }
#endif
  ScaleScalar(v, alpha, n);
}

void Add(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] = a[i] + b[i];
    out[i + 1] = a[i + 1] + b[i + 1];
    out[i + 2] = a[i + 2] + b[i + 2];
    out[i + 3] = a[i + 3] + b[i + 3];
  }
  for (; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void AddInPlace(float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] += b[i];
    a[i + 1] += b[i + 1];
    a[i + 2] += b[i + 2];
    a[i + 3] += b[i + 3];
  }
  for (; i < n; ++i) {
    a[i] += b[i];
  }
}

void AddBias(float* row, const float* bias, std::size_t n) {
  AddInPlace(row, bias, n);
}

void SumRowsAccum(const float* m, std::size_t rows, std::size_t cols,
                  float* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    AddInPlace(out, m + i * cols, cols);
  }
}

// ---- SGEMM micro-kernel ---------------------------------------------------

namespace {

void MicroKernelScalar(std::size_t kc, const float* ap, const float* bp,
                       std::size_t ldb, float* c, std::size_t ldc,
                       TileStore store, const float* bias) {
  float acc[kMr * kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * ldb;
    const float* acol = ap + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float a = acol[r];
      float* crow = acc + r * kNr;
      for (std::size_t j = 0; j < kNr; ++j) {
        crow[j] += a * brow[j];
      }
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNr;
    switch (store) {
      case TileStore::kAssign:
        std::memcpy(crow, arow, kNr * sizeof(float));
        break;
      case TileStore::kAddBias:
        for (std::size_t j = 0; j < kNr; ++j) {
          crow[j] = arow[j] + bias[j];
        }
        break;
      case TileStore::kAccumulate:
        for (std::size_t j = 0; j < kNr; ++j) {
          crow[j] += arow[j];
        }
        break;
    }
  }
}

void PackTransposedSliverScalar(std::size_t kc, const float* b,
                                std::size_t ldb, float* out) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t j = 0; j < kNr; ++j) {
      out[p * kNr + j] = b[j * ldb + p];
    }
  }
}

#if AF_KERNELS_X86

// Stores one 16-wide row of the tile: two vectors `lo`, `hi`.
__attribute__((target("avx2,fma"))) inline void StoreRow(
    float* c, __m256 lo, __m256 hi, TileStore store, const float* bias) {
  switch (store) {
    case TileStore::kAssign:
      break;
    case TileStore::kAddBias:
      lo = _mm256_add_ps(lo, _mm256_loadu_ps(bias));
      hi = _mm256_add_ps(hi, _mm256_loadu_ps(bias + 8));
      break;
    case TileStore::kAccumulate:
      lo = _mm256_add_ps(_mm256_loadu_ps(c), lo);
      hi = _mm256_add_ps(_mm256_loadu_ps(c + 8), hi);
      break;
  }
  _mm256_storeu_ps(c, lo);
  _mm256_storeu_ps(c + 8, hi);
}

__attribute__((target("avx2,fma"))) void MicroKernelAvx2(
    std::size_t kc, const float* ap, const float* bp, std::size_t ldb,
    float* c, std::size_t ldc, TileStore store, const float* bias) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    bp += ldb;
    const float* acol = ap + p * kMr;
    __m256 a;
    a = _mm256_broadcast_ss(acol + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(acol + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(acol + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(acol + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(acol + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(acol + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  StoreRow(c + 0 * ldc, c00, c01, store, bias);
  StoreRow(c + 1 * ldc, c10, c11, store, bias);
  StoreRow(c + 2 * ldc, c20, c21, store, bias);
  StoreRow(c + 3 * ldc, c30, c31, store, bias);
  StoreRow(c + 4 * ldc, c40, c41, store, bias);
  StoreRow(c + 5 * ldc, c50, c51, store, bias);
}

// Eight rows of b (row stride ldb), eight floats each, transposed into
// eight 8-float columns stored kNr apart.
__attribute__((target("avx2"))) inline void Transpose8x8(const float* b,
                                                         std::size_t ldb,
                                                         float* out) {
  const __m256 r0 = _mm256_loadu_ps(b + 0 * ldb);
  const __m256 r1 = _mm256_loadu_ps(b + 1 * ldb);
  const __m256 r2 = _mm256_loadu_ps(b + 2 * ldb);
  const __m256 r3 = _mm256_loadu_ps(b + 3 * ldb);
  const __m256 r4 = _mm256_loadu_ps(b + 4 * ldb);
  const __m256 r5 = _mm256_loadu_ps(b + 5 * ldb);
  const __m256 r6 = _mm256_loadu_ps(b + 6 * ldb);
  const __m256 r7 = _mm256_loadu_ps(b + 7 * ldb);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  _mm256_storeu_ps(out + 0 * kNr, _mm256_permute2f128_ps(s0, s4, 0x20));
  _mm256_storeu_ps(out + 1 * kNr, _mm256_permute2f128_ps(s1, s5, 0x20));
  _mm256_storeu_ps(out + 2 * kNr, _mm256_permute2f128_ps(s2, s6, 0x20));
  _mm256_storeu_ps(out + 3 * kNr, _mm256_permute2f128_ps(s3, s7, 0x20));
  _mm256_storeu_ps(out + 4 * kNr, _mm256_permute2f128_ps(s0, s4, 0x31));
  _mm256_storeu_ps(out + 5 * kNr, _mm256_permute2f128_ps(s1, s5, 0x31));
  _mm256_storeu_ps(out + 6 * kNr, _mm256_permute2f128_ps(s2, s6, 0x31));
  _mm256_storeu_ps(out + 7 * kNr, _mm256_permute2f128_ps(s3, s7, 0x31));
}

__attribute__((target("avx2"))) void PackTransposedSliverAvx2(
    std::size_t kc, const float* b, std::size_t ldb, float* out) {
  std::size_t p = 0;
  for (; p + 8 <= kc; p += 8) {
    Transpose8x8(b + p, ldb, out + p * kNr);
    Transpose8x8(b + 8 * ldb + p, ldb, out + p * kNr + 8);
  }
  PackTransposedSliverScalar(kc - p, b + p, ldb, out + p * kNr);
}

#endif  // AF_KERNELS_X86

}  // namespace

void MicroKernel(std::size_t kc, const float* ap, const float* bp,
                 std::size_t ldb, float* c, std::size_t ldc, TileStore store,
                 const float* bias) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    MicroKernelAvx2(kc, ap, bp, ldb, c, ldc, store, bias);
    return;
  }
#endif
  MicroKernelScalar(kc, ap, bp, ldb, c, ldc, store, bias);
}

void PackTransposedSliver(std::size_t kc, const float* b, std::size_t ldb,
                          float* out) {
#if AF_KERNELS_X86
  if (ActiveIsa() == Isa::kAvx2) {
    PackTransposedSliverAvx2(kc, b, ldb, out);
    return;
  }
#endif
  PackTransposedSliverScalar(kc, b, ldb, out);
}

}  // namespace tensor::kernels
