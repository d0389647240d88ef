#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tensor {
namespace {

float LogicalAt(const Tensor& t, Op op, std::size_t i, std::size_t j) {
  return op == Op::kNone ? t.At(i, j) : t.At(j, i);
}

// Naive triple-loop reference with double accumulation.
void ReferenceGemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b,
                   Tensor& c, const float* bias, float beta) {
  const std::size_t m = c.dim(0), n = c.dim(1);
  const std::size_t k = op_a == Op::kNone ? a.dim(1) : a.dim(0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(LogicalAt(a, op_a, i, p)) *
               LogicalAt(b, op_b, p, j);
      }
      if (bias != nullptr) {
        acc += bias[j];
      }
      const double base = beta != 0.0f ? c.At(i, j) : 0.0;
      c.At(i, j) = static_cast<float>(base + acc);
    }
  }
}

Tensor RandomTensor(Shape shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  t.FillNormal(0.0f, 1.0f, rng);
  return t;
}

struct GemmShape {
  std::size_t m, n, k;
};

// Shapes chosen to cross every blocking boundary: micro-tile remainders
// (6/16 non-multiples), the MC=96 row-tile edge, the KC=256 reduction
// blocks, degenerate 0/1 extents, and LeNet-scale layers.
const GemmShape kShapes[] = {
    {0, 4, 3},   {4, 0, 3},    {4, 3, 0},   {1, 1, 1},   {2, 3, 4},
    {6, 16, 8},  {7, 17, 9},   {5, 20, 513}, {13, 17, 300}, {97, 33, 31},
    {100, 10, 5}, {64, 120, 400}, {12, 130, 37},
};

TEST(GemmTest, MatchesNaiveReferenceAcrossShapesAndTransposes) {
  std::mt19937_64 rng(1234);
  for (const GemmShape& s : kShapes) {
    for (Op op_a : {Op::kNone, Op::kTranspose}) {
      for (Op op_b : {Op::kNone, Op::kTranspose}) {
        Tensor a = RandomTensor(op_a == Op::kNone ? Shape{s.m, s.k}
                                                  : Shape{s.k, s.m},
                                rng);
        Tensor b = RandomTensor(op_b == Op::kNone ? Shape{s.k, s.n}
                                                  : Shape{s.n, s.k},
                                rng);
        Tensor c({s.m, s.n});
        Tensor expected({s.m, s.n});
        Gemm(op_a, op_b, a, b, c);
        ReferenceGemm(op_a, op_b, a, b, expected, nullptr, 0.0f);
        const double tol = 1e-4 * static_cast<double>(s.k + 10);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_NEAR(c[i], expected[i], tol)
              << "shape " << s.m << "x" << s.n << "x" << s.k << " ops "
              << static_cast<int>(op_a) << "," << static_cast<int>(op_b)
              << " index " << i;
        }
      }
    }
  }
}

TEST(GemmTest, BiasEpilogueAndAccumulateMatchReference) {
  std::mt19937_64 rng(99);
  for (const GemmShape& s : kShapes) {
    Tensor a = RandomTensor({s.m, s.k}, rng);
    Tensor b = RandomTensor({s.k, s.n}, rng);
    Tensor bias = RandomTensor({s.n}, rng);

    Tensor c({s.m, s.n});
    Tensor expected({s.m, s.n});
    Gemm(Op::kNone, Op::kNone, a, b, c, bias.data().data());
    ReferenceGemm(Op::kNone, Op::kNone, a, b, expected, bias.data().data(),
                  0.0f);
    const double tol = 1e-4 * static_cast<double>(s.k + 10);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], expected[i], tol) << "bias, index " << i;
    }

    // beta = 1 accumulates on top of existing contents.
    Tensor acc = RandomTensor({s.m, s.n}, rng);
    Tensor acc_expected = acc;
    Gemm(Op::kNone, Op::kNone, a, b, acc, nullptr, 1.0f);
    ReferenceGemm(Op::kNone, Op::kNone, a, b, acc_expected, nullptr, 1.0f);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_NEAR(acc[i], acc_expected[i], tol) << "beta=1, index " << i;
    }
  }
}

TEST(GemmTest, KZeroWritesBiasOrZero) {
  Tensor a({3, 0});
  Tensor b({0, 4});
  Tensor c({3, 4}, std::vector<float>(12, 7.0f));
  Gemm(Op::kNone, Op::kNone, a, b, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_FLOAT_EQ(c[i], 0.0f);
  }
  Tensor bias({4}, {1, 2, 3, 4});
  Gemm(Op::kNone, Op::kNone, a, b, c, bias.data().data());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(c.At(i, j), bias[j]);
    }
  }
}

TEST(GemmTest, BitIdenticalAcrossRunsAndThreadCounts) {
  std::mt19937_64 rng(7);
  Tensor a = RandomTensor({200, 520}, rng);
  Tensor b = RandomTensor({520, 300}, rng);

  Tensor serial1({200, 300});
  Tensor serial2({200, 300});
  Gemm(Op::kNone, Op::kNone, a, b, serial1);
  Gemm(Op::kNone, Op::kNone, a, b, serial2);
  ASSERT_EQ(std::memcmp(serial1.data().data(), serial2.data().data(),
                        serial1.size() * sizeof(float)),
            0)
      << "repeated serial runs differ";

  for (std::size_t threads : {2u, 4u, 7u}) {
    util::ThreadPool pool(threads);
    Tensor parallel({200, 300});
    Sgemm(Op::kNone, Op::kNone, 200, 300, 520, a.data().data(), 520,
          b.data().data(), 300, parallel.data().data(), 300, nullptr, 0.0f,
          &pool);
    ASSERT_EQ(std::memcmp(serial1.data().data(), parallel.data().data(),
                          serial1.size() * sizeof(float)),
              0)
        << "serial vs " << threads << " threads differ";
  }
}

// A rows × cols matrix stored with a row stride wider than its width. The
// padding holds NaN, so an operand read past the logical width poisons the
// result, and a C write past it shows up as changed padding bytes.
struct Strided {
  std::size_t rows, cols, ld;
  std::vector<float> data;

  Strided(std::size_t r, std::size_t c, std::size_t pad, std::mt19937_64& rng)
      : rows(r), cols(c), ld(c + pad),
        data(r * (c + pad), std::numeric_limits<float>::quiet_NaN()) {
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        data[i * ld + j] = dist(rng);
      }
    }
  }
  float At(Op op, std::size_t i, std::size_t j) const {
    return op == Op::kNone ? data[i * ld + j] : data[j * ld + i];
  }
};

enum class Store { kAssign, kBias, kAccumulate };

// The blocked driver's arithmetic, element by element: per 256-deep K block
// a float chain from +0 in ascending k (a fused multiply-add per step on
// AVX2, a multiply then an add on the scalar path), landed as C = block
// (+ bias) for the first block of an overwrite and C += block otherwise.
void ContractGemm(Op op_a, Op op_b, std::size_t m, std::size_t n,
                  std::size_t k, const Strided& a, const Strided& b,
                  const float* bias, bool accumulate, bool fused,
                  Strided& c) {
  constexpr std::size_t kBlock = 256;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float cij = c.data[i * c.ld + j];
      for (std::size_t pb = 0; pb < k; pb += kBlock) {
        float acc = 0.0f;
        for (std::size_t p = pb; p < std::min(k, pb + kBlock); ++p) {
          const float x = a.At(op_a, i, p);
          const float y = b.At(op_b, p, j);
          acc = fused ? std::fma(x, y, acc) : acc + x * y;
        }
        if (pb == 0 && !accumulate) {
          cij = bias != nullptr ? acc + bias[j] : acc;
        } else {
          cij += acc;
        }
      }
      c.data[i * c.ld + j] = cij;
    }
  }
}

// Every output byte equals the contract emulation under both ISAs, for all
// four transpose pairs and all three C updates, with row strides wider than
// the logical widths (NaN in the padding) and shapes crossing kMr = 6,
// kNr = 16, MC = 96, KC = 256 and NC = 2048, serial and pooled.
TEST(GemmTest, MatchesBlockedContractBitForBit) {
  const GemmShape shapes[] = {{1, 1, 1},     {6, 16, 256},   {7, 17, 257},
                              {13, 18, 12},  {97, 33, 513},  {100, 2049, 3},
                              {54, 4100, 6}, {12, 2063, 257}};
  util::ThreadPool pool(3);
  std::mt19937_64 rng(515);
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2}) {
    kernels::ForceIsa(isa);
    const bool fused = kernels::ActiveIsa() == kernels::Isa::kAvx2;
    for (const GemmShape& s : shapes) {
      for (Op op_a : {Op::kNone, Op::kTranspose}) {
        for (Op op_b : {Op::kNone, Op::kTranspose}) {
          const Strided a = op_a == Op::kNone ? Strided(s.m, s.k, 3, rng)
                                              : Strided(s.k, s.m, 3, rng);
          const Strided b = op_b == Op::kNone ? Strided(s.k, s.n, 5, rng)
                                              : Strided(s.n, s.k, 5, rng);
          const Strided bias(1, s.n, 0, rng);
          for (Store store : {Store::kAssign, Store::kBias,
                              Store::kAccumulate}) {
            const bool accumulate = store == Store::kAccumulate;
            const float* pbias =
                store == Store::kBias ? bias.data.data() : nullptr;
            Strided expected(s.m, s.n, 7, rng);
            Strided serial = expected;
            Strided pooled = expected;
            ContractGemm(op_a, op_b, s.m, s.n, s.k, a, b, pbias,
                         accumulate, fused, expected);
            for (Strided* c : {&serial, &pooled}) {
              Sgemm(op_a, op_b, s.m, s.n, s.k, a.data.data(), a.ld,
                    b.data.data(), b.ld, c->data.data(), c->ld,
                    pbias, accumulate ? 1.0f : 0.0f,
                    c == &pooled ? &pool : nullptr);
              ASSERT_EQ(std::memcmp(c->data.data(), expected.data.data(),
                                    expected.data.size() * sizeof(float)),
                        0)
                  << (fused ? "avx2" : "scalar") << " shape " << s.m << "x"
                  << s.n << "x" << s.k << " ops " << static_cast<int>(op_a)
                  << "," << static_cast<int>(op_b) << " store "
                  << static_cast<int>(store)
                  << (c == &pooled ? " pooled" : " serial");
            }
          }
        }
      }
    }
  }
  kernels::ResetForcedIsa();
}

TEST(GemmTest, ScalarAndAvx2PathsAgree) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  std::mt19937_64 rng(21);
  Tensor a = RandomTensor({37, 301}, rng);
  Tensor b = RandomTensor({301, 45}, rng);
  Tensor scalar({37, 45});
  Tensor avx2({37, 45});
  kernels::ForceIsa(kernels::Isa::kScalar);
  Gemm(Op::kNone, Op::kNone, a, b, scalar);
  kernels::ForceIsa(kernels::Isa::kAvx2);
  Gemm(Op::kNone, Op::kNone, a, b, avx2);
  kernels::ResetForcedIsa();
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_NEAR(scalar[i], avx2[i], 1e-3) << "index " << i;
  }
}

// Regression for the seed's `if (av == 0.0f) continue;` shortcut, which
// silently dropped NaN/Inf propagation from the other operand.
TEST(GemmTest, ZeroTimesNaNPropagates) {
  Tensor a({2, 2});  // all zeros
  Tensor b({2, 2});
  b.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  Tensor c({2, 2});
  Gemm(Op::kNone, Op::kNone, a, b, c);
  EXPECT_TRUE(std::isnan(c.At(0, 0)));
  EXPECT_TRUE(std::isnan(c.At(1, 0)));

  Tensor at({2, 2});
  Tensor ct({2, 2});
  Gemm(Op::kTranspose, Op::kNone, at, b, ct);
  EXPECT_TRUE(std::isnan(ct.At(0, 0)));
}

TEST(GemmTest, RecordsObsCounters) {
  auto& reg = obs::DefaultRegistry();
  const std::uint64_t calls_before = reg.GetCounter("gemm.calls").Value();
  const std::uint64_t flops_before = reg.GetCounter("gemm.flops").Value();
  std::mt19937_64 rng(3);
  Tensor a = RandomTensor({8, 12}, rng);
  Tensor b = RandomTensor({12, 5}, rng);
  Tensor c({8, 5});
  Gemm(Op::kNone, Op::kNone, a, b, c);
  EXPECT_EQ(reg.GetCounter("gemm.calls").Value(), calls_before + 1);
  EXPECT_EQ(reg.GetCounter("gemm.flops").Value(),
            flops_before + 2ull * 8 * 5 * 12);
  EXPECT_GT(reg.GetCounter("gemm.bytes_packed").Value(), 0u);
}

TEST(GemmTest, CountersSurviveRegistryReset) {
  auto& reg = obs::DefaultRegistry();
  std::mt19937_64 rng(4);
  Tensor a = RandomTensor({7, 9}, rng);
  Tensor b = RandomTensor({9, 20}, rng);
  Tensor c({7, 20});
  Gemm(Op::kNone, Op::kNone, a, b, c);  // resolves this thread's counters
  reg.Reset();                          // frees them
  Gemm(Op::kNone, Op::kNone, a, b, c);
  EXPECT_EQ(reg.GetCounter("gemm.calls").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("gemm.flops").Value(), 2ull * 7 * 20 * 9);
  // A is one ragged 6-row panel pair, B one ragged 16-column sliver: the
  // in-place sliver of the untransposed B is not packed.
  EXPECT_EQ(reg.GetCounter("gemm.bytes_packed").Value(),
            (12u * 9 + 9 * 16) * sizeof(float));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c({2, 2});
  Gemm(Op::kNone, Op::kNone, a, b, c);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityLeavesMatrixUnchanged) {
  Tensor eye({3, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    eye.At(i, i) = 1.0f;
  }
  Tensor m({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor out({3, 3});
  Gemm(Op::kNone, Op::kNone, eye, m, out);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(out[i], m[i]);
  }
}

TEST(MatMulTest, DimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 2});
  Tensor c({2, 2});
  EXPECT_THROW(Gemm(Op::kNone, Op::kNone, a, b, c), util::CheckError);
}

TEST(MatMulTransposeBTest, MatchesExplicitTranspose) {
  util::RngFactory rngs(11);
  auto rng = rngs.Stream("ops");
  Tensor a({4, 5});
  Tensor b({3, 5});  // B^T is 5×3
  a.FillNormal(0.0f, 1.0f, rng);
  b.FillNormal(0.0f, 1.0f, rng);
  Tensor bt({5, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      bt.At(j, i) = b.At(i, j);
    }
  }
  Tensor expected({4, 3});
  Gemm(Op::kNone, Op::kNone, a, bt, expected);
  Tensor actual({4, 3});
  Gemm(Op::kNone, Op::kTranspose, a, b, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4);
  }
}

TEST(MatMulTransposeATest, MatchesExplicitTranspose) {
  util::RngFactory rngs(12);
  auto rng = rngs.Stream("ops");
  Tensor a({6, 4});  // A^T is 4×6
  Tensor b({6, 3});
  a.FillNormal(0.0f, 1.0f, rng);
  b.FillNormal(0.0f, 1.0f, rng);
  Tensor at({4, 6});
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      at.At(j, i) = a.At(i, j);
    }
  }
  Tensor expected({4, 3});
  Gemm(Op::kNone, Op::kNone, at, b, expected);
  Tensor actual({4, 3});
  Gemm(Op::kTranspose, Op::kNone, a, b, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4);
  }
}

TEST(GemmTest, MismatchedShapesThrow) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  Tensor c({2, 2});
  EXPECT_THROW(Gemm(Op::kNone, Op::kNone, a, b, c), util::CheckError);
  Tensor bias({2});
  Tensor b_ok({3, 2});
  EXPECT_THROW(Gemm(Op::kNone, Op::kNone, a, b_ok, c, bias.data().data(), 1.0f),
               util::CheckError);
}

}  // namespace
}  // namespace tensor
