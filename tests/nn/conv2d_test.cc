#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/maxpool2d.h"
#include "nn/relu.h"
#include "util/check.h"
#include "util/rng.h"

namespace nn {
namespace {

std::mt19937_64 Rng(std::uint64_t seed = 1) {
  return util::RngFactory(seed).Stream("test");
}

TEST(Conv2dTest, OutputShapeWithPadding) {
  auto rng = Rng();
  Conv2d conv(1, 4, 3, 1, rng);
  tensor::Tensor in({2, 1, 8, 8});
  tensor::Tensor out = conv.Forward(in);
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 4u);
  EXPECT_EQ(out.dim(2), 8u);  // same padding
  EXPECT_EQ(out.dim(3), 8u);
}

TEST(Conv2dTest, OutputShapeWithoutPadding) {
  auto rng = Rng();
  Conv2d conv(1, 2, 3, 0, rng);
  tensor::Tensor in({1, 1, 5, 5});
  tensor::Tensor out = conv.Forward(in);
  EXPECT_EQ(out.dim(2), 3u);
  EXPECT_EQ(out.dim(3), 3u);
}

TEST(Conv2dTest, KernelTallerThanInputThrows) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 0, rng);
  tensor::Tensor in({1, 1, 2, 5});
  EXPECT_THROW(conv.Forward(in), util::CheckError);
}

TEST(Conv2dTest, KernelWiderThanInputThrows) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 0, rng);
  tensor::Tensor in({1, 1, 5, 2});
  EXPECT_THROW(conv.Forward(in), util::CheckError);
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 1, rng);
  // Kernel = delta at centre, bias = 0.
  conv.Params()[0]->Fill(0.0f);
  (*conv.Params()[0])[4] = 1.0f;  // centre of 3×3
  conv.Params()[1]->Fill(0.0f);
  tensor::Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i);
  }
  tensor::Tensor out = conv.Forward(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(Conv2dTest, AveragingKernelComputesLocalMean) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 0, rng);
  conv.Params()[0]->Fill(1.0f / 9.0f);
  conv.Params()[1]->Fill(0.0f);
  tensor::Tensor in({1, 1, 3, 3});
  in.Fill(2.0f);
  tensor::Tensor out = conv.Forward(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], 2.0f, 1e-6);
}

TEST(Conv2dTest, BiasIsAddedPerChannel) {
  auto rng = Rng();
  Conv2d conv(1, 2, 1, 0, rng);
  conv.Params()[0]->Fill(0.0f);
  (*conv.Params()[1])[0] = 1.5f;
  (*conv.Params()[1])[1] = -2.5f;
  tensor::Tensor in({1, 1, 2, 2});
  tensor::Tensor out = conv.Forward(in);
  EXPECT_FLOAT_EQ(out.At(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.At(0, 1, 1, 1), -2.5f);
}

TEST(Conv2dTest, BackwardReturnsInputShapedGradient) {
  auto rng = Rng();
  Conv2d conv(2, 3, 3, 1, rng);
  tensor::Tensor in({2, 2, 4, 4});
  in.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor out = conv.Forward(in);
  tensor::Tensor grad_out(out.shape());
  grad_out.Fill(1.0f);
  tensor::Tensor grad_in = conv.Backward(grad_out);
  EXPECT_EQ(grad_in.shape(), in.shape());
}

TEST(Conv2dTest, BiasGradientIsSumOfOutputGradients) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 1, rng);
  tensor::Tensor in({1, 1, 4, 4});
  conv.Forward(in);
  tensor::Tensor grad_out({1, 1, 4, 4});
  grad_out.Fill(0.5f);
  conv.Backward(grad_out);
  EXPECT_NEAR((*conv.Grads()[1])[0], 8.0f, 1e-5);  // 16 cells × 0.5
}

TEST(Conv2dTest, OneByOneConvEqualsPerPixelDense) {
  // A 1×1 convolution is a Dense layer applied at every pixel; verify the
  // two implementations agree on shared weights.
  auto rng = Rng(5);
  Conv2d conv(3, 2, 1, 0, rng);
  tensor::Tensor in({1, 3, 2, 2});
  in.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor out = conv.Forward(in);
  const auto& w = conv.Params()[0]->vec();   // (2, 3, 1, 1)
  const auto& b = conv.Params()[1]->vec();   // (2)
  for (std::size_t oc = 0; oc < 2; ++oc) {
    for (std::size_t px = 0; px < 4; ++px) {
      float expected = b[oc];
      for (std::size_t ic = 0; ic < 3; ++ic) {
        expected += w[oc * 3 + ic] * in[ic * 4 + px];
      }
      EXPECT_NEAR(out[oc * 4 + px], expected, 1e-5);
    }
  }
}

TEST(Conv2dTest, TranslationEquivariance) {
  // Shifting the input by one pixel shifts the (interior of the) output by
  // the same amount — the defining property of a convolution.
  auto rng = Rng(6);
  Conv2d conv(1, 1, 3, 1, rng);
  tensor::Tensor a({1, 1, 6, 6});
  a.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor b({1, 1, 6, 6});
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j + 1 < 6; ++j) {
      b.At(0, 0, i, j + 1) = a.At(0, 0, i, j);
    }
  }
  tensor::Tensor oa = conv.Forward(a);
  tensor::Tensor ob = conv.Forward(b);
  for (std::size_t i = 1; i + 1 < 6; ++i) {
    for (std::size_t j = 1; j + 2 < 6; ++j) {
      EXPECT_NEAR(ob.At(0, 0, i, j + 1), oa.At(0, 0, i, j), 1e-5);
    }
  }
}

TEST(Conv2dTest, AccumulateGradsMatchesBackwardParameterGradients) {
  for (ConvEpilogue epilogue : {ConvEpilogue::kNone, ConvEpilogue::kRelu,
                                ConvEpilogue::kReluMaxPool2}) {
    auto rng = Rng(8);
    Conv2d conv(2, 3, 3, 1, epilogue, rng);
    tensor::Tensor in({3, 2, 6, 4});
    in.FillNormal(0.0f, 1.0f, rng);
    tensor::Tensor out = conv.Forward(in);
    tensor::Tensor grad_out(out.shape());
    grad_out.FillNormal(0.0f, 1.0f, rng);

    conv.Backward(grad_out);
    const std::vector<float> dw = conv.Grads()[0]->vec();
    const std::vector<float> db = conv.Grads()[1]->vec();
    conv.ZeroGrads();
    conv.AccumulateGrads(grad_out);
    EXPECT_EQ(conv.Grads()[0]->vec(), dw);
    EXPECT_EQ(conv.Grads()[1]->vec(), db);
  }
}

// Direct convolution in double, straight from the definition: no im2col,
// no col2im, no GEMM. Returns the output and, for `grad_out`, dW, db, dX.
struct DirectConv {
  std::vector<double> out, dw, db, dx;
};

DirectConv DirectConvolution(const tensor::Tensor& x, const tensor::Tensor& w,
                             const tensor::Tensor& b,
                             const tensor::Tensor& grad_out,
                             std::size_t pad) {
  const std::size_t batch = x.dim(0), cin = x.dim(1), h = x.dim(2),
                    wd = x.dim(3);
  const std::size_t cout = w.dim(0), k = w.dim(2);
  const std::size_t ho = h + 2 * pad - k + 1, wo = wd + 2 * pad - k + 1;
  DirectConv r{std::vector<double>(batch * cout * ho * wo),
               std::vector<double>(w.size()), std::vector<double>(cout),
               std::vector<double>(x.size())};
  auto xi = [&](std::size_t n, std::size_t c, std::size_t i, std::size_t j) {
    return ((n * cin + c) * h + i) * wd + j;
  };
  auto wi = [&](std::size_t o, std::size_t c, std::size_t ki, std::size_t kj) {
    return ((o * cin + c) * k + ki) * k + kj;
  };
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < cout; ++o) {
      for (std::size_t i = 0; i < ho; ++i) {
        for (std::size_t j = 0; j < wo; ++j) {
          const std::size_t at = ((n * cout + o) * ho + i) * wo + j;
          const double g = grad_out[at];
          double acc = b[o];
          r.db[o] += g;
          for (std::size_t c = 0; c < cin; ++c) {
            for (std::size_t ki = 0; ki < k; ++ki) {
              for (std::size_t kj = 0; kj < k; ++kj) {
                const long ii = long(i + ki) - long(pad);
                const long jj = long(j + kj) - long(pad);
                if (ii < 0 || jj < 0 || ii >= long(h) || jj >= long(wd)) {
                  continue;
                }
                const std::size_t xat = xi(n, c, ii, jj);
                const std::size_t wat = wi(o, c, ki, kj);
                acc += static_cast<double>(w[wat]) * x[xat];
                r.dw[wat] += g * x[xat];
                r.dx[xat] += g * w[wat];
              }
            }
          }
          r.out[at] = acc;
        }
      }
    }
  }
  return r;
}

void ExpectClose(const std::vector<float>& actual,
                 const std::vector<double>& expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_NEAR(actual[i], expected[i], 1e-4 * (1.0 + std::fabs(expected[i])))
        << what << " index " << i;
  }
}

// Checks Forward and Backward against the definition of a convolution, so
// an im2col or col2im indexing bug cannot hide behind a shared patch path.
// Covers padding >= kernel and non-square inputs.
TEST(Conv2dTest, MatchesDirectConvolution) {
  auto rng = Rng(31);
  for (std::size_t kernel : {1u, 2u, 3u, 5u}) {
    for (std::size_t pad : {0u, 1u, 2u, 3u}) {
      for (std::size_t batch : {1u, 3u}) {
        for (std::size_t channels : {1u, 3u}) {
          SCOPED_TRACE(testing::Message()
                       << "kernel " << kernel << " pad " << pad << " batch "
                       << batch << " channels " << channels);
          Conv2d conv(channels, 2, kernel, pad, rng);
          conv.Params()[1]->FillNormal(0.0f, 1.0f, rng);
          tensor::Tensor x({batch, channels, 6, 7});
          x.FillNormal(0.0f, 1.0f, rng);
          tensor::Tensor out = conv.Forward(x);
          tensor::Tensor grad_out(out.shape());
          grad_out.FillNormal(0.0f, 1.0f, rng);
          tensor::Tensor dx = conv.Backward(grad_out);

          const DirectConv ref =
              DirectConvolution(x, *conv.Params()[0], *conv.Params()[1],
                                grad_out, pad);
          ExpectClose(out.vec(), ref.out, "output");
          ExpectClose(conv.Grads()[0]->vec(), ref.dw, "dW");
          ExpectClose(conv.Grads()[1]->vec(), ref.db, "db");
          ExpectClose(dx.vec(), ref.dx, "dX");
        }
      }
    }
  }
}

TEST(Conv2dTest, FusedPoolNeedsEvenOutput) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 1, ConvEpilogue::kReluMaxPool2, rng);
  tensor::Tensor in({1, 1, 5, 4});
  EXPECT_THROW(conv.Forward(in), util::CheckError);
}

TEST(Conv2dTest, FusedBackwardChecksPooledGradientShape) {
  auto rng = Rng();
  Conv2d conv(1, 2, 3, 1, ConvEpilogue::kReluMaxPool2, rng);
  tensor::Tensor in({1, 1, 4, 4});
  EXPECT_EQ(conv.Forward(in).shape(), (tensor::Shape{1, 2, 2, 2}));
  tensor::Tensor unpooled({1, 2, 4, 4});
  EXPECT_THROW(conv.Backward(unpooled), util::CheckError);
}

// --- Fused epilogue vs the reference Conv2d → ReLU → MaxPool2d stack -----

bool SameBytes(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

// Values that make ReLU and pooling hit their edge cases: exact ties,
// exact zeros of both signs, negatives (all-negative windows) and NaN.
float EdgeValue(std::mt19937_64& rng, bool with_nan) {
  std::uniform_int_distribution<int> pick(0, 19);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  const int p = pick(rng);
  if (p < 8) return normal(rng);
  if (p < 10) return -0.0f;
  if (p < 11) return 0.0f;
  if (p < 13) return 1.0f;
  if (p < 15) return -1.0f;
  if (p < 17) return 2.0f;
  if (p < 19) return -std::abs(normal(rng));
  return with_nan ? std::numeric_limits<float>::quiet_NaN() : 0.5f;
}

struct FusedCase {
  ConvEpilogue epilogue;
  std::size_t batch, in, out, kernel, padding, h, w;
  bool integer_weights;  // weights in {-1, 0, 1}: exact ties between pixels
  bool nan_input;
};

// Runs one case through both paths and compares every output bit.
void ExpectFusedMatchesReference(const FusedCase& c, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " batch " << c.batch << " in " << c.in
               << " out " << c.out << " k " << c.kernel << " pad "
               << c.padding << " h " << c.h << " w " << c.w);
  const bool pool = c.epilogue == ConvEpilogue::kReluMaxPool2;
  auto rng_ref = Rng(seed);
  auto rng_fused = Rng(seed);
  Conv2d ref(c.in, c.out, c.kernel, c.padding, rng_ref);
  Conv2d fused(c.in, c.out, c.kernel, c.padding, c.epilogue, rng_fused);
  ASSERT_EQ(ref.Params()[0]->vec(), fused.Params()[0]->vec());

  auto rng = Rng(seed + 1000);
  if (c.integer_weights) {
    std::uniform_int_distribution<int> pick(-1, 1);
    for (float& v : ref.Params()[0]->vec()) {
      v = static_cast<float>(pick(rng));
    }
    for (float& v : ref.Params()[1]->vec()) {
      v = pick(rng) == 0 ? -0.0f : 0.0f;
    }
  } else {
    ref.Params()[1]->FillNormal(0.0f, 0.5f, rng);
  }
  *fused.Params()[0] = *ref.Params()[0];
  *fused.Params()[1] = *ref.Params()[1];

  tensor::Tensor x({c.batch, c.in, c.h, c.w});
  for (float& v : x.vec()) {
    v = EdgeValue(rng, c.nan_input);
  }
  if (c.nan_input) {
    // A NaN block in the last sample: with a 1×1 kernel it makes whole
    // pooling windows NaN, with wider kernels it spreads into them.
    for (std::size_t i = 0; i < std::min<std::size_t>(2, c.h); ++i) {
      for (std::size_t j = 0; j < std::min<std::size_t>(2, c.w); ++j) {
        x.At(c.batch - 1, 0, i, j) = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }

  ReLU relu;
  MaxPool2d maxpool(2);
  tensor::Tensor want = relu.Forward(ref.Forward(x));
  if (pool) {
    want = maxpool.Forward(want);
  }
  const tensor::Tensor got = fused.Forward(x);
  ASSERT_TRUE(SameBytes(got, want)) << "forward output differs";

  tensor::Tensor grad_out(want.shape());
  for (float& v : grad_out.vec()) {
    v = EdgeValue(rng, /*with_nan=*/false);
  }
  tensor::Tensor grad = grad_out;
  if (pool) {
    grad = maxpool.Backward(grad);
  }
  const tensor::Tensor want_dx = ref.Backward(relu.Backward(grad));
  const tensor::Tensor got_dx = fused.Backward(grad_out);
  EXPECT_TRUE(SameBytes(got_dx, want_dx)) << "input gradient differs";
  EXPECT_TRUE(SameBytes(*fused.Grads()[0], *ref.Grads()[0]))
      << "weight gradient differs";
  EXPECT_TRUE(SameBytes(*fused.Grads()[1], *ref.Grads()[1]))
      << "bias gradient differs";
}

TEST(Conv2dFusedTest, MatchesReferenceStackBitForBit) {
  auto rng = Rng(99);
  std::uniform_int_distribution<std::size_t> small(1, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  int cases = 0;
  for (ConvEpilogue epilogue :
       {ConvEpilogue::kRelu, ConvEpilogue::kReluMaxPool2}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      FusedCase c;
      c.epilogue = epilogue;
      c.batch = small(rng);
      c.in = small(rng);
      c.out = small(rng) + 1;
      c.kernel = coin(rng) ? 3 : 1;
      c.padding = c.kernel == 3 ? static_cast<std::size_t>(coin(rng)) : 0;
      // Output side 2·small (even, as the fused pool needs); input side
      // follows from the kernel and padding.
      const std::size_t ho = 2 * small(rng), wo = 2 * small(rng);
      c.h = ho + c.kernel - 1 - 2 * c.padding;
      c.w = wo + c.kernel - 1 - 2 * c.padding;
      c.integer_weights = seed % 2 == 0;
      c.nan_input = seed % 5 == 0;
      ExpectFusedMatchesReference(c, seed);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 80);
}


TEST(Conv2dFusedTest, AllNaNWindowPassesItsGradientToSlotZero) {
  // A 1×1 identity conv makes the pre-activations equal the input, so the
  // second sample's window is all NaN: its pooled value is -inf (no element
  // beats it) and its gradient goes to the window's first element, whose
  // NaN pre-activation passes ReLU.
  auto rng = Rng();
  Conv2d fused(1, 1, 1, 0, ConvEpilogue::kReluMaxPool2, rng);
  fused.Params()[0]->Fill(1.0f);
  fused.Params()[1]->Fill(0.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  tensor::Tensor x({2, 1, 2, 2}, {-1.0f, 3.0f, 3.0f, 2.0f, nan, nan, nan, nan});
  const tensor::Tensor out = fused.Forward(x);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
  const tensor::Tensor dx =
      fused.Backward(tensor::Tensor({2, 1, 1, 1}, {1.5f, 2.5f}));
  const std::vector<float> want = {0.0f, 1.5f, 0.0f, 0.0f,
                                   2.5f, 0.0f, 0.0f, 0.0f};
  // dx = Wᵀ·g with W = 1, so dx equals the routed gradient.
  EXPECT_EQ(dx.vec(), want);
}

}  // namespace
}  // namespace nn
