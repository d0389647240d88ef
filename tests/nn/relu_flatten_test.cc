#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/flatten.h"
#include "nn/relu.h"

namespace nn {
namespace {

TEST(ReLUTest, ClampsNegativesToZero) {
  ReLU relu;
  tensor::Tensor in({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  tensor::Tensor out = relu.Forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  tensor::Tensor in({1, 3}, {-1.0f, 0.5f, 0.0f});
  relu.Forward(in);
  tensor::Tensor grad_out({1, 3}, {10.0f, 10.0f, 10.0f});
  tensor::Tensor grad_in = relu.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 10.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);  // gradient at exactly 0 is 0
}

TEST(ReLUTest, KeepsNegativeZeroAndNaN) {
  // x < 0 ? 0 : x: -0.0 and NaN are not < 0, so they pass through; the
  // backward pass zeroes where the input is <= 0, which NaN is not.
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  tensor::Tensor in({1, 3}, {-0.0f, nan, -2.0f});
  tensor::Tensor out = relu.Forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_TRUE(std::signbit(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_FALSE(std::signbit(out[2]));
  tensor::Tensor grad_in =
      relu.Backward(tensor::Tensor({1, 3}, {-5.0f, -0.0f, 4.0f}));
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_FALSE(std::signbit(grad_in[0]));
  EXPECT_TRUE(std::signbit(grad_in[1]));  // NaN input: g itself passes
  EXPECT_EQ(grad_in[2], 0.0f);
}

TEST(ReLUTest, HasNoParameters) {
  ReLU relu;
  EXPECT_TRUE(relu.Params().empty());
  EXPECT_TRUE(relu.Grads().empty());
}

TEST(FlattenTest, CollapsesTrailingDims) {
  Flatten flatten;
  tensor::Tensor in({2, 3, 4, 4});
  tensor::Tensor out = flatten.Forward(in);
  EXPECT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 48u);
}

TEST(FlattenTest, BackwardRestoresShape) {
  Flatten flatten;
  tensor::Tensor in({2, 3, 2, 2});
  flatten.Forward(in);
  tensor::Tensor grad_out({2, 12});
  tensor::Tensor grad_in = flatten.Backward(grad_out);
  EXPECT_EQ(grad_in.shape(), in.shape());
}

TEST(FlattenTest, DataOrderPreserved) {
  Flatten flatten;
  tensor::Tensor in({1, 2, 1, 2}, {1, 2, 3, 4});
  tensor::Tensor out = flatten.Forward(in);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(out[i], static_cast<float>(i + 1));
  }
}

}  // namespace
}  // namespace nn
