#include "nn/maxpool2d.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"

namespace nn {
namespace {

TEST(MaxPool2dTest, SelectsWindowMaxima) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 4}, {1, 5, 2, 0,
                                   3, 4, 8, 7});
  tensor::Tensor out = pool.Forward(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
}

TEST(MaxPool2dTest, OutputShapeHalves) {
  MaxPool2d pool(2);
  tensor::Tensor in({3, 2, 8, 8});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 2u);
  EXPECT_EQ(out.dim(2), 4u);
  EXPECT_EQ(out.dim(3), 4u);
}

TEST(MaxPool2dTest, BackwardRoutesGradientToArgmax) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {1, 9, 3, 2});
  pool.Forward(in);
  tensor::Tensor grad_out({1, 1, 1, 1}, {2.5f});
  tensor::Tensor grad_in = pool.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 2.5f);  // the max cell
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

TEST(MaxPool2dTest, TiesGoToFirstScanned) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {4, 4, 4, 4});
  pool.Forward(in);
  tensor::Tensor grad_out({1, 1, 1, 1}, {1.0f});
  tensor::Tensor grad_in = pool.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 1.0f);
  EXPECT_FLOAT_EQ(grad_in[1] + grad_in[2] + grad_in[3], 0.0f);
}

TEST(MaxPool2dTest, NonDivisibleInputThrows) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 3, 4});
  EXPECT_THROW(pool.Forward(in), util::CheckError);
}

TEST(MaxPool2dTest, NegativeInputsHandled) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {-5, -1, -3, -2});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
}

TEST(MaxPool2dTest, WindowWithNothingAboveMinusInfRoutesToItsOwnFirstElement) {
  // Sample 0 is ordinary; sample 1's windows are all NaN and all -inf. No
  // element beats the -inf start, so each window's gradient must go to its
  // own first element — not to element 0 of the batch.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  MaxPool2d pool(2);
  tensor::Tensor in({2, 1, 2, 4}, {1, 5, 2, 0,     //
                                   3, 4, 8, 7,     //
                                   nan, nan, ninf, ninf,  //
                                   nan, nan, ninf, ninf});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_EQ(out[2], ninf);
  EXPECT_EQ(out[3], ninf);
  tensor::Tensor grad_out({2, 1, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  tensor::Tensor grad_in = pool.Backward(grad_out);
  const std::vector<float> want = {0, 1, 0, 0,  //
                                   0, 0, 2, 0,  //
                                   3, 0, 4, 0,  //
                                   0, 0, 0, 0};
  EXPECT_EQ(grad_in.vec(), want);
}

}  // namespace
}  // namespace nn
