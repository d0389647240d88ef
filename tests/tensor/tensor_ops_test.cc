#include "tensor/tensor_ops.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace tensor {
namespace {

TEST(AddOpsTest, AddIntoAndInPlace) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  Tensor out({3});
  AddInto(a, b, out);
  EXPECT_FLOAT_EQ(out[2], 33.0f);
  AddInPlace(a, b);
  EXPECT_FLOAT_EQ(a[0], 11.0f);
}

TEST(AddRowBiasTest, AddsBiasToEveryRow) {
  Tensor m({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {1, 2, 3});
  AddRowBias(m, bias);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 3.0f);
}

TEST(SumRowsTest, ColumnSums) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor out({3});
  SumRows(m, out);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
  EXPECT_FLOAT_EQ(out[2], 9.0f);
}

TEST(SumRowsTest, WrongOutputSizeThrows) {
  Tensor m({2, 3});
  Tensor out({2});
  EXPECT_THROW(SumRows(m, out), util::CheckError);
}

}  // namespace
}  // namespace tensor
