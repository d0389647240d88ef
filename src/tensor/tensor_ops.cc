#include "tensor/tensor_ops.h"

#include "tensor/kernels.h"
#include "util/check.h"

namespace tensor {

void AddInto(const Tensor& a, const Tensor& b, Tensor& out) {
  AF_CHECK_EQ(a.size(), b.size());
  AF_CHECK_EQ(a.size(), out.size());
  kernels::Add(a.data().data(), b.data().data(), out.data().data(), a.size());
}

void AddInPlace(Tensor& a, const Tensor& b) {
  AF_CHECK_EQ(a.size(), b.size());
  kernels::AddInPlace(a.data().data(), b.data().data(), a.size());
}

void AddRowBias(Tensor& matrix, const Tensor& bias) {
  AF_CHECK_EQ(matrix.rank(), 2u);
  const std::size_t m = matrix.dim(0), n = matrix.dim(1);
  AF_CHECK_EQ(bias.size(), n);
  float* p = matrix.data().data();
  const float* pb = bias.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    kernels::AddBias(p + i * n, pb, n);
  }
}

void SumRows(const Tensor& matrix, Tensor& out) {
  AF_CHECK_EQ(matrix.rank(), 2u);
  const std::size_t m = matrix.dim(0), n = matrix.dim(1);
  AF_CHECK_EQ(out.size(), n);
  out.Fill(0.0f);
  kernels::SumRowsAccum(matrix.data().data(), m, n, out.data().data());
}

}  // namespace tensor
