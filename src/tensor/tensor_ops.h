// Element-wise and row-wise tensor helpers. Matrix products go through
// tensor::Gemm (gemm.h).
#pragma once

#include "tensor/tensor.h"

namespace tensor {

// out = a + b (same shape).
void AddInto(const Tensor& a, const Tensor& b, Tensor& out);

// a += b.
void AddInPlace(Tensor& a, const Tensor& b);

// Adds a row-vector bias (length N) to every row of a (M×N) matrix.
void AddRowBias(Tensor& matrix, const Tensor& bias);

// Sums the rows of a (M×N) matrix into out (length N).
void SumRows(const Tensor& matrix, Tensor& out);

}  // namespace tensor
