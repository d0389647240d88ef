#include "nn/relu.h"

#include "util/check.h"

namespace nn {

// Both passes are selects, not branches: conv activations have nearly
// random signs, so a branch here mispredicts about half the time.

tensor::Tensor ReLU::Forward(const tensor::Tensor& input) {
  cached_input_ = input;
  tensor::Tensor out = input;
  float* x = out.data().data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = x[i] < 0.0f ? 0.0f : x[i];  // keeps -0.0 and NaN
  }
  return out;
}

tensor::Tensor ReLU::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(grad_output.size(), cached_input_.size());
  tensor::Tensor dx = grad_output;
  float* g = dx.data().data();
  const float* in = cached_input_.data().data();
  const std::size_t n = dx.size();
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = in[i] <= 0.0f ? 0.0f : g[i];
  }
  return dx;
}

}  // namespace nn
