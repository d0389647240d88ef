#include "nn/maxpool2d.h"

#include <limits>

#include "util/check.h"

namespace nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  AF_CHECK_GT(window, 0u);
}

tensor::Tensor MaxPool2d::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u);
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  AF_CHECK_EQ(h % window_, 0u) << "height not divisible by pooling window";
  AF_CHECK_EQ(w % window_, 0u) << "width not divisible by pooling window";
  const std::size_t ho = h / window_, wo = w / window_;

  cached_shape_ = input.shape();
  tensor::Tensor out({batch, channels, ho, wo});
  argmax_.resize(out.size());
  const float* in = input.data().data();
  std::size_t oi = 0;
  for (std::size_t plane = 0; plane < batch * channels; ++plane) {
    for (std::size_t i = 0; i < ho; ++i) {
      for (std::size_t j = 0; j < wo; ++j, ++oi) {
        // First strict maximum wins, as selects rather than branches. An
        // all-NaN (or all -inf) window routes its gradient to its own first
        // element.
        const std::size_t first = (plane * h + i * window_) * w + j * window_;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = first;
        for (std::size_t di = 0; di < window_; ++di) {
          for (std::size_t dj = 0; dj < window_; ++dj) {
            const std::size_t flat = first + di * w + dj;
            const float v = in[flat];
            const bool better = v > best;
            best = better ? v : best;
            best_idx = better ? flat : best_idx;
          }
        }
        out[oi] = best;
        argmax_[oi] = best_idx;
      }
    }
  }
  return out;
}

tensor::Tensor MaxPool2d::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(grad_output.size(), argmax_.size());
  tensor::Tensor dx(cached_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    dx[argmax_[i]] += grad_output[i];
  }
  return dx;
}

}  // namespace nn
