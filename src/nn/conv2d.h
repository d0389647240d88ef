// 2-D convolution (stride 1, symmetric zero padding) via whole-batch
// im2col + one GEMM per pass, with an optional fused epilogue.
//
// Activations are NCHW; the weight is (out_channels, in_channels, k, k).
//
// Forward expands the entire batch into one (C·k·k) × (N·Ho·Wo) patch
// matrix and runs a single blocked GEMM against the weight; backward runs
// one GEMM for dW (accumulated in place) and one for the patch gradients,
// which col2im scatters back per sample.
//
// Epilogue: the channel-major GEMM output is written to NCHW with the bias
// added and, when fused, ReLU (and a 2×2 stride-2 max-pool) applied in the
// same pass, so Conv2d(kReluMaxPool2) computes bit for bit what the stack
// Conv2d → ReLU → MaxPool2d(2) computes, forward and backward. Forward keeps
// one byte per returned element: bit s set means the gradient of that
// element flows to window slot s (slot = di·2 + dj; a ReLU-only epilogue
// uses slot 0 of a 1×1 window). A slot's bit is set iff it is the window's
// first strict maximum after ReLU (slot 0 when no element beats -inf) and
// its pre-activation is not <= 0. Backward rebuilds the channel-major output
// gradient from those bits.
//
// Scratch memory: the patch matrices live in per-layer arena buffers that
// are reused across batches (grow-only, freed with the layer). Upper
// bound: 2·patch·N·Ho·Wo floats for the im2col/col2im arenas plus
// 2·out_channels·N·Ho·Wo floats for the flattened activations — batch-scaled
// where the seed per-sample path kept only 2·patch·Ho·Wo, which is the
// price of whole-batch GEMM operands (~a few MB at this repo's model and
// batch sizes). im2col and col2im each add one (H+2p)×(W+2p) padded image
// per thread.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "nn/layer.h"

namespace nn {

// What Conv2d applies to conv + bias before returning it.
enum class ConvEpilogue : std::uint8_t {
  kNone,          // conv + bias
  kRelu,          // ReLU(conv + bias)
  kReluMaxPool2,  // MaxPool2d(2)(ReLU(conv + bias)); Ho and Wo must be even
};

class Conv2d : public Layer {
 public:
  // Plain convolution; the reference the fused epilogues are tested against.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding, std::mt19937_64& rng);
  // Convolution followed by `epilogue`. Same parameters, same initialisation
  // and the same rng draws as the plain constructor.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding, ConvEpilogue epilogue, std::mt19937_64& rng);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  // dW and db only: skips the patch-gradient GEMM and col2im.
  void AccumulateGrads(const tensor::Tensor& grad_output) override;

  std::vector<tensor::Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<tensor::Tensor*> Grads() override {
    return {&grad_weight_, &grad_bias_};
  }

  std::size_t padding() const { return padding_; }
  std::string Name() const override { return "Conv2d"; }

 private:
  // Sizes of one pass, derived from the input shape.
  struct Geometry {
    std::size_t batch, h, w, ho, wo, patch;
    std::size_t howo;  // pixels per output map before pooling
    std::size_t ld;    // columns of the patch matrix: batch · howo
  };
  Geometry GeometryFor(const tensor::Shape& input_shape) const;

  // Writes sample n's (C·k·k) × (Ho·Wo) patch block into the batch patch
  // matrix at `dst` (row stride `ld`), reading each channel from a
  // zero-padded copy; every position is written, so the arena needs no
  // pre-zeroing.
  void Im2ColSample(const tensor::Tensor& input, std::size_t n, std::size_t h,
                    std::size_t w, float* dst, std::size_t ld) const;
  // Sums sample n's patch-gradient block (read from `src`, row stride
  // `ld`) into a zero-padded image per channel and writes its interior
  // into sample n of `grad_input`.
  void Col2ImSample(const float* src, std::size_t ld, std::size_t n,
                    std::size_t h, std::size_t w,
                    tensor::Tensor& grad_input) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t padding_;
  ConvEpilogue epilogue_;
  tensor::Tensor weight_;       // (out, in, k, k)
  tensor::Tensor bias_;         // (out)
  tensor::Tensor grad_weight_;
  tensor::Tensor grad_bias_;
  tensor::Shape cached_shape_;  // (N, C, H, W) of the last Forward input

  // Reused arenas (see the class comment for the memory bound).
  std::vector<float> cols_;      // (patch, N·Ho·Wo) im2col of the input
  std::vector<float> dcols_;     // (patch, N·Ho·Wo) patch gradients
  std::vector<float> out_flat_;  // (out, N·Ho·Wo) channel-major activations
  std::vector<float> gout_flat_; // (out, N·Ho·Wo) channel-major out-grads
  std::vector<std::uint8_t> mask_;  // fused epilogues: gradient routing bits
};

}  // namespace nn
