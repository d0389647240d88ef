// Layer interface for the hand-written training stack.
//
// There is no autograd graph: each layer caches what its backward pass needs
// during Forward and exposes parameter/gradient tensors to the optimizer.
// This is the entire contract the FL substrate depends on.
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output for a batch-first input and caches whatever
  // the backward pass needs.
  virtual tensor::Tensor Forward(const tensor::Tensor& input) = 0;

  // Given dL/d(output), accumulates parameter gradients (+=) and returns
  // dL/d(input). Must be called after a matching Forward.
  virtual tensor::Tensor Backward(const tensor::Tensor& grad_output) = 0;

  // Accumulates parameter gradients exactly as Backward does, without
  // producing dL/d(input). Sequential calls this on its first layer, whose
  // input gradient nobody reads; layers that can skip that work override it.
  virtual void AccumulateGrads(const tensor::Tensor& grad_output) {
    Backward(grad_output);
  }

  // Trainable parameters and their gradient accumulators, index-aligned.
  // Parameterless layers return empty vectors.
  virtual std::vector<tensor::Tensor*> Params() { return {}; }
  virtual std::vector<tensor::Tensor*> Grads() { return {}; }

  // Zeroes all gradient accumulators.
  void ZeroGrads() {
    for (tensor::Tensor* g : Grads()) {
      g->Fill(0.0f);
    }
  }

  virtual std::string Name() const = 0;
};

}  // namespace nn
