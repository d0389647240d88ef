// Sequential model container plus the flat-parameter view the FL layer uses.
//
// The server and the defenses treat a model as one flat float vector; the
// Sequential is the only place that knows the layer structure.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace nn {

class Sequential {
 public:
  Sequential() = default;

  // Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  // Runs the full forward pass.
  tensor::Tensor Forward(const tensor::Tensor& input);

  // Propagates dL/d(output) back through every layer, accumulating parameter
  // gradients. The first layer gets Layer::AccumulateGrads, so dL/d(input)
  // is never computed.
  void Backward(const tensor::Tensor& grad_output);

  void ZeroGrads();

  // All parameter / gradient tensors across layers, in layer order.
  std::vector<tensor::Tensor*> Params();
  std::vector<tensor::Tensor*> Grads();

  std::size_t NumParameters() const;
  std::size_t NumLayers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  // Flattened-parameter interop with the FL substrate.
  std::vector<float> GetFlatParams() const;
  void SetFlatParams(std::span<const float> flat);
  std::vector<float> GetFlatGrads() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nn
