#include "nn/sequential.h"

#include "util/check.h"

namespace nn {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  AF_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::Forward(const tensor::Tensor& input) {
  AF_CHECK(!layers_.empty());
  tensor::Tensor activation = input;
  for (auto& layer : layers_) {
    activation = layer->Forward(activation);
  }
  return activation;
}

void Sequential::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK(!layers_.empty());
  tensor::Tensor grad = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad = layers_[i]->Backward(grad);
  }
  layers_.front()->AccumulateGrads(grad);
}

void Sequential::ZeroGrads() {
  for (auto& layer : layers_) {
    layer->ZeroGrads();
  }
}

std::vector<tensor::Tensor*> Sequential::Params() {
  std::vector<tensor::Tensor*> params;
  for (auto& layer : layers_) {
    for (tensor::Tensor* p : layer->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<tensor::Tensor*> Sequential::Grads() {
  std::vector<tensor::Tensor*> grads;
  for (auto& layer : layers_) {
    for (tensor::Tensor* g : layer->Grads()) {
      grads.push_back(g);
    }
  }
  return grads;
}

std::size_t Sequential::NumParameters() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    for (tensor::Tensor* p : const_cast<Layer&>(*layer).Params()) {
      total += p->size();
    }
  }
  return total;
}

std::vector<float> Sequential::GetFlatParams() const {
  std::vector<float> flat;
  flat.reserve(NumParameters());
  for (const auto& layer : layers_) {
    for (tensor::Tensor* p : const_cast<Layer&>(*layer).Params()) {
      flat.insert(flat.end(), p->vec().begin(), p->vec().end());
    }
  }
  return flat;
}

void Sequential::SetFlatParams(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (tensor::Tensor* p : layer->Params()) {
      AF_CHECK_LE(offset + p->size(), flat.size());
      std::copy(flat.begin() + offset, flat.begin() + offset + p->size(),
                p->vec().begin());
      offset += p->size();
    }
  }
  AF_CHECK_EQ(offset, flat.size()) << "flat parameter size mismatch";
}

std::vector<float> Sequential::GetFlatGrads() const {
  std::vector<float> flat;
  for (const auto& layer : layers_) {
    for (tensor::Tensor* g : const_cast<Layer&>(*layer).Grads()) {
      flat.insert(flat.end(), g->vec().begin(), g->vec().end());
    }
  }
  return flat;
}

}  // namespace nn
