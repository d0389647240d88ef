// Dense row-major float tensor.
//
// Deliberately minimal: the NN stack needs contiguous storage, shape
// bookkeeping, the blocked GEMM (gemm.h) and a handful of element-wise
// helpers (tensor_ops.h) — no views, no broadcasting, no autograd graph. Backward passes are written
// by hand per layer, which keeps the whole training stack auditable.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <random>
#include <span>
#include <vector>

namespace tensor {

using Shape = std::vector<std::size_t>;

// Number of elements in a shape (product of dims; empty shape → 0 elements).
std::size_t NumElements(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  // Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor wrapping the given data; data.size() must equal NumElements(shape).
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t axis) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // 2-D accessors (checked rank, unchecked bounds beyond debug).
  float& At(std::size_t r, std::size_t c);
  float At(std::size_t r, std::size_t c) const;

  // 4-D accessor for NCHW activations.
  float& At(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float At(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  // Reinterprets the tensor with a new shape of identical element count.
  void Reshape(Shape new_shape);

  void Fill(float value);

  // In-place random fills.
  void FillUniform(float lo, float hi, std::mt19937_64& rng);
  void FillNormal(float mean, float stddev, std::mt19937_64& rng);

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace tensor
