#include "nn/conv2d.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "util/check.h"

namespace nn {
namespace {

// Copies the n floats of one short image row with fixed-size moves the
// compiler inlines: a library memcpy call per 8-float row costs more than
// the copy itself.
void CopyRow(const float* src, std::size_t n, float* dst) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    std::memcpy(dst + j, src + j, 8 * sizeof(float));
  }
  if (j + 4 <= n) {
    std::memcpy(dst + j, src + j, 4 * sizeof(float));
    j += 4;
  }
  if (j + 2 <= n) {
    std::memcpy(dst + j, src + j, 2 * sizeof(float));
    j += 2;
  }
  if (j < n) {
    dst[j] = src[j];
  }
}

// Epilogues, one output map (one sample, one channel) at a time. `s` is the
// map's ho×wo slice of the channel-major GEMM output, without bias. The
// signs of conv outputs are close to random, so every choice here is a
// select that the compiler can vectorize or a bit mask, never a branch.

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// The reference layers' arithmetic, shared by forward and backward.
float Relu(float x) { return x < 0.0f ? 0.0f : x; }      // keeps -0.0, NaN
bool ReluPasses(float pre) { return !(pre <= 0.0f); }  // ReLU::Backward

// `v` where `keep` is 1, +0.0 where it is 0.
float KeepIf(float v, std::uint32_t keep) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & (0u - keep));
}

void BiasMap(const float* s, float b, std::size_t n, float* out) {
  for (std::size_t px = 0; px < n; ++px) {
    out[px] = s[px] + b;
  }
}

void BiasReluMap(const float* s, float b, std::size_t n, float* out,
                 std::uint8_t* mask) {
  for (std::size_t px = 0; px < n; ++px) {
    const float pre = s[px] + b;
    out[px] = Relu(pre);
    mask[px] = static_cast<std::uint8_t>(ReluPasses(pre));
  }
}

// What MaxPool2d's strict `>` sees of ReLU(pre): NaN becomes -inf, which
// never beats anything, just as a NaN never does.
float PoolKey(float pre) {
  const float act = Relu(pre);
  return act == act ? act : kNegInf;
}

// MaxPool2d(2) over ReLU(s + b) in two passes. The first picks the winner
// of each horizontal pair, over the whole map as one flat loop; the second
// picks between the pairs of two rows. A later element wins only if it is
// strictly greater, which is MaxPool2d's first-strict-maximum scan. An
// all-NaN window has the value -inf and keeps slot 0. The selected element
// passes ReLU iff its pre-activation is not <= 0: iff the key is > 0, or
// for an all-NaN window (key -inf) always, since slot 0 holds a NaN.
void BiasReluPool2Map(const float* s, float b, std::size_t ho, std::size_t wo,
                      float* out, std::uint8_t* mask) {
  const std::size_t wp = wo / 2;
  const std::size_t pairs = ho * wp;
  thread_local std::vector<float> pair_key;
  thread_local std::vector<std::uint8_t> pair_right;
  if (pair_key.size() < pairs) {
    pair_key.resize(pairs);
    pair_right.resize(pairs);
  }
  float* key = pair_key.data();
  std::uint8_t* right = pair_right.data();
  for (std::size_t q = 0; q < pairs; ++q) {
    const float l = PoolKey(s[2 * q] + b);
    const float r = PoolKey(s[2 * q + 1] + b);
    right[q] = r > l;
    key[q] = r > l ? r : l;
  }
  for (std::size_t i = 0; i < ho / 2; ++i) {
    const float* top = key + 2 * i * wp;
    const float* bottom = top + wp;
    const std::uint8_t* top_right = right + 2 * i * wp;
    const std::uint8_t* bottom_right = top_right + wp;
    for (std::size_t j = 0; j < wp; ++j) {
      const bool low = bottom[j] > top[j];
      const float best = low ? bottom[j] : top[j];
      const unsigned slot = low ? 2u + bottom_right[j] : top_right[j];
      const bool passes = (best > 0.0f) | (best == kNegInf);
      out[i * wp + j] = best;
      mask[i * wp + j] = static_cast<std::uint8_t>(unsigned{passes} << slot);
    }
  }
}

// Inverse of BiasReluMap: ReLU::Backward passes g itself where the
// pre-activation was positive (or NaN) and +0 elsewhere.
void ReluGradMap(const float* g, const std::uint8_t* mask, std::size_t n,
                 float* out) {
  for (std::size_t px = 0; px < n; ++px) {
    out[px] = KeepIf(g[px], mask[px]);
  }
}

// Inverse of BiasReluPool2Map. MaxPool2d::Backward computes dx[argmax] += g
// on a zeroed tensor, i.e. 0.0f + g (which turns -0.0 into +0.0), and
// ReLU::Backward then keeps it or writes +0.
void ReluPool2GradMap(const float* g, const std::uint8_t* mask,
                      std::size_t ho, std::size_t wo, float* out) {
  const std::size_t wp = wo / 2;
  for (std::size_t i = 0; i < ho / 2; ++i) {
    float* r0 = out + 2 * i * wo;
    float* r1 = r0 + wo;
    for (std::size_t j = 0; j < wp; ++j) {
      const float gv = 0.0f + g[i * wp + j];
      const std::uint32_t m = mask[i * wp + j];
      r0[2 * j] = KeepIf(gv, m & 1u);
      r0[2 * j + 1] = KeepIf(gv, (m >> 1) & 1u);
      r1[2 * j] = KeepIf(gv, (m >> 2) & 1u);
      r1[2 * j + 1] = KeepIf(gv, (m >> 3) & 1u);
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding, std::mt19937_64& rng)
    : Conv2d(in_channels, out_channels, kernel, padding, ConvEpilogue::kNone,
             rng) {}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding, ConvEpilogue epilogue,
               std::mt19937_64& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding),
      epilogue_(epilogue),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  AF_CHECK_GT(kernel, 0u);
  const float fan_in =
      static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_.FillUniform(-bound, bound, rng);
}

Conv2d::Geometry Conv2d::GeometryFor(const tensor::Shape& input_shape) const {
  Geometry g;
  g.batch = input_shape[0];
  g.h = input_shape[2];
  g.w = input_shape[3];
  g.ho = g.h + 2 * padding_ - kernel_ + 1;
  g.wo = g.w + 2 * padding_ - kernel_ + 1;
  g.patch = in_channels_ * kernel_ * kernel_;
  g.howo = g.ho * g.wo;
  g.ld = g.batch * g.howo;
  return g;
}

void Conv2d::Im2ColSample(const tensor::Tensor& input, std::size_t n,
                          std::size_t h, std::size_t w, float* dst,
                          std::size_t ld) const {
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  const std::size_t wp = w + 2 * padding_;
  // Each channel is copied into a zero-padded image first, so a patch row
  // is ho fixed-length copies with no bounds checks. Only the interior is
  // rewritten per channel; the border stays zero.
  thread_local std::vector<float> tl_padded;
  tl_padded.assign((h + 2 * padding_) * wp, 0.0f);
  float* padded = tl_padded.data();
  const float* in = input.data().data() + n * in_channels_ * h * w;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    const float* plane = in + c * h * w;
    for (std::size_t i = 0; i < h; ++i) {
      CopyRow(plane + i * w, w, padded + (i + padding_) * wp + padding_);
    }
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const std::size_t row = (c * kernel_ + ki) * kernel_ + kj;
        float* d = dst + row * ld;
        const float* s = padded + ki * wp + kj;
        for (std::size_t oi = 0; oi < ho; ++oi) {
          CopyRow(s + oi * wp, wo, d + oi * wo);
        }
      }
    }
  }
}

void Conv2d::Col2ImSample(const float* src, std::size_t ld, std::size_t n,
                          std::size_t h, std::size_t w,
                          tensor::Tensor& grad_input) const {
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  const std::size_t wp = w + 2 * padding_;
  const std::size_t padded_size = (h + 2 * padding_) * wp;
  // Accumulates into a zero-padded image in the (c, ki, kj, oi, oj) order
  // of a direct scatter, so every interior element sees the same adds from
  // the same +0 start; the border collects the padding's gradients and is
  // dropped. A sum that starts at +0 is never -0, so writing the interior
  // over grad_input's zeros equals adding it.
  thread_local std::vector<float> tl_padded;
  if (tl_padded.size() < padded_size) {
    tl_padded.resize(padded_size);
  }
  float* padded = tl_padded.data();
  float* out = grad_input.data().data() + n * in_channels_ * h * w;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    std::fill(padded, padded + padded_size, 0.0f);
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const std::size_t row = (c * kernel_ + ki) * kernel_ + kj;
        const float* s = src + row * ld;
        float* o = padded + ki * wp + kj;
        for (std::size_t oi = 0; oi < ho; ++oi) {
          for (std::size_t oj = 0; oj < wo; ++oj) {
            o[oi * wp + oj] += s[oi * wo + oj];
          }
        }
      }
    }
    float* plane = out + c * h * w;
    for (std::size_t i = 0; i < h; ++i) {
      CopyRow(padded + (i + padding_) * wp + padding_, w, plane + i * w);
    }
  }
}

tensor::Tensor Conv2d::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u);
  AF_CHECK_EQ(input.dim(1), in_channels_);
  AF_CHECK_GE(input.dim(2) + 2 * padding_ + 1, kernel_ + 1)
      << "kernel taller than input";
  AF_CHECK_GE(input.dim(3) + 2 * padding_ + 1, kernel_ + 1)
      << "kernel wider than input";
  const Geometry g = GeometryFor(input.shape());
  const bool pool = epilogue_ == ConvEpilogue::kReluMaxPool2;
  if (pool) {
    AF_CHECK_EQ(g.ho % 2, 0u) << "fused pool needs an even output height";
    AF_CHECK_EQ(g.wo % 2, 0u) << "fused pool needs an even output width";
  }

  cached_shape_ = input.shape();

  // Whole-batch im2col into the reused arena: sample n owns columns
  // [n·howo, (n+1)·howo) of the (patch × N·Ho·Wo) matrix.
  if (cols_.size() < g.patch * g.ld) {
    cols_.resize(g.patch * g.ld);
  }
  for (std::size_t n = 0; n < g.batch; ++n) {
    Im2ColSample(input, n, g.h, g.w, cols_.data() + n * g.howo, g.ld);
  }

  // out_flat (out × N·Ho·Wo) = W (out × patch) · cols (patch × N·Ho·Wo):
  // one GEMM for the whole batch.
  if (out_flat_.size() < out_channels_ * g.ld) {
    out_flat_.resize(out_channels_ * g.ld);
  }
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kNone, out_channels_, g.ld,
                g.patch, weight_.data().data(), g.patch, cols_.data(), g.ld,
                out_flat_.data(), g.ld);

  // Epilogue: channel-major GEMM output → NCHW, plus bias (and ReLU, pool).
  const std::size_t out_map = pool ? g.howo / 4 : g.howo;
  tensor::Tensor out(pool ? tensor::Shape{g.batch, out_channels_, g.ho / 2,
                                          g.wo / 2}
                          : tensor::Shape{g.batch, out_channels_, g.ho, g.wo});
  if (epilogue_ != ConvEpilogue::kNone) {
    mask_.resize(out.size());
  }
  float* po = out.data().data();
  const float* pb = bias_.data().data();
  for (std::size_t n = 0; n < g.batch; ++n) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* s = out_flat_.data() + oc * g.ld + n * g.howo;
      const std::size_t at = (n * out_channels_ + oc) * out_map;
      switch (epilogue_) {
        case ConvEpilogue::kNone:
          BiasMap(s, pb[oc], g.howo, po + at);
          break;
        case ConvEpilogue::kRelu:
          BiasReluMap(s, pb[oc], g.howo, po + at, mask_.data() + at);
          break;
        case ConvEpilogue::kReluMaxPool2:
          BiasReluPool2Map(s, pb[oc], g.ho, g.wo, po + at, mask_.data() + at);
          break;
      }
    }
  }
  return out;
}

void Conv2d::AccumulateGrads(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(cached_shape_.size(), 4u) << "Backward before Forward";
  const Geometry g = GeometryFor(cached_shape_);
  const bool pool = epilogue_ == ConvEpilogue::kReluMaxPool2;
  AF_CHECK_EQ(grad_output.rank(), 4u);
  AF_CHECK_EQ(grad_output.dim(0), g.batch);
  AF_CHECK_EQ(grad_output.dim(1), out_channels_);
  AF_CHECK_EQ(grad_output.dim(2), pool ? g.ho / 2 : g.ho);
  AF_CHECK_EQ(grad_output.dim(3), pool ? g.wo / 2 : g.wo);

  // Build the channel-major gradient of conv + bias that the GEMMs need,
  // undoing the epilogue on the way.
  if (gout_flat_.size() < out_channels_ * g.ld) {
    gout_flat_.resize(out_channels_ * g.ld);
  }
  const std::size_t out_map = pool ? g.howo / 4 : g.howo;
  const float* pg = grad_output.data().data();
  for (std::size_t n = 0; n < g.batch; ++n) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      float* d = gout_flat_.data() + oc * g.ld + n * g.howo;
      const std::size_t at = (n * out_channels_ + oc) * out_map;
      switch (epilogue_) {
        case ConvEpilogue::kNone:
          std::memcpy(d, pg + at, g.howo * sizeof(float));
          break;
        case ConvEpilogue::kRelu:
          ReluGradMap(pg + at, mask_.data() + at, g.howo, d);
          break;
        case ConvEpilogue::kReluMaxPool2:
          ReluPool2GradMap(pg + at, mask_.data() + at, g.ho, g.wo, d);
          break;
      }
    }
  }

  // Bias gradient: per-channel sum of the gradient maps (double
  // accumulation, ascending sample-major order). The channels' sums advance
  // together, so their serial add chains overlap instead of queueing.
  std::vector<double> gb(out_channels_, 0.0);
  for (std::size_t i = 0; i < g.ld; ++i) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      gb[oc] += gout_flat_[oc * g.ld + i];
    }
  }
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    grad_bias_[oc] += static_cast<float>(gb[oc]);
  }

  // cols_ still holds the im2col of the forward input — the arena doubles
  // as the cached patch matrix, so backward re-runs no im2col.
  AF_CHECK_GE(cols_.size(), g.patch * g.ld) << "Backward before Forward";

  // dW (out × patch) += gout_flat · colsᵀ, accumulated in place.
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kTranspose, out_channels_,
                g.patch, g.ld, gout_flat_.data(), g.ld, cols_.data(), g.ld,
                grad_weight_.data().data(), g.patch, nullptr, 1.0f);
}

tensor::Tensor Conv2d::Backward(const tensor::Tensor& grad_output) {
  AccumulateGrads(grad_output);
  const Geometry g = GeometryFor(cached_shape_);

  // dcols (patch × N·Ho·Wo) = Wᵀ · gout_flat.
  if (dcols_.size() < g.patch * g.ld) {
    dcols_.resize(g.patch * g.ld);
  }
  tensor::Sgemm(tensor::Op::kTranspose, tensor::Op::kNone, g.patch, g.ld,
                out_channels_, weight_.data().data(), g.patch,
                gout_flat_.data(), g.ld, dcols_.data(), g.ld);

  // dX: scatter the patch gradients back per sample (disjoint images).
  tensor::Tensor grad_input(cached_shape_);
  for (std::size_t n = 0; n < g.batch; ++n) {
    Col2ImSample(dcols_.data() + n * g.howo, g.ld, n, g.h, g.w, grad_input);
  }
  return grad_input;
}

}  // namespace nn
