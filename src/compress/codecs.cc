// Built-in codec implementations: identity, fp16, int8, topk-delta.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "compress/codec.h"
#include "nn/serialize.h"
#include "tensor/kernels.h"
#include "util/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define AF_CODECS_X86 1
#include <immintrin.h>
#else
#define AF_CODECS_X86 0
#endif

namespace compress {
namespace {

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T ReadRaw(std::span<const std::uint8_t> body, std::size_t* offset,
          const char* what) {
  AF_CHECK_LE(*offset + sizeof(T), body.size())
      << "truncated " << what << " at body byte offset " << *offset;
  T value;
  std::memcpy(&value, body.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

// LEB128 unsigned varint, as used for top-k index gaps.
void AppendVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t ReadVarint(std::span<const std::uint8_t> body,
                         std::size_t* offset) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    AF_CHECK_LT(*offset, body.size())
        << "truncated varint at body byte offset " << *offset;
    AF_CHECK_LT(shift, 64) << "overlong varint at body byte offset "
                           << *offset;
    const std::uint8_t byte = body[(*offset)++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
  }
}

// --- identity ----------------------------------------------------------

// Lossless pass-through; the body is a raw AFPM block so an AFCZ/identity
// container is the raw AFPM form with a 35-byte preamble.
class IdentityCodec final : public Codec {
 public:
  const char* name() const override { return "identity"; }
  bool lossless() const override { return true; }

  void EncodeBody(std::span<const float> values,
                  std::vector<std::uint8_t>& out) const override {
    nn::AppendFlatParams(out, values);
  }

  std::vector<float> DecodeBody(std::span<const std::uint8_t> body,
                                std::uint64_t count) const override {
    std::size_t offset = 0;
    std::vector<float> values = nn::ParseFlatParams(body, &offset);
    AF_CHECK_EQ(offset, body.size())
        << "identity body has " << body.size() - offset
        << " trailing bytes after the AFPM block";
    AF_CHECK_EQ(values.size(), count)
        << "identity body count mismatch: AFPM block has " << values.size()
        << ", container declares " << count;
    return values;
  }
};

// --- fp16 --------------------------------------------------------------

// Scalar reference loops; the AVX2 path below finishes its ragged tail and
// its NaN lanes with them.
void EncodeHalves(const float* in, std::size_t n, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t half = FloatToHalf(in[i]);
    std::memcpy(out + i * sizeof(half), &half, sizeof(half));
  }
}

void DecodeHalves(const std::uint8_t* in, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t half;
    std::memcpy(&half, in + i * sizeof(half), sizeof(half));
    out[i] = HalfToFloat(half);
  }
}

#if AF_CODECS_X86
// F16C converts 8 lanes per instruction and matches FloatToHalf /
// HalfToFloat bit for bit except on NaNs: the hardware keeps a NaN's
// payload where FloatToHalf collapses it to sign|0x7E00, and it sets the
// quiet bit of a signaling half where HalfToFloat keeps it clear. Lanes
// that can hit either case (an unordered float, a half with exponent 31)
// are redone in scalar, so the output is the scalar reference's.
__attribute__((target("avx2,f16c"))) void EncodeHalvesAvx2(
    const float* in, std::size_t n, std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(in + i);
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 2), h);
    int nan_lanes = _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    while (nan_lanes != 0) {
      const int lane = __builtin_ctz(nan_lanes);
      nan_lanes &= nan_lanes - 1;
      EncodeHalves(in + i + lane, 1, out + (i + lane) * 2);
    }
  }
  EncodeHalves(in + i, n - i, out + i * 2);
}

__attribute__((target("avx2,f16c"))) void DecodeHalvesAvx2(
    const std::uint8_t* in, std::size_t n, float* out) {
  const __m128i exp_mask = _mm_set1_epi16(0x7C00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i * 2));
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
    // Two mask bits per 16-bit lane; exponent 31 is inf or NaN.
    int special = _mm_movemask_epi8(
        _mm_cmpeq_epi16(_mm_and_si128(h, exp_mask), exp_mask));
    while (special != 0) {
      const int lane = __builtin_ctz(special) / 2;
      special &= ~(3 << (lane * 2));
      DecodeHalves(in + (i + lane) * 2, 1, out + i + lane);
    }
  }
  DecodeHalves(in + i * 2, n - i, out + i);
}

// F16C rides the kernels' AVX2 dispatch (Avx2Available checks it), so
// AF_KERNEL_ISA=scalar and ForceIsa select the scalar loops here too.
bool UseF16c() {
  return tensor::kernels::ActiveIsa() == tensor::kernels::Isa::kAvx2;
}
#endif

class Fp16Codec final : public Codec {
 public:
  const char* name() const override { return "fp16"; }
  bool lossless() const override { return false; }
  // Half precision keeps the sign and scale of every weight, so full model
  // broadcasts survive it (unlike the delta-oriented codecs below).
  bool broadcast_safe() const override { return true; }

  void EncodeBody(std::span<const float> values,
                  std::vector<std::uint8_t>& out) const override {
    const std::size_t start = out.size();
    out.resize(start + values.size() * sizeof(std::uint16_t));
    std::uint8_t* dst = out.data() + start;
#if AF_CODECS_X86
    if (UseF16c()) {
      EncodeHalvesAvx2(values.data(), values.size(), dst);
      return;
    }
#endif
    EncodeHalves(values.data(), values.size(), dst);
  }

  std::vector<float> DecodeBody(std::span<const std::uint8_t> body,
                                std::uint64_t count) const override {
    AF_CHECK_LE(count, kMaxDecodedElements)
        << "fp16 body declares " << count << " values; refusing anything "
        << "above " << kMaxDecodedElements;
    AF_CHECK_EQ(body.size(), count * sizeof(std::uint16_t))
        << "fp16 body is " << body.size() << " bytes; expected "
        << count * sizeof(std::uint16_t) << " for " << count << " values";
    std::vector<float> values(static_cast<std::size_t>(count));
#if AF_CODECS_X86
    if (UseF16c()) {
      DecodeHalvesAvx2(body.data(), values.size(), values.data());
      return values;
    }
#endif
    DecodeHalves(body.data(), values.size(), values.data());
    return values;
  }
};

// --- int8 --------------------------------------------------------------

// Per-tensor asymmetric uniform quantization: v' = scale * (q - zero_point)
// with q in [0, 255]. Body: f32 scale + i32 zero_point + count u8s. The
// reconstruction error is at most scale/2 per element for finite inputs.
class Int8Codec final : public Codec {
 public:
  const char* name() const override { return "int8"; }
  bool lossless() const override { return false; }
  // Range quantization of a full weight vector is dominated by the largest
  // layer's scale — deltas only on the uplink; broadcasts fall back.
  bool broadcast_safe() const override { return false; }
  bool uses_feedback() const override { return true; }

  void EncodeBody(std::span<const float> values,
                  std::vector<std::uint8_t>& out) const override {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (float v : values) {
      if (!std::isfinite(v)) {
        continue;  // non-finite values quantize to the zero point
      }
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    float scale;
    std::int32_t zero_point;
    if (!(lo <= hi)) {           // empty or all non-finite
      scale = 1.0f;
      zero_point = 0;
    } else if (lo == hi) {
      // Constant vector: pick scale = value so q=1, zp=0 decodes exactly;
      // an all-zero vector uses q=0 instead (scale is arbitrary).
      scale = lo == 0.0f ? 1.0f : lo;
      zero_point = 0;
    } else {
      scale = (hi - lo) / 255.0f;
      zero_point = static_cast<std::int32_t>(std::lround(-lo / scale));
    }
    AppendRaw(out, scale);
    AppendRaw(out, zero_point);
    for (float v : values) {
      std::uint8_t q;
      if (!std::isfinite(v)) {
        q = static_cast<std::uint8_t>(std::clamp(zero_point, 0, 255));
      } else if (lo == hi) {
        q = lo == 0.0f ? 0 : 1;  // constant-vector special case above
      } else {
        const double ideal = static_cast<double>(v) / scale + zero_point;
        q = static_cast<std::uint8_t>(
            std::clamp<long>(std::lround(ideal), 0, 255));
      }
      out.push_back(q);
    }
  }

  std::vector<float> DecodeBody(std::span<const std::uint8_t> body,
                                std::uint64_t count) const override {
    std::size_t offset = 0;
    const auto scale = ReadRaw<float>(body, &offset, "int8 header");
    const auto zero_point = ReadRaw<std::int32_t>(body, &offset, "int8 header");
    AF_CHECK_EQ(body.size() - offset, count)
        << "int8 body has " << body.size() - offset
        << " quantized bytes; expected " << count;
    std::vector<float> values(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Widen before subtracting: a hostile zero_point near INT32_MIN would
      // overflow the int32 difference (UB) even though q is only 0..255.
      values[i] = scale * static_cast<float>(
                              static_cast<std::int64_t>(body[offset + i]) -
                              static_cast<std::int64_t>(zero_point));
    }
    return values;
  }
};

// --- topk-delta --------------------------------------------------------

// Keeps the k = max(1, ceil(count/10)) largest-magnitude entries of the
// delta. Body: u64 k, then k varint index gaps (first absolute, then
// successive differences minus one), then k fp16 values. Ties in magnitude
// break toward the lower index so the encoding is deterministic.
class TopkDeltaCodec final : public Codec {
 public:
  const char* name() const override { return "topk-delta"; }
  bool lossless() const override { return false; }
  // Dropping 90% of a full weight vector destroys it; this codec is for
  // uplink deltas only and relies on error feedback for convergence.
  bool broadcast_safe() const override { return false; }
  bool uses_feedback() const override { return true; }

  void EncodeBody(std::span<const float> values,
                  std::vector<std::uint8_t>& out) const override {
    const std::size_t count = values.size();
    const std::size_t k = count == 0 ? 0 : std::max<std::size_t>(1, (count + 9) / 10);
    std::vector<std::uint64_t> index(count);
    std::iota(index.begin(), index.end(), 0);
    const auto magnitude = [&values](std::uint64_t i) {
      const float v = values[static_cast<std::size_t>(i)];
      return std::isnan(v) ? std::numeric_limits<float>::infinity()
                           : std::fabs(v);
    };
    if (k < count) {
      std::nth_element(index.begin(), index.begin() + k, index.end(),
                       [&](std::uint64_t a, std::uint64_t b) {
                         const float ma = magnitude(a);
                         const float mb = magnitude(b);
                         return ma > mb || (ma == mb && a < b);
                       });
      index.resize(k);
    }
    std::sort(index.begin(), index.end());
    AppendRaw(out, static_cast<std::uint64_t>(k));
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
      // First gap is the absolute index; later gaps are offset by one so a
      // run of adjacent indices costs one byte each.
      AppendVarint(out, i == 0 ? index[i] : index[i] - prev - 1);
      prev = index[i];
    }
    for (std::uint64_t i : index) {
      AppendRaw(out, FloatToHalf(values[static_cast<std::size_t>(i)]));
    }
  }

  std::vector<float> DecodeBody(std::span<const std::uint8_t> body,
                                std::uint64_t count) const override {
    AF_CHECK_LE(count, kMaxDecodedElements)
        << "topk body declares " << count << " values; refusing anything "
        << "above " << kMaxDecodedElements;
    std::size_t offset = 0;
    const auto k = ReadRaw<std::uint64_t>(body, &offset, "topk header");
    AF_CHECK_LE(k, count) << "topk body declares " << k << " entries for "
                          << count << " values";
    std::vector<std::uint64_t> index(static_cast<std::size_t>(k));
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
      const std::uint64_t gap = ReadVarint(body, &offset);
      const std::uint64_t idx = i == 0 ? gap : prev + gap + 1;
      AF_CHECK_LT(idx, count)
          << "topk index " << idx << " out of range at body byte offset "
          << offset;
      index[i] = prev = idx;
    }
    AF_CHECK_EQ(body.size() - offset, k * sizeof(std::uint16_t))
        << "topk body has " << body.size() - offset
        << " value bytes; expected " << k * sizeof(std::uint16_t);
    std::vector<float> values(static_cast<std::size_t>(count), 0.0f);
    for (std::size_t i = 0; i < index.size(); ++i) {
      std::uint16_t half;
      std::memcpy(&half, body.data() + offset + i * sizeof(half),
                  sizeof(half));
      values[static_cast<std::size_t>(index[i])] = HalfToFloat(half);
    }
    return values;
  }
};

const IdentityCodec kIdentity;
const Fp16Codec kFp16;
const Int8Codec kInt8;
const TopkDeltaCodec kTopkDelta;

}  // namespace

std::uint16_t FloatToHalf(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::int32_t exp = static_cast<std::int32_t>((f >> 23) & 0xFFu) - 127;
  std::uint32_t mant = f & 0x007FFFFFu;
  if (exp == 128) {  // inf or NaN
    return mant == 0 ? sign | 0x7C00u : sign | 0x7E00u;
  }
  if (exp > 15) {  // overflow saturates to ±inf
    return sign | 0x7C00u;
  }
  if (exp >= -14) {  // normal half; round 23-bit mantissa to 10, ties-to-even
    std::uint32_t half =
        (static_cast<std::uint32_t>(exp + 15) << 10) | (mant >> 13);
    const std::uint32_t round = mant & 0x1FFFu;
    if (round > 0x1000u || (round == 0x1000u && (half & 1u))) {
      ++half;  // a mantissa carry correctly rolls into the exponent
    }
    return sign | static_cast<std::uint16_t>(half);
  }
  // Subnormal half: value = q · 2^-24 with q a rounded 24-bit mantissa shift.
  mant |= 0x00800000u;  // implicit leading one
  const int shift = -exp - 1;  // 14..24 within subnormal range
  if (shift > 24) {
    return sign;  // below half the least subnormal → ±0
  }
  std::uint32_t q = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (q & 1u))) {
    ++q;
  }
  return sign | static_cast<std::uint16_t>(q);
}

float HalfToFloat(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1Fu;
  std::uint32_t mant = half & 0x3FFu;
  std::uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // ±0
    } else {  // subnormal: renormalize into a float32 exponent
      std::uint32_t e = 113;  // 127 - 14
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --e;
      }
      f = sign | (e << 23) | ((mant & 0x3FFu) << 13);
    }
  } else if (exp == 31) {  // inf or NaN
    f = sign | 0x7F800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112) << 23) | (mant << 13);
  }
  float value;
  std::memcpy(&value, &f, sizeof(value));
  return value;
}

const Codec& Identity() { return kIdentity; }

void RegisterBuiltinCodecs(Registry& registry) {
  registry.Register(&kIdentity, {"none", "raw"});
  registry.Register(&kFp16, {"half"});
  registry.Register(&kInt8, {"q8"});
  registry.Register(&kTopkDelta, {"topk"});
}

}  // namespace compress
