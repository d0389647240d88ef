#include "compress/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/serialize.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace compress {
namespace {

// Ragged and degenerate shapes every codec must survive: empty, single
// element, non-multiple-of-anything lengths, and a LeNet-ish vector.
std::vector<std::vector<float>> PropertyShapes() {
  std::vector<std::vector<float>> shapes;
  shapes.push_back({});
  shapes.push_back({0.0f});
  shapes.push_back({-1.25f});
  shapes.push_back({1.0f, 1.0f, 1.0f});          // constant
  shapes.push_back({0.0f, 0.0f, 0.0f, 0.0f});    // all-zero
  shapes.push_back({-3.5f, 0.25f, 7.0f});        // mixed signs, ragged
  std::vector<float> wave(1237);                  // prime-ish length
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = 0.01f * std::sin(0.37f * static_cast<float>(i)) *
              static_cast<float>(i % 17);
  }
  shapes.push_back(std::move(wave));
  return shapes;
}

std::string ThrownMessage(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::CheckError";
  return {};
}

// Framed encode of `values` with `codec` (fresh buffer).
std::vector<std::uint8_t> Container(const Codec& codec,
                                    std::span<const float> values) {
  std::vector<std::uint8_t> out;
  AppendEncodedParams(out, codec, values);
  return out;
}

std::vector<float> ParseAll(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  std::vector<float> values = ParseAnyParams(bytes, &offset);
  EXPECT_EQ(offset, bytes.size());
  return values;
}

TEST(CodecTest, IdentityRoundTripsExactlyOverAllShapes) {
  const Codec& codec = Get("identity");
  EXPECT_TRUE(codec.lossless());
  EXPECT_TRUE(codec.broadcast_safe());
  for (const auto& values : PropertyShapes()) {
    EXPECT_EQ(ParseAll(Container(codec, values)), values);
    EXPECT_EQ(RoundTrip(codec, values), values);
  }
}

TEST(CodecTest, Fp16RoundTripIsIdempotent) {
  // fp16 is lossy once: re-encoding an already-decoded vector must be exact.
  const Codec& codec = Get("fp16");
  EXPECT_FALSE(codec.lossless());
  EXPECT_TRUE(codec.broadcast_safe());
  for (const auto& values : PropertyShapes()) {
    const std::vector<float> once = ParseAll(Container(codec, values));
    ASSERT_EQ(once.size(), values.size());
    EXPECT_EQ(ParseAll(Container(codec, once)), once);
    // Relative error of a single half-rounding is bounded by 2^-11.
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_NEAR(once[i], values[i], std::fabs(values[i]) * 0x1p-10f + 1e-7f);
    }
  }
}

TEST(CodecTest, Fp16ExactForHalfRepresentableValues) {
  const Codec& codec = Get("fp16");
  const std::vector<float> values{0.0f, -0.0f, 1.0f,   -2.0f, 0.5f,
                                  0.25f, 65504.0f, -65504.0f, 0x1p-24f};
  EXPECT_EQ(ParseAll(Container(codec, values)), values);
}

TEST(CodecTest, Fp16ScalarConversionEdgeCases) {
  // Max finite half survives; past it saturates to ±inf.
  EXPECT_EQ(HalfToFloat(FloatToHalf(65504.0f)), 65504.0f);
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(100000.0f))));
  EXPECT_GT(HalfToFloat(FloatToHalf(100000.0f)), 0.0f);
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(-100000.0f))));
  EXPECT_LT(HalfToFloat(FloatToHalf(-100000.0f)), 0.0f);
  // Infinities and NaN keep their class.
  EXPECT_TRUE(std::isinf(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::infinity()))));
  EXPECT_TRUE(std::isnan(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
  // Least subnormal half is exact; half of it ties-to-even down to zero.
  EXPECT_EQ(HalfToFloat(FloatToHalf(0x1p-24f)), 0x1p-24f);
  EXPECT_EQ(HalfToFloat(FloatToHalf(0x1p-25f)), 0.0f);
  // Signed zero survives.
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000u);
  // Round-to-nearest-even at the 10-bit mantissa boundary: 1 + 2^-11 is
  // exactly halfway between 1 and the next half; even mantissa wins.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 0x1p-11f)), 1.0f);
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 3 * 0x1p-11f)), 1.0f + 0x1p-9f);
}

// Runs `body` under every kernel ISA this CPU supports; the fp16 codec's
// F16C path rides the AVX2 dispatch.
void ForEachIsa(const std::function<void()>& body) {
  using tensor::kernels::Isa;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (isa == Isa::kAvx2 && !tensor::kernels::Avx2Available()) {
      continue;
    }
    tensor::kernels::ForceIsa(isa);
    SCOPED_TRACE(isa == Isa::kAvx2 ? "isa avx2" : "isa scalar");
    body();
  }
  tensor::kernels::ResetForcedIsa();
}

float FromBits(std::uint32_t bits) {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Vector lengths that exercise the 8-lane body, the scalar tail and both
// together, plus the LeNet surrogate's parameter count.
std::vector<std::size_t> KernelLengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(4538);
  return lengths;
}

TEST(CodecTest, Fp16DecodeIsBitExactOnEveryHalf) {
  // All 65,536 halves, signaling NaNs with every payload included, must
  // decode to HalfToFloat's exact bits on every path.
  std::vector<std::uint8_t> body(65536 * 2);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    std::memcpy(body.data() + h * 2, &half, sizeof(half));
  }
  ForEachIsa([&] {
    const std::vector<float> all = Get("fp16").DecodeBody(body, 65536);
    ASSERT_EQ(all.size(), 65536u);
    std::size_t mismatches = 0;
    for (std::uint32_t h = 0; h < 65536; ++h) {
      const float expected = HalfToFloat(static_cast<std::uint16_t>(h));
      if (std::memcmp(&all[h], &expected, sizeof(float)) != 0) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch at half 0x" << std::hex << h;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    // Short and ragged lengths, each starting just below the exponent-31
    // block so infinities and NaNs land in both the 8-lane body and the
    // tail.
    for (const std::size_t n : KernelLengths()) {
      const std::size_t first = 0x7C00 - 5;
      const std::span<const std::uint8_t> slice(body.data() + first * 2,
                                                n * 2);
      const std::vector<float> decoded = Get("fp16").DecodeBody(slice, n);
      ASSERT_EQ(decoded.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const float expected =
            HalfToFloat(static_cast<std::uint16_t>(first + i));
        EXPECT_EQ(std::memcmp(&decoded[i], &expected, sizeof(float)), 0)
            << "length " << n << " lane " << i;
      }
    }
  });
}

TEST(CodecTest, Fp16EncodeIsBitExactOnEdgeAndRandomFloats) {
  std::vector<float> corpus;
  for (const std::uint32_t bits : {
           0x7FC00000u, 0x7FC00001u, 0x7FFFFFFFu,  // quiet NaNs + payloads
           0x7F800001u, 0x7FA00000u, 0x7FBFFFFFu,  // signaling NaNs
           0xFFC12345u, 0xFF800123u,               // negative NaNs
           0x00000001u, 0x007FFFFFu, 0x80000001u,  // float subnormals
       }) {
    corpus.push_back(FromBits(bits));
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v : {
           0.0f, inf,
           0x1p-24f,                   // least half subnormal
           0x1p-25f,                   // exact tie with zero → 0
           0x1.000002p-25f,            // just above the tie → 2^-24
           3 * 0x1p-26f,               // 1.5 · 2^-24 ties to even → 2^-23
           0x1p-14f,                   // least half normal
           0x1p-14f - 0x1p-25f,        // rounds up across the boundary
           0x1.ff8p-15f,               // largest subnormal half
           65504.0f, 65519.99f, 65520.0f, 1e30f,
           1.0f + 0x1p-11f,            // tie → even (1.0)
           1.0f + 3 * 0x1p-11f,        // tie → even (up)
           2049.0f, 2051.0f,           // integer ties at 2^11
       }) {
    corpus.push_back(v);
    corpus.push_back(-v);
  }
  std::mt19937 gen(20241020);
  for (int i = 0; i < (1 << 16); ++i) {
    corpus.push_back(FromBits(static_cast<std::uint32_t>(gen())));
  }

  const auto expect_scalar_bytes = [](std::span<const float> values) {
    std::vector<std::uint8_t> out = {0xAA};  // encode appends past a prefix
    Get("fp16").EncodeBody(values, out);
    ASSERT_EQ(out.size(), 1 + values.size() * 2);
    EXPECT_EQ(out[0], 0xAA);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::uint16_t expected = FloatToHalf(values[i]);
      std::uint16_t got;
      std::memcpy(&got, out.data() + 1 + i * 2, sizeof(got));
      if (got != expected) {
        std::uint32_t bits;
        std::memcpy(&bits, &values[i], sizeof(bits));
        ADD_FAILURE() << "length " << values.size() << " lane " << i
                      << ": float 0x" << std::hex << bits << " encoded 0x"
                      << got << ", scalar 0x" << expected;
        return;
      }
    }
  };
  ForEachIsa([&] {
    expect_scalar_bytes(corpus);
    // The edge values lead the corpus, so every length sees NaNs and ties
    // in the 8-lane body, the tail, or both.
    for (const std::size_t n : KernelLengths()) {
      expect_scalar_bytes(std::span<const float>(corpus).first(n));
      expect_scalar_bytes(std::span<const float>(corpus).subspan(3, n));
    }
  });
}

TEST(CodecTest, Int8ErrorWithinHalfScale) {
  const Codec& codec = Get("int8");
  EXPECT_FALSE(codec.lossless());
  EXPECT_FALSE(codec.broadcast_safe());
  EXPECT_TRUE(codec.uses_feedback());
  for (const auto& values : PropertyShapes()) {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (float v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const float scale = lo < hi ? (hi - lo) / 255.0f : 0.0f;
    const std::vector<float> decoded = ParseAll(Container(codec, values));
    ASSERT_EQ(decoded.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_LE(std::fabs(decoded[i] - values[i]), scale * 0.5f + 1e-6f)
          << "element " << i;
    }
  }
}

TEST(CodecTest, Int8ConstantVectorDecodesExactly) {
  const Codec& codec = Get("int8");
  EXPECT_EQ(ParseAll(Container(codec, std::vector<float>(7, -3.25f))),
            std::vector<float>(7, -3.25f));
  EXPECT_EQ(ParseAll(Container(codec, std::vector<float>(4, 0.0f))),
            std::vector<float>(4, 0.0f));
}

TEST(CodecTest, Int8NonFiniteValuesDecodeToZeroPoint) {
  const Codec& codec = Get("int8");
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> decoded =
      ParseAll(Container(codec, std::vector<float>{inf, -inf, nan}));
  EXPECT_EQ(decoded, std::vector<float>({0.0f, 0.0f, 0.0f}));
}

TEST(CodecTest, TopkKeepsLargestTenthExactToHalf) {
  const Codec& codec = Get("topk-delta");
  EXPECT_FALSE(codec.broadcast_safe());
  EXPECT_TRUE(codec.uses_feedback());
  std::vector<float> values(200, 0.0f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 10 == 3) ? 5.0f + static_cast<float>(i) : 0.001f;
  }
  const std::vector<float> decoded = ParseAll(Container(codec, values));
  ASSERT_EQ(decoded.size(), values.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i % 10 == 3) {  // the 20 large entries == k exactly
      EXPECT_EQ(decoded[i], HalfToFloat(FloatToHalf(values[i])));
      ++kept;
    } else {
      EXPECT_EQ(decoded[i], 0.0f) << "dropped entry must decode to zero";
    }
  }
  EXPECT_EQ(kept, 20u);
}

TEST(CodecTest, TopkDegenerateShapes) {
  const Codec& codec = Get("topk-delta");
  EXPECT_TRUE(ParseAll(Container(codec, std::vector<float>{})).empty());
  // count < 10 still keeps k = 1: the single largest survives.
  const std::vector<float> decoded =
      ParseAll(Container(codec, std::vector<float>{0.1f, -0.9f, 0.2f}));
  EXPECT_EQ(decoded[0], 0.0f);
  EXPECT_EQ(decoded[1], HalfToFloat(FloatToHalf(-0.9f)));
  EXPECT_EQ(decoded[2], 0.0f);
}

TEST(CodecTest, TopkTieBreaksTowardLowerIndex) {
  const Codec& codec = Get("topk-delta");
  const std::vector<float> decoded =
      ParseAll(Container(codec, std::vector<float>{1.0f, 1.0f, 1.0f}));
  EXPECT_EQ(decoded, std::vector<float>({1.0f, 0.0f, 0.0f}));
}

TEST(CodecTest, ErrorFeedbackFoldsResidualIntoNextEncode) {
  const Codec& codec = Get("int8");
  const std::vector<float> values{0.03f, -1.7f, 0.42f, 0.0f, 2.9f};
  FeedbackState feedback;
  const std::vector<float> first = RoundTrip(codec, values, &feedback);
  ASSERT_EQ(feedback.residual.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_FLOAT_EQ(feedback.residual[i], values[i] - first[i]);
  }
  const std::vector<float> prev_residual = feedback.residual;
  const std::vector<float> second = RoundTrip(codec, values, &feedback);
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Second encode quantized values + residual, so the new residual is
    // measured against that adjusted input.
    EXPECT_NEAR(feedback.residual[i],
                values[i] + prev_residual[i] - second[i], 1e-6f);
  }
}

TEST(CodecTest, ErrorFeedbackConservesSignalAcrossRounds) {
  // The point of error feedback: nothing a sparsifier drops is lost, it is
  // carried in the residual. After T rounds of the same delta, what the
  // server accumulated plus the client's residual equals the true total —
  // without feedback, every dropped element would lose T × its value.
  const Codec& codec = Get("topk-delta");
  std::vector<float> values(50);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.01f * static_cast<float>(i) - 0.2f;
  }
  FeedbackState feedback;
  std::vector<float> decoded_sum(values.size(), 0.0f);
  const int rounds = 20;
  for (int t = 0; t < rounds; ++t) {
    const std::vector<float> decoded = RoundTrip(codec, values, &feedback);
    for (std::size_t i = 0; i < values.size(); ++i) {
      decoded_sum[i] += decoded[i];
    }
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float true_sum = static_cast<float>(rounds) * values[i];
    // Slack covers the fp16 rounding of each flushed value only.
    EXPECT_NEAR(decoded_sum[i] + feedback.residual[i], true_sum, 0.02f)
        << "element " << i;
  }
}

TEST(CodecTest, ParseAnyParamsAcceptsRawAfpmAndTracksOffsets) {
  // Identity payloads (and identity-written checkpoints) are raw AFPM blocks;
  // compressed ones are AFCZ. A stream may mix both back-to-back.
  const std::vector<float> first{1.0f, -2.0f};
  const std::vector<float> second{0.5f, 0.5f, 0.5f};
  std::vector<std::uint8_t> bytes;
  nn::AppendFlatParams(bytes, first);
  AppendEncodedParams(bytes, Get("fp16"), second);
  std::size_t offset = 0;
  EXPECT_EQ(ParseAnyParams(bytes, &offset), first);
  EXPECT_EQ(ParseAnyParams(bytes, &offset), second);
  EXPECT_EQ(offset, bytes.size());
}

TEST(CodecTest, TruncatedContainerHeaderNamesByteOffset) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f, 2.0f});
  bytes.resize(10);  // mid-header
  std::size_t offset = 0;
  const std::string message =
      ThrownMessage([&] { ParseAnyParams(bytes, &offset); });
  EXPECT_NE(message.find("truncated AFCZ"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset"), std::string::npos) << message;
}

TEST(CodecTest, OversizedDeclaredBodyThrowsWithoutAllocating) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f, 2.0f});
  // body_size field sits after magic(4) + version(4) + len(1) + "fp16"(4)
  // + count(8).
  const std::uint64_t absurd = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + 21, &absurd, sizeof(absurd));
  std::size_t offset = 0;
  const std::string message =
      ThrownMessage([&] { ParseAnyParams(bytes, &offset); });
  EXPECT_NE(message.find("truncated AFCZ body"), std::string::npos) << message;
}

TEST(CodecTest, CorruptBodyFailsChecksum) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f, 2.0f, 3.0f});
  bytes.back() ^= 0x01;
  std::size_t offset = 0;
  const std::string message =
      ThrownMessage([&] { ParseAnyParams(bytes, &offset); });
  EXPECT_NE(message.find("checksum mismatch"), std::string::npos) << message;
}

TEST(CodecTest, UnknownCodecNameInContainerThrows) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f});
  bytes[9] = 'x';  // first name byte: "fp16" → "xp16"
  std::size_t offset = 0;
  const std::string message =
      ThrownMessage([&] { ParseAnyParams(bytes, &offset); });
  EXPECT_NE(message.find("unknown codec name"), std::string::npos) << message;
}

TEST(CodecTest, UnsupportedContainerVersionThrows) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f});
  bytes[4] = 0x7F;  // version low byte
  std::size_t offset = 0;
  const std::string message =
      ThrownMessage([&] { ParseAnyParams(bytes, &offset); });
  EXPECT_NE(message.find("unsupported AFCZ container version"),
            std::string::npos)
      << message;
}

TEST(CodecTest, BadMagicThrows) {
  std::vector<std::uint8_t> bytes =
      Container(Get("fp16"), std::vector<float>{1.0f});
  bytes[0] = 'X';
  std::size_t offset = 0;
  EXPECT_THROW(ParseAnyParams(bytes, &offset), util::CheckError);
}

TEST(CodecTest, RegistryResolvesAliasesAndCanonicalSpellings) {
  EXPECT_EQ(std::string(Get("fp16").name()), "fp16");
  EXPECT_EQ(std::string(Get("half").name()), "fp16");    // alias
  EXPECT_EQ(std::string(Get("FP-16").name()), "fp16");   // canonicalized
  EXPECT_EQ(std::string(Get("topk").name()), "topk-delta");
  EXPECT_EQ(std::string(Get("Top-K Delta").name()), "topk-delta");
  EXPECT_EQ(std::string(Get("none").name()), "identity");
  EXPECT_EQ(std::string(Get("q8").name()), "int8");
  EXPECT_TRUE(Has("int8"));
  EXPECT_FALSE(Has("lz77"));
  const std::string message = ThrownMessage([] { Get("lz77"); });
  EXPECT_NE(message.find("unknown codec name"), std::string::npos);
  EXPECT_NE(message.find("identity"), std::string::npos)
      << "error must list known codecs: " << message;
}

TEST(CodecTest, ListNamesContainsEveryBuiltin) {
  const std::vector<std::string> names = ListNames();
  for (const char* expected : {"identity", "fp16", "int8", "topkdelta"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing " << expected;
  }
}

TEST(CodecTest, CompressionRatiosMeetTargets) {
  // The acceptance bar from the bench: ≥3.5× for int8 and ≥8× for
  // topk-delta (k = 10%) on a LeNet-sized parameter vector.
  std::vector<float> values(61706);  // LeNet-5 surrogate parameter count
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.05f * std::sin(0.11f * static_cast<float>(i));
  }
  const double raw = static_cast<double>(values.size() * sizeof(float));
  EXPECT_GE(raw / static_cast<double>(EncodedWireSize(Get("int8"), values)),
            3.5);
  EXPECT_GE(
      raw / static_cast<double>(EncodedWireSize(Get("topk-delta"), values)),
      8.0);
  EXPECT_GE(raw / static_cast<double>(EncodedWireSize(Get("fp16"), values)),
            1.9);
}

TEST(CodecTest, IsIdentityMatchesByCanonicalName) {
  EXPECT_TRUE(IsIdentity(Identity()));
  EXPECT_TRUE(IsIdentity(Get("none")));
  EXPECT_FALSE(IsIdentity(Get("fp16")));
}

}  // namespace
}  // namespace compress
