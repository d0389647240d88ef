#include "compress/codec.h"

#include <chrono>
#include <cstring>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/registry.h"

namespace compress {

// Defined in codecs.cc; called once from Registry::Global(). The direct
// call keeps the builtin codecs' translation unit linked into static
// builds (same dead-strip concern as core::EnsureAsyncFilterRegistered).
void RegisterBuiltinCodecs(Registry& registry);

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kMagic[4] = {'A', 'F', 'C', 'Z'};
constexpr char kAfpmMagic[4] = {'A', 'F', 'P', 'M'};

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

// Reads sizeof(T) at `*offset` relative to `bytes`, advancing it; the
// error names the absolute offset so a corrupt stream is locatable.
template <typename T>
T ReadRaw(std::span<const std::uint8_t> bytes, std::size_t* offset) {
  AF_CHECK_LE(*offset + sizeof(T), bytes.size())
      << "truncated AFCZ container at byte offset " << *offset;
  T value;
  std::memcpy(&value, bytes.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

util::NamedRegistry<const Codec*>& GlobalTable() {
  static auto* table = new util::NamedRegistry<const Codec*>("codec");
  return *table;
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Appends body bytes for `values` to `out` (which may already hold the
// container header — only the appended suffix is the body), applying error
// feedback when the codec asks for it; optionally also reports the exact
// floats a decoder will reconstruct (shared by RoundTrip so it never
// encodes twice).
void EncodeCore(const Codec& codec, std::span<const float> values,
                FeedbackState* feedback, std::vector<std::uint8_t>& out,
                std::vector<float>* decoded_out) {
  const bool use_feedback =
      feedback != nullptr && codec.uses_feedback() && !codec.lossless();
  std::vector<float> adjusted;
  std::span<const float> input = values;
  if (use_feedback) {
    feedback->residual.resize(values.size(), 0.0f);
    adjusted.assign(values.begin(), values.end());
    for (std::size_t i = 0; i < adjusted.size(); ++i) {
      adjusted[i] += feedback->residual[i];
    }
    input = adjusted;
  }
  const std::size_t body_start = out.size();
  codec.EncodeBody(input, out);
  if (use_feedback || (decoded_out != nullptr && !codec.lossless())) {
    const std::span<const std::uint8_t> body =
        std::span<const std::uint8_t>(out).subspan(body_start);
    std::vector<float> decoded = codec.DecodeBody(body, input.size());
    if (use_feedback) {
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        feedback->residual[i] = input[i] - decoded[i];
      }
    }
    if (decoded_out != nullptr) {
      *decoded_out = std::move(decoded);
    }
  } else if (decoded_out != nullptr) {
    decoded_out->assign(input.begin(), input.end());
  }
}

}  // namespace

void AppendEncodedParams(std::vector<std::uint8_t>& out, const Codec& codec,
                         std::span<const float> values,
                         FeedbackState* feedback) {
  const auto start = Clock::now();
  const std::string_view name = codec.name();
  AF_CHECK_LE(name.size(), 255u) << "codec name too long: " << name;
  // Encode the body directly into `out` (EncodeBody appends): the header's
  // body-size and checksum fields are written as placeholders and patched
  // once the body bytes exist, so no intermediate body vector is built.
  const std::size_t container_start = out.size();
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  AppendRaw(out, kContainerVersion);
  out.push_back(static_cast<std::uint8_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  AppendRaw(out, static_cast<std::uint64_t>(values.size()));
  const std::size_t patch_pos = out.size();
  AppendRaw(out, std::uint64_t{0});  // body size, patched below
  AppendRaw(out, std::uint64_t{0});  // checksum, patched below
  const std::size_t body_pos = out.size();
  EncodeCore(codec, values, feedback, out, nullptr);
  const auto body_size = static_cast<std::uint64_t>(out.size() - body_pos);
  const std::uint64_t checksum =
      Fnv1a(std::span<const std::uint8_t>(out).subspan(body_pos));
  std::memcpy(out.data() + patch_pos, &body_size, sizeof(body_size));
  std::memcpy(out.data() + patch_pos + sizeof(body_size), &checksum,
              sizeof(checksum));
  const std::size_t container_size = out.size() - container_start;

  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("compress.bytes_in")
      .Increment(values.size() * sizeof(float));
  registry.GetCounter("compress.bytes_out").Increment(container_size);
  registry.GetCounter("compress.encode_us")
      .Increment(static_cast<std::uint64_t>(MicrosSince(start)));
  if (container_size > 0) {
    registry
        .GetHistogram("compress.ratio", {{"codec", std::string(name)}})
        .Record(static_cast<double>(values.size() * sizeof(float)) /
                static_cast<double>(container_size));
  }
}

namespace {

// Validated AFCZ container header + body extent; shared by the copying and
// zero-copy parse forms so they reject identical inputs identically.
struct AfczContainer {
  std::string name;
  std::uint64_t count = 0;
  std::span<const std::uint8_t> body;
  std::size_t consumed = 0;  // header + body bytes
};

AfczContainer ParseAfczContainer(std::span<const std::uint8_t> rest,
                                 std::size_t base_offset) {
  AfczContainer out;
  std::size_t cursor = sizeof(kMagic);
  const auto version = ReadRaw<std::uint32_t>(rest, &cursor);
  AF_CHECK_EQ(version, kContainerVersion)
      << "unsupported AFCZ container version " << version;
  const auto name_len = ReadRaw<std::uint8_t>(rest, &cursor);
  AF_CHECK_LE(cursor + name_len, rest.size())
      << "truncated AFCZ codec name at byte offset " << base_offset + cursor;
  out.name.assign(reinterpret_cast<const char*>(rest.data() + cursor),
                  name_len);
  cursor += name_len;
  out.count = ReadRaw<std::uint64_t>(rest, &cursor);
  AF_CHECK_LE(out.count, kMaxDecodedElements)
      << "AFCZ container declares " << out.count
      << " elements; refusing anything above " << kMaxDecodedElements;
  const auto body_size = ReadRaw<std::uint64_t>(rest, &cursor);
  const auto checksum = ReadRaw<std::uint64_t>(rest, &cursor);
  // Bounds-check before any allocation: a corrupt size field must fail
  // loudly, not attempt a huge allocation or read past the buffer.
  AF_CHECK_LE(body_size, rest.size() - cursor)
      << "truncated AFCZ body at byte offset " << base_offset + cursor
      << ": header declares " << body_size << " bytes but only "
      << rest.size() - cursor << " remain";
  out.body = rest.subspan(cursor, body_size);
  AF_CHECK_EQ(Fnv1a(out.body), checksum)
      << "AFCZ body checksum mismatch for codec " << out.name;
  out.consumed = cursor + static_cast<std::size_t>(body_size);
  return out;
}

}  // namespace

std::vector<float> ParseAnyParams(std::span<const std::uint8_t> bytes,
                                  std::size_t* offset) {
  AF_CHECK(offset != nullptr);
  AF_CHECK_LE(*offset, bytes.size()) << "parse offset past end of buffer";
  std::span<const std::uint8_t> rest = bytes.subspan(*offset);
  AF_CHECK_GE(rest.size(), sizeof(kMagic))
      << "truncated parameter block at byte offset " << *offset;
  if (std::memcmp(rest.data(), kAfpmMagic, sizeof(kAfpmMagic)) == 0) {
    // Identity form, on the wire and on disk: a raw AFPM block.
    return nn::ParseFlatParams(bytes, offset);
  }
  AF_CHECK(std::memcmp(rest.data(), kMagic, sizeof(kMagic)) == 0)
      << "bad parameter block magic at byte offset " << *offset;

  const auto start = Clock::now();
  const AfczContainer container = ParseAfczContainer(rest, *offset);
  const Codec& codec = Get(container.name);
  std::vector<float> values = codec.DecodeBody(container.body,
                                               container.count);
  AF_CHECK_EQ(values.size(), container.count)
      << "codec " << container.name << " decoded " << values.size() << " of "
      << container.count << " declared values";
  *offset += container.consumed;

  obs::DefaultRegistry()
      .GetCounter("compress.decode_us")
      .Increment(static_cast<std::uint64_t>(MicrosSince(start)));
  return values;
}

ParsedParamsView ParseAnyParamsView(std::span<const std::uint8_t> bytes,
                                    std::size_t* offset) {
  AF_CHECK(offset != nullptr);
  AF_CHECK_LE(*offset, bytes.size()) << "parse offset past end of buffer";
  std::span<const std::uint8_t> rest = bytes.subspan(*offset);
  AF_CHECK_GE(rest.size(), sizeof(kMagic))
      << "truncated parameter block at byte offset " << *offset;

  ParsedParamsView out;
  if (std::memcmp(rest.data(), kAfpmMagic, sizeof(kAfpmMagic)) == 0) {
    // Raw AFPM block: alias the payload when it is float-aligned within
    // the buffer, copy (and say so) otherwise.
    if (auto view = nn::TryParseFlatParamsView(bytes, offset)) {
      out.values = *view;
      return out;
    }
    auto owned =
        std::make_shared<std::vector<float>>(nn::ParseFlatParams(bytes,
                                                                 offset));
    out.values = std::span<const float>(owned->data(), owned->size());
    out.copied_bytes = owned->size() * sizeof(float);
    out.keepalive = std::move(owned);
    return out;
  }
  AF_CHECK(std::memcmp(rest.data(), kMagic, sizeof(kMagic)) == 0)
      << "bad parameter block magic at byte offset " << *offset;

  const auto start = Clock::now();
  const AfczContainer container = ParseAfczContainer(rest, *offset);
  const Codec& codec = Get(container.name);
  if (IsIdentity(codec)) {
    // Identity bodies ARE AFPM blocks: view straight into the container.
    std::size_t body_offset = 0;
    if (auto view =
            nn::TryParseFlatParamsView(container.body, &body_offset)) {
      AF_CHECK_EQ(view->size(), container.count)
          << "identity AFCZ body holds " << view->size() << " of "
          << container.count << " declared values";
      AF_CHECK_EQ(body_offset, container.body.size())
          << "trailing bytes in identity AFCZ body";
      out.values = *view;
      *offset += container.consumed;
      return out;
    }
  }
  auto owned = std::make_shared<std::vector<float>>(
      codec.DecodeBody(container.body, container.count));
  AF_CHECK_EQ(owned->size(), container.count)
      << "codec " << container.name << " decoded " << owned->size() << " of "
      << container.count << " declared values";
  out.values = std::span<const float>(owned->data(), owned->size());
  out.copied_bytes = owned->size() * sizeof(float);
  out.keepalive = std::move(owned);
  *offset += container.consumed;

  obs::DefaultRegistry()
      .GetCounter("compress.decode_us")
      .Increment(static_cast<std::uint64_t>(MicrosSince(start)));
  return out;
}

std::size_t EncodedWireSize(const Codec& codec,
                            std::span<const float> values) {
  std::vector<std::uint8_t> out;
  AppendEncodedParams(out, codec, values);
  return out.size();
}

std::vector<float> RoundTrip(const Codec& codec, std::span<const float> values,
                             FeedbackState* feedback) {
  std::vector<std::uint8_t> body;
  std::vector<float> decoded;
  EncodeCore(codec, values, feedback, body, &decoded);
  return decoded;
}

Registry& Registry::Global() {
  static Registry* registry = [] {
    auto* r = new Registry();
    RegisterBuiltinCodecs(*r);
    return r;
  }();
  return *registry;
}

void Registry::Register(const Codec* codec,
                        std::vector<std::string> aliases) {
  AF_CHECK(codec != nullptr) << "codec registry: null codec";
  GlobalTable().Register(codec->name(), std::move(aliases), codec);
}

const Codec& Registry::Get(const std::string& name) const {
  return *GlobalTable().Find(name);
}

bool Registry::Has(const std::string& name) const {
  return GlobalTable().Has(name);
}

std::vector<std::string> Registry::ListNames() const {
  return GlobalTable().ListNames();
}

const Codec& Get(const std::string& name) {
  return Registry::Global().Get(name);
}

bool Has(const std::string& name) { return Registry::Global().Has(name); }

std::vector<std::string> ListNames() {
  return Registry::Global().ListNames();
}

bool IsIdentity(const Codec& codec) {
  return util::CanonicalName(codec.name()) == "identity";
}

}  // namespace compress
