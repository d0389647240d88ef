#include "net/frame.h"

#include <cstring>

#include "compress/codec.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace net {
namespace {

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

// Reads sizeof(T) bytes at `*offset`, advancing it; checks bounds first.
template <typename T>
T ReadRaw(std::span<const std::uint8_t> bytes, std::size_t* offset) {
  AF_CHECK_LE(*offset + sizeof(T), bytes.size()) << "truncated payload field";
  T value;
  std::memcpy(&value, bytes.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

bool KnownType(std::uint16_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kModelBroadcast:
    case MessageType::kClientUpdate:
    case MessageType::kAck:
    case MessageType::kShutdown:
    case MessageType::kHello:
    case MessageType::kOffer:
    case MessageType::kSelect:
      return true;
  }
  return false;
}

// Trailing trace-context block: u32 "AFTC" magic, u64 trace_id,
// u64 parent_span_id. Appended only for traced messages; sniffed (never
// required) on decode.
inline constexpr std::uint32_t kTraceBlockMagic = 0x43544641u;  // "AFTC" (LE)
inline constexpr std::size_t kTraceBlockBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

void AppendTraceBlock(std::vector<std::uint8_t>& out, std::uint64_t trace_id,
                      std::uint64_t parent_span_id) {
  if (trace_id == 0) {
    return;
  }
  AppendRaw(out, kTraceBlockMagic);
  AppendRaw(out, trace_id);
  AppendRaw(out, parent_span_id);
}

// Consumes a trailing AFTC block iff exactly one sits at `*offset` at the
// very end of the payload. Anything else (no block, short tail, other
// trailing bytes) is left for CheckFullyConsumed to reject as before.
void MaybeReadTraceBlock(const FrameView& frame, std::size_t* offset,
                         std::uint64_t* trace_id,
                         std::uint64_t* parent_span_id) {
  if (frame.payload.size() - *offset != kTraceBlockBytes) {
    return;
  }
  std::size_t probe = *offset;
  const auto magic = ReadRaw<std::uint32_t>(frame.payload, &probe);
  if (magic != kTraceBlockMagic) {
    return;
  }
  *trace_id = ReadRaw<std::uint64_t>(frame.payload, &probe);
  *parent_span_id = ReadRaw<std::uint64_t>(frame.payload, &probe);
  *offset = probe;
}

// Either a raw AFPM block (codec null or identity) or an AFCZ container;
// peers sniff the magic on decode.
void AppendParams(std::vector<std::uint8_t>& out,
                  std::span<const float> values, const compress::Codec* codec,
                  compress::FeedbackState* feedback = nullptr) {
  if (codec == nullptr || compress::IsIdentity(*codec)) {
    nn::AppendFlatParams(out, values);
    return;
  }
  compress::AppendEncodedParams(out, *codec, values, feedback);
}

struct DecodeCounters {
  obs::Counter* bytes_copied = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
};

// Resolved once per thread, and again only after DefaultRegistry().Reset()
// (which frees the old counters and bumps the registry's generation).
const DecodeCounters& Counters() {
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  thread_local DecodeCounters cached;
  thread_local std::uint64_t cached_generation = 0;
  const std::uint64_t generation = reg.Generation();
  if (cached.bytes_copied == nullptr || cached_generation != generation) {
    cached = {&reg.GetCounter("transport.bytes_copied"),
              &reg.GetCounter("net.broadcast_cache.hits"),
              &reg.GetCounter("net.broadcast_cache.misses")};
    cached_generation = generation;
  }
  return cached;
}

// Parses one parameter block as a view, charging any materialization to
// transport.bytes_copied (the zero-copy path charges nothing).
UpdateView ReadParamsView(std::span<const std::uint8_t> payload,
                          std::size_t* offset) {
  compress::ParsedParamsView parsed =
      compress::ParseAnyParamsView(payload, offset);
  if (parsed.copied_bytes > 0) {
    Counters().bytes_copied->Increment(parsed.copied_bytes);
  }
  return UpdateView(parsed.values, std::move(parsed.keepalive));
}

void AppendName(std::vector<std::uint8_t>& out, const std::string& name) {
  AF_CHECK_LE(name.size(), 255u) << "codec name too long: " << name;
  out.push_back(static_cast<std::uint8_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
}

std::string ReadName(std::span<const std::uint8_t> bytes,
                     std::size_t* offset) {
  const auto len = ReadRaw<std::uint8_t>(bytes, offset);
  AF_CHECK_LE(*offset + len, bytes.size()) << "truncated codec name";
  std::string name(reinterpret_cast<const char*>(bytes.data() + *offset), len);
  *offset += len;
  return name;
}

void CheckType(const FrameView& frame, MessageType expected) {
  AF_CHECK(frame.type == expected)
      << "expected " << MessageTypeName(expected) << " frame, got "
      << MessageTypeName(frame.type);
}

void CheckFullyConsumed(const FrameView& frame, std::size_t offset) {
  AF_CHECK_EQ(offset, frame.payload.size())
      << "trailing bytes in " << MessageTypeName(frame.type) << " payload";
}

// In-place frame framing: writes the header with a zero length, lets the
// caller append the payload, then patches the length. This is how payloads
// serialize straight into a connection's write buffer with no intermediate
// vector.
std::size_t BeginFrame(std::vector<std::uint8_t>& out, MessageType type) {
  AppendRaw(out, kFrameMagic);
  AppendRaw(out, kFrameVersion);
  AppendRaw(out, static_cast<std::uint16_t>(type));
  const std::size_t length_pos = out.size();
  AppendRaw(out, std::uint64_t{0});
  return length_pos;
}

void EndFrame(std::vector<std::uint8_t>& out, std::size_t length_pos) {
  const std::uint64_t length = static_cast<std::uint64_t>(
      out.size() - length_pos - sizeof(std::uint64_t));
  AF_CHECK_LE(length, kMaxFramePayload) << "payload too large";
  std::memcpy(out.data() + length_pos, &length, sizeof(length));
}

// `append_params` writes the parameter block: an encode of msg.params, or
// a block the caller encoded once for many jobs.
template <typename AppendParamsFn>
void AppendModelBroadcastPayload(std::vector<std::uint8_t>& out,
                                 const ModelBroadcastMsg& msg,
                                 const AppendParamsFn& append_params) {
  AppendRaw(out, msg.round);
  AppendRaw(out, msg.job_index);
  append_params(out);
  AppendRaw(out, msg.client_id);
  AppendTraceBlock(out, msg.trace_id, msg.parent_span_id);
}

void AppendModelBroadcastPayload(std::vector<std::uint8_t>& out,
                                 const ModelBroadcastMsg& msg,
                                 const compress::Codec* codec) {
  AppendModelBroadcastPayload(out, msg, [&](std::vector<std::uint8_t>& o) {
    AppendParams(o, msg.params, codec);
  });
}

// `read_params` parses the parameter block at `*offset`, advancing it.
template <typename ReadParamsFn>
ModelBroadcastMsg DecodeModelBroadcastPayload(const FrameView& frame,
                                              const ReadParamsFn& read_params) {
  CheckType(frame, MessageType::kModelBroadcast);
  ModelBroadcastMsg msg;
  std::size_t offset = 0;
  msg.round = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.job_index = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.params = read_params(&offset);
  msg.client_id = ReadRaw<std::int32_t>(frame.payload, &offset);
  MaybeReadTraceBlock(frame, &offset, &msg.trace_id, &msg.parent_span_id);
  CheckFullyConsumed(frame, offset);
  return msg;
}

void AppendClientUpdatePayload(std::vector<std::uint8_t>& out,
                               const ClientUpdateMsg& msg,
                               const compress::Codec* codec,
                               compress::FeedbackState* feedback) {
  AppendRaw(out, msg.client_id);
  AppendRaw(out, msg.job_index);
  AppendRaw(out, msg.base_round);
  AppendRaw(out, msg.num_samples);
  AppendParams(out, msg.delta, codec, feedback);
  AppendTraceBlock(out, msg.trace_id, msg.parent_span_id);
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kModelBroadcast:
      return "ModelBroadcast";
    case MessageType::kClientUpdate:
      return "ClientUpdate";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kShutdown:
      return "Shutdown";
    case MessageType::kHello:
      return "Hello";
    case MessageType::kOffer:
      return "Offer";
    case MessageType::kSelect:
      return "Select";
  }
  return "?";
}

std::vector<std::uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  AppendFrameBytes(out, frame);
  return out;
}

void AppendFrameBytes(std::vector<std::uint8_t>& out, const Frame& frame) {
  AF_TRACE_SPAN("net.frame.encode");
  AF_CHECK_LE(frame.payload.size(), kMaxFramePayload) << "payload too large";
  const std::size_t length_pos = BeginFrame(out, frame.type);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  EndFrame(out, length_pos);
}

std::size_t DecodeFrameView(std::span<const std::uint8_t> buffer,
                            FrameView* out) {
  AF_CHECK(out != nullptr);
  if (buffer.size() < kFrameHeaderBytes) {
    return 0;
  }
  AF_TRACE_SPAN("net.frame.decode");
  std::size_t offset = 0;
  const auto magic = ReadRaw<std::uint32_t>(buffer, &offset);
  AF_CHECK_EQ(magic, kFrameMagic) << "bad frame magic";
  const auto version = ReadRaw<std::uint16_t>(buffer, &offset);
  AF_CHECK_EQ(version, kFrameVersion) << "unsupported frame version";
  const auto type = ReadRaw<std::uint16_t>(buffer, &offset);
  AF_CHECK(KnownType(type)) << "unknown frame type " << type;
  const auto length = ReadRaw<std::uint64_t>(buffer, &offset);
  AF_CHECK_LE(length, kMaxFramePayload)
      << "frame length " << length << " exceeds limit";
  if (buffer.size() - kFrameHeaderBytes < length) {
    return 0;  // whole header but partial payload: wait for more bytes
  }
  out->type = static_cast<MessageType>(type);
  out->payload =
      buffer.subspan(kFrameHeaderBytes, static_cast<std::size_t>(length));
  return kFrameHeaderBytes + static_cast<std::size_t>(length);
}

std::size_t DecodeFrame(std::span<const std::uint8_t> buffer, Frame* out) {
  AF_CHECK(out != nullptr);
  FrameView view;
  const std::size_t consumed = DecodeFrameView(buffer, &view);
  if (consumed == 0) {
    return 0;
  }
  out->type = view.type;
  out->payload.assign(view.payload.begin(), view.payload.end());
  return consumed;
}

Frame EncodeModelBroadcast(const ModelBroadcastMsg& msg,
                           const compress::Codec* codec) {
  Frame frame;
  frame.type = MessageType::kModelBroadcast;
  frame.payload.reserve(2 * sizeof(std::uint64_t) + sizeof(std::int32_t) +
                        nn::FlatParamsWireSize(msg.params.size()));
  AppendModelBroadcastPayload(frame.payload, msg, codec);
  return frame;
}

std::vector<std::uint8_t> EncodeParamsBlock(std::span<const float> params,
                                            const compress::Codec* codec) {
  std::vector<std::uint8_t> block;
  AppendParams(block, params, codec);
  return block;
}

void AppendModelBroadcastFrame(std::vector<std::uint8_t>& out,
                               const ModelBroadcastMsg& msg,
                               std::span<const std::uint8_t> params_block) {
  const std::size_t length_pos =
      BeginFrame(out, MessageType::kModelBroadcast);
  AppendModelBroadcastPayload(out, msg, [&](std::vector<std::uint8_t>& o) {
    o.insert(o.end(), params_block.begin(), params_block.end());
  });
  EndFrame(out, length_pos);
}

ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame) {
  return DecodeModelBroadcastPayload(frame, [&](std::size_t* offset) {
    return ReadParamsView(frame.payload, offset);
  });
}

ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame,
                                       BroadcastDecodeCache* cache) {
  AF_CHECK(cache != nullptr);
  return DecodeModelBroadcastPayload(frame, [&](std::size_t* offset) {
    // A parameter block is self-delimiting and its parse reads only its
    // own bytes, so a payload that continues with the cached block's exact
    // bytes parses to the cached floats and ends where that block ended.
    const std::span<const std::uint8_t> rest = frame.payload.subspan(*offset);
    const std::vector<std::uint8_t>& cached = cache->params_block;
    if (!cached.empty() && rest.size() >= cached.size() &&
        std::memcmp(rest.data(), cached.data(), cached.size()) == 0) {
      *offset += cached.size();
      Counters().cache_hits->Increment();
      return cache->params;
    }
    Counters().cache_misses->Increment();
    const std::size_t block_start = *offset;
    UpdateView params = ReadParamsView(frame.payload, offset);
    if (!params.has_keepalive()) {
      params = UpdateView(params.ToVector());  // aliased the frame: own it
    }
    cache->params_block.assign(
        rest.begin(),
        rest.begin() + static_cast<std::ptrdiff_t>(*offset - block_start));
    cache->params = params;
    return params;
  });
}

Frame EncodeClientUpdate(const ClientUpdateMsg& msg,
                         const compress::Codec* codec,
                         compress::FeedbackState* feedback) {
  Frame frame;
  frame.type = MessageType::kClientUpdate;
  frame.payload.reserve(sizeof(std::int32_t) + 3 * sizeof(std::uint64_t) +
                        nn::FlatParamsWireSize(msg.delta.size()));
  AppendClientUpdatePayload(frame.payload, msg, codec, feedback);
  return frame;
}

void AppendClientUpdateFrame(std::vector<std::uint8_t>& out,
                             const ClientUpdateMsg& msg,
                             const compress::Codec* codec,
                             compress::FeedbackState* feedback) {
  const std::size_t length_pos = BeginFrame(out, MessageType::kClientUpdate);
  AppendClientUpdatePayload(out, msg, codec, feedback);
  EndFrame(out, length_pos);
}

ClientUpdateMsg DecodeClientUpdate(const FrameView& frame) {
  CheckType(frame, MessageType::kClientUpdate);
  ClientUpdateMsg msg;
  std::size_t offset = 0;
  msg.client_id = ReadRaw<std::int32_t>(frame.payload, &offset);
  msg.job_index = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.base_round = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.num_samples = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.delta = ReadParamsView(frame.payload, &offset);
  MaybeReadTraceBlock(frame, &offset, &msg.trace_id, &msg.parent_span_id);
  CheckFullyConsumed(frame, offset);
  msg.wire_bytes = frame.payload.size();
  return msg;
}

Frame EncodeAck(const AckMsg& msg) {
  Frame frame;
  frame.type = MessageType::kAck;
  AppendRaw(frame.payload, msg.value);
  return frame;
}

AckMsg DecodeAck(const FrameView& frame) {
  CheckType(frame, MessageType::kAck);
  AckMsg msg;
  std::size_t offset = 0;
  msg.value = ReadRaw<std::uint64_t>(frame.payload, &offset);
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame EncodeHello(const HelloMsg& msg) {
  Frame frame;
  frame.type = MessageType::kHello;
  AF_CHECK_LE(msg.client_ids.size(), 1u << 20) << "too many hello client ids";
  AppendRaw(frame.payload, static_cast<std::uint32_t>(msg.client_ids.size()));
  for (const std::int32_t id : msg.client_ids) {
    AF_CHECK_GE(id, 0) << "negative hello client id";
    AppendRaw(frame.payload, id);
  }
  return frame;
}

HelloMsg DecodeHello(const FrameView& frame) {
  CheckType(frame, MessageType::kHello);
  HelloMsg msg;
  std::size_t offset = 0;
  const auto count = ReadRaw<std::uint32_t>(frame.payload, &offset);
  AF_CHECK_LE(count, 1u << 20) << "hello client-id count " << count
                               << " exceeds limit";
  // Bounds before reserve so a hostile count can't balloon the allocation.
  AF_CHECK_LE(offset + std::size_t{count} * sizeof(std::int32_t),
              frame.payload.size())
      << "truncated hello payload";
  msg.client_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    msg.client_ids.push_back(ReadRaw<std::int32_t>(frame.payload, &offset));
  }
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame EncodeOffer(const OfferMsg& msg) {
  Frame frame;
  frame.type = MessageType::kOffer;
  AF_CHECK_LE(msg.codecs.size(), 0xFFFFu) << "too many offered codecs";
  AppendRaw(frame.payload, static_cast<std::uint16_t>(msg.codecs.size()));
  for (const std::string& name : msg.codecs) {
    AppendName(frame.payload, name);
  }
  frame.payload.push_back(msg.trace_context ? 1 : 0);
  return frame;
}

OfferMsg DecodeOffer(const FrameView& frame) {
  CheckType(frame, MessageType::kOffer);
  OfferMsg msg;
  std::size_t offset = 0;
  const auto count = ReadRaw<std::uint16_t>(frame.payload, &offset);
  msg.codecs.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    msg.codecs.push_back(ReadName(frame.payload, &offset));
  }
  msg.trace_context = ReadRaw<std::uint8_t>(frame.payload, &offset) != 0;
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame EncodeSelect(const SelectMsg& msg) {
  Frame frame;
  frame.type = MessageType::kSelect;
  AppendName(frame.payload, msg.codec);
  frame.payload.push_back(msg.trace_context ? 1 : 0);
  return frame;
}

SelectMsg DecodeSelect(const FrameView& frame) {
  CheckType(frame, MessageType::kSelect);
  SelectMsg msg;
  std::size_t offset = 0;
  msg.codec = ReadName(frame.payload, &offset);
  msg.trace_context = ReadRaw<std::uint8_t>(frame.payload, &offset) != 0;
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame MakeShutdownFrame() {
  Frame frame;
  frame.type = MessageType::kShutdown;
  return frame;
}

}  // namespace net
