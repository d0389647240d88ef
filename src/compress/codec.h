// Model-update compression codecs for the wire and for checkpoints.
//
// A Codec turns a flat float32 parameter (or delta) vector into a
// self-describing framed container and back. The container ("AFCZ",
// little-endian) layers on the AFPM framing from nn/serialize — the
// identity codec's body IS an AFPM block, and every consumer that used to
// read raw AFPM payloads now sniffs the leading magic and accepts either:
//
//   magic   "AFCZ"                                   4 bytes
//   u32     container version (currently 1)
//   u8      codec-name length, then that many name bytes
//   u64     original element count (float32s)
//   u64     body size in bytes
//   u64     FNV-1a checksum of the body
//   bytes   body — codec-specific encoding
//
// Codecs are stateless singletons resolved through a string-keyed registry
// built on util::NamedRegistry (the same mechanics as the attack and
// defense registries): decoding never needs negotiation because the
// container names its codec. Lossy codecs may keep a client-side residual
// ("error feedback"): the encoder folds the previous encoding error into
// the next value vector so quantization error does not accumulate across
// rounds (see FeedbackState).
//
// Built-in codecs:
//   identity    lossless pass-through (AFPM body)
//   fp16        IEEE-754 half precision, round-to-nearest-even   (~2×)
//   int8        per-tensor uniform quantization, scale/zero-point (~4×)
//   topk-delta  top-k magnitude sparsification of the training delta
//               (k = 10% of elements), varint index gaps + fp16 values,
//               residual kept client-side for error feedback     (~12×)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace compress {

inline constexpr std::uint32_t kContainerVersion = 1;

// Upper bound on the element count a container header may declare (2^28
// floats = 1 GiB decoded — comfortably above any real model here, far
// below the counts that make `count * sizeof(T)` wrap or drive the
// allocator into the ground). Decoders reject larger counts with
// util::CheckError before allocating anything.
inline constexpr std::uint64_t kMaxDecodedElements = 1ull << 28;

class Codec {
 public:
  virtual ~Codec() = default;

  // Canonical registry name; also what the container header carries.
  virtual const char* name() const = 0;

  // True when Decode(Encode(v)) == v bit-exactly for every finite v.
  virtual bool lossless() const = 0;

  // Whether full model parameters (ModelBroadcast downlink, checkpoint
  // model pool) may be encoded with this codec. Delta-oriented codecs
  // (top-k sparsification, int8 range quantization) would destroy a full
  // weight vector, so the wire falls back to identity on the downlink for
  // them and only compresses the uplink delta.
  virtual bool broadcast_safe() const { return lossless(); }

  // Whether the encoder participates in client-side error feedback (the
  // caller keeps a FeedbackState per stream and the residual folds into
  // the next encode).
  virtual bool uses_feedback() const { return false; }

  // Encodes `values` into `out` (body bytes only — no container framing;
  // use AppendEncodedParams for the framed form).
  virtual void EncodeBody(std::span<const float> values,
                          std::vector<std::uint8_t>& out) const = 0;

  // Decodes exactly `count` floats from `body`; throws util::CheckError on
  // malformed bytes (truncation, counts that disagree with the header).
  virtual std::vector<float> DecodeBody(std::span<const std::uint8_t> body,
                                        std::uint64_t count) const = 0;
};

// Per-stream error-feedback state for lossy codecs: the residual is the
// accumulated difference between what the client computed and what the
// server decoded.
struct FeedbackState {
  std::vector<float> residual;
};

// --- Container framing -------------------------------------------------

// Appends the framed AFCZ container for `values` to `out`. When `feedback`
// is non-null and the codec uses feedback, the residual is folded into the
// values before encoding and updated to the new encoding error.
void AppendEncodedParams(std::vector<std::uint8_t>& out, const Codec& codec,
                         std::span<const float> values,
                         FeedbackState* feedback = nullptr);

// Parses one parameter block starting at `*offset`, advancing past it.
// Sniffs the magic: a raw AFPM block (identity payloads, uncompressed
// checkpoints) and an AFCZ container are both accepted. Throws
// util::CheckError on malformed input — bad magic, unknown codec name,
// checksum mismatch, truncation — without reading past the buffer.
std::vector<float> ParseAnyParams(std::span<const std::uint8_t> bytes,
                                  std::size_t* offset);

// Zero-copy form of ParseAnyParams. `values` aliases the input buffer on
// the fast path — a raw AFPM block, or an AFCZ identity container, with a
// 4-byte-aligned payload — and is then valid only as long as `bytes` is
// (`keepalive` empty, `copied_bytes` 0). Lossy codecs and misaligned
// payloads materialize into a buffer owned by `keepalive`, reporting the
// bytes copied so callers can account them. Rejects malformed input
// exactly as ParseAnyParams does.
struct ParsedParamsView {
  std::span<const float> values;
  std::shared_ptr<const void> keepalive;
  std::uint64_t copied_bytes = 0;
};
ParsedParamsView ParseAnyParamsView(std::span<const std::uint8_t> bytes,
                                    std::size_t* offset);

// Bytes AppendEncodedParams would emit for this codec and value vector
// (encodes into a scratch buffer; intended for benches, not hot paths).
std::size_t EncodedWireSize(const Codec& codec, std::span<const float> values);

// The exact float vector a peer would decode from an encode of `values`
// (with optional error feedback). The inproc training backend uses this to
// mirror the wire's lossy round trip so tcp and inproc runs stay
// bit-identical under the same --compress setting.
std::vector<float> RoundTrip(const Codec& codec, std::span<const float> values,
                             FeedbackState* feedback = nullptr);

// --- Registry ----------------------------------------------------------

// Global codec table. Built-ins register on first use; new codecs plug in
// from their own translation unit via RegistryEntry.
class Registry {
 public:
  static Registry& Global();

  // Registers `codec` (not owned; must outlive the process — codecs are
  // stateless singletons) under its name plus aliases.
  void Register(const Codec* codec, std::vector<std::string> aliases = {});

  // Resolves a codec by name or alias; throws util::CheckError on unknown
  // names (the message lists what is available).
  const Codec& Get(const std::string& name) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> ListNames() const;
};

// Convenience free functions over Registry::Global().
const Codec& Get(const std::string& name);
bool Has(const std::string& name);
std::vector<std::string> ListNames();

// The lossless pass-through codec (negotiation fallback).
const Codec& Identity();

// True when `codec` is the identity codec (by canonical name).
bool IsIdentity(const Codec& codec);

// Registers a codec at static-initialization time:
//   static const compress::RegistryEntry kReg{&my_codec, {"alias"}};
struct RegistryEntry {
  explicit RegistryEntry(const Codec* codec,
                         std::vector<std::string> aliases = {}) {
    Registry::Global().Register(codec, std::move(aliases));
  }
};

// --- fp16 scalar conversions (shared by the fp16 and topk codecs) ------

// Round-to-nearest-even float32 → IEEE-754 binary16; overflow saturates to
// ±inf, NaN payloads collapse to a quiet NaN.
std::uint16_t FloatToHalf(float value);
float HalfToFloat(std::uint16_t half);

}  // namespace compress
