// Wire protocol for the distributed run mode.
//
// Every message is one frame: a fixed 16-byte little-endian header
//
//   u32 magic   "AFNT"
//   u16 version (currently 1)
//   u16 type    MessageType
//   u64 length  payload bytes that follow
//
// followed by `length` payload bytes. Parameter payloads reuse the AFPM
// block from nn/serialize — or, when a compression codec was negotiated, an
// AFCZ container from compress/ — so model bytes are identical on disk and
// on the wire. Decoders sniff the leading magic, so either form is always
// accepted regardless of what was negotiated. Decoding is incremental
// (stream-friendly): DecodeFrameView reports how many bytes it consumed, or
// 0 when the buffer does not yet hold a whole frame. Malformed input — bad
// magic, unknown version, absurd length — throws util::CheckError; it never
// reads past the buffer.
//
// Zero-copy decode path: DecodeFrameView yields a FrameView whose payload
// aliases the caller's buffer, and the typed decoders return messages whose
// parameter fields are UpdateViews that alias that same buffer whenever the
// float payload is 4-byte aligned (it is, at every offset this protocol
// emits). Such a message is valid only as long as the buffer it was decoded
// from — consumers either finish with it inside the read callback or
// materialize it once into an arena. The owning Frame/DecodeFrame pair
// serves blocking clients and tests.
//
// Handshake (see docs/NETWORK.md): the client sends a Hello naming every
// client id it carries; the server answers with one Offer (the codecs it
// accepts, possibly none, and whether it offers trace context); the client
// answers with one Select (its codec pick and whether it will attach trace
// context). ModelBroadcast and ClientUpdate payloads may carry a 20-byte
// trailing AFTC block (u32 "AFTC" magic, u64 trace_id, u64 parent_span_id)
// after the fixed fields; it is emitted only when trace_id is non-zero and
// decoders sniff for it, so an untraced run sends no block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/update_view.h"

namespace compress {
class Codec;
struct FeedbackState;
}  // namespace compress

namespace net {

// Values 5-10 belonged to retired frame types and are not reused.
enum class MessageType : std::uint16_t {
  kModelBroadcast = 1,  // server → client: base params for one training job
  kClientUpdate = 2,    // client → server: the resulting delta
  kAck = 3,             // server → client: update receipt
  kShutdown = 4,        // server → client: run over, close cleanly
  kHello = 11,          // client → server: client ids on this connection
  kOffer = 12,          // server → client: accepted codecs + trace context
  kSelect = 13,         // client → server: the client's picks from the offer
};

const char* MessageTypeName(MessageType type);

inline constexpr std::uint32_t kFrameMagic = 0x544E4641u;  // "AFNT" (LE)
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Upper bound on a payload; anything larger is a corrupt or hostile length
// field (the biggest legitimate payload is one model, well under this).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

struct Frame {
  MessageType type = MessageType::kAck;
  std::vector<std::uint8_t> payload;
};

// Non-owning frame: the payload aliases whatever buffer it was decoded
// from. Implicitly constructible from a Frame so every typed decoder
// accepts both forms.
struct FrameView {
  MessageType type = MessageType::kAck;
  std::span<const std::uint8_t> payload;

  FrameView() = default;
  FrameView(MessageType t, std::span<const std::uint8_t> p)
      : type(t), payload(p) {}
  FrameView(const Frame& frame)  // NOLINT: adapter by design
      : type(frame.type), payload(frame.payload) {}
};

// Header + payload as one contiguous byte vector.
std::vector<std::uint8_t> EncodeFrame(const Frame& frame);

// Appends the encoded frame to `out` — the in-place form QueueFrame-style
// call sites use so no intermediate byte vector is built.
void AppendFrameBytes(std::vector<std::uint8_t>& out, const Frame& frame);

// Attempts to decode one frame from the start of `buffer` without copying:
// `out->payload` aliases `buffer`. Returns the number of bytes consumed
// (header + payload), or 0 when the buffer holds only a frame prefix.
// Throws util::CheckError on bad magic, unsupported version, unknown type,
// or an oversized length field.
std::size_t DecodeFrameView(std::span<const std::uint8_t> buffer,
                            FrameView* out);

// Owning form of DecodeFrameView (copies the payload into `out`).
std::size_t DecodeFrame(std::span<const std::uint8_t> buffer, Frame* out);

// --- Typed payloads ---------------------------------------------------
// Decoders validate the frame type and payload framing; truncated or
// trailing bytes throw util::CheckError. Decoded parameter fields
// (ModelBroadcastMsg::params, ClientUpdateMsg::delta) alias the frame
// buffer on the zero-copy path — see the header comment for the lifetime
// rule.

// One training job: "train from these base params". `round` is the server
// round the job was dispatched in, `job_index` the per-client job counter
// that keys the client's deterministic RNG stream.
struct ModelBroadcastMsg {
  std::uint64_t round = 0;
  std::uint64_t job_index = 0;
  UpdateView params;
  // The client the job targets; a connection carrying many clients demuxes
  // jobs by it. A fixed i32 right after the parameter block.
  std::int32_t client_id = -1;
  // Cross-process trace context (0 = untraced → no AFTC block on the wire).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

// The client's report for one job.
struct ClientUpdateMsg {
  std::int32_t client_id = -1;
  std::uint64_t job_index = 0;
  std::uint64_t base_round = 0;
  std::uint64_t num_samples = 0;
  UpdateView delta;
  // Cross-process trace context (0 = untraced → no AFTC block on the wire).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  // Decode-side only: frame payload size in bytes, filled by
  // DecodeClientUpdate so the server can audit per-update wire cost.
  // Ignored by the encoder.
  std::uint64_t wire_bytes = 0;
};

// Update receipt: value = the acknowledged job_index.
struct AckMsg {
  std::uint64_t value = 0;
};

// Client → server, the first frame on every connection: every client id
// the connection carries (one for a thread-per-client worker, a slice of
// the fleet for a virtual-client pool connection).
struct HelloMsg {
  std::vector<std::int32_t> client_ids;
};

// Server → client, the answer to a Hello: the codec names the server
// decodes, preference-ordered (may be empty), and whether it offers
// trace-context propagation.
struct OfferMsg {
  std::vector<std::string> codecs;
  bool trace_context = false;
};

// Client → server, the answer to an Offer: the codec the client encodes
// its updates with (and accepts on the downlink, subject to
// broadcast-safety) and whether it will attach trace context.
struct SelectMsg {
  std::string codec;
  bool trace_context = false;
};

// Parameter-bearing encoders take an optional negotiated codec: nullptr (or
// the identity codec) emits a raw AFPM block, the on-disk checkpoint form;
// anything else emits an AFCZ container. The update encoder additionally
// threads the client's error-feedback state for codecs that use it.
// Decoders sniff the magic, so they need no codec argument.
//
// The Append*Frame forms serialize header + payload straight into `out`
// (typically a connection's write buffer) with no intermediate Frame or
// payload vector — the zero-copy write path.
Frame EncodeModelBroadcast(const ModelBroadcastMsg& msg,
                           const compress::Codec* codec = nullptr);
ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame);
// The decoded params/delta view may alias the frame's payload bytes, so the
// frame must outlive the message. A temporary Frame can't: these overloads
// are deleted to make `DecodeX(EncodeX(...))` a compile error instead of a
// use-after-free (bind the frame to a local first).
ModelBroadcastMsg DecodeModelBroadcast(Frame&&) = delete;

// Encode once, frame many: a server sends the same model to every job of
// a round. EncodeParamsBlock returns the parameter block (raw AFPM or AFCZ
// container) that EncodeModelBroadcast(msg, codec) carries for msg.params,
// and AppendModelBroadcastFrame frames such a block around msg's other
// fields without reading msg.params. Given
// block == EncodeParamsBlock(msg.params, codec), it appends the bytes of
// EncodeFrame(EncodeModelBroadcast(msg, codec)).
std::vector<std::uint8_t> EncodeParamsBlock(
    std::span<const float> params, const compress::Codec* codec = nullptr);
void AppendModelBroadcastFrame(std::vector<std::uint8_t>& out,
                               const ModelBroadcastMsg& msg,
                               std::span<const std::uint8_t> params_block);

// Decode once per run of one model: the last parameter block a connection
// received, as bytes and as its decoded floats (always owned, never
// aliasing a frame). One entry suffices because the server sends a batch's
// broadcasts grouped by base; net.broadcast_cache.{hits,misses} count how
// often the cache held.
struct BroadcastDecodeCache {
  std::vector<std::uint8_t> params_block;
  UpdateView params;
};
// Cached form of DecodeModelBroadcast. When the frame's parameter block is
// byte-identical to the cached one, the message shares the cached floats;
// otherwise the block is parsed and validated in full (checksum included)
// and becomes the cache. Every other field and check runs on every frame.
// msg.params never aliases `frame`, so the frame may die first.
ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame,
                                       BroadcastDecodeCache* cache);

Frame EncodeClientUpdate(const ClientUpdateMsg& msg,
                         const compress::Codec* codec = nullptr,
                         compress::FeedbackState* feedback = nullptr);
void AppendClientUpdateFrame(std::vector<std::uint8_t>& out,
                             const ClientUpdateMsg& msg,
                             const compress::Codec* codec = nullptr,
                             compress::FeedbackState* feedback = nullptr);
ClientUpdateMsg DecodeClientUpdate(const FrameView& frame);
ClientUpdateMsg DecodeClientUpdate(Frame&&) = delete;  // see above

Frame EncodeAck(const AckMsg& msg);
AckMsg DecodeAck(const FrameView& frame);

Frame EncodeHello(const HelloMsg& msg);
HelloMsg DecodeHello(const FrameView& frame);

Frame EncodeOffer(const OfferMsg& msg);
OfferMsg DecodeOffer(const FrameView& frame);

Frame EncodeSelect(const SelectMsg& msg);
SelectMsg DecodeSelect(const FrameView& frame);

Frame MakeShutdownFrame();

}  // namespace net
