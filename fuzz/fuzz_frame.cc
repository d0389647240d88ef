// Fuzz target: the 16-byte frame protocol (net/frame) — incremental
// DecodeFrame plus every typed payload decoder, including the embedded
// AFPM/AFCZ parameter blocks and the trailing AFTC trace block.
//
// Invariants checked beyond memory safety: re-encoding a decoded frame
// (header + raw payload) reproduces the consumed bytes exactly, the
// zero-copy DecodeFrameView agrees with the owning DecodeFrame byte for
// byte on every input, and the cached broadcast decoder agrees with the
// plain one on every broadcast.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "harness_util.h"
#include "net/frame.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  std::size_t offset = 0;
  net::BroadcastDecodeCache cache;  // shared by this input's broadcasts
  fuzz_harness::GuardParse([&] {
    // Stream-decode every complete frame in the buffer, as the server's
    // read loop does.
    while (true) {
      net::Frame frame;
      const std::size_t consumed =
          net::DecodeFrame(bytes.subspan(offset), &frame);

      // The zero-copy path must agree with the owning path exactly: same
      // consumed count, same type, same payload bytes.
      net::FrameView view;
      const std::size_t view_consumed =
          net::DecodeFrameView(bytes.subspan(offset), &view);
      if (view_consumed != consumed) {
        std::abort();  // view/owning decode disagree on framing
      }
      if (consumed == 0) {
        fuzz_harness::Observe(0xF401);  // partial frame → wait for bytes
        break;
      }
      if (view.type != frame.type ||
          view.payload.size() != frame.payload.size() ||
          (!frame.payload.empty() &&
           std::memcmp(view.payload.data(), frame.payload.data(),
                       frame.payload.size()) != 0)) {
        std::abort();  // view payload does not alias the same bytes
      }
      fuzz_harness::Observe(0xF410 + static_cast<std::uint64_t>(frame.type));

      const std::vector<std::uint8_t> reencoded = net::EncodeFrame(frame);
      if (reencoded.size() != consumed ||
          std::memcmp(reencoded.data(), data + offset, consumed) != 0) {
        std::abort();  // frame canonicality broken
      }
      offset += consumed;

      // The typed decoders each validate their own payload framing; any
      // of them rejecting is a feature, not the end of the stream. Decode
      // through the view so the span-based parameter parsers (zero-copy
      // AFPM path) are the ones exercised.
      fuzz_harness::GuardParse([&] {
        switch (view.type) {
          case net::MessageType::kModelBroadcast: {
            // The cached decoder (primed by this input's earlier
            // broadcasts) must agree with the plain one on every frame:
            // both reject, or both yield the same fields and float bits.
            std::optional<net::ModelBroadcastMsg> cached;
            std::optional<net::ModelBroadcastMsg> plain;
            fuzz_harness::GuardParse(
                [&] { cached = net::DecodeModelBroadcast(view, &cache); });
            fuzz_harness::GuardParse(
                [&] { plain = net::DecodeModelBroadcast(view); });
            if (cached.has_value() != plain.has_value()) {
              std::abort();  // one decoder accepted what the other refused
            }
            if (!plain.has_value()) {
              break;
            }
            const net::ModelBroadcastMsg& msg = *plain;
            if (cached->round != msg.round ||
                cached->job_index != msg.job_index ||
                cached->client_id != msg.client_id ||
                cached->trace_id != msg.trace_id ||
                cached->parent_span_id != msg.parent_span_id ||
                cached->params.size() != msg.params.size() ||
                (!msg.params.empty() &&
                 std::memcmp(cached->params.data(), msg.params.data(),
                             msg.params.size() * sizeof(float)) != 0)) {
              std::abort();  // cached decode disagrees with a full parse
            }
            fuzz_harness::Observe(0xF420 + (msg.params.size() & 0xFF));
            break;
          }
          case net::MessageType::kClientUpdate: {
            const auto msg = net::DecodeClientUpdate(view);
            fuzz_harness::Observe(0xF430 + (msg.delta.size() & 0xFF));
            fuzz_harness::Observe(msg.trace_id == 0 ? 0xF43E : 0xF43F);
            // A delta view without a keepalive aliases the input buffer —
            // it must sit entirely inside it.
            if (!msg.delta.empty() && !msg.delta.has_keepalive()) {
              const auto* lo =
                  reinterpret_cast<const std::uint8_t*>(msg.delta.data());
              if (lo < data || lo + msg.delta.size() * sizeof(float) >
                                   data + size) {
                std::abort();  // zero-copy view escaped the frame buffer
              }
            }
            break;
          }
          case net::MessageType::kAck:
            net::DecodeAck(view);
            break;
          case net::MessageType::kShutdown:
            break;
          case net::MessageType::kHello: {
            const auto msg = net::DecodeHello(view);
            fuzz_harness::Observe(0xF470 + (msg.client_ids.size() & 0xFF));
            break;
          }
          case net::MessageType::kOffer: {
            const auto msg = net::DecodeOffer(view);
            fuzz_harness::Observe(0xF440 + (msg.codecs.size() & 0x0F));
            fuzz_harness::Observe(msg.trace_context ? 0xF450 : 0xF451);
            break;
          }
          case net::MessageType::kSelect: {
            const auto msg = net::DecodeSelect(view);
            fuzz_harness::Observe(msg.trace_context ? 0xF460 : 0xF461);
            break;
          }
        }
      });
    }
  });
  return 0;
}
