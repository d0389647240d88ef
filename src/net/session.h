// Transport-agnostic protocol session: handshake, codec and trace
// negotiation, update dedup and eviction policy, split out from fd
// readiness (which lives in net/reactor.h). A Session never touches a
// socket: its owner (the Host) feeds it decoded frames and carries out the
// side effects it requests.
//
// Per-session state machine:
//
//   accepted ──Hello{ids…}──▶ identified ──(server sends Offer)
//        │                       │
//        │                       └──Select──▶ handshake complete
//        │                                       └──ClientUpdate*──▶ …
//        └─ anything else / malformed ──▶ closed (HandleFrame → false)
//
// A session carries every client id its Hello named: one for a
// thread-per-client worker, a slice of the fleet for a virtual-client pool
// connection. Update dedup is keyed (client_id, job_index) so id streams on
// a shared session cannot collide.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"

namespace compress {
class Codec;
}  // namespace compress

namespace net {

// The client half of the handshake, shared by every client kind: picks the
// first offered codec this build knows (identity when none is), and
// attaches trace context only when the server offers it and the client
// wants it.
SelectMsg AnswerOffer(const OfferMsg& offer, bool trace_context);

// The codec a Select names, in the form the encoders take: nullptr for
// identity. Throws util::CheckError for a name this build does not know.
const compress::Codec* SelectedCodec(const std::string& name);

class Session {
 public:
  struct Options {
    // Codec names offered after the hello (preference order). "identity"
    // is always acceptable in a Select even when not listed.
    std::vector<std::string> advertised_codecs;
    // Offer trace-context propagation.
    bool offer_trace_context = false;
  };

  // The transport owning this session. All calls arrive synchronously from
  // inside HandleFrame on the owner thread.
  class Host {
   public:
    virtual ~Host() = default;
    // Queues a protocol frame toward the peer (no flush requirement).
    virtual void SendFrame(const Frame& frame) = 0;
    // Registers `client_id` as reachable through this session. false →
    // the id is already bound elsewhere; the session closes.
    virtual bool BindClient(int client_id) = 0;
    // The handshake (hello, offer, select) just finished.
    virtual void OnHandshakeComplete() = 0;
    // First delivery of an update (duplicates are acked but suppressed).
    virtual void OnUpdate(int client_id, ClientUpdateMsg msg) = 0;
    virtual void OnDuplicateUpdate(int client_id,
                                   std::uint64_t job_index) = 0;
  };

  Session(Host* host, Options options);

  // Feeds one decoded frame through the state machine. Returns false when
  // the session must close (protocol violation, peer goodbye). Malformed
  // typed payloads throw util::CheckError — the caller contains that the
  // same way it contains malformed framing.
  bool HandleFrame(const FrameView& frame);

  bool identified() const { return !client_ids_.empty(); }
  bool handshake_complete() const { return handshake_complete_; }
  // Bound ids in hello order.
  const std::vector<int>& client_ids() const { return client_ids_; }
  int primary_id() const {
    return client_ids_.empty() ? -1 : client_ids_.front();
  }
  // Negotiated codec; nullptr = identity.
  const compress::Codec* codec() const { return codec_; }
  bool trace_context() const { return trace_context_; }

 private:
  bool HandleHello(const FrameView& frame);
  bool HandleSelect(const FrameView& frame);
  bool HandleClientUpdate(const FrameView& frame);
  bool Owns(int client_id) const { return owned_ids_.count(client_id) > 0; }

  Host* host_;
  Options options_;
  std::vector<int> client_ids_;
  std::set<int> owned_ids_;
  bool handshake_complete_ = false;
  bool trace_context_ = false;
  const compress::Codec* codec_ = nullptr;
  // Dedup of resent updates, keyed (client_id, job_index) so id streams on
  // one session cannot collide.
  std::set<std::pair<int, std::uint64_t>> delivered_;
};

}  // namespace net
