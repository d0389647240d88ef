#include "net/session.h"

#include "compress/codec.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/registry.h"

namespace net {

SelectMsg AnswerOffer(const OfferMsg& offer, bool trace_context) {
  SelectMsg select{"identity", offer.trace_context && trace_context};
  for (const std::string& name : offer.codecs) {
    if (compress::Has(name)) {
      select.codec = name;
      break;
    }
  }
  return select;
}

const compress::Codec* SelectedCodec(const std::string& name) {
  const compress::Codec& codec = compress::Get(name);
  return compress::IsIdentity(codec) ? nullptr : &codec;
}

Session::Session(Host* host, Options options)
    : host_(host), options_(std::move(options)) {
  AF_CHECK(host_ != nullptr);
}

bool Session::HandleFrame(const FrameView& frame) {
  if (!identified()) {
    if (frame.type == MessageType::kHello) {
      return HandleHello(frame);
    }
    AF_LOG(kWarn) << "net: connection sent " << MessageTypeName(frame.type)
                  << " before its hello; closing";
    return false;
  }
  if (!handshake_complete_) {
    if (frame.type == MessageType::kSelect) {
      return HandleSelect(frame);
    }
    AF_LOG(kWarn) << "net: client " << primary_id() << " sent "
                  << MessageTypeName(frame.type)
                  << " before its select; closing";
    return false;
  }
  switch (frame.type) {
    case MessageType::kClientUpdate:
      return HandleClientUpdate(frame);
    case MessageType::kShutdown:
      return false;  // client says goodbye
    default:
      AF_LOG(kWarn) << "net: client " << primary_id() << " sent "
                    << MessageTypeName(frame.type)
                    << " after its handshake; closing";
      return false;
  }
}

bool Session::HandleHello(const FrameView& frame) {
  const HelloMsg hello = DecodeHello(frame);
  if (hello.client_ids.empty()) {
    AF_LOG(kWarn) << "net: hello with no client ids; closing";
    return false;
  }
  for (const std::int32_t id : hello.client_ids) {
    // -1 is the "no id yet" sentinel downstream; any negative id could let
    // one connection register twice and leave a dangling binding on close.
    if (id < 0) {
      AF_LOG(kWarn) << "net: hello declared negative client id " << id
                    << "; closing";
      return false;
    }
    // Bind incrementally so a mid-hello failure still leaves client_ids_
    // an accurate record of what the owner must unbind on close.
    if (!host_->BindClient(static_cast<int>(id))) {
      return false;
    }
    client_ids_.push_back(static_cast<int>(id));
    owned_ids_.insert(static_cast<int>(id));
  }
  // The handshake completes (and the host's connect notification fires)
  // only once the select arrives, so the driver never broadcasts before it
  // knows the downlink codec and whether the peer wants trace context.
  host_->SendFrame(EncodeOffer(
      {options_.advertised_codecs, options_.offer_trace_context}));
  return true;
}

bool Session::HandleSelect(const FrameView& frame) {
  const SelectMsg select = DecodeSelect(frame);
  const std::string key = util::CanonicalName(select.codec);
  bool offered = key == "identity";
  for (const std::string& name : options_.advertised_codecs) {
    offered = offered || util::CanonicalName(name) == key;
  }
  if (!offered || !compress::Has(select.codec)) {
    AF_LOG(kWarn) << "net: client " << primary_id()
                  << " selected unavailable codec '" << select.codec
                  << "'; closing";
    return false;
  }
  codec_ = SelectedCodec(select.codec);
  trace_context_ = options_.offer_trace_context && select.trace_context;
  handshake_complete_ = true;
  host_->OnHandshakeComplete();
  return true;
}

bool Session::HandleClientUpdate(const FrameView& frame) {
  ClientUpdateMsg msg = DecodeClientUpdate(frame);
  if (!Owns(msg.client_id)) {
    AF_LOG(kWarn) << "net: session for client " << primary_id()
                  << " sent update claiming id " << msg.client_id
                  << "; closing";
    return false;
  }
  // Ack every copy so the sender stops retrying; deliver only the first.
  // Queue-only (no immediate flush): a flush failure here would destroy
  // the session while its owner is still feeding it frames.
  host_->SendFrame(EncodeAck({msg.job_index}));
  if (!delivered_.emplace(msg.client_id, msg.job_index).second) {
    host_->OnDuplicateUpdate(msg.client_id, msg.job_index);
    return true;
  }
  host_->OnUpdate(msg.client_id, std::move(msg));
  return true;
}

}  // namespace net
