#include "net/server.h"

#include <fcntl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <new>

#include "net/session.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace net {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  AF_CHECK_GE(flags, 0) << "fcntl failed: " << util::ErrnoMessage(errno);
  AF_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl failed: " << util::ErrnoMessage(errno);
}

}  // namespace

// One accepted connection: socket buffers plus the protocol Session, wired
// back into the server through the Session::Host interface.
struct Server::Conn : Session::Host {
  Server* server = nullptr;
  util::UniqueFd fd;
  std::unique_ptr<Session> session;
  // Reusable receive scratch: bytes land at the end, frames decode as
  // views from `in_offset`, and the consumed prefix is reclaimed once per
  // read batch — no per-frame payload vector is ever built.
  std::vector<std::uint8_t> in;
  std::size_t in_offset = 0;  // already-decoded prefix of `in`
  std::vector<std::uint8_t> out;
  std::size_t out_offset = 0;  // already-written prefix of `out`
  std::uint64_t last_progress_ns = 0;

  // --- Session::Host ---------------------------------------------------
  void SendFrame(const Frame& frame) override {
    server->QueueFrame(*this, frame);
  }

  bool BindClient(int client_id) override {
    if (client_id > server->options_.max_client_id) {
      AF_LOG(kWarn) << "net: hello names client " << client_id
                    << ", outside the fleet; closing";
      return false;
    }
    if (server->by_client_.count(client_id) > 0) {
      AF_LOG(kWarn) << "net: duplicate handshake for client " << client_id
                    << "; closing new connection";
      return false;
    }
    server->by_client_[client_id] = this;
    return true;
  }

  void OnHandshakeComplete() override {
    server->connected_clients_.Set(
        static_cast<double>(server->HandshakeCount()));
    if (server->on_connect_) {
      for (const int id : session->client_ids()) {
        server->on_connect_(id);
      }
    }
  }

  void OnUpdate(int client_id, ClientUpdateMsg msg) override {
    server->transport_updates_.Increment();
    if (server->on_update_) {
      server->on_update_(client_id, std::move(msg));
    }
  }

  void OnDuplicateUpdate(int, std::uint64_t) override {
    server->duplicates_.Increment();
  }
};

Server::Server(ServerOptions options)
    : options_(options),
      listener_(options.port),
      frames_received_(obs::DefaultRegistry().GetCounter(
          "net.server.frames_received")),
      frames_sent_(obs::DefaultRegistry().GetCounter(
          "net.server.frames_sent")),
      bytes_in_(obs::DefaultRegistry().GetCounter("net.server.bytes_in")),
      bytes_out_(obs::DefaultRegistry().GetCounter("net.server.bytes_out")),
      evictions_(obs::DefaultRegistry().GetCounter("net.server.evictions")),
      duplicates_(obs::DefaultRegistry().GetCounter(
          "net.server.duplicate_updates")),
      tick_us_(obs::DefaultRegistry().GetHistogram("net.server.tick_us")),
      connected_clients_(obs::DefaultRegistry().GetGauge(
          "net.server.connected_clients")),
      transport_updates_(
          obs::DefaultRegistry().GetCounter("transport.updates")) {
  SetNonBlocking(listener_.fd());
  reactor_.Add(listener_.fd());
}

Server::~Server() = default;

void Server::SetUpdateHandler(UpdateHandler handler) {
  on_update_ = std::move(handler);
}
void Server::SetConnectHandler(ClientHandler handler) {
  on_connect_ = std::move(handler);
}
void Server::SetDisconnectHandler(ClientHandler handler) {
  on_disconnect_ = std::move(handler);
}

void Server::AcceptPending() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      AF_CHECK(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          << "accept failed: " << util::ErrnoMessage(errno);
      return;
    }
    SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->server = this;
    conn->fd.reset(fd);
    conn->last_progress_ns = NowNs();
    conn->session = std::make_unique<Session>(
        conn.get(),
        Session::Options{options_.advertised_codecs,
                         options_.offer_trace_context});
    reactor_.Add(fd);
    conns_.emplace(fd, std::move(conn));
  }
}

bool Server::ReadConn(Conn& conn) {
  while (true) {
    std::uint8_t chunk[16384];
    const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
    if (n == 0) {
      // EOF — but a peer that closes right after its last send may leave
      // complete frames buffered in `conn.in`. Deliver those before
      // honoring the close.
      ProcessInbuf(conn);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        break;  // drained
      }
      return false;  // ECONNRESET etc.
    }
    conn.in.insert(conn.in.end(), chunk, chunk + n);
    bytes_in_.Increment(static_cast<std::uint64_t>(n));
    conn.last_progress_ns = NowNs();
  }
  return ProcessInbuf(conn);
}

bool Server::ProcessInbuf(Conn& conn) {
  // Decode every complete frame as a view over the scratch buffer — no
  // per-frame payload vector. The consumed prefix is reclaimed once, after
  // the batch, so every view handed to the session stays valid while it
  // runs. A malformed stream kills the connection.
  bool keep = true;
  while (keep) {
    FrameView frame;
    std::size_t consumed = 0;
    try {
      consumed = DecodeFrameView(
          std::span<const std::uint8_t>(conn.in).subspan(conn.in_offset),
          &frame);
    } catch (const util::CheckError& e) {
      AF_LOG(kWarn) << "net: malformed frame from client "
                    << conn.session->primary_id() << ": " << e.what();
      keep = false;
      break;
    }
    if (consumed == 0) {
      break;
    }
    conn.in_offset += consumed;
    frames_received_.Increment();
    // A structurally valid frame can still carry a malformed typed payload
    // (truncated AFPM/AFCZ block, checksum mismatch, bad codec name). That
    // must evict this connection, never unwind through the reactor.
    try {
      keep = conn.session->HandleFrame(frame);
    } catch (const util::CheckError& e) {
      AF_LOG(kWarn) << "net: malformed " << MessageTypeName(frame.type)
                    << " payload from client " << conn.session->primary_id()
                    << ": " << e.what();
      keep = false;
    } catch (const std::bad_alloc&) {
      // A payload that validates structurally but still demands an absurd
      // allocation is the sender's fault, not grounds to kill the reactor.
      AF_LOG(kWarn) << "net: " << MessageTypeName(frame.type)
                    << " payload from client " << conn.session->primary_id()
                    << " exhausted memory during decode; closing";
      keep = false;
    }
  }
  // Reclaim the decoded prefix (one memmove per batch, usually of nothing:
  // a fully-consumed buffer just resets). Capacity is kept for reuse.
  if (conn.in_offset == conn.in.size()) {
    conn.in.clear();
    conn.in_offset = 0;
  } else if (conn.in_offset > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(
                                        conn.in_offset));
    conn.in_offset = 0;
  }
  return keep;
}

void Server::QueueFrame(Conn& conn, const Frame& frame) {
  AppendFrameBytes(conn.out, frame);
  frames_sent_.Increment();
}

bool Server::WriteConn(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;  // kernel buffer full; retry when writable
      }
      return false;  // EPIPE / ECONNRESET
    }
    conn.out_offset += static_cast<std::size_t>(n);
    bytes_out_.Increment(static_cast<std::uint64_t>(n));
    conn.last_progress_ns = NowNs();
  }
  conn.out.clear();
  conn.out_offset = 0;
  return true;
}

void Server::UpdateWriteInterest(Conn& conn) {
  reactor_.SetWantWrite(conn.fd.get(), conn.out_offset < conn.out.size());
}

void Server::CloseConn(Conn& conn, const char* reason) {
  const int fd = conn.fd.get();
  reactor_.Remove(fd);
  // Ids bound by a handshake that never finished are released silently:
  // their connect never fired, so neither does their disconnect.
  const bool connected = conn.session->handshake_complete();
  for (const int id : conn.session->client_ids()) {
    by_client_.erase(id);
    if (!connected) {
      continue;
    }
    AF_LOG(kInfo) << "net: client " << id << " disconnected (" << reason
                  << ")";
    evictions_.Increment();
    if (on_disconnect_) {
      on_disconnect_(id);
    }
  }
  if (connected) {
    connected_clients_.Set(static_cast<double>(HandshakeCount()));
  }
  conns_.erase(fd);  // destroys conn
}

void Server::PollOnce(int timeout_ms) {
  AF_TRACE_SPAN("net.server.poll");
  const auto tick_start = Clock::now();

  events_.clear();
  reactor_.Wait(timeout_ms, &events_);

  // Connection events first, accepts last: an fd freed by a close in this
  // batch can then be reused by a fresh accept without a stale event from
  // the old connection landing on the new one.
  bool accept_ready = false;
  for (const ReactorEvent& event : events_) {
    if (event.fd == listener_.fd()) {
      accept_ready = accept_ready || event.readable || event.error;
      continue;
    }
    auto it = conns_.find(event.fd);
    if (it == conns_.end()) {
      continue;  // closed earlier in this batch
    }
    Conn& conn = *it->second;
    if (event.error) {
      CloseConn(conn, "socket error");
      continue;
    }
    if (event.readable) {
      if (!ReadConn(conn)) {
        CloseConn(conn, "peer closed or malformed stream");
        continue;
      }
    } else if (event.hangup) {
      // Only treat HUP as fatal once the read side is drained.
      CloseConn(conn, "hangup");
      continue;
    }
    // Always attempt a write after events: reads may have queued acks.
    if (!WriteConn(conn)) {
      CloseConn(conn, "write failed");
      continue;
    }
    UpdateWriteInterest(conn);
  }
  if (accept_ready) {
    AcceptPending();
  }

  // Stall eviction: a connection stuck mid-frame or mid-write past the io
  // timeout is dead. Collect first — CloseConn mutates conns_.
  if (options_.io_timeout_ms >= 0) {
    std::vector<Conn*> stalled;
    const std::uint64_t now_ns = NowNs();
    for (const auto& [fd, conn] : conns_) {
      const bool stalled_read = conn->in.size() > conn->in_offset;
      const bool stalled_write = conn->out_offset < conn->out.size();
      if (!stalled_read && !stalled_write) {
        continue;
      }
      const std::uint64_t idle_ns = now_ns - conn->last_progress_ns;
      if (idle_ns / 1000000 >
          static_cast<std::uint64_t>(options_.io_timeout_ms)) {
        stalled.push_back(conn.get());
      }
    }
    for (Conn* conn : stalled) {
      const bool stalled_read = conn->in.size() > conn->in_offset;
      CloseConn(*conn,
                stalled_read ? "read stalled mid-frame" : "write stalled");
    }
  }

  tick_us_.Record(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            tick_start)
          .count());
}

bool Server::SendTo(int client_id, const Frame& frame) {
  return SendAppended(client_id, [&frame](std::vector<std::uint8_t>& out) {
    AppendFrameBytes(out, frame);
  });
}

bool Server::SendAppended(int client_id, const FrameAppender& append) {
  auto it = by_client_.find(client_id);
  if (it == by_client_.end()) {
    return false;
  }
  Conn& conn = *it->second;
  append(conn.out);
  frames_sent_.Increment();
  // Opportunistic immediate flush keeps broadcasts prompt without waiting a
  // tick.
  if (!WriteConn(conn)) {
    CloseConn(conn, "write failed");
    return false;
  }
  UpdateWriteInterest(conn);
  return true;
}

void Server::BroadcastShutdown() {
  const Frame frame = MakeShutdownFrame();
  // Snapshot ids first: SendTo may evict (erase from by_client_) on a dead
  // socket, which would invalidate a live iterator.
  std::vector<int> ids;
  ids.reserve(by_client_.size());
  for (const auto& [id, conn] : by_client_) {
    ids.push_back(id);
  }
  for (int id : ids) {
    SendTo(id, frame);
  }
}

bool Server::Flush(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    bool pending = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn->out_offset < conn->out.size()) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      return true;
    }
    if (Clock::now() >= deadline) {
      return false;
    }
    PollOnce(10);
  }
}

std::size_t Server::HandshakeCount() const {
  std::size_t count = 0;
  for (const auto& [id, conn] : by_client_) {
    count += conn->session->handshake_complete() ? 1 : 0;
  }
  return count;
}

bool Server::WaitForClients(std::size_t count, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (HandshakeCount() < count) {
    if (Clock::now() >= deadline) {
      return false;
    }
    PollOnce(20);
  }
  return true;
}

void Server::Evict(int client_id, const char* reason) {
  auto it = by_client_.find(client_id);
  if (it == by_client_.end()) {
    return;
  }
  CloseConn(*it->second, reason);
}

bool Server::IsConnected(int client_id) const {
  return by_client_.count(client_id) > 0;
}

const compress::Codec* Server::ClientCodec(int client_id) const {
  auto it = by_client_.find(client_id);
  return it == by_client_.end() ? nullptr : it->second->session->codec();
}

bool Server::ClientTraceContext(int client_id) const {
  auto it = by_client_.find(client_id);
  return it != by_client_.end() && it->second->session->trace_context();
}

}  // namespace net
