// TCP server event loop for the distributed run mode, built on
// net::Reactor (fd readiness) and net::Session (protocol state machine).
//
// Single-threaded: the driver thread calls PollOnce() to pump one tick —
// accept new connections, drain readable sockets into per-connection
// buffers, decode complete frames into each connection's Session, flush
// pending writes — and registers callbacks for the three application
// events (client handshake, client update, disconnect). All sockets are
// non-blocking; a connection that stays stalled mid-frame or mid-write past
// `io_timeout_ms` is evicted.
//
// Scale: every connection sits in the reactor's one epoll set, so a tick
// costs O(ready fds), not O(connections) — tens of thousands of concurrent
// connections are sustained by one loop. A connection's Hello binds one
// client id (a thread-per-client worker) or many (a virtual-client pool);
// every broadcast names its client id, so a pool can demux. Protocol
// behavior — handshake ordering, codec/trace negotiation,
// (client_id, job_index)-keyed update dedup with re-acks, eviction
// policy — lives in net/session.h.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace compress {
class Codec;
}  // namespace compress

namespace net {

struct ServerOptions {
  std::uint16_t port = 0;   // 0 → ephemeral loopback port
  // A connection with a partially received frame or unflushed writes older
  // than this is considered dead.
  int io_timeout_ms = 10000;
  // Codec names the Offer lists (preference order; may be empty).
  // "identity" is always acceptable in a Select even when not listed.
  std::vector<std::string> advertised_codecs;
  // Whether the Offer offers trace-context propagation; clients answer in
  // their Select whether they will attach AFTC blocks.
  bool offer_trace_context = false;
  // The fleet's largest client id: a Hello naming a larger one is refused
  // and its connection closed.
  int max_client_id = std::numeric_limits<int>::max();
};

class Server {
 public:
  // The update's delta may be a zero-copy view into the connection's read
  // buffer: it is valid only for the duration of the callback. A handler
  // that keeps the update must materialize the view (arena copy / ToVector)
  // before returning — unless the view carries its own keepalive
  // (has_keepalive()), in which case it may be kept as-is.
  using UpdateHandler = std::function<void(int client_id, ClientUpdateMsg)>;
  using ClientHandler = std::function<void(int client_id)>;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  void SetUpdateHandler(UpdateHandler handler);
  void SetConnectHandler(ClientHandler handler);     // after handshake
  // Fires on the close or eviction of a client whose connect fired; a
  // connection that closes mid-handshake disconnects no one.
  void SetDisconnectHandler(ClientHandler handler);

  // One reactor tick; blocks at most `timeout_ms` waiting for readiness.
  void PollOnce(int timeout_ms);

  // Queues `frame` for the identified client; an immediate non-blocking
  // write is attempted, the remainder flushes on later ticks. Returns false
  // when the client is not connected.
  bool SendTo(int client_id, const Frame& frame);

  // Queues a Shutdown frame to every identified client.
  void BroadcastShutdown();

  // Pumps the loop until every queued byte is flushed (or `timeout_ms`
  // passes). Returns true when fully flushed.
  bool Flush(int timeout_ms);

  // Pumps the loop until `count` clients have completed their handshake.
  bool WaitForClients(std::size_t count, int timeout_ms);

  // Drops the client's connection (e.g. job deadline exceeded). Fires the
  // disconnect handler for every client id connected through it — a pool
  // behind one socket is one peer.
  void Evict(int client_id, const char* reason);

  bool IsConnected(int client_id) const;
  std::size_t ConnectedCount() const { return by_client_.size(); }

  // The codec the client picked during negotiation; nullptr when it chose
  // identity. The driver uses this to encode downlink broadcasts the client
  // can decode.
  const compress::Codec* ClientCodec(int client_id) const;

  // Whether the client accepted trace-context propagation during its
  // handshake. The driver only attaches AFTC blocks to broadcasts for
  // clients that did.
  bool ClientTraceContext(int client_id) const;

 private:
  struct Conn;
  friend struct Conn;

  void AcceptPending();
  std::size_t HandshakeCount() const;
  // Appends the encoded frame to the connection's write queue (no flush).
  void QueueFrame(Conn& conn, const Frame& frame);
  // Reads and processes one connection; returns false when it must close.
  bool ReadConn(Conn& conn);
  // Decodes every complete frame in `conn.in` into the session; returns
  // false when the connection must close.
  bool ProcessInbuf(Conn& conn);
  // Attempts to write pending bytes; returns false on a dead socket.
  bool WriteConn(Conn& conn);
  // Syncs the reactor's write interest with the connection's outbox.
  void UpdateWriteInterest(Conn& conn);
  void CloseConn(Conn& conn, const char* reason);

  ServerOptions options_;
  Listener listener_;
  Reactor reactor_;
  std::map<int, std::unique_ptr<Conn>> conns_;  // keyed by fd
  std::map<int, Conn*> by_client_;
  std::vector<ReactorEvent> events_;  // scratch reused across ticks
  UpdateHandler on_update_;
  ClientHandler on_connect_;
  ClientHandler on_disconnect_;

  obs::Counter& frames_received_;
  obs::Counter& frames_sent_;
  obs::Counter& bytes_in_;
  obs::Counter& bytes_out_;
  obs::Counter& evictions_;
  obs::Counter& duplicates_;
  obs::Histogram& tick_us_;
  obs::Gauge& connected_clients_;
  obs::Counter& transport_updates_;
};

}  // namespace net
