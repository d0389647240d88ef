// Loopback TCP primitives: RAII listener/connection, frame-granular
// blocking I/O with poll()-based deadlines, and bounded exponential-backoff
// retry for connects.
//
// Connection is what the client workers use (blocking sends/receives with
// timeouts); the server side keeps raw non-blocking fds inside net::Server
// and only borrows the framing helpers here.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "net/frame.h"
#include "util/fd.h"

namespace net {

// Bounded retry schedule with decorrelated jitter (see BackoffSchedule).
struct RetryConfig {
  int max_attempts = 5;
  double initial_backoff_ms = 10.0;
  double multiplier = 2.0;  // growth ceiling per retry
  double max_backoff_ms = 2000.0;
};

// Decorrelated-jitter backoff: every delay is drawn uniformly from
// [initial_backoff_ms, min(max_backoff_ms, prev · multiplier)], with prev
// seeded at initial_backoff_ms. Unlike a fixed exponential-plus-jitter
// schedule, consecutive delays are decorrelated from each other AND from
// other clients' schedules — so 10k clients that lost their server at the
// same instant fan out instead of reconnecting in lockstep waves. Seeded →
// fully deterministic per (config, seed).
class BackoffSchedule {
 public:
  BackoffSchedule(const RetryConfig& config, std::uint64_t seed);

  // The next delay; call once per retry.
  double NextDelayMs();

  // Restarts the schedule at the base delay (a new retry cycle). The RNG
  // keeps advancing so repeated cycles stay decorrelated.
  void Reset();

 private:
  RetryConfig config_;
  std::mt19937_64 rng_;
  double prev_ms_ = 0.0;
};

// A connected TCP stream socket (blocking mode). All deadlines are enforced
// with poll(); hitting one throws util::CheckError.
class Connection {
 public:
  Connection() = default;
  explicit Connection(util::UniqueFd fd);

  bool open() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void Close() { fd_.reset(); }

  // Sends the whole buffer; throws on error or when `timeout_ms` elapses
  // with the kernel buffer still full. timeout_ms < 0 → no deadline.
  void SendBytes(std::span<const std::uint8_t> bytes, int timeout_ms);
  void SendFrame(const Frame& frame, int timeout_ms);

  enum class RecvStatus { kFrame, kTimeout, kEof };

  // Receives exactly one frame, or reports an elapsed deadline / clean EOF
  // at a frame boundary. Throws on socket error or a malformed/partial
  // frame cut off by EOF. timeout_ms < 0 → wait forever.
  RecvStatus TryRecvFrame(Frame* out, int timeout_ms);

  // TryRecvFrame that treats a timeout as an error (throws). Returns false
  // on clean EOF.
  bool RecvFrame(Frame* out, int timeout_ms);

 private:
  util::UniqueFd fd_;
  std::vector<std::uint8_t> inbox_;  // received bytes not yet framed
};

// Listening socket bound to 127.0.0.1; port 0 picks an ephemeral port.
class Listener {
 public:
  explicit Listener(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  // Accepts one pending connection (call after poll() readiness or expect
  // blocking). The returned fd is left in blocking mode.
  util::UniqueFd Accept();

 private:
  util::UniqueFd fd_;
  std::uint16_t port_ = 0;
};

// Connects to 127.0.0.1:`port`, retrying per `retry` with seeded jitter.
// Throws util::CheckError when every attempt fails.
Connection ConnectWithRetry(std::uint16_t port, const RetryConfig& retry,
                            std::uint64_t seed);

// The client side of the handshake on a blocking connection: sends `hello`,
// waits up to `timeout_ms` for the server's Offer and answers it with
// AnswerOffer(offer, trace_context) (net/session.h). Returns the Select it
// sent. Throws util::CheckError on a timeout, EOF, or any other frame.
SelectMsg ClientHandshake(Connection& conn, const HelloMsg& hello,
                          bool trace_context, int timeout_ms);

}  // namespace net
