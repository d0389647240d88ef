#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "net/session.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace net {
namespace {

using Clock = std::chrono::steady_clock;

// Remaining milliseconds before `deadline`, clamped at 0; -1 when no
// deadline was requested.
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) {
    return -1;
  }
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return static_cast<int>(std::max<long long>(left, 0));
}

// Waits for `events` readiness; returns false when the deadline elapses
// first, throws on poll error.
bool AwaitReady(int fd, short events, bool has_deadline,
                Clock::time_point deadline) {
  pollfd pfd{fd, events, 0};
  const int timeout = RemainingMs(has_deadline, deadline);
  const int ready = ::poll(&pfd, 1, timeout);
  AF_CHECK_GE(ready, 0) << "poll failed: " << util::ErrnoMessage(errno);
  return ready > 0;
}

obs::Counter& BytesCounter(const char* direction) {
  return obs::DefaultRegistry().GetCounter("net.bytes",
                                           {{"direction", direction}});
}

}  // namespace

BackoffSchedule::BackoffSchedule(const RetryConfig& config,
                                 std::uint64_t seed)
    : config_(config) {
  std::uint64_t state = seed;
  rng_.seed(util::SplitMix64(state));
  Reset();
}

void BackoffSchedule::Reset() { prev_ms_ = config_.initial_backoff_ms; }

double BackoffSchedule::NextDelayMs() {
  const double base = config_.initial_backoff_ms;
  const double ceiling = std::min(
      config_.max_backoff_ms,
      std::max(base, prev_ms_ * std::max(config_.multiplier, 1.0)));
  if (ceiling <= base) {
    prev_ms_ = base;
    return prev_ms_;
  }
  std::uniform_real_distribution<double> dist(base, ceiling);
  prev_ms_ = dist(rng_);
  return prev_ms_;
}

Connection::Connection(util::UniqueFd fd) : fd_(std::move(fd)) {
  AF_CHECK(fd_.valid()) << "Connection built from invalid fd";
  // Non-blocking + poll() is what makes the send/recv deadlines real: a
  // blocking send() would ignore them whenever the kernel buffer fills.
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  AF_CHECK_GE(flags, 0) << "fcntl failed: " << util::ErrnoMessage(errno);
  AF_CHECK_GE(::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl failed: " << util::ErrnoMessage(errno);
}

void Connection::SendBytes(std::span<const std::uint8_t> bytes,
                           int timeout_ms) {
  AF_CHECK(open()) << "send on closed connection";
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hard-closed must surface as EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    AF_CHECK(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                       errno == EINTR))
        << "send failed: " << util::ErrnoMessage(errno);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      AF_CHECK(AwaitReady(fd_.get(), POLLOUT, has_deadline, deadline))
          << "write timed out";
    }
  }
  BytesCounter("sent").Increment(sent);
}

void Connection::SendFrame(const Frame& frame, int timeout_ms) {
  SendBytes(EncodeFrame(frame), timeout_ms);
  obs::DefaultRegistry()
      .GetCounter("net.frames_sent", {{"type", MessageTypeName(frame.type)}})
      .Increment();
}

Connection::RecvStatus Connection::TryRecvFrame(Frame* out, int timeout_ms) {
  AF_CHECK(open()) << "recv on closed connection";
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const std::size_t consumed = DecodeFrame(inbox_, out);
    if (consumed > 0) {
      inbox_.erase(inbox_.begin(),
                   inbox_.begin() + static_cast<std::ptrdiff_t>(consumed));
      obs::DefaultRegistry()
          .GetCounter("net.frames_received",
                      {{"type", MessageTypeName(out->type)}})
          .Increment();
      return RecvStatus::kFrame;
    }
    if (!AwaitReady(fd_.get(), POLLIN, has_deadline, deadline)) {
      return RecvStatus::kTimeout;
    }
    std::uint8_t chunk[16384];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n == 0) {
      AF_CHECK(inbox_.empty()) << "peer closed mid-frame ("
                               << inbox_.size() << " stray bytes)";
      return RecvStatus::kEof;
    }
    if (n < 0) {
      AF_CHECK(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          << "recv failed: " << util::ErrnoMessage(errno);
      continue;
    }
    inbox_.insert(inbox_.end(), chunk, chunk + n);
    BytesCounter("received").Increment(static_cast<std::uint64_t>(n));
  }
}

bool Connection::RecvFrame(Frame* out, int timeout_ms) {
  const RecvStatus status = TryRecvFrame(out, timeout_ms);
  AF_CHECK(status != RecvStatus::kTimeout) << "read timed out";
  return status == RecvStatus::kFrame;
}

Listener::Listener(std::uint16_t port) {
  fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  AF_CHECK(fd_.valid()) << "socket failed: " << util::ErrnoMessage(errno);
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  AF_CHECK_EQ(::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)), 0)
      << "bind to 127.0.0.1:" << port
      << " failed: " << util::ErrnoMessage(errno);
  AF_CHECK_EQ(::listen(fd_.get(), SOMAXCONN), 0)
      << "listen failed: " << util::ErrnoMessage(errno);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  AF_CHECK_EQ(::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                            &len), 0)
      << "getsockname failed: " << util::ErrnoMessage(errno);
  port_ = ntohs(bound.sin_port);
}

util::UniqueFd Listener::Accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  AF_CHECK_GE(fd, 0) << "accept failed: " << util::ErrnoMessage(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return util::UniqueFd(fd);
}

Connection ConnectWithRetry(std::uint16_t port, const RetryConfig& retry,
                            std::uint64_t seed) {
  AF_CHECK_GT(retry.max_attempts, 0);
  BackoffSchedule backoff(retry, seed);
  obs::Counter& retries =
      obs::DefaultRegistry().GetCounter("net.connect_retries");

  std::string last_error;
  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      retries.Increment();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff.NextDelayMs()));
    }
    util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    AF_CHECK(fd.valid()) << "socket failed: " << util::ErrnoMessage(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Connection(std::move(fd));
    }
    last_error = util::ErrnoMessage(errno);
  }
  AF_CHECK(false) << "connect to 127.0.0.1:" << port << " failed after "
                  << retry.max_attempts << " attempts: " << last_error;
  return Connection();
}

SelectMsg ClientHandshake(Connection& conn, const HelloMsg& hello,
                          bool trace_context, int timeout_ms) {
  conn.SendFrame(EncodeHello(hello), timeout_ms);
  Frame offer;
  AF_CHECK(conn.RecvFrame(&offer, timeout_ms))
      << "server closed the connection before its offer";
  const SelectMsg select = AnswerOffer(DecodeOffer(offer), trace_context);
  conn.SendFrame(EncodeSelect(select), timeout_ms);
  return select;
}

}  // namespace net
