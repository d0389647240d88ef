// Tests for the epoll fd-readiness reactor (net/reactor.h) and the server
// built on it.
//
// The soak test at the bottom is the PR's scale gate: ~1k concurrent
// connections accepted, a slice evicted, and the evicted ids reconnected
// against one single-threaded server loop.
#include "net/reactor.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace net {
namespace {

net::RetryConfig FastRetry() {
  net::RetryConfig retry;
  retry.max_attempts = 20;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 50.0;
  return retry;
}

// A pipe whose read end can sit in the reactor's wait set.
struct Pipe {
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    ::close(read_fd);
    ::close(write_fd);
  }
  void WriteByte() const {
    const char byte = 'x';
    EXPECT_EQ(::write(write_fd, &byte, 1), 1);
  }
  void DrainOne() const {
    char byte = 0;
    EXPECT_EQ(::read(read_fd, &byte, 1), 1);
  }
  int read_fd = -1;
  int write_fd = -1;
};

// Raises RLIMIT_NOFILE toward its hard cap and returns the soft limit we
// ended up with.
rlim_t RaiseFdLimit() {
  struct rlimit lim {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return 1024;
  }
  if (lim.rlim_cur < lim.rlim_max) {
    struct rlimit want = lim;
    want.rlim_cur = std::min<rlim_t>(lim.rlim_max, 65536);
    if (::setrlimit(RLIMIT_NOFILE, &want) == 0) {
      lim = want;
    }
  }
  return lim.rlim_cur;
}

class ReactorBackendTest : public ::testing::Test {
 protected:
  static bool HasEventFor(const std::vector<ReactorEvent>& events, int fd) {
    return std::any_of(events.begin(), events.end(),
                       [fd](const ReactorEvent& e) { return e.fd == fd; });
  }
};

TEST_F(ReactorBackendTest, ReportsReadReadinessLevelTriggered) {
  Reactor reactor;
  Pipe pipe;
  reactor.Add(pipe.read_fd);

  std::vector<ReactorEvent> events;
  EXPECT_EQ(reactor.Wait(0, &events), 0u) << "idle fd reported ready";

  pipe.WriteByte();
  events.clear();
  ASSERT_GE(reactor.Wait(1000, &events), 1u);
  ASSERT_TRUE(HasEventFor(events, pipe.read_fd));
  for (const ReactorEvent& e : events) {
    if (e.fd == pipe.read_fd) {
      EXPECT_TRUE(e.readable);
    }
  }

  // Level-triggered: unread bytes keep the fd ready on the next Wait.
  events.clear();
  ASSERT_GE(reactor.Wait(0, &events), 1u);
  EXPECT_TRUE(HasEventFor(events, pipe.read_fd));

  pipe.DrainOne();
  events.clear();
  EXPECT_EQ(reactor.Wait(0, &events), 0u);

  reactor.Remove(pipe.read_fd);
  pipe.WriteByte();
  events.clear();
  EXPECT_EQ(reactor.Wait(0, &events), 0u) << "removed fd still watched";
}

TEST_F(ReactorBackendTest, WriteInterestTogglesWritableEvents) {
  Reactor reactor;
  Pipe pipe;
  reactor.Add(pipe.write_fd);

  // Read interest only: an empty pipe's write end reports nothing.
  std::vector<ReactorEvent> events;
  EXPECT_EQ(reactor.Wait(0, &events), 0u);

  reactor.SetWantWrite(pipe.write_fd, true);
  events.clear();
  ASSERT_GE(reactor.Wait(1000, &events), 1u);
  ASSERT_TRUE(HasEventFor(events, pipe.write_fd));
  for (const ReactorEvent& e : events) {
    if (e.fd == pipe.write_fd) {
      EXPECT_TRUE(e.writable);
    }
  }

  reactor.SetWantWrite(pipe.write_fd, false);
  events.clear();
  EXPECT_EQ(reactor.Wait(0, &events), 0u);
}

TEST_F(ReactorBackendTest, WakeupInterruptsBlockedWait) {
  Reactor reactor;
  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&reactor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reactor.Wakeup();
  });
  std::vector<ReactorEvent> events;
  reactor.Wait(5000, &events);
  waker.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 4000) << "Wakeup did not interrupt Wait";
  EXPECT_TRUE(events.empty()) << "wakeup surfaced as an fd event";
}

TEST_F(ReactorBackendTest, WakeupIsStickyAcrossWaits) {
  Reactor reactor;
  reactor.Wakeup();  // posted while nothing is waiting
  const auto start = std::chrono::steady_clock::now();
  std::vector<ReactorEvent> events;
  reactor.Wait(5000, &events);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 1000) << "pending wakeup did not short-circuit";

  // Consumed: the next Wait blocks for its full (short) timeout again.
  events.clear();
  EXPECT_EQ(reactor.Wait(0, &events), 0u);
}

TEST_F(ReactorBackendTest, EventsOnManyFdsSurfaceInOneWait) {
  Reactor reactor;
  std::vector<Pipe> pipes(12);
  for (const Pipe& p : pipes) {
    reactor.Add(p.read_fd);
    p.WriteByte();
  }
  std::vector<ReactorEvent> events;
  reactor.Wait(1000, &events);
  std::set<int> fds;
  for (const ReactorEvent& e : events) {
    fds.insert(e.fd);
  }
  for (const Pipe& p : pipes) {
    EXPECT_EQ(fds.count(p.read_fd), 1u) << "fd " << p.read_fd << " missing";
  }
}

// More ready fds than one Wait batch (256): level-triggered epoll hands the
// leftovers out first on the next Wait, so every fd surfaces within two
// Waits and none is reported twice by the same Wait.
TEST_F(ReactorBackendTest, ReadyFdsBeyondOneBatchSurfaceWithinTwoWaits) {
  const rlim_t soft = RaiseFdLimit();
  // Two fds per pipe; leave headroom for the suite's own files.
  const std::size_t kPipes = static_cast<std::size_t>(
      std::min<rlim_t>(320, soft > 128 ? (soft - 128) / 2 : 0));
  ASSERT_GT(kPipes, 256u) << "fd limit too low to exceed one Wait batch";

  Reactor reactor;
  std::vector<Pipe> pipes(kPipes);
  for (const Pipe& p : pipes) {
    reactor.Add(p.read_fd);
    p.WriteByte();
  }
  EXPECT_EQ(reactor.watched_count(), kPipes);

  std::set<int> seen;
  for (int wait = 0; wait < 2; ++wait) {
    std::vector<ReactorEvent> events;
    reactor.Wait(1000, &events);
    EXPECT_LE(events.size(), 256u) << "Wait exceeded its batch";
    std::set<int> this_wait;
    for (const ReactorEvent& e : events) {
      EXPECT_TRUE(this_wait.insert(e.fd).second)
          << "fd " << e.fd << " repeated within one Wait";
      seen.insert(e.fd);
    }
  }
  for (const Pipe& p : pipes) {
    EXPECT_EQ(seen.count(p.read_fd), 1u)
        << "fd " << p.read_fd << " never surfaced in two Waits";
  }

  for (const Pipe& p : pipes) {
    reactor.Remove(p.read_fd);
  }
  EXPECT_EQ(reactor.watched_count(), 0u);
}

TEST_F(ReactorBackendTest, HangupIsReported) {
  Reactor reactor;
  Pipe pipe;
  reactor.Add(pipe.read_fd);
  ::close(pipe.write_fd);
  pipe.write_fd = -1;  // dtor's close(-1) is a harmless EBADF

  std::vector<ReactorEvent> events;
  ASSERT_GE(reactor.Wait(1000, &events), 1u);
  ASSERT_TRUE(HasEventFor(events, pipe.read_fd));
  for (const ReactorEvent& e : events) {
    if (e.fd == pipe.read_fd) {
      EXPECT_TRUE(e.hangup || e.readable);
    }
  }
}

// ---------------------------------------------------------------------------
// Scale soak: ~1k concurrent connections through one Server loop, with an
// eviction wave and reconnects. This is the accept/evict/reconnect gate for
// the reactor.
// ---------------------------------------------------------------------------

TEST(ReactorSoakTest, ThousandConnectionsAcceptEvictReconnect) {
  const rlim_t soft = RaiseFdLimit();
  // Each connection costs two fds (client + server side); leave headroom
  // for the suite's own files, the listener, and the reactor plumbing.
  const int kClients = static_cast<int>(std::min<rlim_t>(
      1000, soft > 256 ? (soft - 128) / 2 : 64));
  ASSERT_GE(kClients, 64) << "fd limit too low to exercise scale";

  ServerOptions options;
  options.port = 0;
  options.io_timeout_ms = 30000;
  Server server(options);

  std::vector<int> disconnected;
  server.SetDisconnectHandler(
      [&disconnected](int id) { disconnected.push_back(id); });

  auto connect_client = [&server](int id) {
    Connection conn = ConnectWithRetry(server.port(), FastRetry(),
                                       0x50A7 + static_cast<uint64_t>(id));
    // "identity" is always acceptable, so the Select rides right behind the
    // Hello; the server's Offer is skipped on read below.
    conn.SendFrame(EncodeHello({{id}}), 1000);
    conn.SendFrame(EncodeSelect({"identity", false}), 1000);
    return conn;
  };

  std::vector<Connection> clients;
  clients.reserve(static_cast<std::size_t>(kClients));
  for (int id = 0; id < kClients; ++id) {
    clients.push_back(connect_client(id));
    if (id % 64 == 0) {
      server.PollOnce(0);  // drain the accept backlog as we go
    }
  }
  ASSERT_TRUE(server.WaitForClients(static_cast<std::size_t>(kClients), 30000))
      << "only " << server.ConnectedCount() << " of " << kClients
      << " clients completed their handshake";

  // Evict every 10th client; only those ids may fire the disconnect hook.
  std::set<int> evicted;
  for (int id = 0; id < kClients; id += 10) {
    server.Evict(id, "soak eviction wave");
    evicted.insert(id);
  }
  for (int tick = 0; tick < 50; ++tick) {
    server.PollOnce(1);
  }
  EXPECT_EQ(server.ConnectedCount(),
            static_cast<std::size_t>(kClients) - evicted.size());
  for (int id : disconnected) {
    EXPECT_TRUE(evicted.count(id)) << "survivor " << id << " was dropped";
  }
  for (int id = 0; id < kClients; ++id) {
    EXPECT_EQ(server.IsConnected(id), evicted.count(id) == 0u);
  }

  // Reconnect the evicted ids on fresh sockets; the server must accept the
  // same ids again and return to full strength.
  for (int id : evicted) {
    clients[static_cast<std::size_t>(id)] = connect_client(id);
    server.PollOnce(0);
  }
  ASSERT_TRUE(server.WaitForClients(static_cast<std::size_t>(kClients), 30000))
      << "reconnect wave stalled at " << server.ConnectedCount();
  for (int id : evicted) {
    EXPECT_TRUE(server.IsConnected(id));
  }

  // Prove the reconnected sessions actually serve: broadcast to a sample
  // and read the frame back on the client side.
  for (int id : {0, 10, kClients - 1}) {
    ModelBroadcastMsg msg;
    msg.round = 1;
    msg.job_index = static_cast<std::uint64_t>(id);
    msg.params = {1.0f, 2.0f, 3.0f};
    msg.client_id = id;
    ASSERT_TRUE(server.SendTo(id, EncodeModelBroadcast(msg)));
    server.Flush(5000);
    Frame frame;
    bool got = false;
    for (int tick = 0; tick < 200 && !got; ++tick) {
      server.PollOnce(1);
      got = clients[static_cast<std::size_t>(id)].TryRecvFrame(&frame, 5) ==
                Connection::RecvStatus::kFrame &&
            frame.type == MessageType::kModelBroadcast;
    }
    ASSERT_TRUE(got) << "broadcast never reached client " << id;
    EXPECT_EQ(DecodeModelBroadcast(frame).job_index,
              static_cast<std::uint64_t>(id));
  }
}

}  // namespace
}  // namespace net
