#include "net/socket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec.h"
#include "net/server.h"
#include "util/check.h"

namespace net {
namespace {

TEST(BackoffTest, DelaysStayWithinDecorrelatedBounds) {
  // Every delay must land in [base, cap], and — decorrelated jitter — in
  // [base, prev * multiplier] before the cap binds.
  RetryConfig config;
  config.initial_backoff_ms = 10.0;
  config.multiplier = 3.0;
  config.max_backoff_ms = 200.0;
  BackoffSchedule schedule(config, 42);
  double prev = config.initial_backoff_ms;
  for (int i = 0; i < 200; ++i) {
    const double delay = schedule.NextDelayMs();
    EXPECT_GE(delay, config.initial_backoff_ms);
    EXPECT_LE(delay, config.max_backoff_ms);
    EXPECT_LE(delay, std::max(config.initial_backoff_ms,
                              prev * config.multiplier) +
                         1e-9);
    prev = delay;
  }
}

TEST(BackoffTest, DeterministicPerSeedAndDecorrelatedAcrossSeeds) {
  RetryConfig config;
  BackoffSchedule a(config, 7);
  BackoffSchedule b(config, 7);
  BackoffSchedule c(config, 8);
  bool any_differs = false;
  for (int i = 0; i < 50; ++i) {
    const double da = a.NextDelayMs();
    EXPECT_DOUBLE_EQ(da, b.NextDelayMs());  // same seed → same schedule
    any_differs = any_differs || da != c.NextDelayMs();
  }
  EXPECT_TRUE(any_differs);  // different seeds → different schedules
}

TEST(BackoffTest, ResetRestartsAtBaseButKeepsAdvancingRng) {
  RetryConfig config;
  config.initial_backoff_ms = 5.0;
  config.multiplier = 2.0;
  config.max_backoff_ms = 1000.0;
  BackoffSchedule schedule(config, 99);
  // First post-Reset draw is bounded by base * multiplier (prev == base).
  for (int cycle = 0; cycle < 5; ++cycle) {
    schedule.Reset();
    const double first = schedule.NextDelayMs();
    EXPECT_GE(first, config.initial_backoff_ms);
    EXPECT_LE(first, config.initial_backoff_ms * config.multiplier);
  }
}

TEST(BackoffTest, DegenerateConfigPinsToBase) {
  // multiplier <= 1 (or cap == base) collapses the window to a point.
  RetryConfig config;
  config.initial_backoff_ms = 10.0;
  config.multiplier = 1.0;
  config.max_backoff_ms = 10.0;
  BackoffSchedule schedule(config, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 10.0);
  }
}

TEST(SocketTest, FrameRoundTripOverLoopback) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread peer([&listener] {
    Connection server_side(listener.Accept());
    Frame frame;
    ASSERT_TRUE(server_side.RecvFrame(&frame, 2000));
    const HelloMsg hello = DecodeHello(frame);
    ASSERT_EQ(hello.client_ids.size(), 1u);
    server_side.SendFrame(
        EncodeAck({static_cast<std::uint64_t>(hello.client_ids[0]) + 1}),
        2000);
  });

  Connection client = ConnectWithRetry(listener.port(), RetryConfig{}, 3);
  client.SendFrame(EncodeHello({{41}}), 2000);
  Frame reply;
  ASSERT_TRUE(client.RecvFrame(&reply, 2000));
  EXPECT_EQ(DecodeAck(reply).value, 42u);
  peer.join();
}

TEST(SocketTest, RecvTimesOutOnSilentPeer) {
  Listener listener(0);
  Connection client = ConnectWithRetry(listener.port(), RetryConfig{}, 3);
  util::UniqueFd server_side = listener.Accept();  // connected, says nothing
  Frame frame;
  EXPECT_EQ(client.TryRecvFrame(&frame, 50), Connection::RecvStatus::kTimeout);
  EXPECT_THROW(client.RecvFrame(&frame, 50), util::CheckError);
}

TEST(SocketTest, CleanEofAtFrameBoundary) {
  Listener listener(0);
  Connection client = ConnectWithRetry(listener.port(), RetryConfig{}, 3);
  {
    Connection server_side(listener.Accept());
    server_side.SendFrame(EncodeAck({1}), 2000);
  }  // peer closes after one whole frame
  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame, 2000));
  EXPECT_EQ(frame.type, MessageType::kAck);
  EXPECT_FALSE(client.RecvFrame(&frame, 2000));  // clean EOF
}

TEST(SocketTest, EofMidFrameThrows) {
  Listener listener(0);
  Connection client = ConnectWithRetry(listener.port(), RetryConfig{}, 3);
  {
    Connection server_side(listener.Accept());
    const std::vector<std::uint8_t> bytes = EncodeFrame(EncodeAck({1}));
    server_side.SendBytes(std::span(bytes).first(bytes.size() - 3), 2000);
  }  // hard close mid-frame
  Frame frame;
  EXPECT_THROW(client.RecvFrame(&frame, 2000), util::CheckError);
}

TEST(SocketTest, ConnectRetryFailsAfterBoundedAttempts) {
  // Grab an ephemeral port, then close the listener so nothing answers.
  std::uint16_t dead_port;
  {
    Listener listener(0);
    dead_port = listener.port();
  }
  RetryConfig retry;
  retry.max_attempts = 2;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 2.0;
  EXPECT_THROW(ConnectWithRetry(dead_port, retry, 3), util::CheckError);
}

TEST(ServerTest, HandshakeUpdateAckAndDedup) {
  ServerOptions server_options;
  server_options.io_timeout_ms = 2000;
  Server server(server_options);
  std::vector<std::pair<int, std::uint64_t>> delivered;
  server.SetUpdateHandler([&](int client_id, ClientUpdateMsg msg) {
    delivered.emplace_back(client_id, msg.job_index);
  });

  std::atomic<int> acks_received{0};
  std::thread client_thread([&acks_received, port = server.port()] {
    Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
    ClientHandshake(conn, {{7}}, false, 2000);
    ClientUpdateMsg update;
    update.client_id = 7;
    update.job_index = 1;
    update.num_samples = 10;
    update.delta = {0.5f};
    const Frame frame = EncodeClientUpdate(update);
    conn.SendFrame(frame, 2000);
    conn.SendFrame(frame, 2000);  // duplicate: must be re-acked, not re-delivered
    Frame ack;
    while (acks_received < 2 &&
           conn.TryRecvFrame(&ack, 5000) == Connection::RecvStatus::kFrame) {
      EXPECT_EQ(DecodeAck(ack).value, 1u);
      ++acks_received;
    }
  });

  ASSERT_TRUE(server.WaitForClients(1, 5000));
  EXPECT_TRUE(server.IsConnected(7));
  // Keep pumping until the client has both receipts: the duplicate may
  // arrive a tick after the original.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (acks_received < 2 && std::chrono::steady_clock::now() < deadline) {
    server.PollOnce(20);
  }
  client_thread.join();

  EXPECT_EQ(acks_received, 2);
  ASSERT_EQ(delivered.size(), 1u);  // duplicate filtered
  EXPECT_EQ(delivered[0], (std::pair<int, std::uint64_t>{7, 1}));
}

TEST(ServerTest, EvictFiresDisconnectHandler) {
  Server server(ServerOptions{});
  std::vector<int> gone;
  server.SetDisconnectHandler([&](int client_id) { gone.push_back(client_id); });

  std::thread client_thread([port = server.port()] {
    Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
    ClientHandshake(conn, {{3}}, false, 2000);
    Frame frame;  // wait for the server to cut us off
    while (conn.TryRecvFrame(&frame, 100) != Connection::RecvStatus::kEof) {
    }
  });

  ASSERT_TRUE(server.WaitForClients(1, 5000));
  server.Evict(3, "test eviction");
  EXPECT_FALSE(server.IsConnected(3));
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0], 3);
  client_thread.join();
}

TEST(ServerTest, CodecNegotiationCompletesHandshake) {
  ServerOptions options;
  options.advertised_codecs = {"fp16"};
  Server server(options);

  std::atomic<bool> got_offer{false};
  std::thread client_thread([&got_offer, port = server.port()] {
    Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
    conn.SendFrame(EncodeHello({{9}}), 2000);
    Frame frame;
    EXPECT_TRUE(conn.RecvFrame(&frame, 5000));
    const OfferMsg offer = DecodeOffer(frame);
    EXPECT_EQ(offer.codecs, std::vector<std::string>{"fp16"});
    EXPECT_FALSE(offer.trace_context);
    got_offer = true;
    conn.SendFrame(EncodeSelect({"fp16", false}), 2000);
    // Stay connected until the server has seen the select and the test has
    // asserted; the eviction below is our cue to leave.
    while (conn.TryRecvFrame(&frame, 100) != Connection::RecvStatus::kEof) {
    }
  });

  // WaitForClients counts completed handshakes, which here means the offer
  // went out AND the select came back.
  ASSERT_TRUE(server.WaitForClients(1, 5000));
  EXPECT_TRUE(got_offer);
  ASSERT_NE(server.ClientCodec(9), nullptr);
  EXPECT_EQ(std::string(server.ClientCodec(9)->name()), "fp16");
  server.Evict(9, "test done");
  client_thread.join();
}

TEST(ServerTest, IdentitySelectionIsAlwaysAcceptedAndMapsToNull) {
  ServerOptions options;
  options.advertised_codecs = {"int8"};  // identity deliberately not listed
  Server server(options);

  std::thread client_thread([port = server.port()] {
    Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
    conn.SendFrame(EncodeHello({{2}}), 2000);
    Frame frame;
    EXPECT_TRUE(conn.RecvFrame(&frame, 5000));  // the offer
    conn.SendFrame(EncodeSelect({"identity", false}), 2000);
    while (conn.TryRecvFrame(&frame, 100) != Connection::RecvStatus::kEof) {
    }
  });

  ASSERT_TRUE(server.WaitForClients(1, 5000));
  EXPECT_EQ(server.ClientCodec(2), nullptr);  // null = raw AFPM payloads
  server.Evict(2, "test done");
  client_thread.join();
}

TEST(ServerTest, MalformedCompressedUpdateEvictsClientNotServer) {
  // A structurally valid frame whose compressed payload is corrupt (here: a
  // flipped body byte that breaks the AFCZ checksum) must evict only that
  // connection — the reactor keeps serving everyone else.
  Server server(ServerOptions{});
  std::vector<int> gone;
  server.SetDisconnectHandler([&](int client_id) { gone.push_back(client_id); });

  std::thread bad_client([port = server.port()] {
    try {
      Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
      ClientHandshake(conn, {{4}}, false, 2000);
      Frame frame = EncodeClientUpdate(
          {.client_id = 4, .job_index = 0, .base_round = 0, .num_samples = 8,
           .delta = {1.0f, 2.0f, 3.0f, 4.0f}},
          &compress::Get("fp16"));
      frame.payload.back() ^= 0x01;
      conn.SendFrame(frame, 2000);
      Frame reply;  // wait to be cut off
      while (conn.TryRecvFrame(&reply, 100) != Connection::RecvStatus::kEof) {
      }
    } catch (const util::CheckError&) {
      // Eviction can surface as ECONNRESET rather than a clean EOF; either
      // way the server cut us off, which is exactly what this test wants.
    }
  });

  // Don't gate on WaitForClients here: under load the hello and the corrupt
  // update can land in one poll tick, so the connection is identified and
  // evicted inside a single PollOnce and the transient connected state is
  // never observable. The disconnect callback is the durable signal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (gone.empty() && std::chrono::steady_clock::now() < deadline) {
    server.PollOnce(10);
  }
  bad_client.join();
  ASSERT_EQ(gone, std::vector<int>{4});
  EXPECT_EQ(server.ConnectedCount(), 0u);

  // The server is still alive: a fresh client can complete a handshake and
  // deliver a (well-formed) compressed update.
  std::vector<std::uint64_t> delivered;
  server.SetUpdateHandler([&](int /*client_id*/, ClientUpdateMsg msg) {
    delivered.push_back(msg.job_index);
  });
  std::thread good_client([port = server.port()] {
    try {
      Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
      ClientHandshake(conn, {{5}}, false, 2000);
      conn.SendFrame(EncodeClientUpdate({.client_id = 5, .job_index = 7,
                                         .num_samples = 8, .delta = {0.5f}},
                                        &compress::Get("fp16")),
                     2000);
      Frame ack;
      if (conn.RecvFrame(&ack, 10000)) {
        EXPECT_EQ(DecodeAck(ack).value, 7u);
      } else {
        ADD_FAILURE() << "no ack for the well-formed compressed update";
      }
    } catch (const util::CheckError& error) {
      ADD_FAILURE() << "good client failed: " << error.what();
    }
  });
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (delivered.empty() && std::chrono::steady_clock::now() < deadline2) {
    server.PollOnce(10);
  }
  good_client.join();
  ASSERT_EQ(delivered, std::vector<std::uint64_t>{7});
}

TEST(ServerTest, MalformedHelloClosesConnection) {
  Server server(ServerOptions{});
  std::thread client_thread([port = server.port()] {
    Connection conn = ConnectWithRetry(port, RetryConfig{}, 3);
    // First frame must be a Hello; a ClientUpdate is a protocol error.
    conn.SendFrame(EncodeClientUpdate({.client_id = 1, .job_index = 0,
                                       .num_samples = 1, .delta = {}}),
                   2000);
    Frame frame;
    while (conn.TryRecvFrame(&frame, 100) != Connection::RecvStatus::kEof) {
    }
  });

  for (int tick = 0; tick < 25; ++tick) {
    server.PollOnce(10);  // let the bad hello arrive and be rejected
  }
  EXPECT_EQ(server.ConnectedCount(), 0u);
  client_thread.join();
}

}  // namespace
}  // namespace net
