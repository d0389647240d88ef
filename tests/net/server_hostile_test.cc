// Hostile-handshake regression tests distilled from the fuzzing subsystem
// (fuzz_server_session found the original defect; see
// fuzz/regressions/server_session/). A hello id that lands on the −1 "no id
// yet" sentinel used to let one connection register twice and leave a
// dangling by_client_ entry behind on close. Every malformed handshake must
// close only the connection that sent it.
#include "net/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace net {
namespace {

RetryConfig FastRetry() {
  RetryConfig retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 1.0;
  return retry;
}

// A Hello frame built by hand: EncodeHello refuses negative ids.
Frame RawHello(const std::vector<std::int32_t>& ids) {
  Frame frame;
  frame.type = MessageType::kHello;
  const auto count = static_cast<std::uint32_t>(ids.size());
  frame.payload.resize(sizeof(count) + ids.size() * sizeof(std::int32_t));
  std::memcpy(frame.payload.data(), &count, sizeof(count));
  if (!ids.empty()) {
    std::memcpy(frame.payload.data() + sizeof(count), ids.data(),
                ids.size() * sizeof(std::int32_t));
  }
  return frame;
}

void PumpUntilClosed(Server& server, Connection& conn) {
  Frame frame;
  for (int i = 0; i < 200; ++i) {
    server.PollOnce(1);
    if (conn.TryRecvFrame(&frame, 5) == Connection::RecvStatus::kEof) {
      return;
    }
  }
  FAIL() << "server never closed the hostile connection";
}

// Single-threaded client handshake: "identity" is always acceptable, so the
// Select can ride right behind the Hello without waiting for the Offer.
Connection HandshakenClient(Server& server, int id) {
  Connection conn = ConnectWithRetry(server.port(), FastRetry(), 3);
  conn.SendFrame(EncodeHello({{id}}), 1000);
  conn.SendFrame(EncodeSelect({"identity", false}), 1000);
  for (int i = 0; i < 200 && !server.WaitForClients(1, 0); ++i) {
    server.PollOnce(1);
  }
  EXPECT_TRUE(server.IsConnected(id));
  return conn;
}

// The good client still receives real traffic: a broadcast sent now is the
// next broadcast it reads (its Offer may still be queued ahead of it).
void ExpectBroadcastDelivered(Server& server, Connection& good, int id) {
  ModelBroadcastMsg msg;
  msg.round = 1;
  msg.job_index = 9;
  msg.params = {1.0f, 2.0f};
  msg.client_id = id;
  ASSERT_TRUE(server.SendTo(id, EncodeModelBroadcast(msg)));
  server.Flush(1000);
  Frame frame;
  bool delivered = false;
  for (int i = 0; i < 200 && !delivered; ++i) {
    server.PollOnce(1);
    delivered =
        good.TryRecvFrame(&frame, 5) == Connection::RecvStatus::kFrame &&
        frame.type == MessageType::kModelBroadcast;
  }
  ASSERT_TRUE(delivered);
  const ModelBroadcastMsg decoded = DecodeModelBroadcast(frame);
  EXPECT_EQ(decoded.job_index, 9u);
  EXPECT_EQ(decoded.client_id, id);
}

TEST(ServerHostileTest, UnrepresentableHelloIdsAreRejected) {
  Server server(ServerOptions{});
  const std::vector<std::vector<std::int32_t>> hellos = {
      {-1},                                       // the "no id" sentinel
      {std::numeric_limits<std::int32_t>::min()},
      {},                                         // names no client at all
      {3, -1},  // binds 3, then fails: 3 must be unbound on close
      {4, 4},   // the same id twice on one connection
  };
  for (const auto& ids : hellos) {
    SCOPED_TRACE(::testing::PrintToString(ids));
    Connection conn = ConnectWithRetry(server.port(), FastRetry(), 3);
    conn.SendFrame(RawHello(ids), 1000);
    PumpUntilClosed(server, conn);
    EXPECT_EQ(server.ConnectedCount(), 0u);
    EXPECT_FALSE(server.IsConnected(3));
    EXPECT_FALSE(server.IsConnected(4));
    EXPECT_FALSE(server.WaitForClients(1, 0));
  }
}

TEST(ServerHostileTest, BoundaryHelloIdStillWorks) {
  Server server(ServerOptions{});
  const int id = std::numeric_limits<std::int32_t>::max();  // valid
  Connection conn = HandshakenClient(server, id);
  EXPECT_TRUE(server.IsConnected(id));
  EXPECT_TRUE(server.WaitForClients(1, 0));
}

TEST(ServerHostileTest, GoodClientSurvivesHostileHello) {
  Server server(ServerOptions{});
  std::vector<int> disconnected;
  server.SetDisconnectHandler(
      [&disconnected](int id) { disconnected.push_back(id); });
  Connection good = HandshakenClient(server, 1);
  ASSERT_TRUE(server.IsConnected(1));

  // A negative id, an id already bound on the good client's connection,
  // and a hello that binds a fresh id before hitting the bound one.
  for (const std::vector<std::int32_t>& ids :
       {std::vector<std::int32_t>{-1}, std::vector<std::int32_t>{1},
        std::vector<std::int32_t>{2, 1}}) {
    SCOPED_TRACE(::testing::PrintToString(ids));
    Connection hostile = ConnectWithRetry(server.port(), FastRetry(), 3);
    hostile.SendFrame(RawHello(ids), 1000);
    PumpUntilClosed(server, hostile);
    EXPECT_FALSE(server.IsConnected(2));
  }

  // Only the hostile connections fell; the established session is intact
  // and the bookkeeping walk (WaitForClients dereferences every by_client_
  // entry) stays clean — the dangling-pointer failure mode under ASan.
  EXPECT_TRUE(server.IsConnected(1));
  EXPECT_EQ(server.ConnectedCount(), 1u);
  EXPECT_TRUE(server.WaitForClients(1, 0));
  // Id 2 was bound (then unbound) by the last hostile hello; id 1 never
  // leaves.
  EXPECT_EQ(disconnected, std::vector<int>{2});
  ExpectBroadcastDelivered(server, good, 1);
}

TEST(ServerHostileTest, RetiredAckHelloClosesOnlyItsConnection) {
  // An Ack{client_id} used to serve as a hello. It is an update receipt
  // now, and a server-to-client one: as a first frame it is a protocol
  // error that closes only its own connection.
  Server server(ServerOptions{});
  std::vector<int> disconnected;
  server.SetDisconnectHandler(
      [&disconnected](int id) { disconnected.push_back(id); });
  Connection good = HandshakenClient(server, 1);

  Connection hostile = ConnectWithRetry(server.port(), FastRetry(), 3);
  hostile.SendFrame(EncodeAck({5}), 1000);
  PumpUntilClosed(server, hostile);

  EXPECT_FALSE(server.IsConnected(5));
  EXPECT_EQ(server.ConnectedCount(), 1u);
  EXPECT_TRUE(disconnected.empty());

  // The handshaken client keeps working in both directions.
  ExpectBroadcastDelivered(server, good, 1);
  std::vector<std::uint64_t> delivered;
  server.SetUpdateHandler([&delivered](int, ClientUpdateMsg msg) {
    delivered.push_back(msg.job_index);
  });
  good.SendFrame(EncodeClientUpdate({.client_id = 1, .job_index = 9,
                                     .num_samples = 3, .delta = {0.5f}}),
                 1000);
  for (int i = 0; i < 200 && delivered.empty(); ++i) {
    server.PollOnce(1);
  }
  EXPECT_EQ(delivered, std::vector<std::uint64_t>{9});
}

TEST(ServerHostileTest, SelectOfUnofferedCodecIsRejected) {
  ServerOptions options;
  options.advertised_codecs = {"fp16"};
  Server server(options);
  // int8 is a real codec this build knows, but the server did not offer it.
  for (const std::string codec : {"int8", "no-such-codec"}) {
    SCOPED_TRACE(codec);
    Connection conn = ConnectWithRetry(server.port(), FastRetry(), 3);
    conn.SendFrame(EncodeHello({{7}}), 1000);
    conn.SendFrame(EncodeSelect({codec, false}), 1000);
    PumpUntilClosed(server, conn);
    EXPECT_FALSE(server.IsConnected(7));
    EXPECT_EQ(server.ConnectedCount(), 0u);
  }
}

}  // namespace
}  // namespace net
