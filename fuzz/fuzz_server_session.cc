// Stateful fuzz target: a real net::Server driven through its
// accept → handshake → negotiate → update state machine by an adversarial
// byte stream, with the PR 5 eviction guarantee checked as an executable
// invariant on every input:
//
//   * the process never crashes (memory safety under ASan/UBSan);
//   * malformed bytes evict only the connection that sent them — a
//     well-behaved client that completed its handshake first must survive
//     every adversarial exec (checked via the disconnect callback AND by
//     delivering a real broadcast to it periodically);
//   * after the attacker is gone, a fresh well-formed client session
//     (hello, offer, select, one update, ack) still completes against the
//     same server instance.
//
// Invariant violations throw std::runtime_error, which both the bundled
// engine and real libFuzzer report as a crash with the input saved.
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness_util.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace {

constexpr int kGoodClientId = 1;

net::RetryConfig FastRetry() {
  net::RetryConfig retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 1.0;
  return retry;
}

struct World {
  explicit World()
      : server([] {
          net::ServerOptions options;
          options.port = 0;
          options.io_timeout_ms = 1000;
          options.advertised_codecs = {"fp16", "int8"};
          options.offer_trace_context = true;
          return options;
        }()) {}

  net::Server server;
  net::Connection good;
  std::vector<int> disconnected;
  std::uint64_t execs = 0;
  std::uint64_t next_session_id = 1000;
};

std::unique_ptr<World> g_world;

// Non-blocking ticks: on loopback, sent bytes / EOF are visible to poll()
// immediately, so zero-timeout pumping keeps per-exec cost in microseconds.
void Pump(World& world, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    world.server.PollOnce(0);
  }
}

// Client side of the full handshake: a hello naming `client_ids`, then a
// select answering the server's offer. Pumps the server in between, so the
// harness stays single-threaded.
void CompleteHandshake(World& world, net::Connection& conn,
                       const std::vector<std::int32_t>& client_ids,
                       const std::string& codec) {
  conn.SendFrame(net::EncodeHello({client_ids}), 1000);
  bool offered = false;
  for (int i = 0; i < 200 && !offered; ++i) {
    world.server.PollOnce(1);
    net::Frame frame;
    if (conn.TryRecvFrame(&frame, 5) == net::Connection::RecvStatus::kFrame &&
        frame.type == net::MessageType::kOffer) {
      conn.SendFrame(net::EncodeSelect({codec, false}), 1000);
      offered = true;
    }
  }
  if (!offered) {
    throw std::runtime_error("invariant: handshake offer never arrived");
  }
  const auto all_connected = [&] {
    for (const std::int32_t id : client_ids) {
      if (!world.server.IsConnected(id)) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 200 && !all_connected(); ++i) {
    world.server.PollOnce(1);
  }
  if (!all_connected()) {
    throw std::runtime_error("invariant: handshake did not complete");
  }
}

// A fresh well-formed session end to end: handshake, one ClientUpdate,
// the update ack back. Proves the server still serves correctly.
void RunWellFormedSession(World& world) {
  const int id = static_cast<int>(world.next_session_id++);
  net::Connection conn =
      net::ConnectWithRetry(world.server.port(), FastRetry(), 7);
  CompleteHandshake(world, conn, {id}, "fp16");

  net::ClientUpdateMsg update;
  update.client_id = id;
  update.job_index = 1;
  update.base_round = 0;
  update.num_samples = 5;
  update.delta = {0.25f, -0.5f, 1.0f};
  conn.SendFrame(net::EncodeClientUpdate(update), 1000);

  bool acked = false;
  for (int i = 0; i < 200 && !acked; ++i) {
    world.server.PollOnce(1);
    net::Frame frame;
    if (conn.TryRecvFrame(&frame, 5) == net::Connection::RecvStatus::kFrame &&
        frame.type == net::MessageType::kAck) {
      acked = net::DecodeAck(frame).value == update.job_index;
    }
  }
  if (!acked) {
    throw std::runtime_error("invariant: well-formed session not acked");
  }
  conn.Close();
  for (int i = 0; i < 50 && world.server.IsConnected(id); ++i) {
    world.server.PollOnce(1);
  }
}

// Many-client flavor: one connection's hello names two client ids, and
// each id's update must get its own ack — proving the adversarial stream
// didn't corrupt the session layer's per-id bookkeeping either.
void RunMuxSession(World& world) {
  const int id_a = static_cast<int>(world.next_session_id++);
  const int id_b = static_cast<int>(world.next_session_id++);
  net::Connection conn =
      net::ConnectWithRetry(world.server.port(), FastRetry(), 11);
  CompleteHandshake(world, conn, {id_a, id_b}, "identity");
  int acked = 0;
  for (int id : {id_a, id_b}) {
    net::ClientUpdateMsg update;
    update.client_id = id;
    update.job_index = 2;
    update.num_samples = 5;
    update.delta = {0.5f};
    conn.SendFrame(net::EncodeClientUpdate(update), 1000);
  }
  for (int i = 0; i < 400 && acked < 2; ++i) {
    world.server.PollOnce(1);
    net::Frame frame;
    if (conn.TryRecvFrame(&frame, 5) == net::Connection::RecvStatus::kFrame &&
        frame.type == net::MessageType::kAck &&
        net::DecodeAck(frame).value == 2) {
      ++acked;
    }
  }
  if (acked != 2) {
    throw std::runtime_error("invariant: mux updates not acked per copy");
  }
  conn.Close();
  for (int i = 0; i < 50 && world.server.IsConnected(id_a); ++i) {
    world.server.PollOnce(1);
  }
}

void InitWorld() {
  g_world = std::make_unique<World>();
  World& world = *g_world;
  world.server.SetDisconnectHandler(
      [](int client_id) { g_world->disconnected.push_back(client_id); });
  world.good = net::ConnectWithRetry(world.server.port(), FastRetry(), 3);
  CompleteHandshake(world, world.good, {kGoodClientId}, "identity");
}

// Delivers a real broadcast to the good client, proving its by_client_
// mapping is intact (not just present).
void ProbeGoodClient(World& world) {
  net::ModelBroadcastMsg msg;
  msg.round = world.execs;
  msg.job_index = world.execs;
  msg.params = {1.0f, 2.0f};
  msg.client_id = kGoodClientId;
  if (!world.server.SendTo(kGoodClientId, net::EncodeModelBroadcast(msg))) {
    throw std::runtime_error("invariant: good client unreachable");
  }
  world.server.Flush(1000);
  net::Frame frame;
  for (int i = 0; i < 200; ++i) {
    world.server.PollOnce(1);
    if (world.good.TryRecvFrame(&frame, 5) ==
        net::Connection::RecvStatus::kFrame) {
      const auto decoded = net::DecodeModelBroadcast(frame);
      if (decoded.job_index != world.execs) {
        throw std::runtime_error("invariant: wrong broadcast delivered");
      }
      return;
    }
  }
  throw std::runtime_error("invariant: broadcast never reached good client");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    if (!g_world) {
      InitWorld();
    }
    World& world = *g_world;
    world.execs++;
    world.disconnected.clear();

    // The attacker: a raw connection feeding the fuzzed bytes, split into
    // two writes so the server's partial-frame buffering is exercised.
    net::Connection attacker =
        net::ConnectWithRetry(world.server.port(), FastRetry(), world.execs);
    const std::span<const std::uint8_t> bytes(data, size);
    const std::size_t split = size / 2;
    attacker.SendBytes(bytes.subspan(0, split), 1000);
    Pump(world, 4);
    attacker.SendBytes(bytes.subspan(split), 1000);
    Pump(world, 8);
    attacker.Close();
    Pump(world, 8);

    // Invariant: whatever those bytes did, the good client was not the one
    // evicted.
    for (int id : world.disconnected) {
      fuzz_harness::Observe(0x5E5510 + (id == kGoodClientId ? 1 : 0));
      if (id == kGoodClientId) {
        throw std::runtime_error(
            "invariant: malformed stream evicted the good client");
      }
    }
    if (!world.server.IsConnected(kGoodClientId)) {
      throw std::runtime_error("invariant: good client lost its session");
    }
    // Walks every registered connection (HandshakeCount dereferences each
    // by_client_ entry), so a mapping left dangling by the adversarial
    // stream is a use-after-free right here under ASan — not a latent bomb
    // for some later exec.
    world.server.WaitForClients(1, 0);
    fuzz_harness::Observe(0x5E5520 + world.server.ConnectedCount());

    // Periodically prove the server still *works*, not merely that the
    // bookkeeping looks right.
    if (world.execs % 64 == 0) {
      ProbeGoodClient(world);
      RunWellFormedSession(world);
    }
    if (world.execs % 128 == 0) {
      RunMuxSession(world);
    }
  } catch (const util::CheckError& e) {
    // Client-side socket helpers throw CheckError on timeouts/EPIPE; that
    // means the server broke the transport contract for a *well-formed*
    // peer — escalate as a crash after resetting the world.
    g_world.reset();
    throw std::runtime_error(std::string("transport failure: ") + e.what());
  } catch (const std::runtime_error&) {
    g_world.reset();  // world state is suspect; rebuild on next exec
    throw;
  }
  return 0;
}
