// Micro-benchmark for the update hot path on both transports.
//
// Each lane pushes the same stream of ClientUpdate frames — LeNet-surrogate
// sized float deltas — from one producer into the server-side materialize
// step (arena copy, exactly what fl::TcpBackend::OnUpdate does) and
// measures updates/sec, effective MB/s of float payload, and copies per
// update from the transport.bytes_copied / transport.updates counters:
//
//   inproc  UpdateView handoff, no serialization (the upper bound)
//   tcp     loopback socket through the net::Server reactor
//
// Acceptance: the uplink costs at most one counted copy per update on
// every lane. Emits BENCH_transport.json. `--smoke` shrinks the stream for
// CI; `--out=FILE` redirects the JSON.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "nn/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

// The delta size the default run actually sends: the LeNet surrogate's
// parameter count (4,538 floats).
std::size_t LeNetDeltaSize() {
  static const std::size_t size =
      nn::MakeLeNet5Surrogate().factory(/*seed=*/0)->NumParameters();
  return size;
}

struct LaneResult {
  std::string lane;
  std::size_t updates = 0;
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  double payload_mb_s = 0.0;
  double copies_per_update = 0.0;
};

std::vector<float> MakeDelta(std::mt19937_64& rng) {
  std::normal_distribution<float> dist(0.0f, 0.02f);
  std::vector<float> delta(LeNetDeltaSize());
  for (float& v : delta) {
    v = dist(rng);
  }
  return delta;
}

// The server-side consumer shared by every lane: materialize the delta the
// way fl::TcpBackend::OnUpdate does — keep a view that owns its bytes,
// arena-copy (and count) one that aliases a transport buffer.
struct Consumer {
  util::Arena arena;
  std::size_t received = 0;
  double checksum = 0.0;  // defeat dead-code elimination

  void Consume(net::ClientUpdateMsg msg) {
    net::UpdateView delta;
    if (msg.delta.has_keepalive()) {
      delta = std::move(msg.delta);
    } else {
      obs::DefaultRegistry()
          .GetCounter("transport.bytes_copied")
          .Increment(msg.delta.size() * sizeof(float));
      delta = net::UpdateView::CopyToArena(arena, msg.delta);
    }
    checksum += static_cast<double>(delta[received % delta.size()]);
    ++received;
  }
};

LaneResult FinishLane(const char* lane, std::size_t updates, double seconds,
                      std::uint64_t copied_bytes_delta,
                      std::uint64_t updates_delta) {
  LaneResult result;
  result.lane = lane;
  result.updates = updates;
  result.seconds = seconds;
  result.updates_per_sec = static_cast<double>(updates) / seconds;
  result.payload_mb_s = static_cast<double>(updates) * LeNetDeltaSize() *
                        sizeof(float) / seconds / 1e6;
  const double per_update_bytes =
      static_cast<double>(LeNetDeltaSize()) * sizeof(float);
  result.copies_per_update =
      updates_delta == 0
          ? 0.0
          : static_cast<double>(copied_bytes_delta) /
                (static_cast<double>(updates_delta) * per_update_bytes);
  std::printf("  %-7s %7zu updates in %6.3fs  %9.0f updates/s  %8.1f MB/s  "
              "%.3f copies/update\n",
              lane, updates, seconds, result.updates_per_sec,
              result.payload_mb_s, result.copies_per_update);
  return result;
}

// inproc: UpdateViews handed to the consumer directly — the InprocBackend
// path, where the view owns its floats and no bytes are serialized.
LaneResult RunInproc(std::size_t updates, const std::vector<float>& delta) {
  obs::Counter& copied =
      obs::DefaultRegistry().GetCounter("transport.bytes_copied");
  obs::Counter& count = obs::DefaultRegistry().GetCounter("transport.updates");
  const std::uint64_t copied0 = copied.Value();
  const std::uint64_t count0 = count.Value();

  Consumer consumer;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < updates; ++i) {
    net::ClientUpdateMsg msg;
    msg.client_id = 1;
    msg.job_index = i;
    msg.delta = std::vector<float>(delta);  // the clone a trainer would emit
    count.Increment();
    consumer.Consume(std::move(msg));
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  AF_CHECK_EQ(consumer.received, updates);
  return FinishLane("inproc", updates, seconds, copied.Value() - copied0,
                    count.Value() - count0);
}

// tcp: a real net::Server on loopback; the producer thread performs the
// handshake, then streams pre-encoded ClientUpdate frames as fast as the
// socket accepts them.
LaneResult RunTcp(std::size_t updates, const std::vector<float>& delta) {
  obs::Counter& copied =
      obs::DefaultRegistry().GetCounter("transport.bytes_copied");
  obs::Counter& count = obs::DefaultRegistry().GetCounter("transport.updates");
  const std::uint64_t copied0 = copied.Value();
  const std::uint64_t count0 = count.Value();

  net::Server server(net::ServerOptions{});
  Consumer consumer;
  server.SetUpdateHandler([&consumer](int, net::ClientUpdateMsg msg) {
    consumer.Consume(std::move(msg));
  });

  std::thread producer([&] {
    net::RetryConfig retry;
    retry.max_attempts = 10;
    net::Connection conn = net::ConnectWithRetry(server.port(), retry, 99);
    net::ClientHandshake(conn, {{1}}, false, 5000);

    // One encode, streamed `updates` times with a bumped job_index — the
    // measurement targets the transport, not the serializer.
    net::ClientUpdateMsg msg;
    msg.client_id = 1;
    msg.job_index = 0;
    msg.num_samples = 60;
    msg.delta = net::UpdateView(std::span<const float>(delta), nullptr);
    std::vector<std::uint8_t> bytes;
    net::AppendClientUpdateFrame(bytes, msg);
    // job_index sits right after the frame header + client_id field.
    const std::size_t job_index_at = net::kFrameHeaderBytes + 4;

    for (std::size_t i = 0; i < updates; ++i) {
      const std::uint64_t job = i;
      std::memcpy(bytes.data() + job_index_at, &job, sizeof(job));
      conn.SendBytes(bytes, 30000);
      net::Frame ack;
      while (conn.TryRecvFrame(&ack, 0) ==
             net::Connection::RecvStatus::kFrame) {
      }
    }
  });

  const auto start = Clock::now();
  while (consumer.received < updates) {
    server.PollOnce(1);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  producer.join();
  return FinishLane("tcp", updates, seconds, copied.Value() - copied0,
                    count.Value() - count0);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"smoke", "out"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_transport.json");

  const std::size_t updates = smoke ? 300 : 2000;
  std::mt19937_64 rng(20260808);
  const std::vector<float> delta = MakeDelta(rng);

  std::printf("bench_micro_transport%s — %zu updates of %zu floats per lane\n",
              smoke ? " (smoke)" : "", updates, LeNetDeltaSize());

  std::vector<LaneResult> lanes;
  lanes.push_back(RunInproc(updates, delta));
  lanes.push_back(RunTcp(updates, delta));

  bool copies_met = true;
  for (const LaneResult& lane : lanes) {
    copies_met = copies_met && lane.copies_per_update <= 1.0 + 1e-9;
  }
  std::printf("uplink copies <=1 per update on every lane: %s\n",
              copies_met ? "met" : "MISSED");

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("name").String("transport");
  json.Key("smoke").Bool(smoke);
  json.Key("delta_floats").UInt(LeNetDeltaSize());
  json.Key("updates_per_lane").UInt(updates);
  json.Key("uplink_copies_met").Bool(copies_met);
  json.Key("lanes").BeginArray();
  for (const LaneResult& lane : lanes) {
    json.BeginObject();
    json.Key("lane").String(lane.lane);
    json.Key("updates").UInt(lane.updates);
    json.Key("seconds").Number(lane.seconds);
    json.Key("updates_per_sec").Number(lane.updates_per_sec);
    json.Key("payload_mb_s").Number(lane.payload_mb_s);
    json.Key("copies_per_update").Number(lane.copies_per_update);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str() << '\n';
  std::printf("perf record written to %s\n", out_path.c_str());
  return 0;
}
