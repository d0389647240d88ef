// Tests for the virtual-client pool (fl/client_pool.h): the engine's drain
// semantics, the spec's default resolution, and — the PR's determinism
// gate — a 5k-virtual-client run against a real net::Server that must be
// bit-identical whether one worker thread or eight drain the job queue.
#include "fl/client_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "compress/codec.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fl {
namespace {

TEST(ClientPoolSpecTest, ConnectionDefaultsScaleWithPopulation) {
  // 0 → one connection per 64 clients, clamped to [1, 256].
  EXPECT_EQ(ResolvePoolConnections(0, 1), 1);
  EXPECT_EQ(ResolvePoolConnections(0, 64), 1);
  EXPECT_EQ(ResolvePoolConnections(0, 65), 2);
  EXPECT_EQ(ResolvePoolConnections(0, 5000), 79);
  EXPECT_EQ(ResolvePoolConnections(0, 100000), 256);   // clamp high
  EXPECT_EQ(ResolvePoolConnections(0, 1000000), 256);  // 1M stays at 256
  // An explicit request wins but never exceeds the population.
  EXPECT_EQ(ResolvePoolConnections(8, 5000), 8);
  EXPECT_EQ(ResolvePoolConnections(64, 10), 10);
}

TEST(ClientPoolSpecTest, WorkerDefaultsFollowHardware) {
  EXPECT_EQ(ResolvePoolWorkers(3), 3);
  const int resolved = ResolvePoolWorkers(0);
  EXPECT_GE(resolved, 1);
}

TEST(VirtualClientEngineTest, DrainWaitsForQueuedAndInFlightTasks) {
  VirtualClientEngine engine(4);
  EXPECT_EQ(engine.worker_count(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    engine.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 64);

  // Drain is reusable: a second batch after the first drain still runs.
  for (int i = 0; i < 16; ++i) {
    engine.Submit([&done] { done.fetch_add(1); });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 80);
}

TEST(VirtualClientEngineTest, TasksSubmittedFromWorkersStillDrain) {
  // A task may enqueue follow-up work (the pump does this when a broadcast
  // arrives while workers run); Drain must cover the transitive closure.
  VirtualClientEngine engine(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    engine.Submit([&engine, &done] {
      engine.Submit([&done] { done.fetch_add(1); });
      done.fetch_add(1);
    });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 16);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a 5k-client virtual pool against a real server.
// ---------------------------------------------------------------------------

// Drives `kClients` virtual clients through `waves` broadcast waves (every
// client gets one job per wave) and returns the per-job deltas, indexed by
// job_index. The training function mirrors the production driver: a delta
// drawn from the (client_id, job_index)-keyed RNG stream, so any change in
// which worker/connection handled a job would show up as a bit difference.
std::vector<std::vector<float>> RunVirtualFleet(int kClients, int waves,
                                                int connections, int workers) {
  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.io_timeout_ms = 30000;
  net::Server server(server_options);

  const std::size_t total_jobs =
      static_cast<std::size_t>(kClients) * static_cast<std::size_t>(waves);
  std::vector<std::vector<float>> results(total_jobs);
  std::atomic<std::size_t> completed{0};
  server.SetUpdateHandler([&](int client_id, net::ClientUpdateMsg msg) {
    ASSERT_LT(msg.job_index, total_jobs);
    ASSERT_EQ(static_cast<int>(msg.job_index) % kClients, client_id);
    results[msg.job_index] = msg.delta.ToVector();
    completed.fetch_add(1);
  });

  util::RngFactory rngs(/*seed=*/17);
  VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = kClients;
  options.connections = connections;
  options.workers = workers;
  options.seed = 99;
  VirtualClientPool pool(
      options,
      [&rngs](const VirtualJob& job) {
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(job.client_id) << 32) | job.job_index;
        auto rng = rngs.Stream("client-train", stream);
        std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
        std::vector<float> delta(job.base.size());
        for (std::size_t i = 0; i < delta.size(); ++i) {
          delta[i] = job.base[i] + dist(rng);
        }
        return delta;
      },
      [](int client_id) {
        return static_cast<std::uint64_t>(10 + client_id % 7);
      });
  pool.Start();
  EXPECT_EQ(pool.connection_count(), connections);
  EXPECT_EQ(pool.worker_count(), workers);

  EXPECT_TRUE(server.WaitForClients(static_cast<std::size_t>(kClients), 30000))
      << "pool handshake stalled at " << server.ConnectedCount();

  const std::vector<float> base = {0.5f, -0.25f, 1.0f, 2.0f};
  for (int wave = 0; wave < waves; ++wave) {
    for (int c = 0; c < kClients; ++c) {
      net::ModelBroadcastMsg msg;
      msg.round = static_cast<std::uint64_t>(wave);
      msg.job_index =
          static_cast<std::uint64_t>(wave) * static_cast<std::uint64_t>(kClients) +
          static_cast<std::uint64_t>(c);
      msg.params = base;
      msg.client_id = c;  // the pool demuxes broadcasts by client id
      EXPECT_TRUE(server.SendTo(c, net::EncodeModelBroadcast(msg)));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const std::size_t wave_goal =
        static_cast<std::size_t>(wave + 1) * static_cast<std::size_t>(kClients);
    while (completed.load() < wave_goal &&
           std::chrono::steady_clock::now() < deadline) {
      server.PollOnce(1);
    }
    EXPECT_EQ(completed.load(), wave_goal) << "wave " << wave << " stalled";
    if (completed.load() < wave_goal) {
      break;
    }
  }

  pool.Stop();
  return results;
}

TEST(VirtualClientPoolTest, FiveThousandClientsBitIdenticalAcrossWorkerCounts) {
  // The determinism gate: same fleet, same jobs, 1 worker vs 8 workers over
  // differing connection fan-in — every per-job delta must match bit for
  // bit, because the RNG streams are keyed by (client, job), not by which
  // thread or socket carried the work.
  const int kClients = 5000;
  const auto serial = RunVirtualFleet(kClients, /*waves=*/2,
                                      /*connections=*/16, /*workers=*/1);
  const auto parallel = RunVirtualFleet(kClients, /*waves=*/2,
                                        /*connections=*/64, /*workers=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t job = 0; job < serial.size(); ++job) {
    ASSERT_FALSE(serial[job].empty()) << "job " << job << " never completed";
    ASSERT_EQ(serial[job], parallel[job]) << "job " << job << " diverged";
  }
}

TEST(VirtualClientPoolTest, SmallPoolRoundTripsJobs) {
  // Quick smoke at toy scale so failures here localize the plumbing before
  // the 5k gate runs.
  const auto results = RunVirtualFleet(/*kClients=*/9, /*waves=*/3,
                                       /*connections=*/2, /*workers=*/2);
  ASSERT_EQ(results.size(), 27u);
  for (const auto& delta : results) {
    ASSERT_EQ(delta.size(), 4u);
  }
}

// What one pooled job saw of its base model.
struct SeenBase {
  const float* data = nullptr;
  std::vector<float> values;
};

// Runs one fp16 pool connection for `kClients` clients and sends job j the
// base model `base_of_job[j]` (0 or 1) for client j % kClients, one wave of
// kClients jobs at a time. Returns what each job's base looked like and, in
// `expected`, what each base decodes to.
std::vector<SeenBase> SendBasesOverOneConnection(
    const std::vector<int>& base_of_job,
    std::vector<std::vector<float>>* expected) {
  const int kClients = 8;
  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.advertised_codecs = {"fp16"};
  net::Server server(server_options);

  std::mutex mu;
  std::vector<SeenBase> seen(base_of_job.size());
  std::atomic<int> completed{0};
  server.SetUpdateHandler(
      [&](int, net::ClientUpdateMsg) { completed.fetch_add(1); });

  VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = kClients;
  options.connections = 1;
  options.workers = 3;
  VirtualClientPool pool(
      options,
      [&](const VirtualJob& job) {
        std::lock_guard<std::mutex> lock(mu);
        seen[job.job_index] = {job.base.data(), job.base.ToVector()};
        return job.base.ToVector();
      },
      [](int) { return std::uint64_t{1}; });
  pool.Start();
  EXPECT_TRUE(server.WaitForClients(kClients, 10000));
  const compress::Codec* codec = server.ClientCodec(0);
  EXPECT_NE(codec, nullptr);
  if (codec == nullptr) {
    pool.Stop();
    return seen;
  }
  EXPECT_STREQ(codec->name(), "fp16");

  std::vector<std::vector<float>> bases = {std::vector<float>(1237),
                                           std::vector<float>(1237)};
  for (std::size_t i = 0; i < 1237; ++i) {
    bases[0][i] = 0.001f * static_cast<float>(i) + 0.0001f;
    bases[1][i] = -0.002f * static_cast<float>(i) + 0.0003f;
  }
  const std::vector<std::vector<std::uint8_t>> blocks = {
      net::EncodeParamsBlock(bases[0], codec),
      net::EncodeParamsBlock(bases[1], codec)};
  expected->clear();
  for (const std::vector<float>& base : bases) {
    expected->push_back(compress::RoundTrip(*codec, base));
  }
  for (std::size_t job = 0; job < base_of_job.size(); ++job) {
    net::ModelBroadcastMsg msg;
    msg.job_index = job;
    msg.client_id = static_cast<int>(job % kClients);
    EXPECT_TRUE(server.SendAppended(
        msg.client_id, [&](std::vector<std::uint8_t>& out) {
          net::AppendModelBroadcastFrame(
              out, msg, blocks[static_cast<std::size_t>(base_of_job[job])]);
        }));
    if ((job + 1) % kClients != 0 && job + 1 != base_of_job.size()) {
      continue;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (completed.load() < static_cast<int>(job + 1) &&
           std::chrono::steady_clock::now() < deadline) {
      server.PollOnce(1);
    }
    EXPECT_EQ(completed.load(), static_cast<int>(job + 1));
  }
  pool.Stop();
  return seen;
}

TEST(VirtualClientPoolTest, JobsOnAConnectionShareOneDecodedBase) {
  // Broadcasts of one model reach a connection as byte-identical parameter
  // blocks; the pool decodes the first and hands every job the same floats.
  const std::vector<int> base_of_job = {0, 0, 0, 0, 0, 0, 0, 0,
                                        1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<std::vector<float>> expected;
  const std::vector<SeenBase> seen =
      SendBasesOverOneConnection(base_of_job, &expected);
  for (std::size_t job = 0; job < seen.size(); ++job) {
    const std::size_t first = job < 8 ? 0 : 8;
    EXPECT_EQ(seen[job].data, seen[first].data) << "job " << job;
    EXPECT_EQ(seen[job].values,
              expected[static_cast<std::size_t>(base_of_job[job])])
        << "job " << job;
  }
}

TEST(VirtualClientPoolTest, InterleavedBasesOnAConnectionKeepTheirOwnFloats) {
  // Two models alternating on one connection: every switch decodes afresh,
  // and no job ever sees the other model's floats.
  std::vector<int> base_of_job;
  for (int job = 0; job < 24; ++job) {
    base_of_job.push_back(job % 3 == 0 ? 1 : 0);
  }
  obs::Counter& misses =
      obs::DefaultRegistry().GetCounter("net.broadcast_cache.misses");
  const std::uint64_t misses_before = misses.Value();
  std::vector<std::vector<float>> expected;
  const std::vector<SeenBase> seen =
      SendBasesOverOneConnection(base_of_job, &expected);
  std::uint64_t switches = 1;  // the first frame fills the cache
  for (std::size_t job = 0; job < seen.size(); ++job) {
    EXPECT_EQ(seen[job].values,
              expected[static_cast<std::size_t>(base_of_job[job])])
        << "job " << job;
    switches += job > 0 && base_of_job[job] != base_of_job[job - 1];
    if (job > 0 && base_of_job[job] == base_of_job[job - 1]) {
      EXPECT_EQ(seen[job].data, seen[job - 1].data) << "job " << job;
    }
  }
  EXPECT_EQ(misses.Value() - misses_before, switches);
}

TEST(VirtualClientPoolTest, StopIsIdempotentAndStartRejectsReuse) {
  net::ServerOptions server_options;
  server_options.port = 0;
  net::Server server(server_options);

  VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = 4;
  options.connections = 1;
  options.workers = 1;
  VirtualClientPool pool(
      options, [](const VirtualJob& job) { return job.base.ToVector(); },
      [](int) { return std::uint64_t{1}; });
  pool.Start();
  EXPECT_TRUE(server.WaitForClients(4, 10000));
  pool.Stop();
  pool.Stop();  // second stop is a no-op, not a crash
}

}  // namespace
}  // namespace fl
