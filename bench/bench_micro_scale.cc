// Micro-benchmark for virtual-client scale: the same job stream pushed
// through a net::Server + fl::VirtualClientPool pair at growing fleet
// sizes, measuring per-job round-trip latency (broadcast dispatched →
// update staged) while the population grows 1k → 100k.
//
// The fleet rides ResolvePoolConnections(0, N) multiplexed connections and
// a fixed engine crew; each round dispatches a fixed K jobs round-robin
// across the population, so the *work* per round is constant and any
// latency growth is pure bookkeeping overhead — session maps, the reactor,
// demux. Acceptance tracked per PR: p50 and p95 grow at most
// 1.5x from the smallest to the largest population. Emits
// BENCH_scale.json. `--smoke` shrinks the populations for CI; `--out=FILE`
// redirects the JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "fl/client_pool.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDeltaFloats = 64;
constexpr int kJobsPerRound = 256;

struct ScaleResult {
  int clients = 0;
  int connections = 0;
  int workers = 0;
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

double Percentile(std::vector<double> values, double p) {
  AF_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void RaiseFdLimit() {
  struct rlimit lim {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    struct rlimit want = lim;
    want.rlim_cur = std::min<rlim_t>(lim.rlim_max, 65536);
    ::setrlimit(RLIMIT_NOFILE, &want);
  }
}

ScaleResult RunPopulation(int num_clients, int rounds, int workers,
                          int connections) {
  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.io_timeout_ms = 60000;
  net::Server server(server_options);

  // Per-in-flight-job dispatch stamps, keyed by the globally unique
  // job_index; the update handler turns them into round-trip latencies.
  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(rounds) * kJobsPerRound);
  std::size_t received = 0;
  server.SetUpdateHandler([&](int, net::ClientUpdateMsg msg) {
    const auto it = sent_at.find(msg.job_index);
    AF_CHECK(it != sent_at.end()) << "update for unknown job";
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - it->second)
            .count());
    sent_at.erase(it);
    ++received;
  });

  fl::VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = num_clients;
  options.connections = connections;  // 0 → 1 per 64 clients, capped at 256
  options.workers = workers;
  options.io_timeout_ms = 60000;
  fl::VirtualClientPool pool(
      options,
      [](const fl::VirtualJob& job) {
        std::vector<float> delta(job.base.size());
        const float bias = static_cast<float>(job.client_id % 97) * 1e-3f;
        for (std::size_t i = 0; i < delta.size(); ++i) {
          delta[i] = job.base[i] + bias;
        }
        return delta;
      },
      [](int client_id) {
        return static_cast<std::uint64_t>(10 + client_id % 7);
      });
  pool.Start();
  AF_CHECK(server.WaitForClients(static_cast<std::size_t>(num_clients), 60000))
      << "handshake stalled at " << server.ConnectedCount() << " of "
      << num_clients;

  const std::vector<float> base(kDeltaFloats, 0.125f);
  std::uint64_t next_job = 0;
  const auto start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (int j = 0; j < kJobsPerRound; ++j) {
      // Round-robin across the whole population so every round touches a
      // fresh slice of the session/demux maps.
      const int client = static_cast<int>(next_job % static_cast<std::uint64_t>(
                                              num_clients));
      net::ModelBroadcastMsg msg;
      msg.round = static_cast<std::uint64_t>(round);
      msg.job_index = next_job;
      msg.params = base;
      msg.client_id = client;
      sent_at.emplace(next_job, Clock::now());
      AF_CHECK(server.SendTo(client, net::EncodeModelBroadcast(msg)));
      ++next_job;
    }
    const std::size_t round_goal =
        static_cast<std::size_t>(round + 1) * kJobsPerRound;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (received < round_goal && Clock::now() < deadline) {
      server.PollOnce(1);
    }
    AF_CHECK_EQ(received, round_goal) << "round " << round << " stalled";
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  ScaleResult result;
  result.clients = num_clients;
  result.connections = pool.connection_count();
  result.workers = pool.worker_count();
  pool.Stop();
  result.jobs = received;
  result.seconds = seconds;
  result.jobs_per_sec = static_cast<double>(received) / seconds;
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p95_us = Percentile(latencies_us, 0.95);
  std::printf("  %7d clients  %3d conns  %7zu jobs in %6.3fs  %8.0f jobs/s  "
              "p50 %7.0fus  p95 %7.0fus\n",
              result.clients, result.connections, result.jobs, result.seconds,
              result.jobs_per_sec, result.p50_us, result.p95_us);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"smoke", "out", "connections"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_scale.json");
  // Explicit connection fan-in (0 = auto). The PR's acceptance run drives
  // the largest population over 1000 connections with this.
  const int connections = static_cast<int>(flags.GetInt("connections", 0));

  RaiseFdLimit();
  const std::vector<int> populations =
      smoke ? std::vector<int>{1000, 5000}
            : std::vector<int>{1000, 10000, 100000};
  const int rounds = smoke ? 4 : 8;
  const int workers = 4;

  std::printf("bench_micro_scale%s — %d jobs/round x %d rounds per "
              "population, %zu-float deltas\n",
              smoke ? " (smoke)" : "", kJobsPerRound, rounds, kDeltaFloats);

  std::vector<ScaleResult> results;
  for (const int clients : populations) {
    results.push_back(RunPopulation(clients, rounds, workers, connections));
  }

  const ScaleResult& small = results.front();
  const ScaleResult& large = results.back();
  const double p50_growth = large.p50_us / small.p50_us;
  const double p95_growth = large.p95_us / small.p95_us;
  const bool flat_met = p50_growth <= 1.5 && p95_growth <= 1.5;
  std::printf("latency growth %dk -> %dk clients: p50 %.2fx, p95 %.2fx "
              "(target <=1.5x): %s\n",
              small.clients / 1000, large.clients / 1000, p50_growth,
              p95_growth, flat_met ? "met" : "MISSED");

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("name").String("scale");
  json.Key("smoke").Bool(smoke);
  json.Key("delta_floats").UInt(kDeltaFloats);
  json.Key("jobs_per_round").UInt(kJobsPerRound);
  json.Key("rounds").UInt(static_cast<std::uint64_t>(rounds));
  json.Key("p50_growth").Number(p50_growth);
  json.Key("p95_growth").Number(p95_growth);
  json.Key("flat_met").Bool(flat_met);
  json.Key("populations").BeginArray();
  for (const ScaleResult& r : results) {
    json.BeginObject();
    json.Key("clients").UInt(static_cast<std::uint64_t>(r.clients));
    json.Key("connections").UInt(static_cast<std::uint64_t>(r.connections));
    json.Key("workers").UInt(static_cast<std::uint64_t>(r.workers));
    json.Key("jobs").UInt(r.jobs);
    json.Key("seconds").Number(r.seconds);
    json.Key("jobs_per_sec").Number(r.jobs_per_sec);
    json.Key("p50_us").Number(r.p50_us);
    json.Key("p95_us").Number(r.p95_us);
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
