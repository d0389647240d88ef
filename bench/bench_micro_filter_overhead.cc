// Micro-benchmark: server-side cost of defense scoring, per arrival and per
// aggregation round.
//
// Part 1 measures the streaming rescoring path — the operation AsyncFilter
// performs every time the buffer changes: evict the oldest update, insert
// the arrival, recompute every buffered update's suspicious score, and
// re-cluster. Two lanes over buffer sizes 64→8192 at the LeNet-surrogate
// delta size (taken from nn::MakeLeNet5Surrogate, 4,538 floats):
//   exact        every distance recomputed, cold k-means++ with restarts each
//                arrival (the pre-scorer behaviour).
//   incremental  cached norms/reference distances (only the new arrival's
//                distance is computed) + warm-started Lloyd.
// Per-arrival latency is reported as p50/p95. Acceptance tracked per PR:
// incremental ≥5× faster than exact at buffer 4096 (p50), with incremental
// p95 under a millisecond.
//
// Part 2 keeps the historical defense-comparison table: median
// Defense::Process() latency for AsyncFilter, FLDetector and Multi-Krum on
// a 40-update buffer. Multi-Krum also runs at buffer 300, the
// wide_multikrum e2e workload's buffer, twice: serially and lent a 3-thread
// pool (FilterContext::pool, as the simulation lends its 3 training
// threads); the record carries the pooled lane's speedup.
//
// Emits BENCH_defense.json (folded into bench_results/trajectory.jsonl by
// tools/collect_bench.py). `--smoke` shrinks sample counts for CI;
// `--out=FILE` redirects the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/async_filter.h"
#include "core/suspicious_score.h"
#include "defense/fldetector.h"
#include "defense/krum.h"
#include "fl/types.h"
#include "nn/models.h"
#include "obs/json.h"
#include "score/scorer.h"
#include "score/warm_kmeans.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kStalenessLevels = 6;

// The delta size the default run actually scores: the LeNet surrogate's
// parameter count.
std::size_t LeNetDeltaSize() {
  return nn::MakeLeNet5Surrogate().factory(/*seed=*/0)->NumParameters();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void FillDelta(std::span<float> delta, std::mt19937_64& rng) {
  std::normal_distribution<float> noise(0.0f, 1.0f);
  for (float& x : delta) {
    x = noise(rng);
  }
}

struct LaneResult {
  std::string mode;
  std::size_t buffer = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  std::size_t samples = 0;
};

// One (mode, buffer-size) lane of the per-arrival streaming sweep.
LaneResult RunLane(score::ScorerMode mode, std::size_t buffer_size,
                   std::size_t dim, bool smoke) {
  auto rng = util::RngFactory(7).Stream("stream");
  std::uniform_int_distribution<std::size_t> tau(0, kStalenessLevels - 1);

  // Update pool: slot storage the scorer borrows. The mirror ModelUpdates
  // only carry staleness (what normalization reads); payloads live here.
  std::vector<std::vector<float>> deltas(buffer_size,
                                         std::vector<float>(dim));
  std::vector<fl::ModelUpdate> buffer(buffer_size);
  std::vector<std::vector<float>> references(kStalenessLevels,
                                             std::vector<float>(dim));
  for (auto& ref : references) {
    FillDelta(ref, rng);
  }

  score::StreamingScorer scorer(mode);
  std::vector<int> slots(buffer_size);
  for (std::size_t i = 0; i < buffer_size; ++i) {
    FillDelta(deltas[i], rng);
    buffer[i].client_id = static_cast<int>(i);
    buffer[i].staleness = tau(rng);
    slots[i] = scorer.Insert(deltas[i]);
  }
  for (std::size_t t = 0; t < kStalenessLevels; ++t) {
    scorer.SetReference(t, references[t]);
  }

  auto kmeans_rng = util::RngFactory(11).Stream("kmeans");
  score::WarmKMeansState warm;
  std::vector<double> own(buffer_size, 0.0);

  // The measured operation: absorb one arrival and fully rescore the buffer
  // — exactly what AsyncFilter's streaming path does per buffer mutation.
  const auto score_arrival = [&](std::size_t pos) {
    scorer.Evict(slots[pos]);
    slots[pos] = scorer.Insert(deltas[pos]);
    for (std::size_t i = 0; i < buffer_size; ++i) {
      own[i] = scorer.DistanceToReference(buffer[i].staleness, slots[i]);
    }
    const std::vector<double> scores = core::NormalizeOwnDistances(
        buffer, own, core::ScoreNormalization::kGroupRms);
    if (mode == score::ScorerMode::kExact) {
      // Pre-scorer behaviour: cold k-means++ with restarts every arrival.
      auto clustering = cluster::KMeans1D(scores, 3, kmeans_rng);
      return clustering.inertia;
    }
    auto clustering = score::WarmKMeans1D(scores, 3, kmeans_rng, warm);
    return clustering.inertia;
  };

  // Exact recomputes ~3 full-buffer passes per arrival; cap its sample count
  // at large sizes so the sweep stays tractable.
  std::size_t samples = smoke ? 8 : 32;
  if (mode == score::ScorerMode::kExact && buffer_size >= 4096) {
    samples = smoke ? 4 : 8;
  }
  const std::size_t warmup = 2;

  double sink = 0.0;
  std::vector<double> times;
  times.reserve(samples);
  std::size_t arrival = 0;
  for (std::size_t s = 0; s < warmup + samples; ++s) {
    const std::size_t pos = arrival++ % buffer_size;
    FillDelta(deltas[pos], rng);  // payload generation is not scoring cost
    buffer[pos].staleness = tau(rng);
    const auto start = Clock::now();
    sink += score_arrival(pos);
    if (s >= warmup) {
      times.push_back(MicrosSince(start));
    }
  }
  if (sink < 0.0) {
    std::printf("impossible\n");  // keep `sink` (and the work) alive
  }

  LaneResult result;
  result.mode = score::ScorerModeName(mode);
  result.buffer = buffer_size;
  result.p50_us = Percentile(times, 0.50);
  result.p95_us = Percentile(times, 0.95);
  result.samples = times.size();
  std::printf("  %-12s buffer %5zu  p50 %10.1f us  p95 %10.1f us\n",
              result.mode.c_str(), result.buffer, result.p50_us,
              result.p95_us);
  return result;
}

std::vector<fl::ModelUpdate> MakeBuffer(std::size_t count, std::size_t dim,
                                        std::uint64_t seed) {
  auto rng = util::RngFactory(seed).Stream("micro");
  std::uniform_int_distribution<std::size_t> tau(0, kStalenessLevels - 1);
  std::vector<fl::ModelUpdate> buffer(count);
  for (std::size_t i = 0; i < count; ++i) {
    buffer[i].client_id = static_cast<int>(i);
    buffer[i].staleness = tau(rng);
    buffer[i].num_samples = 100;
    std::vector<float> delta(dim);
    FillDelta(delta, rng);
    buffer[i].delta = std::move(delta);
  }
  return buffer;
}

struct ProcessResult {
  std::string defense;
  std::size_t buffer = 0;
  std::size_t dim = 0;
  std::size_t threads = 0;  // lent pool's size; 0 = serial
  double p50_us = 0.0;
};

ProcessResult RunProcess(defense::Defense& defense, const char* name,
                         std::size_t count, std::size_t dim, bool smoke,
                         util::ThreadPool* pool = nullptr) {
  auto buffer = MakeBuffer(count, dim, 42);
  std::vector<float> global(dim, 0.0f);
  auto rng = util::RngFactory(1).Stream("server");
  defense::FilterContext ctx;
  ctx.global_model = global;
  ctx.rng = &rng;
  ctx.pool = pool;

  const std::size_t rounds = smoke ? 6 : 20;
  std::vector<double> times;
  times.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    ctx.round = r;
    const auto start = Clock::now();
    auto result = defense.Process(ctx, buffer);
    times.push_back(MicrosSince(start));
    if (result.verdicts.empty()) {
      std::printf("impossible\n");
    }
  }

  ProcessResult result;
  result.defense = name;
  result.buffer = count;
  result.dim = dim;
  result.threads = pool ? pool->size() : 0;
  result.p50_us = Percentile(times, 0.50);
  std::printf("  %-12s buffer %4zu dim %6zu threads %zu  p50 %10.1f us\n",
              result.defense.c_str(), count, dim, result.threads,
              result.p50_us);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"smoke", "out"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_defense.json");

  std::printf("bench_micro_filter_overhead%s\n", smoke ? " (smoke)" : "");

  const std::size_t dim = LeNetDeltaSize();
  std::printf("Per-arrival streaming rescoring (dim %zu)\n", dim);
  const std::size_t buffer_sizes[] = {64, 256, 1024, 4096, 8192};
  const score::ScorerMode modes[] = {score::ScorerMode::kExact,
                                     score::ScorerMode::kIncremental};
  std::vector<LaneResult> lanes;
  for (std::size_t buffer_size : buffer_sizes) {
    for (score::ScorerMode mode : modes) {
      lanes.push_back(RunLane(mode, buffer_size, dim, smoke));
    }
  }

  // Acceptance tracked per PR, at the paper-scale 4096 buffer.
  double exact_4096 = 0.0;
  double incremental_4096 = 0.0;
  double incremental_4096_p95 = 0.0;
  for (const LaneResult& lane : lanes) {
    if (lane.buffer != 4096) {
      continue;
    }
    if (lane.mode == "exact") {
      exact_4096 = lane.p50_us;
    } else if (lane.mode == "incremental") {
      incremental_4096 = lane.p50_us;
      incremental_4096_p95 = lane.p95_us;
    }
  }
  const double speedup_4096 =
      incremental_4096 > 0.0 ? exact_4096 / incremental_4096 : 0.0;
  const bool speedup_met = speedup_4096 >= 5.0;
  const bool p95_sub_ms = incremental_4096_p95 < 1000.0;
  std::printf("speedup@4096 %.1fx (target >=5x): %s\n", speedup_4096,
              speedup_met ? "met" : "MISSED");
  std::printf("incremental p95@4096 %.1f us (target <1000us): %s\n",
              incremental_4096_p95, p95_sub_ms ? "met" : "MISSED");

  std::printf("Defense::Process comparison\n");
  std::vector<ProcessResult> process;
  {
    core::AsyncFilter filter;
    process.push_back(RunProcess(filter, "asyncfilter", 40, dim, smoke));
  }
  {
    core::AsyncFilter filter;
    process.push_back(RunProcess(filter, "asyncfilter", 160, dim, smoke));
  }
  {
    defense::FlDetector detector;
    process.push_back(RunProcess(detector, "fldetector", 40, dim, smoke));
  }
  double pool_speedup_300 = 0.0;
  {
    defense::Krum krum(0.2, /*multi=*/true);
    process.push_back(RunProcess(krum, "multikrum", 40, dim, smoke));
    process.push_back(RunProcess(krum, "multikrum", 300, dim, smoke));
    util::ThreadPool pool(3);
    process.push_back(RunProcess(krum, "multikrum", 300, dim, smoke, &pool));
    const double pooled = process.back().p50_us;
    const double serial = process[process.size() - 2].p50_us;
    pool_speedup_300 = pooled > 0.0 ? serial / pooled : 0.0;
    std::printf("multikrum@300 pooled speedup %.2fx (3 threads)\n",
                pool_speedup_300);
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("name").String("defense");
  json.Key("smoke").Bool(smoke);
  json.Key("dim").UInt(dim);
  json.Key("speedup_4096").Number(speedup_4096);
  json.Key("speedup_target_met").Bool(speedup_met);
  json.Key("incremental_p95_4096_us").Number(incremental_4096_p95);
  json.Key("p95_sub_ms").Bool(p95_sub_ms);
  json.Key("multikrum_300_pool_speedup").Number(pool_speedup_300);
  json.Key("lanes").BeginArray();
  for (const LaneResult& lane : lanes) {
    json.BeginObject();
    json.Key("mode").String(lane.mode);
    json.Key("buffer").UInt(lane.buffer);
    json.Key("p50_us").Number(lane.p50_us);
    json.Key("p95_us").Number(lane.p95_us);
    json.Key("samples").UInt(lane.samples);
    json.EndObject();
  }
  json.EndArray();
  json.Key("process").BeginArray();
  for (const ProcessResult& r : process) {
    json.BeginObject();
    json.Key("defense").String(r.defense);
    json.Key("buffer").UInt(r.buffer);
    json.Key("dim").UInt(r.dim);
    json.Key("threads").UInt(r.threads);
    json.Key("p50_us").Number(r.p50_us);
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
