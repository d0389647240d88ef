// bench_e2e: the end-to-end benchmark program.
//
//   bench_e2e --workload lenet_gd --seed 7 --seconds 30 --trace 0
//   bench_e2e --workload fleet_tcp_fp16 --seed 7 --seconds 30 --trace 1
//             --trace-out trace.json
//   bench_e2e --smoke
//
// --trace 0 repeats the untraced workload while another run fits in
// --seconds (at least one run, each after timing the set-up phase alone
// kSetupProbesPerRun times) and reports the end-to-end metrics. --trace 1
// repeats, on the same terms, a traced run of the workload on the other
// transport followed by an untraced and a traced run of the workload in
// alternating order, and reports the per-layer metrics. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the line
// before it lists every run. A failed check exits non-zero.
#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nn_probe.h"
#include "runs.h"
#include "stats.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/logging.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kSetupProbesPerRun = 4;

struct Metric {
  std::string name;
  double value = 0.0;
};

struct Outcome {
  std::size_t attempted = 0;  // updates: rounds x aggregation bound per run
  std::size_t failed = 0;     // updates of runs that threw or failed a check
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::string> runs;  // one JSON object per run
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Units follow from the metric names' suffixes; run.py checks every one
// against BENCHMARK.json.
const char* UnitOf(const std::string& name) {
  if (EndsWith(name, "updates_per_s")) return "updates/s";
  if (EndsWith(name, "mb_per_s")) return "MB/s";
  if (EndsWith(name, "_s")) return "s";
  if (EndsWith(name, "_ms")) return "ms";
  if (name.find("_us") != std::string::npos) return "us";
  if (EndsWith(name, "_mb")) return "MB";
  if (EndsWith(name, "gflop")) return "GFLOP";
  if (EndsWith(name, "bytes_per_flop")) return "B/FLOP";
  if (EndsWith(name, "flop_per_call")) return "FLOP";
  if (EndsWith(name, "bytes") || EndsWith(name, "bytes_copied_per_update")) return "B";
  if (EndsWith(name, "compress.ratio")) return "x";
  if (EndsWith(name, "share") || EndsWith(name, "_ratio") || EndsWith(name, "_frac") ||
      EndsWith(name, "accuracy") || EndsWith(name, "precision") ||
      EndsWith(name, "recall")) {
    return "fraction";
  }
  return "count";
}

// Runs `iteration` once, then again while one more of average length still
// fits in `seconds`.
void RepeatFor(double seconds, const std::function<void()>& iteration) {
  const std::int64_t start_ns = NowNs();
  for (int done = 0;; ++done) {
    const double elapsed = static_cast<double>(NowNs() - start_ns) / 1e9;
    if (done >= 1 && elapsed + elapsed / done > seconds) {
      return;
    }
    iteration();
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Runs one experiment and checks its outputs. A throw or a failed check
// counts every update of the run as failed.
std::optional<RunRecord> Attempt(Outcome& out, const char* mode,
                                 const fl::ExperimentConfig& config, bool full_length,
                                 const std::function<RunRecord()>& run_fn) {
  const std::size_t updates = config.sim.rounds * config.sim.buffer_goal;
  out.attempted += updates;
  std::vector<std::string> failures;
  std::optional<RunRecord> run;
  try {
    run = run_fn();
    failures = CheckOutputs(config, *run, full_length);
  } catch (const std::exception& e) {
    failures.push_back(e.what());
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"mode\":\"%s\",\"ok\":%s,\"wall_s\":%.6f,\"setup_s\":%.6f,"
                "\"final_accuracy\":%.6f,\"precision\":%.6f,\"recall\":%.6f,"
                "\"model\":\"%s\"}",
                mode, failures.empty() ? "true" : "false", run ? run->wall_s : 0.0,
                run ? run->setup_s : 0.0, run ? run->result.final_accuracy : 0.0,
                run ? run->result.total_confusion.Precision() : 0.0,
                run ? run->result.total_confusion.Recall() : 0.0,
                run ? Hex(run->model_hash).c_str() : "");
  out.runs.push_back(line);
  if (failures.empty()) {
    return run;
  }
  for (const std::string& failure : failures) {
    out.failures.push_back(std::string(mode) + ": " + failure);
  }
  out.failed += updates;
  return std::nullopt;
}

void ExpectSameModel(Outcome& out, const fl::ExperimentConfig& config,
                     const RunRecord& a, const RunRecord& b, const std::string& what) {
  if (a.model_hash != b.model_hash) {
    out.failures.push_back(what + ": final models differ (" + Hex(a.model_hash) +
                           " vs " + Hex(b.model_hash) + ")");
    out.failed += config.sim.rounds * config.sim.buffer_goal;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Outcome MeasureUntraced(const fl::ExperimentConfig& config, bool full_length,
                        double seconds) {
  Outcome out;
  std::vector<double> setup;
  std::vector<RunRecord> runs;
  RepeatFor(seconds, [&] {
    // Set-up is short and single-threaded, so it swings with the speed of
    // whichever core it lands on; extra samples spread over the whole
    // measurement steady its median.
    for (int i = 0; i < kSetupProbesPerRun; ++i) {
      setup.push_back(ProbeSetup(config));
    }
    if (auto run = Attempt(out, "untraced", config, full_length,
                           [&] { return RunUntraced(config); })) {
      runs.push_back(std::move(*run));
    }
  });
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectSameModel(out, config, runs[0], runs[i], "repeat " + std::to_string(i));
  }

  std::vector<double> wall, throughput, intervals_ms, accuracy;
  for (const RunRecord& run : runs) {
    setup.push_back(run.setup_s);
    wall.push_back(run.wall_s);
    accuracy.push_back(run.result.final_accuracy);
    const auto& starts = run.process.starts_ns;
    std::size_t after_first = 0;
    for (std::size_t i = 1; i < starts.size(); ++i) {
      intervals_ms.push_back(static_cast<double>(starts[i] - starts[i - 1]) / 1e6);
      after_first += run.process.buffered[i];
    }
    if (starts.size() > 1) {
      throughput.push_back(static_cast<double>(after_first) /
                           (static_cast<double>(starts.back() - starts.front()) / 1e9));
    }
  }
  std::fprintf(stderr, "bench_e2e: %zu runs, %zu round intervals\n", runs.size(),
               intervals_ms.size());
  out.metrics = {
      {"setup_s", Quantile(setup, 0.5)},
      {"wall_s", Quantile(wall, 0.5)},
      {"updates_per_s", Quantile(throughput, 0.5)},
      {"round_p50_ms", Quantile(intervals_ms, 0.5)},
      {"round_p90_ms", Quantile(intervals_ms, 0.9)},
      {"peak_rss_mb", PeakRssMb()},
      {"final_accuracy", Quantile(accuracy, 0.5)},
  };
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// The same workload on the other transport with 2 training threads, so
// every traced iteration runs both: it checks inproc ≡ tcp, and it measures
// the layers the workload itself never runs, so that no per-layer time is
// a constant 0 (the inproc workloads take their wire metrics from a tcp
// mirror). Over tcp, 2 workers plus the driver and pump threads keep the
// mirror within 4 busy threads.
fl::ExperimentConfig Mirror(const fl::ExperimentConfig& config) {
  constexpr int kMirrorTrainers = 2;
  fl::ExperimentConfig mirror = config;
  if (config.transport == fl::TransportKind::kInproc) {
    mirror.transport = fl::TransportKind::kTcp;
    mirror.pool.mode = fl::ClientPoolSpec::Mode::kVirtual;
    mirror.pool.connections = 4;
    mirror.pool.workers = kMirrorTrainers;
  } else {
    mirror.transport = fl::TransportKind::kInproc;
    mirror.threads = kMirrorTrainers;
  }
  return mirror;
}

Outcome MeasureTraced(const fl::ExperimentConfig& config, bool full_length,
                      double seconds, const std::string& trace_out) {
  Outcome out;
  const bool tcp = config.transport != fl::TransportKind::kInproc;
  const fl::ExperimentConfig mirror = Mirror(config);

  std::map<std::string, std::vector<double>> samples;
  int iteration = 0;
  RepeatFor(seconds, [&] {
    Tracer tracer, mirror_tracer;
    // The mirror runs first: the first run in a process is slower (heap
    // growth, page faults), and that must not land in the overhead pair.
    std::optional<RunRecord> other =
        Attempt(out, tcp ? "traced_inproc_mirror" : "traced_tcp_mirror", mirror,
                full_length, [&] { return RunTraced(mirror, &mirror_tracer); });
    std::optional<RunRecord> untraced, traced;
    // Alternate which goes first so drift does not bias the overhead.
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (iteration % 2 == 0)) {
        untraced = Attempt(out, "untraced", config, full_length,
                           [&] { return RunUntraced(config); });
      } else {
        traced = Attempt(out, "traced", config, full_length,
                         [&] { return RunTraced(config, &tracer); });
      }
    }
    ++iteration;
    if (!untraced || !traced || !other) {
      return;
    }
    ExpectSameModel(out, config, *untraced, *traced, "traced vs untraced");
    ExpectSameModel(out, config, *untraced, *other, "inproc vs tcp mirror");
    // The wire layers come from the tcp run, TrainBackend and the thread
    // pool from the inproc run, everything else from the workload's own.
    const RunRecord& tcp_run = tcp ? *traced : *other;
    const RunRecord& inproc_run = tcp ? *other : *traced;
    for (const auto& [name, value] : traced->layers) {
      const bool wire = StartsWith(name, "net.") || StartsWith(name, "transport.") ||
                        StartsWith(name, "compress.") || StartsWith(name, "pool.");
      const bool train = StartsWith(name, "train.") || StartsWith(name, "threadpool.");
      const RunRecord& source = wire ? tcp_run : train ? inproc_run : *traced;
      samples[name].push_back(source.layers.at(name));
    }
    // Both sides train on 2 threads only for the tcp workload; an inproc
    // workload's own run has 3, so there this also holds the third thread.
    samples["net.overhead_s"].push_back(tcp_run.wall_s - inproc_run.wall_s);
    samples["obs.trace_overhead_frac"].push_back(traced->wall_s / untraced->wall_s - 1.0);
    if (!trace_out.empty()) {
      tracer.WriteChromeTrace(trace_out);
    }
  });

  for (const auto& [name, value] : ProbeModels()) {
    samples[name].push_back(value);
  }
  for (const auto& [name, values] : samples) {
    out.metrics.push_back({name, Quantile(values, 0.5)});
  }
  return out;
}

// Every workload for 3 rounds through both measurement modes, with every
// check on except the accuracy floor, which needs full-length runs.
int Smoke() {
  bool ok = true;
  for (const Workload& workload : Workloads()) {
    const std::int64_t start_ns = NowNs();
    const fl::ExperimentConfig config = workload.Config(7, 3);
    std::vector<std::string> failures = MeasureUntraced(config, false, 0.0).failures;
    for (std::string& failure : MeasureTraced(config, false, 0.0, "").failures) {
      failures.push_back(std::move(failure));
    }
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "bench_e2e --smoke: %s: %s\n", workload.name.c_str(),
                   failure.c_str());
    }
    ok = ok && failures.empty();
    std::printf("%-16s %s in %.2f s\n", workload.name.c_str(),
                failures.empty() ? "ok" : "FAILED",
                static_cast<double>(NowNs() - start_ns) / 1e9);
  }
  return ok ? 0 : 1;
}

void PrintOutcome(const Outcome& out) {
  std::printf("{\"runs\":[");
  for (std::size_t i = 0; i < out.runs.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", out.runs[i].c_str());
  }
  std::printf("]}\n");
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{",
              out.failures.empty() ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                m.name.c_str(), m.value, UnitOf(m.name));
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"workload", "seed", "seconds", "trace", "trace-out", "smoke"});
  util::SetLogLevel(util::LogLevel::kWarn);
  if (flags.GetBool("smoke", false)) {
    return Smoke();
  }
  const Workload& workload = FindWorkload(flags.GetString("workload", ""));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  const double seconds = flags.GetDouble("seconds", 30.0);
  const fl::ExperimentConfig config = workload.Config(seed);
  const Outcome out =
      flags.GetInt("trace", 0) != 0
          ? MeasureTraced(config, true, seconds, flags.GetString("trace-out", ""))
          : MeasureUntraced(config, true, seconds);
  for (const std::string& failure : out.failures) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", failure.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value, UnitOf(m.name));
  }
  PrintOutcome(out);
  return out.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
