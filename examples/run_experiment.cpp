// General-purpose CLI runner: configure any experiment the library supports
// without writing code, and export traces/checkpoints.
//
//   ./run_experiment --profile=fashionmnist --attack=GD --defense=asyncfilter
//       --clients=50 --malicious=10 --rounds=20 --seed=7
//       --trace=run.csv --summary=summary.csv --save-model=model.afpm
//
// Flags (all optional):
//   --profile     mnist | fashionmnist | cifar10 | cinic10   [fashionmnist]
//   --attack      none | GD | LIE | min-max | min-sum | adaptive | label-flip
//   --defense     fedbuff | fldetector | asyncfilter | asyncfilter2means |
//                 krum | multikrum | trimmedmean | median | zeno | aflguard | nnm
//   --seed            data, model and simulator seed               [7]
//   --clients, --malicious, --buffer, --rounds, --staleness-limit,
//   --dirichlet, --zipf, --gd-scale, --threads, --partition
//                     population and schedule, parsed via fl::RuntimeOptions
//                     [50, 10, 20, 20, 20, 0.1, 1.2, 1.5, 0 (all cores),
//                      the profile's partition size]
//   --trace FILE      per-round CSV        --summary FILE  run summary CSV
//   --save-model FILE final global model checkpoint (AFPM binary)
//   --quiet           suppress per-round output
//
// Distributed mode (see docs/NETWORK.md; parsed via fl::RuntimeOptions):
//   --transport       inproc | tcp                        [inproc]
//   --port            server port (tcp; 0 = ephemeral loopback)
//   --clients-virtual run the fleet as a multiplexed virtual-client pool
//                     instead of one thread+connection per client — this is
//                     what makes 100k+ client populations fit on one box
//   --pool-connections, --pool-workers
//                     virtual-pool shape (0 = auto: ~1 connection per 64
//                     clients / one worker per core)
//   --pool-latency-ms, --pool-latency-zipf
//                     per-client artificial latency model (timing only)
//   --fault-drop, --fault-delay, --fault-duplicate, --fault-truncate
//                     per-frame fault probabilities on client uplinks
//                     (real fleet only)
//   --fault-delay-ms  mean injected delay in milliseconds
//   --fault-kill      fraction of clients whose connection dies mid-run
//   --compress        identity | fp16 | int8 | topk-delta   [none]
//                     update-compression codec; over tcp it is negotiated in
//                     the handshake, inproc mirrors the same lossy round
//                     trip so both transports stay bit-identical
//   --list-codecs     print every registered codec name and exit
//
// Observability (see docs/OBSERVABILITY.md):
//   --jsonl FILE       per-round telemetry as JSON lines
//   --trace-out FILE   Chrome trace-event JSON of the run's internal spans
//                      (open in chrome://tracing or ui.perfetto.dev);
//                      implicitly enables span collection; over tcp it also
//                      enables trace-context propagation so client and
//                      server spans share trace ids (tools/merge_traces.py)
//   --metrics-out FILE metrics-registry snapshot JSON (counters, gauges,
//                      latency histograms with p50/p95/p99)
//   --metrics-port N   serve /metrics (Prometheus), /healthz, /spans over
//                      HTTP on 127.0.0.1:N for the duration of the run
//                      (0 = ephemeral; the bound port is printed)
//   --audit FILE       defense-decision audit trail: one JSONL record per
//                      update reaching the defense (verdict, score,
//                      staleness, wire cost, latencies)
//   --log-level LVL    trace | debug | info | warn | error
//
// Resumable runs (see docs/API.md "Checkpoints"):
//   --checkpoint FILE        crash-safe simulation checkpoint path
//   --checkpoint-every N     write it every N completed rounds   [5]
//   --resume                 restore from --checkpoint if it exists
//   --summary-json FILE      run summary as one JSON object
//   --list-defenses          print every registered defense name and exit
//
// SIGTERM/SIGINT request a final checkpoint (when --checkpoint is set) and a
// graceful early exit; SIGKILL mid-run loses at most the rounds since the
// last periodic checkpoint.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "defense/registry.h"
#include "fl/experiment.h"
#include "fl/runtime_options.h"
#include "fl/telemetry.h"
#include "fl/trace.h"
#include "nn/serialize.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  try {
    std::vector<std::string> known = {
        "profile", "attack", "defense", "seed", "trace", "summary",
        "save-model", "quiet", "jsonl", "trace-out", "metrics-out",
        "log-level", "checkpoint", "checkpoint-every", "resume",
        "summary-json", "list-defenses", "list-codecs", "audit",
    };
    const auto& runtime_flags = fl::RuntimeOptions::FlagNames();
    known.insert(known.end(), runtime_flags.begin(), runtime_flags.end());
    flags.RejectUnknown(known);
    if (flags.GetBool("list-defenses", false)) {
      for (const std::string& name : defense::ListNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (flags.GetBool("list-codecs", false)) {
      for (const std::string& name : compress::ListNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (flags.Has("log-level")) {
      const std::string name = flags.GetString("log-level", "info");
      const auto level = util::ParseLogLevel(name);
      AF_CHECK(level.has_value()) << "unknown --log-level: " << name;
      util::SetLogLevel(*level);
    }
    if (flags.Has("trace-out")) {
      obs::TraceRecorder::Global().SetEnabled(true);
    }

    const data::Profile profile =
        data::ParseProfile(flags.GetString("profile", "fashionmnist"));
    const std::uint64_t seed = flags.GetUint64("seed", 7);
    // The shared experiment surface: population, schedule, transport,
    // faults, codec, pool and --metrics-port, range-checked and validated
    // as a unit (negative counts, unknown codecs, virtual×faults
    // conflicts, …) before dataset synthesis starts.
    const fl::RuntimeOptions runtime =
        fl::RuntimeOptions::FromFlags(flags, seed);
    runtime.Validate();

    fl::ExperimentConfig config = fl::MakeDefaultConfig(profile, seed);
    runtime.ApplyTo(&config);
    config.attack = attacks::ParseAttackKind(flags.GetString("attack", "none"));
    // --defense resolves through the string-keyed defense registry, so any
    // self-registered defense is reachable without touching this file;
    // unknown names fail fast (before dataset synthesis) with the full list.
    const std::string defense_name =
        flags.GetString("defense", "asyncfilter");
    AF_CHECK(defense::Registry::Global().Has(defense_name))
        << "unknown --defense: " << defense_name
        << " (try --list-defenses)";
    config.defense_factory = [defense_name] {
      return defense::Make(defense_name);
    };

    if (flags.Has("checkpoint")) {
      config.checkpoint_path = flags.GetString("checkpoint", "");
      config.checkpoint_every = flags.GetUint64("checkpoint-every", 5);
      config.resume = flags.GetBool("resume", false);
      config.stop_flag = &g_stop;
      std::signal(SIGTERM, HandleStopSignal);
      std::signal(SIGINT, HandleStopSignal);
    }

    // With tracing on, a tcp run also propagates trace context over the
    // wire so client train spans and server defense spans share trace ids.
    config.net.trace_context = flags.Has("trace-out");

    // Live observability plane: scrape endpoint + audit trail. Both are
    // observation-only — results are bit-identical with them on or off.
    std::unique_ptr<obs::MetricsExporter> exporter;
    if (runtime.has_metrics_port) {
      obs::MetricsExporterOptions exporter_options;
      exporter_options.port = runtime.metrics_port;
      exporter = std::make_unique<obs::MetricsExporter>(exporter_options);
      std::printf("metrics endpoint: http://127.0.0.1:%u/metrics "
                  "(/healthz, /spans)\n",
                  static_cast<unsigned>(exporter->port()));
    }
    if (flags.Has("audit")) {
      obs::AuditTrail::Global().Open(flags.GetString("audit", ""));
    }

    const bool quiet = flags.GetBool("quiet", false);
    std::printf("profile=%s attack=%s defense=%s clients=%zu malicious=%zu "
                "rounds=%zu seed=%llu transport=%s\n",
                data::ProfileName(profile),
                attacks::AttackKindName(config.attack), defense_name.c_str(),
                config.num_clients, config.num_malicious, config.sim.rounds,
                static_cast<unsigned long long>(seed),
                fl::TransportKindName(config.transport));
    if (!config.compress.empty()) {
      std::printf("compress=%s\n", config.compress.c_str());
    }

    fl::SimulationResult result = fl::RunExperiment(config);
    if (flags.Has("audit")) {
      std::printf("audit trail (%llu records) written to %s\n",
                  static_cast<unsigned long long>(
                      obs::AuditTrail::Global().RecordCount()),
                  flags.GetString("audit", "").c_str());
      obs::AuditTrail::Global().Close();
    }
    if (exporter != nullptr) {
      std::printf("metrics endpoint served %llu requests\n",
                  static_cast<unsigned long long>(
                      exporter->requests_served()));
    }
    if (result.interrupted) {
      std::printf("interrupted after %zu rounds; rerun with --resume to "
                  "continue from %s\n",
                  result.rounds.size(), config.checkpoint_path.c_str());
    }
    if (!quiet) {
      for (const auto& r : result.rounds) {
        std::printf("round %3zu  acc=%6.3f  accepted=%zu rejected=%zu "
                    "deferred=%zu stale-dropped=%zu\n",
                    r.round + 1, r.test_accuracy, r.accepted, r.rejected,
                    r.deferred, r.dropped_stale);
      }
    }
    std::printf("wall clock %.2fs\n", result.wall_seconds);
    std::printf("final accuracy %.4f  detection precision %.2f recall %.2f\n",
                result.final_accuracy, result.total_confusion.Precision(),
                result.total_confusion.Recall());
    if (result.evicted_clients > 0) {
      std::printf("evicted clients: %zu (aggregated from survivors)\n",
                  result.evicted_clients);
    }

    if (flags.Has("trace")) {
      fl::WriteRoundTraceCsv(result, flags.GetString("trace", ""));
      std::printf("trace written to %s\n", flags.GetString("trace", "").c_str());
    }
    if (flags.Has("summary")) {
      fl::WriteSummaryCsv(result, flags.GetString("summary", ""));
    }
    if (flags.Has("summary-json")) {
      const std::string path = flags.GetString("summary-json", "");
      fl::WriteRunSummaryJson(result, path);
      std::printf("run summary written to %s\n", path.c_str());
    }
    if (flags.Has("jsonl")) {
      fl::WriteRoundsJsonl(result, flags.GetString("jsonl", ""));
      std::printf("round telemetry written to %s\n",
                  flags.GetString("jsonl", "").c_str());
    }
    if (flags.Has("trace-out")) {
      const std::string path = flags.GetString("trace-out", "");
      obs::TraceRecorder::Global().WriteChromeTrace(path);
      std::printf("trace (%zu spans) written to %s — open in "
                  "chrome://tracing or ui.perfetto.dev\n",
                  obs::TraceRecorder::Global().SpanCount(), path.c_str());
    }
    if (flags.Has("metrics-out")) {
      const std::string path = flags.GetString("metrics-out", "");
      obs::DefaultRegistry().WriteJson(path);
      std::printf("metrics snapshot written to %s\n", path.c_str());
    }
    if (flags.Has("save-model")) {
      nn::SaveFlatParams(flags.GetString("save-model", ""), result.final_model);
      std::printf("model checkpoint written to %s (%zu params)\n",
                  flags.GetString("save-model", "").c_str(),
                  result.final_model.size());
    }
  } catch (const std::exception& e) {
    // util::CheckError and the observability writers' std::runtime_error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
