// Grid sweep driver: runs every (profile × attack × defense × seed) cell of
// a config-defined grid, checkpointing each cell so a killed sweep resumes
// where it stopped.
//
//   ./run_sweep --out=sweep/ --profiles=mnist,fashionmnist
//               --attacks=GD,LIE --defenses=fedbuff,asyncfilter
//               --seeds=1,2,3 --rounds=20 --clients=50 --malicious=10
//
// Per cell the driver writes into --out:
//   <cell>.ckpt    crash-safe mid-run checkpoint (deleted on success)
//   <cell>.jsonl   the cell's run record (fl/run_record.h), written as
//                  <cell>.jsonl.tmp and renamed after its `summary` line:
//                  the rename is the cell's done-marker
//
// Resume semantics: rerunning the identical command skips cells whose
// record exists, restores half-finished cells from their checkpoint, and
// only writes the consolidated results.jsonl (every cell's `run` and
// `summary` records, grid order) once every cell has completed. A resumed
// cell's record holds `update` lines for the rounds run since the resume;
// its `round` and `summary` lines cover the whole run. SIGTERM/SIGINT
// checkpoint the in-flight cell and exit cleanly; SIGKILL loses at most
// --checkpoint-every rounds of the in-flight cell.
//
// Flags:
//   --out DIR            output directory                     [sweep_out]
//   --profiles LIST      comma-separated dataset profiles     [fashionmnist]
//   --attacks LIST       comma-separated attack names         [none,GD]
//   --defenses LIST      comma-separated defense names        [fedbuff,asyncfilter]
//   --seeds LIST         comma-separated non-negative seeds   [1,2]
//   --clients, --malicious, --partition, --buffer, --rounds,
//   --staleness-limit, --dirichlet, --zipf, --gd-scale, --threads
//                        population and schedule of every cell; same
//                        parser and defaults as run_experiment
//   --checkpoint-every N checkpoint cadence within a cell     [5]
//   --quiet              suppress per-cell round output
//
// Runtime flags (the rest of the shared fl::RuntimeOptions surface):
//   --compress CODEC     update-compression codec (identity | fp16 | int8 |
//                        topk-delta)                           [none]
//   --transport KIND     inproc | tcp                          [inproc]
//                        (checkpoint/resume only works inproc; tcp
//                        cells restart from scratch when killed)
//   --clients-virtual, --pool-connections, --pool-workers,
//   --pool-latency-ms, --pool-latency-zipf, --port,
//   --fault-*            see run_experiment.cpp
//   --metrics-port N     serve /metrics, /healthz, /spans over HTTP on
//                        127.0.0.1:N for the sweep's duration (0 = ephemeral)
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "defense/registry.h"
#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "fl/run_record.h"
#include "fl/runtime_options.h"
#include "obs/export.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  AF_CHECK(!items.empty()) << "empty list: " << csv;
  return items;
}

// File-name-safe cell id: lowercase alphanumerics, everything else → '-'.
std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('-');
    }
  }
  return out;
}

// Copies a finished cell record's `run` line (its first) and `summary` line
// (its last) to `out`.
void AppendRunAndSummary(std::ofstream& out,
                         const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string run;
  std::string summary;
  std::getline(in, run);
  for (std::string line; std::getline(in, line);) {
    summary = std::move(line);
  }
  AF_CHECK(run.find("\"type\":\"run\"") != std::string::npos &&
           summary.find("\"type\":\"summary\"") != std::string::npos)
      << "sweep: " << path.string()
      << " is not a finished run record (delete it to re-run the cell)";
  out << run << '\n' << summary << '\n';
}

struct Cell {
  std::string profile;
  std::string attack;
  std::string defense;
  std::uint64_t seed = 0;
  std::string id;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  try {
    std::vector<std::string> known = {
        "out", "profiles", "attacks", "defenses", "seeds",
        "checkpoint-every", "quiet",
    };
    const auto& runtime_flags = fl::RuntimeOptions::FlagNames();
    known.insert(known.end(), runtime_flags.begin(), runtime_flags.end());
    flags.RejectUnknown(known);
    const std::filesystem::path out_dir =
        flags.GetString("out", "sweep_out");

    // The shared experiment surface (population, schedule, transport,
    // faults, codec, pool), validated once and applied to every cell. Seed
    // 0 here only feeds the fault injector default; each cell re-seeds it
    // below.
    fl::RuntimeOptions runtime = fl::RuntimeOptions::FromFlags(flags, 0);
    runtime.Validate();

    // Live scrape endpoint across the whole sweep: watch sim.round /
    // sim.rounds advance cell by cell without touching the output files.
    std::unique_ptr<obs::MetricsExporter> exporter;
    if (runtime.has_metrics_port) {
      obs::MetricsExporterOptions exporter_options;
      exporter_options.port = runtime.metrics_port;
      exporter = std::make_unique<obs::MetricsExporter>(exporter_options);
      std::printf("metrics endpoint: http://127.0.0.1:%u/metrics\n",
                  static_cast<unsigned>(exporter->port()));
    }

    const auto profiles = SplitList(flags.GetString("profiles", "fashionmnist"));
    const auto attack_names = SplitList(flags.GetString("attacks", "none,GD"));
    const auto defense_names =
        SplitList(flags.GetString("defenses", "fedbuff,asyncfilter"));
    std::vector<std::uint64_t> seeds;
    for (const std::string& s : SplitList(flags.GetString("seeds", "1,2"))) {
      seeds.push_back(util::ParseUint64(s, "seeds"));
    }
    for (const std::string& name : profiles) {
      data::ParseProfile(name);  // unknown names fail before any cell runs
    }
    for (const std::string& name : defense_names) {
      AF_CHECK(defense::Registry::Global().Has(name))
          << "unknown defense in --defenses: " << name;
    }
    std::vector<Cell> grid;
    for (const auto& profile : profiles) {
      for (const auto& attack : attack_names) {
        for (const auto& defense : defense_names) {
          for (std::uint64_t seed : seeds) {
            Cell cell{profile, attack, defense, seed, {}};
            cell.id = Sanitize(profile) + "_" + Sanitize(attack) + "_" +
                      Sanitize(defense) + "_s" + std::to_string(seed);
            grid.push_back(std::move(cell));
          }
        }
      }
    }
    std::filesystem::create_directories(out_dir);
    std::printf("sweep: %zu cells → %s\n", grid.size(),
                out_dir.string().c_str());

    std::signal(SIGTERM, HandleStopSignal);
    std::signal(SIGINT, HandleStopSignal);

    const bool quiet = flags.GetBool("quiet", false);
    std::size_t skipped = 0;
    std::size_t completed = 0;
    bool interrupted = false;
    fl::RunRecord& record = fl::RunRecord::Global();
    for (const Cell& cell : grid) {
      const auto record_path = out_dir / (cell.id + ".jsonl");
      const auto partial_path = out_dir / (cell.id + ".jsonl.tmp");
      const auto ckpt_path = out_dir / (cell.id + ".ckpt");
      if (std::filesystem::exists(record_path)) {
        ++skipped;
        continue;
      }
      if (g_stop.load(std::memory_order_relaxed)) {
        interrupted = true;
        break;
      }

      fl::ExperimentConfig config =
          fl::MakeDefaultConfig(data::ParseProfile(cell.profile), cell.seed);
      runtime.net.faults.seed = cell.seed;  // reproducible per cell
      runtime.ApplyTo(&config);
      config.attack = attacks::ParseAttackKind(cell.attack);
      const std::string defense_name = cell.defense;
      config.defense_factory = [defense_name] {
        return defense::Make(defense_name);
      };
      // Mid-run checkpointing is an inproc-only affordance: distributed
      // cells restart from scratch if the sweep dies mid-cell, but the
      // record done-markers still make the sweep itself resumable.
      if (runtime.transport == fl::TransportKind::kInproc) {
        config.checkpoint_path = ckpt_path.string();
        config.checkpoint_every = flags.GetUint64("checkpoint-every", 5);
        config.resume = fl::CheckpointExists(ckpt_path.string());
      }
      config.stop_flag = &g_stop;

      std::printf("sweep: cell %s%s\n", cell.id.c_str(),
                  config.resume ? " (resuming from checkpoint)" : "");
      record.Open(partial_path.string());
      record.WriteRun({cell.profile, cell.attack, cell.defense}, config);
      fl::SimulationResult result = fl::RunExperiment(config);
      if (result.interrupted) {
        record.Close();
        std::printf("sweep: cell %s checkpointed at round %zu\n",
                    cell.id.c_str(), result.rounds.size());
        interrupted = true;
        break;
      }
      if (!quiet) {
        std::printf("sweep: cell %s done  acc=%.4f precision=%.2f "
                    "recall=%.2f\n",
                    cell.id.c_str(), result.final_accuracy,
                    result.total_confusion.Precision(),
                    result.total_confusion.Recall());
      }

      // The rename after the closing `summary` line marks the cell done: a
      // crash before it re-runs the cell rather than consolidating a
      // partial record.
      record.WriteResult(result);
      record.Close();
      std::filesystem::rename(partial_path, record_path);
      std::filesystem::remove(ckpt_path);
      ++completed;
    }

    if (interrupted) {
      std::printf("sweep: interrupted — %zu cells already done, rerun the "
                  "same command to resume\n",
                  skipped + completed);
      return 0;
    }

    // Every cell is done: consolidate, grid order.
    const auto results_path = out_dir / "results.jsonl";
    {
      std::ofstream results(results_path, std::ios::trunc);
      for (const Cell& cell : grid) {
        AppendRunAndSummary(results, out_dir / (cell.id + ".jsonl"));
      }
    }
    std::printf("sweep: complete — %zu run now, %zu resumed as done; "
                "results in %s\n",
                completed, skipped, results_path.string().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
