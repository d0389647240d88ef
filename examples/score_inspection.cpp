// Observability demo: watch AsyncFilter's internals while a simulation
// runs. A buffer observer replays the filter's scoring pipeline (staleness
// grouping → moving averages → suspicious scores) on every aggregation
// buffer and prints the benign/malicious score separation — the quantity
// Theorem 1 reasons about.
//
//   ./score_inspection [--seed=N]
#include <algorithm>
#include <cstdio>

#include "core/staleness_groups.h"
#include "core/suspicious_score.h"
#include "fl/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  std::uint64_t seed = 7;
  try {
    flags.RejectUnknown({"seed"});
    if (!flags.positional().empty()) {
      seed = util::ParseUint64(flags.positional()[0], "seed");
    }
    seed = flags.GetUint64("seed", seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  fl::ExperimentConfig config =
      fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 40;
  config.num_malicious = 8;
  config.sim.buffer_goal = 16;
  config.sim.rounds = 10;
  config.attack = attacks::AttackKind::kGd;
  config.defense = fl::DefenseKind::kAsyncFilter;

  // The observer mirrors the filter exactly: same inputs, same order.
  core::MovingAverageBank bank;
  std::printf("%-6s %-8s %-22s %-22s %s\n", "round", "groups",
              "benign score (mean)", "malicious score (mean)", "separated?");
  auto observer = [&](std::size_t round,
                      const std::vector<fl::ModelUpdate>& buffer) {
    for (const auto& u : buffer) {
      bank.Absorb(u.staleness, u.delta);
    }
    auto scores = core::ComputeSuspiciousScores(buffer, bank);
    double benign = 0.0, malicious = 0.0;
    std::size_t nb = 0, nm = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i].is_malicious_truth) {
        malicious += scores[i];
        ++nm;
      } else {
        benign += scores[i];
        ++nb;
      }
    }
    benign = nb > 0 ? benign / static_cast<double>(nb) : 0.0;
    malicious = nm > 0 ? malicious / static_cast<double>(nm) : 0.0;
    std::printf("%-6zu %-8zu %-22.4f %-22.4f %s\n", round,
                bank.Groups().size(), benign, malicious,
                nm == 0 ? "n/a" : (malicious > benign ? "yes" : "no"));
  };

  fl::SimulationResult result = fl::RunExperiment(config, observer);
  std::printf("\nfinal accuracy %.3f; detection precision %.2f recall %.2f\n",
              result.final_accuracy, result.total_confusion.Precision(),
              result.total_confusion.Recall());
  return 0;
}
