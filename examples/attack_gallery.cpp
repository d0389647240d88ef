// Attack gallery: all four untargeted poisoning attacks from the paper
// (GD, LIE, Min-Max, Min-Sum) against an undefended FedBuff server and one
// running AsyncFilter, on the FashionMNIST-like workload. Prints final
// accuracy plus AsyncFilter's detection precision/recall per attack.
//
//   ./attack_gallery [--seed=N]
#include <cstdio>

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

  fl::ExperimentConfig base =
      fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  base.num_clients = 40;
  base.num_malicious = 8;
  base.sim.buffer_goal = 16;
  base.sim.rounds = 12;

  std::printf("%-10s %-12s %-14s %-11s %-8s\n", "attack", "FedBuff",
              "AsyncFilter", "precision", "recall");
  for (auto attack : {attacks::AttackKind::kGd, attacks::AttackKind::kLie,
                      attacks::AttackKind::kMinMax,
                      attacks::AttackKind::kMinSum}) {
    fl::ExperimentConfig config = base;
    config.attack = attack;
    config.defense = fl::DefenseKind::kFedBuff;
    double undefended = fl::RunExperiment(config).final_accuracy;
    config.defense = fl::DefenseKind::kAsyncFilter;
    fl::SimulationResult defended = fl::RunExperiment(config);
    std::printf("%-10s %-12.3f %-14.3f %-11.2f %-8.2f\n",
                attacks::AttackKindName(attack), undefended,
                defended.final_accuracy, defended.total_confusion.Precision(),
                defended.total_confusion.Recall());
  }
  return 0;
}
