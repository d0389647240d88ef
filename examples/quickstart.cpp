// Quickstart: asynchronous federated learning with AsyncFilter.
//
// Runs a small AFL job on the FashionMNIST-like workload twice — once
// undefended under the GD poisoning attack, once with AsyncFilter plugged in
// — and prints the round-by-round test accuracy of both.
//
//   ./quickstart [--seed=N]
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

  // A scaled-down version of the paper's default setting (§5.1): Dirichlet
  // non-IID partitions, Zipf client speeds, FedBuff-style buffered
  // aggregation, 20% of the clients running the GD attack.
  fl::ExperimentConfig config =
      fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 50;
  config.num_malicious = 10;
  config.sim.buffer_goal = 20;
  config.sim.rounds = 15;
  config.attack = attacks::AttackKind::kGd;

  std::printf("Asynchronous FL, %zu clients (%zu malicious, GD attack)\n",
              config.num_clients, config.num_malicious);

  config.defense = fl::DefenseKind::kFedBuff;
  fl::SimulationResult undefended = fl::RunExperiment(config);

  config.defense = fl::DefenseKind::kAsyncFilter;
  fl::SimulationResult defended = fl::RunExperiment(config);

  std::printf("%-7s %-12s %-12s\n", "round", "FedBuff", "AsyncFilter");
  for (std::size_t r = 0; r < undefended.rounds.size(); ++r) {
    std::printf("%-7zu %-12.3f %-12.3f\n", r + 1,
                undefended.rounds[r].test_accuracy,
                defended.rounds[r].test_accuracy);
  }
  std::printf("\nfinal accuracy: FedBuff %.3f vs AsyncFilter %.3f\n",
              undefended.final_accuracy, defended.final_accuracy);
  std::printf("AsyncFilter detection: precision %.2f recall %.2f\n",
              defended.total_confusion.Precision(),
              defended.total_confusion.Recall());
  return 0;
}
