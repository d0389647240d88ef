// Heterogeneity study: how the Dirichlet concentration α controls label
// skew across clients, and what that does to AsyncFilter vs FedBuff under
// the GD attack. Mirrors the paper's §5.3 narrative as a runnable script.
//
//   ./heterogeneity_study [--seed=N]
#include <cstdio>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/experiment.h"
#include "util/flags.h"
#include "util/rng.h"

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

  std::printf("%-8s %-12s %-12s %-14s\n", "alpha", "label-skew", "FedBuff",
              "AsyncFilter");
  for (double alpha : {1.0, 0.1, 0.05, 0.01}) {
    // Measure the partition skew this α produces.
    data::SyntheticGenerator gen(
        data::MakeProfileSpec(data::Profile::kFashionMnist, 12), seed);
    data::Dataset pool = gen.Generate(3000, "train");
    auto rng = util::RngFactory(seed).Stream("partition");
    double skew = data::MeanLabelSkew(
        pool, data::DirichletPartition(pool, 40, 80, alpha, rng));

    // Run the attacked comparison at this heterogeneity level.
    fl::ExperimentConfig config =
        fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
    config.num_clients = 40;
    config.num_malicious = 8;
    config.sim.buffer_goal = 16;
    config.sim.rounds = 12;
    config.dirichlet_alpha = alpha;
    config.attack = attacks::AttackKind::kGd;

    config.defense = fl::DefenseKind::kFedBuff;
    double undefended = fl::RunExperiment(config).final_accuracy;
    config.defense = fl::DefenseKind::kAsyncFilter;
    double defended = fl::RunExperiment(config).final_accuracy;
    std::printf("%-8.2f %-12.3f %-12.3f %-14.3f\n", alpha, skew, undefended,
                defended);
  }
  return 0;
}
