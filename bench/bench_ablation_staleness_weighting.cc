// Ablation (DESIGN.md): the FedBuff staleness discount s(τ) used in the
// aggregation weights. The paper's Eq. 3 writes abstract weights p_i; this
// bench justifies instantiating them as samples·s(τ) with
// s(τ) = 1/√(1+τ): without a discount, stale updates whip the global model
// around on the Adam-driven workloads, hurting *every* method equally.
//
//   bench_ablation_staleness_weighting [--seed=7] [--rounds=18]
//                                      [population flags]
//
// Takes the fl::RuntimeOptions population flags (--clients, --buffer, …)
// with the paper-table defaults and 18 rounds; writes
// ablation_staleness_weighting.csv to the working directory.
#include <cstdio>

#include "fl/runtime_options.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  std::vector<std::string> known = {"seed"};
  const auto& runtime_flags = fl::RuntimeOptions::FlagNames();
  known.insert(known.end(), runtime_flags.begin(), runtime_flags.end());
  flags.RejectUnknown(known);
  const std::uint64_t seed = flags.GetUint64("seed", 7);
  fl::RuntimeOptions defaults;
  defaults.rounds = 18;
  const fl::RuntimeOptions runtime =
      fl::RuntimeOptions::FromFlags(flags, seed, defaults);
  runtime.Validate();

  const struct {
    const char* name;
    defense::StalenessWeightingConfig config;
  } variants[] = {
      {"none (Eq. 3 literal)", {defense::StalenessWeighting::kNone, 0.0}},
      {"1/sqrt(1+tau) (FedBuff)",
       {defense::StalenessWeighting::kInverseSqrt, 0.0}},
      {"(1+tau)^-1", {defense::StalenessWeighting::kPolynomial, 1.0}},
      {"(1+tau)^-2", {defense::StalenessWeighting::kPolynomial, 2.0}},
  };

  std::printf("== Ablation: staleness weighting s(tau) "
              "(FashionMNIST, GD attack + clean) ==\n");
  util::ConsoleTable table({"Weighting", "No attack", "GD"});
  util::CsvWriter csv("ablation_staleness_weighting.csv");
  csv.WriteHeader({"weighting", "setting", "accuracy"});

  for (const auto& variant : variants) {
    std::vector<std::string> row{variant.name};
    for (bool attacked : {false, true}) {
      fl::ExperimentConfig config =
          fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
      runtime.ApplyTo(&config);
      config.sim.staleness_weighting = variant.config;
      config.attack = attacked ? attacks::AttackKind::kGd
                               : attacks::AttackKind::kNone;
      config.defense = fl::DefenseKind::kAsyncFilter;
      double percent = fl::RunExperiment(config).final_accuracy * 100.0;
      row.push_back(util::FormatFixed(percent) + "%");
      csv.WriteRow({variant.name, attacked ? "GD" : "clean",
                    util::FormatFixed(percent, 2)});
      std::fprintf(stderr, "  [%s / %s] %.1f%%\n", variant.name,
                   attacked ? "GD" : "clean", percent);
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.Render().c_str());
  std::printf("CSV written to ablation_staleness_weighting.csv\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
