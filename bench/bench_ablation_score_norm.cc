// Ablation (DESIGN.md / suspicious_score.h): the two readings of Eq. 7.
//
// The paper's notation reuses k as both the client's staleness group and the
// summation index, admitting (a) a literal cross-group normalisation and
// (b) an across-peers normalisation. This bench runs AsyncFilter with each
// scoring rule on FashionMNIST under GD and Min-Max. The literal reading is
// expected to collapse toward FedBuff-level (or worse) accuracy: a poisoned
// update is far from *every* group estimate, so the ratio washes the signal
// out and the 3-means split becomes arbitrary.
//
//   bench_ablation_score_norm [--seed=7] [--rounds=18] [population flags]
//
// Takes the fl::RuntimeOptions population flags (--clients, --buffer, …)
// with the paper-table defaults and 18 rounds; writes
// ablation_score_norm.csv to the working directory.
#include <cstdio>

#include "core/async_filter.h"
#include "fl/runtime_options.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

std::function<std::unique_ptr<defense::Defense>()> FilterWith(
    core::ScoreNormalization normalization) {
  return [normalization]() -> std::unique_ptr<defense::Defense> {
    core::AsyncFilterOptions options;
    options.normalization = normalization;
    return std::make_unique<core::AsyncFilter>(options);
  };
}

}  // namespace

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
    core::ScoreNormalization normalization;
  } variants[] = {
      {"group-rms (default)", core::ScoreNormalization::kGroupRms},
      {"buffer-norm", core::ScoreNormalization::kBufferNorm},
      {"Eq.7 literal cross-group", core::ScoreNormalization::kEq7CrossGroup},
  };
  const attacks::AttackKind attack_grid[] = {attacks::AttackKind::kGd,
                                             attacks::AttackKind::kMinMax};

  std::printf("== Ablation: Eq. 7 score normalisation (FashionMNIST) ==\n");
  util::ConsoleTable table({"Normalisation", "GD", "Min-Max"});
  util::CsvWriter csv("ablation_score_norm.csv");
  csv.WriteHeader({"normalisation", "attack", "accuracy"});

  for (const auto& variant : variants) {
    std::vector<std::string> row{variant.name};
    for (auto attack : attack_grid) {
      fl::ExperimentConfig config =
          fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
      runtime.ApplyTo(&config);
      config.attack = attack;
      config.defense_factory = FilterWith(variant.normalization);
      double percent = fl::RunExperiment(config).final_accuracy * 100.0;
      row.push_back(util::FormatFixed(percent) + "%");
      csv.WriteRow({variant.name, attacks::AttackKindName(attack),
                    util::FormatFixed(percent, 2)});
      std::fprintf(stderr, "  [%s / %s] %.1f%%\n", variant.name,
                   attacks::AttackKindName(attack), percent);
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.Render().c_str());
  std::printf("CSV written to ablation_score_norm.csv\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
