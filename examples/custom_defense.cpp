// Plug-and-play demo: implement a brand-new server defense against the
// public defense::Defense interface and drop it into the simulator through
// ExperimentConfig::defense_factory — the exact extension point AsyncFilter
// itself uses.
//
// The custom defense here is norm clipping: updates whose l2 norm exceeds
// c × median-norm are rescaled down to the bound (a common industrial
// baseline). It is compared against FedBuff and AsyncFilter under GD.
//
//   ./custom_defense [--seed=N]
#include <algorithm>
#include <cstdio>

#include "fl/experiment.h"
#include "stats/vec_ops.h"
#include "util/flags.h"

namespace {

// Median-norm clipping: robust to a minority of huge updates, blind to
// direction-only attacks — which the comparison below makes visible.
class NormClipDefense : public defense::Defense {
 public:
  explicit NormClipDefense(double clip_factor) : clip_factor_(clip_factor) {}

  defense::AggregationResult Process(
      const defense::FilterContext& /*context*/,
      const std::vector<fl::ModelUpdate>& updates) override {
    std::vector<double> norms;
    norms.reserve(updates.size());
    for (const auto& u : updates) {
      norms.push_back(stats::L2Norm(u.delta));
    }
    std::vector<double> sorted = norms;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double bound = clip_factor_ * sorted[sorted.size() / 2];

    std::vector<std::vector<float>> clipped;
    std::vector<double> weights;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      std::vector<float> delta = updates[i].delta.ToVector();
      if (norms[i] > bound && norms[i] > 1e-12) {
        stats::Scale(delta, bound / norms[i]);
      }
      clipped.push_back(std::move(delta));
      weights.push_back(static_cast<double>(updates[i].num_samples));
    }
    defense::AggregationResult result;
    result.verdicts.assign(updates.size(), defense::Verdict::kAccepted);
    result.aggregated_delta = stats::WeightedMean(clipped, weights);
    return result;
  }

  std::string Name() const override { return "NormClip"; }

 private:
  double clip_factor_;
};

}  // namespace

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
  base.attack = attacks::AttackKind::kGd;
  base.gd_scale = 2.0;

  fl::ExperimentConfig fedbuff = base;
  fedbuff.defense = fl::DefenseKind::kFedBuff;

  fl::ExperimentConfig clipped = base;
  clipped.defense_factory = [] { return std::make_unique<NormClipDefense>(1.5); };

  fl::ExperimentConfig asyncfilter = base;
  asyncfilter.defense = fl::DefenseKind::kAsyncFilter;

  std::printf("GD attack, 20%% malicious, FashionMNIST-like workload\n");
  std::printf("%-14s %.3f\n", "FedBuff", fl::RunExperiment(fedbuff).final_accuracy);
  std::printf("%-14s %.3f\n", "NormClip(1.5)", fl::RunExperiment(clipped).final_accuracy);
  std::printf("%-14s %.3f\n", "AsyncFilter", fl::RunExperiment(asyncfilter).final_accuracy);
  std::printf("\nNormClip bounds the damage (GD updates are big) but cannot\n"
              "remove reversed directions; AsyncFilter filters them out.\n");
  return 0;
}
