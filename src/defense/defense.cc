#include "defense/defense.h"

#include <cmath>

#include "stats/vec_ops.h"
#include "util/check.h"

namespace defense {

std::vector<std::span<const float>> Deltas(
    const std::vector<fl::ModelUpdate>& updates) {
  std::vector<std::span<const float>> deltas;
  deltas.reserve(updates.size());
  for (const fl::ModelUpdate& update : updates) {
    deltas.push_back(update.delta);
  }
  return deltas;
}

std::vector<float> WeightedAverage(const std::vector<fl::ModelUpdate>& updates,
                                   const std::vector<std::size_t>& indices,
                                   const StalenessWeightingConfig& weighting) {
  AF_CHECK(!indices.empty());
  std::vector<std::span<const float>> deltas;
  std::vector<double> weights;
  deltas.reserve(indices.size());
  weights.reserve(indices.size());
  for (std::size_t idx : indices) {
    AF_CHECK_LT(idx, updates.size());
    deltas.push_back(updates[idx].delta);
    // FedBuff-style weighting: sample count damped by the configured
    // staleness discount, which keeps stale jolts from whipping the global
    // model around.
    const double samples = static_cast<double>(
        updates[idx].num_samples > 0 ? updates[idx].num_samples : 1);
    weights.push_back(samples *
                      StalenessDiscount(weighting, updates[idx].staleness));
  }
  return stats::WeightedMean(deltas, weights);
}

AggregationResult MakeFilterResult(const std::vector<fl::ModelUpdate>& updates,
                                   const std::vector<std::size_t>& accepted,
                                   const std::vector<std::size_t>& rejected,
                                   const StalenessWeightingConfig& weighting) {
  AggregationResult result;
  result.verdicts.assign(updates.size(), Verdict::kAccepted);
  for (std::size_t idx : rejected) {
    AF_CHECK_LT(idx, updates.size());
    result.verdicts[idx] = Verdict::kRejected;
  }
  for (std::size_t idx : accepted) {
    AF_CHECK_LT(idx, updates.size());
    AF_CHECK(result.verdicts[idx] == Verdict::kAccepted)
        << "update both accepted and rejected";
  }
  AF_CHECK_EQ(accepted.size() + rejected.size(), updates.size())
      << "accept/reject split must cover every update";
  if (!accepted.empty()) {
    result.aggregated_delta = WeightedAverage(updates, accepted, weighting);
  }
  return result;
}

AggregationResult NoDefense::Process(
    const FilterContext& context,
    const std::vector<fl::ModelUpdate>& updates) {
  std::vector<std::size_t> all(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    all[i] = i;
  }
  return MakeFilterResult(updates, all, {}, context.staleness_weighting);
}

}  // namespace defense
