#include "defense/nnm.h"

#include <algorithm>
#include <numeric>

#include "score/scorer.h"
#include "stats/vec_ops.h"
#include "util/check.h"

namespace defense {

NearestNeighborMixing::NearestNeighborMixing(double assumed_malicious_fraction)
    : fraction_(assumed_malicious_fraction) {
  AF_CHECK_GE(fraction_, 0.0);
  AF_CHECK_LT(fraction_, 0.5);
}

AggregationResult NearestNeighborMixing::Process(
    const FilterContext& context,
    const std::vector<fl::ModelUpdate>& updates) {
  AF_CHECK(!updates.empty());
  const std::size_t n = updates.size();
  const std::size_t m = static_cast<std::size_t>(fraction_ * static_cast<double>(n));
  const std::size_t mix = n > m + 1 ? n - m - 1 : n - 1;  // neighbours mixed in

  // One dense pass over the buffer (score/scorer.h), on the lent pool if
  // any; the per-row mixing below stays serial.
  const std::vector<double> d2 =
      score::PairwiseSquaredDistances(Deltas(updates), context.pool);
  std::vector<std::vector<float>> mixed;
  mixed.reserve(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = &d2[i * n];
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return row[a] < row[b];
    });
    // order[0] == i (distance 0); mix the first mix+1 entries.
    std::vector<std::span<const float>> neighbours;
    for (std::size_t k = 0; k <= mix && k < n; ++k) {
      neighbours.push_back(updates[order[k]].delta);
    }
    mixed.push_back(stats::Mean(neighbours));
  }

  AggregationResult result;
  result.verdicts.assign(n, Verdict::kAccepted);
  result.aggregated_delta = stats::Mean(mixed);
  return result;
}

}  // namespace defense
