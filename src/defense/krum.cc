#include "defense/krum.h"

#include <algorithm>
#include <numeric>

#include "score/scorer.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace defense {

Krum::Krum(double assumed_malicious_fraction, bool multi)
    : fraction_(assumed_malicious_fraction), multi_(multi) {
  AF_CHECK_GE(fraction_, 0.0);
  AF_CHECK_LT(fraction_, 0.5);
}

AggregationResult Krum::Process(const FilterContext& context,
                                const std::vector<fl::ModelUpdate>& updates) {
  AF_CHECK(!updates.empty());
  const std::size_t n = updates.size();
  const std::size_t m = static_cast<std::size_t>(fraction_ * static_cast<double>(n));
  // Krum scores need n - m - 2 >= 1 neighbours; degrade to plain averaging
  // on tiny buffers.
  if (n < m + 3) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    return MakeFilterResult(updates, all, {}, context.staleness_weighting);
  }
  const std::size_t neighbours = n - m - 2;

  // One dense pass over the buffer (score/scorer.h), then each row's score
  // on its own; both fan out over the lent pool, if any.
  const std::vector<double> d2 =
      score::PairwiseSquaredDistances(Deltas(updates), context.pool);
  std::vector<double> scores(n, 0.0);
  util::ParallelStrided(context.pool, n, [&](std::size_t first,
                                             std::size_t stride) {
    std::vector<double> row(n - 1);
    for (std::size_t i = first; i < n; i += stride) {
      std::size_t w = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) {
          row[w++] = d2[i * n + j];
        }
      }
      std::partial_sort(row.begin(), row.begin() + neighbours, row.end());
      scores[i] = std::accumulate(row.begin(), row.begin() + neighbours, 0.0);
    }
  });

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

  const std::size_t keep = multi_ ? n - m : 1;
  std::vector<std::size_t> accepted(order.begin(), order.begin() + keep);
  std::vector<std::size_t> rejected(order.begin() + keep, order.end());
  return MakeFilterResult(updates, accepted, rejected,
                          context.staleness_weighting);
}

}  // namespace defense
