// Krum, Multi-Krum and NNM read their n × n distance table from one dense
// pass (score::PairwiseSquaredDistances). Their verdicts and aggregate bytes
// must equal the same rules applied to a table built from per-pair
// kernels::Dot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "defense/krum.h"
#include "defense/nnm.h"
#include "stats/vec_ops.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace defense {
namespace {

constexpr double kFraction = 0.2;

std::vector<fl::ModelUpdate> Buffer(std::size_t n, std::size_t dim,
                                    std::uint64_t seed) {
  auto rng = util::RngFactory(seed).Stream("pairwise");
  std::normal_distribution<float> noise(0.0f, 1.0f);
  std::vector<fl::ModelUpdate> updates;
  for (std::size_t i = 0; i < n; ++i) {
    fl::ModelUpdate u;
    u.client_id = static_cast<int>(i);
    u.staleness = i % 3;
    u.num_samples = 5 + i % 4;
    // Every fifth update sits far from the rest.
    const float center = i % 5 == 4 ? 8.0f : 0.0f;
    std::vector<float> delta(dim);
    for (float& x : delta) {
      x = center + noise(rng);
    }
    u.delta = std::move(delta);
    updates.push_back(std::move(u));
  }
  return updates;
}

// d²(i, j) per pair, straight from kernels::SumSquares and kernels::Dot.
std::vector<double> PerPairTable(const std::vector<fl::ModelUpdate>& updates) {
  namespace kernels = tensor::kernels;
  const std::size_t n = updates.size();
  std::vector<double> d2(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::span<const float> a = updates[i].delta;
      const std::span<const float> b = updates[j].delta;
      const double d = kernels::SumSquares(a.data(), a.size()) +
                       kernels::SumSquares(b.data(), b.size()) -
                       2.0 * kernels::Dot(a.data(), b.data(), a.size());
      d2[i * n + j] = d2[j * n + i] = d > 0.0 ? d : 0.0;
    }
  }
  return d2;
}

// Krum's rule (Blanchard et al.) over a given table.
AggregationResult ReferenceKrum(const std::vector<fl::ModelUpdate>& updates,
                                bool multi) {
  const std::size_t n = updates.size();
  const std::size_t m = static_cast<std::size_t>(kFraction * n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n < m + 3) {
    return MakeFilterResult(updates, order, {});
  }
  const std::vector<double> d2 = PerPairTable(updates);
  const std::size_t neighbours = n - m - 2;
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        row.push_back(d2[i * n + j]);
      }
    }
    std::partial_sort(row.begin(), row.begin() + neighbours, row.end());
    scores[i] = std::accumulate(row.begin(), row.begin() + neighbours, 0.0);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  const std::size_t keep = multi ? n - m : 1;
  return MakeFilterResult(
      updates, std::vector<std::size_t>(order.begin(), order.begin() + keep),
      std::vector<std::size_t>(order.begin() + keep, order.end()));
}

// NNM's rule (Allouah et al.) over a given table.
AggregationResult ReferenceNnm(const std::vector<fl::ModelUpdate>& updates) {
  const std::size_t n = updates.size();
  const std::size_t m = static_cast<std::size_t>(kFraction * n);
  const std::size_t mix = n > m + 1 ? n - m - 1 : n - 1;
  const std::vector<double> d2 = PerPairTable(updates);
  std::vector<std::vector<float>> mixed;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return d2[i * n + a] < d2[i * n + b];
    });
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

void ExpectSame(const AggregationResult& got, const AggregationResult& want,
                const std::string& where) {
  ASSERT_EQ(got.verdicts, want.verdicts) << where;
  ASSERT_EQ(got.aggregated_delta.size(), want.aggregated_delta.size()) << where;
  EXPECT_EQ(std::memcmp(got.aggregated_delta.data(),
                        want.aggregated_delta.data(),
                        want.aggregated_delta.size() * sizeof(float)),
            0)
      << where;
}

// n = 1…12 crosses Krum's n < m + 3 fallback, NNM's small-buffer mix, and
// ragged row pairs and column triples of the blocked kernel; n = 41 gives a
// 3-thread pool more row blocks than tasks. Each defense runs serially and
// with a lent pool (FilterContext::pool), and both must follow the rule.
TEST(PairwiseDefenseTest, MatchesRulesOverPerPairTable) {
  util::ThreadPool pool(3);
  std::vector<std::size_t> sizes(12);
  std::iota(sizes.begin(), sizes.end(), 1u);
  sizes.push_back(41);
  for (std::size_t n : sizes) {
    for (std::size_t dim : {13u, 4538u}) {
      const auto updates = Buffer(n, dim, 100 + n);
      for (util::ThreadPool* lent : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool}) {
        const std::string where = "n " + std::to_string(n) + " dim " +
                                  std::to_string(dim) +
                                  (lent ? " pooled" : " serial");
        FilterContext context;
        context.pool = lent;
        for (bool multi : {false, true}) {
          Krum krum(kFraction, multi);
          ExpectSame(krum.Process(context, updates),
                     ReferenceKrum(updates, multi),
                     where + (multi ? " multikrum" : " krum"));
        }
        NearestNeighborMixing nnm(kFraction);
        ExpectSame(nnm.Process(context, updates), ReferenceNnm(updates),
                   where + " nnm");
      }
    }
  }
}

}  // namespace
}  // namespace defense
