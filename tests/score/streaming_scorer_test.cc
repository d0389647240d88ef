// Property tests for the streaming scorer: the incremental backend must be
// bit-identical to the exact backend after EVERY mutation in arbitrary
// insert/evict/reference-update sequences — the contract that makes exact
// a valid test oracle for incremental.
#include "score/scorer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace score {
namespace {

std::vector<float> RandomVec(std::mt19937_64& rng, std::size_t dim) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(dim);
  for (float& x : v) {
    x = dist(rng);
  }
  return v;
}

TEST(ScorerModeTest, NamesRoundTrip) {
  EXPECT_STREQ(ScorerModeName(ScorerMode::kExact), "exact");
  EXPECT_STREQ(ScorerModeName(ScorerMode::kIncremental), "incremental");
}

TEST(StreamingScorerTest, SlotLifecycleAndRecycling) {
  StreamingScorer scorer(ScorerMode::kIncremental);
  std::mt19937_64 rng(1);
  auto a = RandomVec(rng, 16);
  auto b = RandomVec(rng, 16);
  const int sa = scorer.Insert(a);
  const int sb = scorer.Insert(b);
  EXPECT_NE(sa, sb);
  EXPECT_EQ(scorer.size(), 2u);
  EXPECT_TRUE(scorer.IsLive(sa));
  scorer.Evict(sa);
  EXPECT_FALSE(scorer.IsLive(sa));
  EXPECT_EQ(scorer.size(), 1u);
  // The freed slot id is recycled.
  auto c = RandomVec(rng, 16);
  const int sc = scorer.Insert(c);
  EXPECT_EQ(sc, sa);
  EXPECT_TRUE(scorer.IsLive(sc));
}

TEST(StreamingScorerTest, ReattachKeepsCachedAnswers) {
  StreamingScorer scorer(ScorerMode::kIncremental);
  std::mt19937_64 rng(2);
  auto a = RandomVec(rng, 64);
  auto ref = RandomVec(rng, 64);
  const int slot = scorer.Insert(a);
  scorer.SetReference(9, ref);
  const double norm_before = scorer.SquaredNorm(slot);
  const double dist_before = scorer.DistanceToReference(9, slot);
  // Rebind to a different allocation holding identical contents.
  std::vector<float> copy = a;
  scorer.Reattach(slot, copy);
  EXPECT_EQ(scorer.SquaredNorm(slot), norm_before);
  EXPECT_EQ(scorer.DistanceToReference(9, slot), dist_before);
  EXPECT_EQ(scorer.Delta(slot).data(), copy.data());
}

TEST(StreamingScorerTest, ReferenceReplacementInvalidatesCachedDistances) {
  StreamingScorer scorer(ScorerMode::kIncremental);
  std::mt19937_64 rng(3);
  auto a = RandomVec(rng, 32);
  auto ref1 = RandomVec(rng, 32);
  auto ref2 = RandomVec(rng, 32);
  const int slot = scorer.Insert(a);
  scorer.SetReference(1, ref1);
  const double d1 = scorer.DistanceToReference(1, slot);
  scorer.SetReference(1, ref2);
  const double d2 = scorer.DistanceToReference(1, slot);
  EXPECT_NE(d1, d2);
  // And the fresh answer matches an exact scorer on the same state.
  StreamingScorer exact(ScorerMode::kExact);
  const int es = exact.Insert(a);
  exact.SetReference(1, ref2);
  EXPECT_EQ(exact.DistanceToReference(1, es), d2);
}

TEST(StreamingScorerTest, SelfDistanceIsExactlyZero) {
  std::mt19937_64 rng(4);
  auto a = RandomVec(rng, 128);
  auto b = RandomVec(rng, 128);
  const std::vector<float> copy = a;
  const std::vector<double> table =
      PairwiseSquaredDistances({a, b, copy});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(table[i * 3 + i], 0.0);
  }
  // An identical copy cancels exactly, too: ‖a‖² + ‖a‖² − 2⟨a, a⟩ = 0.
  EXPECT_EQ(table[0 * 3 + 2], 0.0);
  EXPECT_GT(table[0 * 3 + 1], 0.0);
}

// Under both kernel ISAs, for buffers that leave ragged row pairs and column
// triples, each entry of the table equals the per-pair formula (a NaN
// distance lands as 0), and lent a 1- or 3-thread pool the table is the same
// bytes: n = 300, the wide Multi-Krum buffer, gives every task of the
// 3-thread pool several interleaved row blocks.
TEST(PairwiseSquaredDistancesTest, MatchesPerPairFormulaUnderBothIsas) {
  namespace kernels = tensor::kernels;
  util::ThreadPool one(1);
  util::ThreadPool three(3);
  std::mt19937_64 rng(5);
  std::vector<std::size_t> sizes(13);
  std::iota(sizes.begin(), sizes.end(), 0u);
  sizes.push_back(31);
  sizes.push_back(300);
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2}) {
    kernels::ForceIsa(isa);
    for (std::size_t n : sizes) {
      for (std::size_t dim : {1u, 7u, 9u, 4538u}) {
        std::vector<std::vector<float>> storage;
        std::vector<std::span<const float>> deltas;
        std::vector<double> norms;
        for (std::size_t i = 0; i < n; ++i) {
          storage.push_back(RandomVec(rng, dim));
          if (i % 5 == 3) {  // NaN rows and columns in the table
            storage.back()[i % dim] = std::numeric_limits<float>::quiet_NaN();
          }
          norms.push_back(kernels::SumSquares(storage.back().data(), dim));
        }
        for (const auto& v : storage) {
          deltas.push_back(v);
        }
        const std::vector<double> table = PairwiseSquaredDistances(deltas);
        ASSERT_EQ(table.size(), n * n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double expected = 0.0;
            if (i != j) {
              const double d2 =
                  norms[i] + norms[j] -
                  2.0 * kernels::Dot(deltas[i].data(), deltas[j].data(), dim);
              expected = d2 > 0.0 ? d2 : 0.0;
            }
            ASSERT_EQ(table[i * n + j], expected)
                << "n " << n << " dim " << dim << " at (" << i << ", " << j
                << ")";
          }
        }
        for (util::ThreadPool* pool : {&one, &three}) {
          const std::vector<double> pooled =
              PairwiseSquaredDistances(deltas, pool);
          ASSERT_EQ(pooled.size(), n * n);
          ASSERT_EQ(std::memcmp(pooled.data(), table.data(),
                                n * n * sizeof(double)),
                    0)
              << "n " << n << " dim " << dim << " pool " << pool->size();
        }
      }
    }
  }
  kernels::ResetForcedIsa();
}

// The tentpole property: drive exact and incremental scorers through the
// same randomized mutation sequence and demand bit equality on every query
// after every mutation; the pairwise table over the live buffer must match
// the per-pair formula over kernels::Dot at every step as well.
TEST(StreamingScorerPropertyTest, IncrementalMatchesExactOnRandomSequences) {
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kRefs = 4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(1000 + seed);
    StreamingScorer exact(ScorerMode::kExact);
    StreamingScorer incremental(ScorerMode::kIncremental);

    // storage[slot] owns the floats both scorers borrow for that slot.
    std::map<int, std::vector<float>> storage;
    std::vector<std::vector<float>> refs;
    for (std::size_t k = 0; k < kRefs; ++k) {
      refs.push_back(RandomVec(rng, kDim));
      exact.SetReference(k, refs.back());
      incremental.SetReference(k, refs.back());
    }

    std::vector<int> live;
    for (int step = 0; step < 60; ++step) {
      const double roll = std::uniform_real_distribution<double>(0, 1)(rng);
      if (live.empty() || (roll < 0.55 && live.size() < 24)) {
        auto v = RandomVec(rng, kDim);
        const int se = exact.Insert(v);
        storage[se] = std::move(v);
        const int si = incremental.Insert(storage[se]);
        ASSERT_EQ(se, si);  // identical free-list behaviour
        exact.Reattach(se, storage[se]);
        live.push_back(se);
      } else if (roll < 0.8) {
        const std::size_t pick = std::uniform_int_distribution<std::size_t>(
            0, live.size() - 1)(rng);
        const int slot = live[pick];
        exact.Evict(slot);
        incremental.Evict(slot);
        storage.erase(slot);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const std::size_t k =
            std::uniform_int_distribution<std::size_t>(0, kRefs - 1)(rng);
        refs[k] = RandomVec(rng, kDim);
        exact.SetReference(k, refs[k]);
        incremental.SetReference(k, refs[k]);
      }

      ASSERT_EQ(exact.size(), incremental.size());
      std::vector<std::span<const float>> deltas;
      for (int a : live) {
        deltas.push_back(storage[a]);
      }
      const std::vector<double> table =
          PairwiseSquaredDistances(deltas);
      const std::size_t n = live.size();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double expected = 0.0;
          if (i != j) {
            const double d2 =
                exact.SquaredNorm(live[i]) + exact.SquaredNorm(live[j]) -
                2.0 * tensor::kernels::Dot(deltas[i].data(), deltas[j].data(),
                                           kDim);
            expected = d2 > 0.0 ? d2 : 0.0;
          }
          ASSERT_EQ(table[i * n + j], expected)
              << "seed " << seed << " step " << step;
        }
      }
      for (int a : live) {
        ASSERT_EQ(incremental.SquaredNorm(a), exact.SquaredNorm(a))
            << "seed " << seed << " step " << step;
        for (std::size_t k = 0; k < kRefs; ++k) {
          ASSERT_EQ(incremental.DistanceToReference(k, a),
                    exact.DistanceToReference(k, a))
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace score
