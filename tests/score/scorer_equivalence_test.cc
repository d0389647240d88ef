// The exact and incremental scorer backends must be indistinguishable at the
// defense level: bit-identical scores, verdicts, and aggregated deltas for
// every configuration, every round. This is the acceptance gate for routing
// AsyncFilter through the streaming scorer.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/async_filter.h"
#include "score/scorer.h"
#include "util/rng.h"

namespace core {
namespace {

struct Grid {
  std::size_t buffer_size;
  ScoreNormalization normalization;
  MidBandPolicy mid_band;
};

std::vector<fl::ModelUpdate> MakeBuffer(std::size_t n, std::size_t round,
                                        std::mt19937_64& rng) {
  std::normal_distribution<float> noise(0.0f, 0.15f);
  std::vector<fl::ModelUpdate> updates;
  for (std::size_t i = 0; i < n; ++i) {
    fl::ModelUpdate u;
    u.client_id = static_cast<int>(i);
    u.base_round = round;
    u.staleness = i % 4;
    u.num_samples = 5 + i % 7;
    // ~1/5 of the buffer are outliers so all three bands stay populated.
    const float center = (i % 5 == 4) ? -6.0f : 1.0f;
    std::vector<float> delta(24);
    for (float& x : delta) {
      x = center + noise(rng);
    }
    u.delta = std::move(delta);
    updates.push_back(std::move(u));
  }
  return updates;
}

// Runs `rounds` rounds through one AsyncFilter configured with `mode` and
// returns every per-round result. Identical RNG seeding across calls.
std::vector<defense::AggregationResult> RunRounds(score::ScorerMode mode,
                                            const Grid& grid,
                                            std::size_t rounds) {
  AsyncFilterOptions options;
  options.scorer_mode = mode;
  options.normalization = grid.normalization;
  options.mid_band = grid.mid_band;
  AsyncFilter filter(options);

  std::mt19937_64 server_rng = util::RngFactory(77).Stream("equiv-server");
  std::mt19937_64 data_rng = util::RngFactory(77).Stream("equiv-data");
  std::vector<float> global(24, 0.0f);

  std::vector<defense::AggregationResult> results;
  for (std::size_t round = 0; round < rounds; ++round) {
    auto updates = MakeBuffer(grid.buffer_size, round, data_rng);
    defense::FilterContext ctx;
    ctx.round = round;
    ctx.global_model = global;
    ctx.max_staleness = 20;
    ctx.rng = &server_rng;
    results.push_back(filter.Process(ctx, updates));
  }
  return results;
}

TEST(ScorerEquivalenceTest, ExactAndIncrementalAreBitIdenticalAcrossGrid) {
  const std::vector<Grid> grids = {
      {4, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kDefer},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kReject},
      {12, ScoreNormalization::kBufferNorm, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kAccept},
      {33, ScoreNormalization::kBufferNorm, MidBandPolicy::kDefer},
      {33, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kReject},
  };
  constexpr std::size_t kRounds = 4;

  for (const Grid& grid : grids) {
    const auto exact = RunRounds(score::ScorerMode::kExact, grid, kRounds);
    const auto incremental = RunRounds(score::ScorerMode::kIncremental, grid,
                                 kRounds);
    ASSERT_EQ(exact.size(), incremental.size());
    for (std::size_t round = 0; round < exact.size(); ++round) {
      SCOPED_TRACE(::testing::Message()
                   << "buffer=" << grid.buffer_size << " norm="
                   << static_cast<int>(grid.normalization) << " midband="
                   << static_cast<int>(grid.mid_band) << " round=" << round);
      // EXPECT_EQ on doubles: bit identity, not tolerance.
      EXPECT_EQ(incremental[round].scores, exact[round].scores);
      EXPECT_EQ(incremental[round].verdicts, exact[round].verdicts);
      EXPECT_EQ(incremental[round].aggregated_delta,
                exact[round].aggregated_delta);
      EXPECT_EQ(incremental[round].reason, exact[round].reason);
      ASSERT_EQ(incremental[round].deferred.size(),
                exact[round].deferred.size());
      for (std::size_t d = 0; d < exact[round].deferred.size(); ++d) {
        EXPECT_EQ(incremental[round].deferred[d].client_id,
                  exact[round].deferred[d].client_id);
      }
    }
  }
}

// Degenerate buffers must surface their reason identically in both modes.
TEST(ScorerEquivalenceTest, DegenerateReasonsMatch) {
  for (auto mode :
       {score::ScorerMode::kExact, score::ScorerMode::kIncremental}) {
    AsyncFilterOptions options;
    options.scorer_mode = mode;
    AsyncFilter filter(options);
    std::mt19937_64 rng = util::RngFactory(5).Stream("degenerate");
    std::vector<float> global(8, 0.0f);
    defense::FilterContext ctx;
    ctx.global_model = global;
    ctx.rng = &rng;

    // One update: buffer too small to cluster.
    std::vector<fl::ModelUpdate> one(1);
    one[0].client_id = 0;
    one[0].delta = std::vector<float>(8, 1.0f);
    one[0].num_samples = 1;
    EXPECT_EQ(filter.Process(ctx, one).reason, "buffer_too_small");

    // Identical updates: zero score spread.
    std::vector<fl::ModelUpdate> same(6);
    for (int i = 0; i < 6; ++i) {
      same[i].client_id = i;
      same[i].delta = std::vector<float>(8, 1.0f);
      same[i].num_samples = 1;
    }
    EXPECT_EQ(filter.Process(ctx, same).reason, "scores_degenerate");
  }
}

}  // namespace
}  // namespace core
