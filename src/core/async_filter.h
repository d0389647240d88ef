// AsyncFilter — the paper's primary contribution (§4, Alg. 1).
//
// A plug-and-play server module for asynchronous FL that detects poisoned
// updates without any clean dataset:
//   1. group buffered updates by staleness (Eq. 4) and fold each into its
//      group's cross-round moving-average estimator (Eq. 5);
//   2. compute a distance-based suspicious score per update (Eq. 6–7);
//   3. split scores with 3-means: the lowest-centroid band is accepted, the
//      highest band (attackers) rejected, and the middle band — weak
//      attackers mixed with honest non-IID clients — is "permitted to
//      contribute to the aggregation at a later stage" (deferred into the
//      next buffer by default; the policy is configurable for ablation).
#pragma once

#include <map>
#include <utility>

#include "core/staleness_groups.h"
#include "core/suspicious_score.h"
#include "defense/defense.h"
#include "score/scorer.h"
#include "score/warm_kmeans.h"

namespace obs {
class Counter;
}  // namespace obs

namespace core {

// What to do with the middle 3-means band. The paper says the middle group
// "is permitted to contribute to the aggregation at a later stage" and that
// excluding honest non-IID clients costs noticeable accuracy; empirically
// (the `midband` grid of tools/paper_tables.py) the middle band is
// dominated by honest non-IID clients, so the default interprets
// "contribute" literally and aggregates it, only excluding the attacker
// band. kDefer (re-enter the next
// buffer) and kReject are kept for the ablation study.
enum class MidBandPolicy {
  kAccept,  // default: aggregate the mid band, reject only the top band
  kDefer,   // push the mid band into the next aggregation buffer
  kReject,  // drop the mid band like the attacker band
};

struct AsyncFilterOptions {
  // 3 per the paper; 2 reproduces the AsyncFilter-2means ablation (Fig. 7).
  std::size_t num_clusters = 3;
  MidBandPolicy mid_band = MidBandPolicy::kAccept;
  // How Eq. 7 normalises the group-distance signal (see suspicious_score.h
  // for why the literal cross-group reading is kept only as an ablation).
  ScoreNormalization normalization = ScoreNormalization::kGroupRms;
  // A deferred update is dropped once re-deferred this many times, keeping
  // the buffer from accumulating zombies.
  std::size_t max_deferrals = 2;
  // Scoring backend (see score/scorer.h). Exact and incremental produce
  // bit-identical verdicts; exact exists as the test oracle.
  score::ScorerMode scorer_mode = score::ScorerMode::kIncremental;
};

// No-op whose only job is to force this translation unit — and with it the
// static defense::Registry entries for AsyncFilter and its ablation
// variants — into static-library links. Call once before querying the
// registry from a layer that does not otherwise reference AsyncFilter.
void EnsureAsyncFilterRegistered();

class AsyncFilter : public defense::Defense {
 public:
  explicit AsyncFilter(AsyncFilterOptions options = {});

  defense::AggregationResult Process(
      const defense::FilterContext& context,
      const std::vector<fl::ModelUpdate>& updates) override;

  std::string Name() const override;
  void Reset() override;
  // Cross-round state: the per-staleness moving-average bank and the
  // deferral ledger. Options are configuration, not state.
  void SaveState(util::serial::Writer& w) const override;
  void LoadState(util::serial::Reader& r) override;

  const MovingAverageBank& bank() const { return bank_; }

 private:
  // Loads this round's buffer and the bank's group estimates into the
  // scorer; returns update i's slot in slots[i].
  std::vector<int> SyncScorer(const std::vector<fl::ModelUpdate>& updates);

  AsyncFilterOptions options_;
  MovingAverageBank bank_;
  // Deferral counts keyed by (client, base_round) so a deferred update is
  // recognised when it re-enters the buffer.
  std::map<std::pair<int, std::size_t>, std::size_t> deferral_counts_;
  // Streaming scoring backend (norm / reference-distance caches) and the
  // warm-start state for re-clustering: the previous round's centroids seed
  // Lloyd so steady-state rounds skip k-means++ seeding and restarts.
  // kmeans_state_ is cross-round state and checkpoints with the bank.
  score::StreamingScorer scorer_;
  score::WarmKMeansState kmeans_state_;
  obs::Counter* degenerate_rounds_;  // defense.degenerate_rounds
};

}  // namespace core
