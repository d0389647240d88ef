// Distance-based suspicious scores (paper Eq. 6–7).
//
// For update ω_i in staleness group C_k the raw signal is
//   d(MA_k, ω_i) = ‖MA_k − ω_i‖₂                        (Eq. 6)
// i.e. the distance to the *own group's* moving-average estimate.
//
// Eq. 7 then normalises this distance. The paper's notation
//   score_i = d(MA_k, ω_i) / √(Σ_{k=1}^m d(MA_k, ω_i)²)
// reuses k as both the client's group and the summation index, which admits
// two readings:
//   (a) literal/cross-group: divide by the distances from ω_i to every
//       group estimate. Empirically this *washes the signal out*: a
//       poisoned update is far from its own group's MA but equally far from
//       every other group's MA, so the ratio is ≈ constant across clients
//       (see bench_ablation_score_norm).
//   (b) across peers: divide by the aggregate deviation of the *buffered
//       updates* from their own group estimates, making score_i the
//       relative outlierness of client i among its peers — which is what
//       §4.3's narrative ("updates closer to the standard model tend to
//       originate from benign clients") actually needs.
// This implementation defaults to (b) with per-group RMS normalisation
// (size-invariant across staleness groups) and keeps (a) selectable for the
// ablation study.
#pragma once

#include <vector>

#include "core/staleness_groups.h"
#include "fl/types.h"

namespace score {
class StreamingScorer;
}  // namespace score

namespace core {

enum class ScoreNormalization {
  // Reading (b), default: d_i divided by the RMS of d_j over buffered peers
  // in the same staleness group (singleton groups fall back to the
  // buffer-wide RMS so a lone straggler is not auto-flagged).
  kGroupRms,
  // Reading (b), buffer-wide: d_i / √(Σ_j d_j²) over the whole buffer.
  kBufferNorm,
  // Reading (a): Eq. 7 as literally printed.
  kEq7CrossGroup,
};

// Per-update suspicious scores for the whole buffer. Every update's
// staleness group must exist in the bank (AsyncFilter absorbs first).
std::vector<double> ComputeSuspiciousScores(
    const std::vector<fl::ModelUpdate>& updates, const MovingAverageBank& bank,
    ScoreNormalization normalization = ScoreNormalization::kGroupRms);

// Streaming-scorer path: same semantics, but every distance is answered by
// the scorer — recomputed in exact mode, served from the norm/reference
// caches in incremental mode, identical bits either way (both evaluate
// √(‖ref‖² + ‖ω‖² − 2⟨ref, ω⟩) through the same kernels). The caller must
// have registered a reference per staleness group (keyed by the staleness
// value) and inserted update i at slots[i].
std::vector<double> ComputeSuspiciousScores(
    const std::vector<fl::ModelUpdate>& updates, score::StreamingScorer& scorer,
    const std::vector<int>& slots,
    ScoreNormalization normalization = ScoreNormalization::kGroupRms);

// Eq. 7 normalization applied to precomputed own-group distances (exposed
// for bench_micro_filter_overhead, which scores from its own distances).
// kEq7CrossGroup is not representable from own[] alone and must not be
// passed here.
std::vector<double> NormalizeOwnDistances(
    const std::vector<fl::ModelUpdate>& updates, const std::vector<double>& own,
    ScoreNormalization normalization);

// True when max−min spread is numerically meaningless for clustering.
bool ScoresDegenerate(const std::vector<double>& scores, double epsilon = 1e-9);

}  // namespace core
