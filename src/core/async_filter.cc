#include "core/async_filter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/kmeans.h"
#include "core/suspicious_score.h"
#include "defense/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace core {
namespace {

// Self-registration: any binary that links AsyncFilter can build it (and
// its ablation variants) by name through defense::Registry.
AsyncFilterOptions VariantOptions(std::size_t clusters, MidBandPolicy policy) {
  AsyncFilterOptions options;
  options.num_clusters = clusters;
  options.mid_band = policy;
  return options;
}

const defense::RegistryEntry kRegisterAsyncFilter{
    "asyncfilter",
    {"asyncfilter3means"},
    [](const defense::DefenseParams&) {
      return std::make_unique<AsyncFilter>();
    }};
const defense::RegistryEntry kRegisterAsyncFilter2Means{
    "asyncfilter2means",
    {},
    [](const defense::DefenseParams&) {
      return std::make_unique<AsyncFilter>(
          VariantOptions(2, MidBandPolicy::kAccept));
    }};
const defense::RegistryEntry kRegisterAsyncFilterDeferMid{
    "asyncfilterdefermid",
    {},
    [](const defense::DefenseParams&) {
      return std::make_unique<AsyncFilter>(
          VariantOptions(3, MidBandPolicy::kDefer));
    }};
const defense::RegistryEntry kRegisterAsyncFilterRejectMid{
    "asyncfilterrejectmid",
    {},
    [](const defense::DefenseParams&) {
      return std::make_unique<AsyncFilter>(
          VariantOptions(3, MidBandPolicy::kReject));
    }};

}  // namespace

void EnsureAsyncFilterRegistered() {
  // Static initialization of this translation unit did the actual work.
}

AsyncFilter::AsyncFilter(AsyncFilterOptions options)
    : options_(options),
      scorer_(options.scorer_mode),
      degenerate_rounds_(
          &obs::DefaultRegistry().GetCounter("defense.degenerate_rounds")) {
  AF_CHECK_GE(options_.num_clusters, 2u);
  AF_CHECK_LE(options_.num_clusters, 3u);
}

std::string AsyncFilter::Name() const {
  if (options_.num_clusters == 2) {
    return "AsyncFilter-2means";
  }
  return "AsyncFilter";
}

void AsyncFilter::Reset() {
  bank_.Reset();
  deferral_counts_.clear();
  scorer_.Clear();
  scorer_.ClearReferences();
  kmeans_state_.Reset();
}

void AsyncFilter::SaveState(util::serial::Writer& w) const {
  bank_.Save(w);
  w.U64(deferral_counts_.size());
  for (const auto& [key, count] : deferral_counts_) {
    w.I64(key.first);
    w.U64(key.second);
    w.U64(count);
  }
  // Warm-start centroids are cross-round state: a resumed run must take the
  // identical warm/cold clustering branch with identical seeds.
  kmeans_state_.Save(w);
}

void AsyncFilter::LoadState(util::serial::Reader& r) {
  bank_.Load(r);
  deferral_counts_.clear();
  const std::uint64_t n = r.U64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int client = static_cast<int>(r.I64());
    const std::size_t base_round = r.U64();
    deferral_counts_[{client, base_round}] = r.U64();
  }
  kmeans_state_.Load(r);
}

std::vector<int> AsyncFilter::SyncScorer(
    const std::vector<fl::ModelUpdate>& updates) {
  // The buffer's spans are only valid for this Process call, so the slot set
  // is rebuilt per round; the references (group estimates) live in the bank
  // but mutate during absorption, so they re-register too. What survives
  // across rounds is the warm-start clustering state and, within the round,
  // every cached norm/distance for the repeated queries below.
  scorer_.Clear();
  scorer_.ClearReferences();
  std::vector<int> slots;
  slots.reserve(updates.size());
  for (const auto& update : updates) {
    slots.push_back(scorer_.Insert(update.delta));
  }
  for (std::size_t tau : bank_.Groups()) {
    scorer_.SetReference(tau, bank_.Estimate(tau));
  }
  return slots;
}

defense::AggregationResult AsyncFilter::Process(
    const defense::FilterContext& context,
    const std::vector<fl::ModelUpdate>& updates) {
  AF_TRACE_SPAN("filter.process");
  AF_CHECK(!updates.empty());
  AF_CHECK(context.rng != nullptr) << "AsyncFilter needs the server RNG";

  // Step 1 (Eq. 4–5): fold the arrivals into their staleness groups'
  // moving-average estimators. Alg. 1 absorbs before scoring.
  {
    AF_TRACE_SPAN("filter.absorb");
    for (const auto& update : updates) {
      bank_.Absorb(update.staleness, update.delta);
    }
  }

  // Step 2 (Eq. 6–7): suspicious scores, answered by the streaming scorer.
  const std::vector<int> slots = SyncScorer(updates);
  std::vector<double> scores;
  {
    AF_TRACE_SPAN("filter.score");
    scores = ComputeSuspiciousScores(updates, scorer_, slots,
                                     options_.normalization);
  }

  std::vector<std::size_t> accepted;
  std::vector<std::size_t> mid;
  std::vector<std::size_t> rejected;
  defense::AggregationResult result;

  const std::size_t k = std::min<std::size_t>(options_.num_clusters,
                                              updates.size());
  if (ScoresDegenerate(scores) || k < 2) {
    // Nothing to separate: everything is accepted (matches FedBuff). The
    // fallback is legitimate but must not be silent — a poisoned buffer that
    // manages to flatten the score spread would otherwise pass unexamined.
    accepted.resize(updates.size());
    std::iota(accepted.begin(), accepted.end(), 0u);
    result.reason =
        updates.size() < 2 ? "buffer_too_small" : "scores_degenerate";
    degenerate_rounds_->Increment();
  } else {
    // Step 3: k-means over the 1-D scores, warm-started from the previous
    // round's centroids; order bands by centroid.
    AF_TRACE_SPAN("filter.cluster");
    const cluster::KMeansResult clustering =
        score::WarmKMeans1D(scores, k, *context.rng, kmeans_state_);
    std::vector<std::size_t> band_order(k);
    std::iota(band_order.begin(), band_order.end(), 0u);
    std::sort(band_order.begin(), band_order.end(),
              [&](std::size_t a, std::size_t b) {
                return clustering.centroids[a][0] < clustering.centroids[b][0];
              });
    std::vector<std::size_t> band_rank(k);  // cluster id -> 0=low,…,k-1=high
    for (std::size_t r = 0; r < k; ++r) {
      band_rank[band_order[r]] = r;
    }
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const std::size_t rank = band_rank[clustering.assignment[i]];
      if (rank == 0) {
        accepted.push_back(i);
      } else if (rank == k - 1) {
        rejected.push_back(i);
      } else {
        mid.push_back(i);
      }
    }
    if (accepted.empty()) {
      // The "honest" band must never be empty; fall back to the mid band,
      // then to everything (never stall the learning process).
      if (!mid.empty()) {
        accepted.swap(mid);
      } else {
        accepted.swap(rejected);
      }
      result.reason = "empty_accept_band";
    }
  }

  // Middle band disposition.
  result.scores = scores;
  result.verdicts.assign(updates.size(), defense::Verdict::kAccepted);
  for (std::size_t idx : rejected) {
    result.verdicts[idx] = defense::Verdict::kRejected;
  }
  switch (options_.mid_band) {
    case MidBandPolicy::kAccept:
      accepted.insert(accepted.end(), mid.begin(), mid.end());
      break;
    case MidBandPolicy::kReject:
      for (std::size_t idx : mid) {
        result.verdicts[idx] = defense::Verdict::kRejected;
        rejected.push_back(idx);
      }
      break;
    case MidBandPolicy::kDefer:
      for (std::size_t idx : mid) {
        const auto& update = updates[idx];
        const auto key = std::make_pair(update.client_id, update.base_round);
        std::size_t& count = deferral_counts_[key];
        if (count >= options_.max_deferrals) {
          // Deferred too often — treat as rejected.
          result.verdicts[idx] = defense::Verdict::kRejected;
          rejected.push_back(idx);
          deferral_counts_.erase(key);
          continue;
        }
        ++count;
        result.verdicts[idx] = defense::Verdict::kDeferred;
        result.deferred.push_back(update);
      }
      break;
  }
  // Bound the deferral ledger (stale entries for long-gone updates).
  if (deferral_counts_.size() > 4096) {
    deferral_counts_.clear();
  }

  if (!accepted.empty()) {
    result.aggregated_delta = defense::WeightedAverage(
        updates, accepted, context.staleness_weighting);
  }
  return result;
}

}  // namespace core
