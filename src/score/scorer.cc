#include "score/scorer.h"

#include <cmath>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace score {
namespace {

// The one exact formula both backends share: same kernel calls in the same
// order, so cached and recomputed answers are bit-identical.
double SquaredDistanceFromParts(double sq_a, double sq_b, double dot) {
  const double d2 = sq_a + sq_b - 2.0 * dot;
  return d2 > 0.0 ? d2 : 0.0;
}

}  // namespace

const char* ScorerModeName(ScorerMode mode) {
  switch (mode) {
    case ScorerMode::kExact:
      return "exact";
    case ScorerMode::kIncremental:
      return "incremental";
  }
  return "?";
}

StreamingScorer::StreamingScorer(ScorerMode mode) : mode_(mode) {
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  inserts_ = &registry.GetCounter("score.inserts");
  evicts_ = &registry.GetCounter("score.evicts");
  ref_dist_computed_ = &registry.GetCounter("score.ref_dist_computed");
  ref_dist_cached_ = &registry.GetCounter("score.ref_dist_cached");
  slots_gauge_ = &registry.GetGauge("score.slots");
}

int StreamingScorer::Insert(std::span<const float> delta) {
  AF_CHECK(!delta.empty()) << "score: empty update";
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  s.delta = delta;
  s.live = true;
  ++s.epoch;
  s.sq_norm_valid = false;
  s.ref_cache.clear();
  ++live_count_;
  if (caching()) {
    s.sq_norm = ComputeSquaredNorm(s);
    s.sq_norm_valid = true;
    if (pairwise_active_) {
      // Rank-1 Gram update: one new row, mirrored into the columns of the
      // live peers. Dead slots keep stale entries — epochs make them
      // unreachable, and slot reuse overwrites them.
      s.gram.assign(slots_.size(), 0.0);
      s.gram_epoch.assign(slots_.size(), 0);
      for (std::size_t j = 0; j < slots_.size(); ++j) {
        Slot& peer = slots_[j];
        if (!peer.live || static_cast<int>(j) == slot) {
          continue;
        }
        const double dot = ComputeDot(s, peer);
        s.gram[j] = dot;
        s.gram_epoch[j] = peer.epoch;
        if (peer.gram.size() < slots_.size()) {
          peer.gram.resize(slots_.size(), 0.0);
          peer.gram_epoch.resize(slots_.size(), 0);
        }
        peer.gram[static_cast<std::size_t>(slot)] = dot;
        peer.gram_epoch[static_cast<std::size_t>(slot)] = s.epoch;
      }
    }
  }
  inserts_->Increment();
  slots_gauge_->Set(static_cast<double>(live_count_));
  return slot;
}

void StreamingScorer::Reattach(int slot, std::span<const float> delta) {
  AF_CHECK(IsLive(slot));
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  AF_CHECK_EQ(delta.size(), s.delta.size())
      << "score: Reattach must preserve contents";
  s.delta = delta;
}

void StreamingScorer::Evict(int slot) {
  AF_CHECK(IsLive(slot));
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  s.live = false;
  s.delta = {};
  s.ref_cache.clear();
  free_slots_.push_back(slot);
  --live_count_;
  evicts_->Increment();
  slots_gauge_->Set(static_cast<double>(live_count_));
}

void StreamingScorer::Clear() {
  slots_.clear();
  free_slots_.clear();
  live_count_ = 0;
  pairwise_active_ = false;
  slots_gauge_->Set(0.0);
}

bool StreamingScorer::IsLive(int slot) const {
  return slot >= 0 && static_cast<std::size_t>(slot) < slots_.size() &&
         slots_[static_cast<std::size_t>(slot)].live;
}

std::span<const float> StreamingScorer::Delta(int slot) const {
  AF_CHECK(IsLive(slot));
  return slots_[static_cast<std::size_t>(slot)].delta;
}

void StreamingScorer::SetReference(std::uint64_t key,
                                   std::span<const float> estimate) {
  AF_CHECK(!estimate.empty()) << "score: empty reference";
  Reference& ref = references_[key];
  ref.estimate = estimate;
  ++ref.epoch;
  if (caching()) {
    ref.sq_norm = tensor::kernels::SumSquares(estimate.data(), estimate.size());
  }
}

bool StreamingScorer::HasReference(std::uint64_t key) const {
  return references_.count(key) != 0;
}

std::vector<std::uint64_t> StreamingScorer::ReferenceKeys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(references_.size());
  for (const auto& [key, ref] : references_) {
    keys.push_back(key);
  }
  return keys;
}

void StreamingScorer::ClearReferences() { references_.clear(); }

double StreamingScorer::ComputeSquaredNorm(const Slot& s) const {
  return tensor::kernels::SumSquares(s.delta.data(), s.delta.size());
}

double StreamingScorer::ComputeDot(const Slot& a, const Slot& b) const {
  AF_CHECK_EQ(a.delta.size(), b.delta.size());
  return tensor::kernels::Dot(a.delta.data(), b.delta.data(), a.delta.size());
}

double StreamingScorer::SquaredNorm(int slot) {
  AF_CHECK(IsLive(slot));
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (!caching()) {
    return ComputeSquaredNorm(s);
  }
  if (!s.sq_norm_valid) {
    s.sq_norm = ComputeSquaredNorm(s);
    s.sq_norm_valid = true;
  }
  return s.sq_norm;
}

void StreamingScorer::ActivatePairwise() {
  if (pairwise_active_) {
    return;
  }
  pairwise_active_ = true;
  if (!caching()) {
    return;
  }
  // One-time fill for the slots inserted before the pairwise plane woke up;
  // every later Insert extends the matrix one rank at a time.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& a = slots_[i];
    if (!a.live) {
      continue;
    }
    if (a.gram.size() < slots_.size()) {
      a.gram.resize(slots_.size(), 0.0);
      a.gram_epoch.resize(slots_.size(), 0);
    }
    for (std::size_t j = i + 1; j < slots_.size(); ++j) {
      Slot& b = slots_[j];
      if (!b.live) {
        continue;
      }
      if (b.gram.size() < slots_.size()) {
        b.gram.resize(slots_.size(), 0.0);
        b.gram_epoch.resize(slots_.size(), 0);
      }
      const double dot = ComputeDot(a, b);
      a.gram[j] = dot;
      a.gram_epoch[j] = b.epoch;
      b.gram[i] = dot;
      b.gram_epoch[i] = a.epoch;
    }
  }
}

double StreamingScorer::Dot(int a, int b) {
  AF_CHECK(IsLive(a));
  AF_CHECK(IsLive(b));
  Slot& sa = slots_[static_cast<std::size_t>(a)];
  Slot& sb = slots_[static_cast<std::size_t>(b)];
  if (a == b) {
    return SquaredNorm(a);
  }
  if (!caching()) {
    return ComputeDot(sa, sb);
  }
  ActivatePairwise();
  const auto ub = static_cast<std::size_t>(b);
  if (sa.gram.size() <= ub || sa.gram_epoch[ub] != sb.epoch) {
    const double dot = ComputeDot(sa, sb);
    if (sa.gram.size() <= ub) {
      sa.gram.resize(slots_.size(), 0.0);
      sa.gram_epoch.resize(slots_.size(), 0);
    }
    sa.gram[ub] = dot;
    sa.gram_epoch[ub] = sb.epoch;
    const auto ua = static_cast<std::size_t>(a);
    if (sb.gram.size() <= ua) {
      sb.gram.resize(slots_.size(), 0.0);
      sb.gram_epoch.resize(slots_.size(), 0);
    }
    sb.gram[ua] = dot;
    sb.gram_epoch[ua] = sa.epoch;
  }
  return sa.gram[ub];
}

double StreamingScorer::PairwiseSquaredDistance(int a, int b) {
  if (a == b) {
    return 0.0;
  }
  return SquaredDistanceFromParts(SquaredNorm(a), SquaredNorm(b), Dot(a, b));
}

double StreamingScorer::ComputeReferenceDistance(const Reference& ref,
                                                 Slot& s) {
  AF_CHECK_EQ(ref.estimate.size(), s.delta.size());
  const double ref_sq =
      caching() ? ref.sq_norm
                : tensor::kernels::SumSquares(ref.estimate.data(),
                                              ref.estimate.size());
  double slot_sq;
  if (caching()) {
    if (!s.sq_norm_valid) {
      s.sq_norm = ComputeSquaredNorm(s);
      s.sq_norm_valid = true;
    }
    slot_sq = s.sq_norm;
  } else {
    slot_sq = ComputeSquaredNorm(s);
  }
  const double dot = tensor::kernels::Dot(ref.estimate.data(), s.delta.data(),
                                          s.delta.size());
  return std::sqrt(SquaredDistanceFromParts(ref_sq, slot_sq, dot));
}

double StreamingScorer::DistanceToReference(std::uint64_t key, int slot) {
  AF_CHECK(IsLive(slot));
  auto it = references_.find(key);
  AF_CHECK(it != references_.end()) << "score: unknown reference " << key;
  Reference& ref = it->second;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (!caching()) {
    ref_dist_computed_->Increment();
    return ComputeReferenceDistance(ref, s);
  }
  auto cached = s.ref_cache.find(key);
  if (cached != s.ref_cache.end() && cached->second.first == ref.epoch) {
    ref_dist_cached_->Increment();
    return cached->second.second;
  }
  const double distance = ComputeReferenceDistance(ref, s);
  s.ref_cache[key] = {ref.epoch, distance};
  ref_dist_computed_->Increment();
  return distance;
}

}  // namespace score
