#include "score/scorer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace score {
namespace {

// The one exact formula every distance shares: same kernel calls in the same
// order, so cached, recomputed and tabled answers are bit-identical.
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

std::vector<double> PairwiseSquaredDistances(
    const std::vector<std::span<const float>>& deltas,
    util::ThreadPool* pool) {
  namespace kernels = tensor::kernels;
  const std::size_t n = deltas.size();
  std::vector<const float*> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    AF_CHECK_EQ(deltas[i].size(), deltas[0].size());
    rows[i] = deltas[i].data();
  }
  const std::size_t dim = n == 0 ? 0 : deltas[0].size();
  // Upper triangle first (dots), then the formula in place. Rows go in
  // blocks of kDotRows, DotMany's full tile height: each block's norms, its
  // in-block pairs and then every later column in one DotMany call. A block
  // writes only its own rows' norms and upper-triangle entries, so the
  // blocks fan out over `pool` (interleaved: early blocks hold the longest
  // rows) with every entry written by exactly one thread.
  std::vector<double> norms(n);
  std::vector<double> d2(n * n, 0.0);
  const std::size_t blocks = (n + kernels::kDotRows - 1) / kernels::kDotRows;
  util::ParallelStrided(pool, blocks, [&](std::size_t first,
                                          std::size_t stride) {
    for (std::size_t b = first; b < blocks; b += stride) {
      const std::size_t i = b * kernels::kDotRows;
      const std::size_t count = std::min(kernels::kDotRows, n - i);
      for (std::size_t r = i; r < i + count; ++r) {
        norms[r] = kernels::SumSquares(rows[r], dim);
        for (std::size_t c = r + 1; c < i + count; ++c) {
          d2[r * n + c] = kernels::Dot(rows[r], rows[c], dim);
        }
      }
      kernels::DotMany(rows.data() + i, count, rows.data() + i + count,
                       n - i - count, dim, d2.data() + i * n + i + count, n);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d =
          SquaredDistanceFromParts(norms[i], norms[j], d2[i * n + j]);
      d2[i * n + j] = d;
      d2[j * n + i] = d;
    }
  }
  return d2;
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
  s.sq_norm_valid = false;
  s.ref_cache.clear();
  ++live_count_;
  if (caching()) {
    s.sq_norm = ComputeSquaredNorm(s);
    s.sq_norm_valid = true;
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
