// Streaming defense-scoring substrate.
//
// AsyncFilter-style rescoring recomputes every update's distance signal and
// re-clusters the whole server buffer each time the buffer changes; Krum and
// NNM recompute a full pairwise-distance table per aggregation pass. Both
// shapes reduce to three cached quantities per buffered update ω:
//
//   ‖ω‖²                       (squared norm, immutable per update)
//   ⟨ω_i, ω_j⟩                 (Gram matrix over the live buffer)
//   d(ref, ω) = √(‖ref‖² + ‖ω‖² − 2⟨ref, ω⟩)   (distance to a reference
//                                               vector, e.g. a staleness
//                                               group's moving average)
//
// StreamingScorer owns those caches and keeps them consistent across buffer
// mutations: Insert computes one new norm plus (when the pairwise plane is
// active) one new Gram row — a rank-1 add; Evict drops a row/column; a
// reference update invalidates exactly the distances derived from it. The
// exact backend answers every query by recomputing the *same formula* from
// scratch, so the two modes are bit-identical by construction and differ only
// in work — the property the tests in tests/score/ pin down.
//
// Modes (default incremental):
//   exact        no caching; every query recomputes. The test oracle.
//   incremental  norms/Gram/reference distances cached across mutations.
//
// Lifetime contract: Insert borrows the caller's float storage — the span
// must stay valid until the slot is evicted, the scorer is cleared, or the
// slot is Reattach()ed to a new span holding the same contents. The
// simulator's buffer owns update payloads for exactly the window the scorer
// needs them; persistent callers (AsyncFilter across rounds) re-attach
// deferred updates as they re-enter the buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace score {

enum class ScorerMode { kExact, kIncremental };

const char* ScorerModeName(ScorerMode mode);

class StreamingScorer {
 public:
  explicit StreamingScorer(ScorerMode mode = ScorerMode::kIncremental);

  // --- Buffer mutations -----------------------------------------------
  // Borrows `delta` (see the lifetime contract above); returns the slot id
  // used by every query. O(d) in incremental mode (one norm) plus O(n·d)
  // for the new Gram row when the pairwise plane is active.
  int Insert(std::span<const float> delta);

  // Rebinds a live slot to new storage holding the SAME contents (a
  // deferred update re-entering the buffer from a different allocation).
  // All caches survive — contents equality is the caller's contract.
  void Reattach(int slot, std::span<const float> delta);

  // Frees the slot: O(1) — its Gram row/column entries die with it and the
  // slot id is recycled by a later Insert.
  void Evict(int slot);

  void Clear();

  std::size_t size() const { return live_count_; }
  bool IsLive(int slot) const;
  std::span<const float> Delta(int slot) const;

  // --- Reference vectors ----------------------------------------------
  // Registers (or replaces) a reference vector, e.g. the staleness group's
  // moving average. Borrows `estimate` until the next SetReference on the
  // same key or ClearReferences(); replacing bumps the reference epoch so
  // cached distances derived from the old estimate are never served.
  void SetReference(std::uint64_t key, std::span<const float> estimate);
  bool HasReference(std::uint64_t key) const;
  // All registered reference keys, ascending.
  std::vector<std::uint64_t> ReferenceKeys() const;
  void ClearReferences();

  // --- Queries: identical bits in every mode --------------------------
  double SquaredNorm(int slot);
  double Dot(int a, int b);
  // ‖ω_a − ω_b‖² via the Gram identity, clamped at 0 (cancellation can
  // leave a tiny negative); 0 when a == b.
  double PairwiseSquaredDistance(int a, int b);
  // ‖ref − ω‖ via the same identity.
  double DistanceToReference(std::uint64_t key, int slot);

 private:
  struct Slot {
    std::span<const float> delta;
    bool live = false;
    // Caches (incremental only).
    double sq_norm = 0.0;
    bool sq_norm_valid = false;
    // Gram row vs other slots, indexed by slot id; valid entries tracked by
    // the epoch the row entry was written at vs the column slot's epoch.
    std::vector<double> gram;
    std::vector<std::uint64_t> gram_epoch;
    std::uint64_t epoch = 0;  // bumped on (re)insert
    // key → (reference epoch, distance).
    std::map<std::uint64_t, std::pair<std::uint64_t, double>> ref_cache;
  };

  struct Reference {
    std::span<const float> estimate;
    double sq_norm = 0.0;
    std::uint64_t epoch = 0;
  };

  bool caching() const { return mode_ != ScorerMode::kExact; }
  double ComputeSquaredNorm(const Slot& s) const;
  double ComputeDot(const Slot& a, const Slot& b) const;
  double ComputeReferenceDistance(const Reference& ref, Slot& s);
  void ActivatePairwise();

  ScorerMode mode_;
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  std::size_t live_count_ = 0;
  std::map<std::uint64_t, Reference> references_;
  // The Gram plane stays dormant (zero memory) until the first pairwise
  // query; from then on Insert eagerly adds the new row.
  bool pairwise_active_ = false;

  // Cached metric handles (registry lookups are mutex-guarded).
  obs::Counter* inserts_;
  obs::Counter* evicts_;
  obs::Counter* ref_dist_computed_;
  obs::Counter* ref_dist_cached_;
  obs::Gauge* slots_gauge_;
};

}  // namespace score
