// Defense-scoring substrate.
//
// AsyncFilter-style rescoring recomputes every update's distance signal and
// re-clusters the whole server buffer each time the buffer changes; Krum and
// NNM build a full pairwise-distance table per aggregation pass. Both reduce
// to the Gram identity over squared norms and dot products:
//
//   d²(a, b) = max(0, ‖a‖² + ‖b‖² − 2⟨a, b⟩)
//
// StreamingScorer serves the first shape. It caches each buffered update's
// ‖ω‖² and its distance to a reference vector (e.g. a staleness group's
// moving average), d(ref, ω) = √d²(ref, ω), and keeps those caches
// consistent across buffer mutations: Insert computes one new norm; Evict
// frees a slot; a reference update invalidates exactly the distances derived
// from it. The exact backend answers every query by recomputing the *same
// formula* from scratch, so the two modes are bit-identical by construction
// and differ only in work — the property the tests in tests/score/ pin down.
//
// PairwiseSquaredDistances serves the second: one dense n × n pass through
// the register-blocked tensor::kernels::DotMany, optionally fanned out over
// a thread pool, with each entry bit-identical to the per-pair formula.
//
// Modes (default incremental):
//   exact        no caching; every query recomputes. The test oracle.
//   incremental  norms and reference distances cached across mutations.
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

namespace util {
class ThreadPool;
}  // namespace util

namespace score {

enum class ScorerMode { kExact, kIncremental };

const char* ScorerModeName(ScorerMode mode);

// Row-major n × n table of d²(deltas[i], deltas[j]) (formula above), exactly
// 0 on the diagonal and symmetric to the bit. Norms come from SumSquares and
// dots from DotMany, so every entry equals the per-pair formula over
// kernels::Dot. Every delta must have the same size. A non-null `pool`
// spreads the row blocks over its workers; the table is the same bytes with
// or without it.
std::vector<double> PairwiseSquaredDistances(
    const std::vector<std::span<const float>>& deltas,
    util::ThreadPool* pool = nullptr);

class StreamingScorer {
 public:
  explicit StreamingScorer(ScorerMode mode = ScorerMode::kIncremental);

  // --- Buffer mutations -----------------------------------------------
  // Borrows `delta` (see the lifetime contract above); returns the slot id
  // used by every query. O(d) in incremental mode (one norm).
  int Insert(std::span<const float> delta);

  // Rebinds a live slot to new storage holding the SAME contents (a
  // deferred update re-entering the buffer from a different allocation).
  // All caches survive — contents equality is the caller's contract.
  void Reattach(int slot, std::span<const float> delta);

  // Frees the slot: O(1) — the slot id is recycled by a later Insert.
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
  // ‖ref − ω‖ via the Gram identity, clamped at 0 before the root
  // (cancellation can leave a tiny negative).
  double DistanceToReference(std::uint64_t key, int slot);

 private:
  struct Slot {
    std::span<const float> delta;
    bool live = false;
    // Caches (incremental only).
    double sq_norm = 0.0;
    bool sq_norm_valid = false;
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
  double ComputeReferenceDistance(const Reference& ref, Slot& s);

  ScorerMode mode_;
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  std::size_t live_count_ = 0;
  std::map<std::uint64_t, Reference> references_;

  // Cached metric handles (registry lookups are mutex-guarded).
  obs::Counter* inserts_;
  obs::Counter* evicts_;
  obs::Counter* ref_dist_computed_;
  obs::Counter* ref_dist_cached_;
  obs::Gauge* slots_gauge_;
};

}  // namespace score
