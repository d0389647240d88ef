// Server-side defense interface.
//
// A Defense consumes the buffered updates of one aggregation round and
// produces (a) the aggregated delta to apply to the global model, (b) a
// per-update verdict record, and (c) any updates to defer into the next
// buffer. AsyncFilter, the baselines (FedBuff = NoDefense, FLDetector) and
// the classical robust aggregators all implement this one interface — the
// paper's "plug-and-play" claim, made literal.
#pragma once

#include <random>
#include <span>
#include <string>
#include <vector>

#include "defense/staleness_weighting.h"
#include "fl/types.h"
#include "util/serial.h"

namespace util {
class ThreadPool;
}  // namespace util

namespace defense {

// What the server legitimately knows at aggregation time. Note there is no
// clean dataset here: defenses that assume one (Zeno++, AFLGuard) receive a
// server reference update that the simulator computes from a simulated root
// dataset, and must declare the requirement via RequiresServerReference().
struct FilterContext {
  std::size_t round = 0;
  std::span<const float> global_model;
  std::size_t max_staleness = 20;
  // Reference update trained on the server's (simulated) clean root dataset;
  // empty unless the defense requires it.
  std::span<const float> server_reference;
  // How aggregation weights discount staleness (server policy; defenses
  // pass it through to WeightedAverage so the whole system is consistent).
  StalenessWeightingConfig staleness_weighting;
  std::mt19937_64* rng = nullptr;
  // The server's training pool, idle while Process runs, lent for fan-out
  // whose result does not depend on it. Null when training runs behind a
  // caller backend (tcp); defenses then run serially.
  util::ThreadPool* pool = nullptr;
};

enum class Verdict { kAccepted, kDeferred, kRejected };

struct AggregationResult {
  // Weighted-average delta over the accepted updates; empty when nothing was
  // accepted (the server then skips the model step for this round).
  std::vector<float> aggregated_delta;
  // Aligned with the input updates.
  std::vector<Verdict> verdicts;
  // Updates to re-enqueue into the next buffer (mid-band deferral).
  std::vector<fl::ModelUpdate> deferred;
  // Optional per-update suspicious scores, aligned with the input updates.
  // Defenses that score (AsyncFilter) fill this for the run record; empty
  // means "this defense does not score".
  std::vector<double> scores;
  // Why this round's verdicts deviate from the defense's normal filtering
  // path (e.g. "scores_degenerate" when AsyncFilter cannot separate the
  // buffer and accepts everything). Empty on ordinary rounds. Propagated to
  // the run record so silent fallbacks leave a visible trace.
  std::string reason;
};

class Defense {
 public:
  virtual ~Defense() = default;

  virtual AggregationResult Process(const FilterContext& context,
                                    const std::vector<fl::ModelUpdate>& updates) = 0;

  virtual std::string Name() const = 0;

  // Defenses carrying cross-round state (AsyncFilter's moving averages,
  // FLDetector's histories) reset here between independent runs.
  virtual void Reset() {}

  // Checkpoint hooks — the counterpart of Reset() for resumable runs.
  //
  // SaveState appends every piece of cross-round state to `w`; LoadState
  // reads back exactly the bytes SaveState wrote, restoring the defense to
  // a bit-identical point (a resumed simulation must produce the same
  // verdicts and aggregates as an uninterrupted one). Contract:
  //   * Load(Save(x)) must leave the defense indistinguishable from x —
  //     serialize floating-point state bit-exactly (util::serial does),
  //     and serialize unordered containers in a canonical (sorted) order.
  //   * Constructor parameters/options are NOT state: the simulator
  //     recreates the defense from its configuration before LoadState runs.
  //   * Stateless defenses keep the default no-ops; a defense with
  //     cross-round state that skips these hooks forfeits bit-identical
  //     resume (the checkpoint layer cannot see its state).
  virtual void SaveState(util::serial::Writer& /*w*/) const {}
  virtual void LoadState(util::serial::Reader& /*r*/) {}

  // True for clean-dataset defenses (Zeno++/AFLGuard); the simulator then
  // provisions a root dataset and fills FilterContext::server_reference.
  virtual bool RequiresServerReference() const { return false; }
};

// The updates' payloads as spans, in order.
std::vector<std::span<const float>> Deltas(
    const std::vector<fl::ModelUpdate>& updates);

// Sample-count-weighted average of updates[indices]; FedAvg-style p_i with
// the configured staleness discount applied.
std::vector<float> WeightedAverage(const std::vector<fl::ModelUpdate>& updates,
                                   const std::vector<std::size_t>& indices,
                                   const StalenessWeightingConfig& weighting =
                                       StalenessWeightingConfig{});

// Builds a full AggregationResult from an accept/reject index split with
// weighted-average aggregation (the common tail of filtering defenses).
AggregationResult MakeFilterResult(const std::vector<fl::ModelUpdate>& updates,
                                   const std::vector<std::size_t>& accepted,
                                   const std::vector<std::size_t>& rejected,
                                   const StalenessWeightingConfig& weighting =
                                       StalenessWeightingConfig{});

// FedBuff baseline: accepts everything (no defense).
class NoDefense : public Defense {
 public:
  AggregationResult Process(const FilterContext& context,
                            const std::vector<fl::ModelUpdate>& updates) override;
  std::string Name() const override { return "FedBuff"; }
};

}  // namespace defense
