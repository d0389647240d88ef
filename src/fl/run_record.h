// The run record: everything a run reports, as one versioned JSONL stream.
//
// Every line is one JSON object that starts with
// "schema_version":1,"type":… — one of four record types, in this order:
//
//   run      what ran: profile, attack, defense, seed, population, schedule
//   update   one per update the defense saw: verdict, score, ground truth
//   round    one per aggregation round (RoundRecord)
//   summary  the run-level result (SimulationResult totals)
//
// `update` records stream from the simulator's verdict loop as decisions
// happen (a crash loses at most the unflushed tail); `round` and `summary`
// are written from SimulationResult at the end, so a resumed run still
// reports every round. docs/OBSERVABILITY.md has the field table.
//
// kRunRecordSchemaVersion changes only when a field is renamed or removed;
// new record types and new fields are additive.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "defense/defense.h"
#include "fl/experiment.h"

namespace fl {

inline constexpr int kRunRecordSchemaVersion = 1;

// "accepted" | "rejected" | "deferred".
const char* VerdictName(defense::Verdict verdict);

// The names a run was configured with, as given on the command line (the
// config holds parsed enums; the record keeps the spelling tools key on).
struct RunLabels {
  std::string profile;
  std::string attack;
  std::string defense;
};

// One `update` record.
struct UpdateRecord {
  std::uint64_t round = 0;
  int client_id = -1;
  std::uint64_t staleness = 0;
  // The defense's suspicious score; not every defense produces one
  // (has_score=false → null).
  bool has_score = false;
  double score = 0.0;
  defense::Verdict verdict = defense::Verdict::kAccepted;
  bool malicious = false;  // ModelUpdate::is_malicious_truth
  // Wire provenance (tcp transport only; empty/0 → null).
  std::string_view codec;
  std::uint64_t wire_bytes = 0;
  // Wall-clock time the update sat buffered before the defense ran
  // (negative → unknown → null), and the defense's scoring pass.
  double queue_wait_us = -1.0;
  double scoring_us = 0.0;
  std::uint64_t trace_id = 0;  // 0 → null; hex string otherwise
  // Why the round left the defense's normal path
  // (AggregationResult::reason); empty → null.
  std::string_view reason;
};

// The run-record file. One process-wide instance (Global()) is what the
// simulator streams `update` records into; it is closed by default, and a
// closed sink costs the simulator one relaxed atomic load per update.
class RunRecord {
 public:
  static RunRecord& Global();

  // Opens `path` (truncating). Throws std::runtime_error when it cannot.
  void Open(const std::string& path);
  // Flushes and closes; enabled() turns false. Safe when already closed.
  void Close();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Each writer appends one line per record; all are no-ops when closed.
  void WriteRun(const RunLabels& labels, const ExperimentConfig& config);
  void AppendUpdate(const UpdateRecord& record);
  // The `round` records, then the `summary` record.
  void WriteResult(const SimulationResult& result);

 private:
  void WriteLine(const std::string& line);

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace fl
