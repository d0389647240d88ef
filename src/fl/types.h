// Shared FL wire types.
//
// Header-only so attacks/ and defense/ can use the update type without
// linking the simulator; everything the server-side modules see crosses
// through here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/update_view.h"

namespace fl {

// One client report: the flattened parameter delta
// (local model after E epochs − the global model the client started from)
// plus the metadata the server legitimately observes.
struct ModelUpdate {
  int client_id = -1;
  std::size_t base_round = 0;     // global model version training started from
  std::size_t arrival_round = 0;  // server round when buffered
  std::size_t staleness = 0;      // arrival_round - base_round
  std::size_t num_samples = 0;    // aggregation weight (FedAvg-style)
  // Ref-counted immutable view: updates that arrive over the zero-copy
  // transport share one arena materialization instead of owning a vector
  // each; assigning a std::vector<float> still works (the view takes
  // ownership). Read through span conversion / operator[]; rebuild-and-
  // assign to "mutate".
  net::UpdateView delta;

  // Ground truth for evaluation metrics ONLY. Defenses must never read it;
  // the simulator uses it to compute detection precision/recall.
  bool is_malicious_truth = false;

  // Observability sidecar — never consulted by defenses or aggregation.
  // trace_id: cross-process trace identity (fl/trace_context.h); always
  // derivable, 0 only on updates restored from old checkpoints.
  std::uint64_t trace_id = 0;
  // Wire provenance (tcp transport only; empty/0 on inproc runs).
  std::string codec;
  std::uint64_t wire_bytes = 0;
  // steady_clock stamp when the update entered the server buffer; feeds the
  // run record's queue-wait latency. 0 = unknown (e.g. after a checkpoint
  // restore — wall latencies are not meaningful across process lifetimes).
  std::uint64_t enqueued_ns = 0;
};

}  // namespace fl
