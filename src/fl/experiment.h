// One-call experiment runner: dataset → partition → clients → attack →
// defense → simulation. Every CLI, study and example builds on this.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "data/synthetic.h"
#include "defense/defense.h"
#include "fl/distributed.h"
#include "fl/simulation.h"

namespace fl {

// How local training jobs are executed: in-process thread-pool waves, or
// client workers behind a loopback TCP transport (see docs/NETWORK.md).
// Both are bit-identical for a given config.
enum class TransportKind {
  kInproc,
  kTcp,
};

const char* TransportKindName(TransportKind kind);
TransportKind ParseTransportKind(const std::string& name);

// Defense selection for the experiment grid.
enum class DefenseKind {
  kFedBuff,           // NoDefense baseline
  kFlDetector,        // synchronous SOTA baseline
  kAsyncFilter,       // the paper's method (3-means, mid band aggregated)
  kAsyncFilter2Means, // Fig. 7 ablation
  kAsyncFilterDeferMid,   // mid-band policy ablation
  kAsyncFilterRejectMid,  // mid-band policy ablation
  kKrum,
  kMultiKrum,
  kTrimmedMean,
  kMedian,
  kZenoPlusPlus,
  kAflGuard,
  kNnm,
  kFlTrust,
  kBucketing,  // Bucketing(2) + coordinate median
};

const char* DefenseKindName(DefenseKind kind);
DefenseKind ParseDefenseKind(const std::string& name);
std::unique_ptr<defense::Defense> MakeDefense(DefenseKind kind);

struct ExperimentConfig {
  // Workload.
  data::Profile profile = data::Profile::kFashionMnist;
  std::size_t image_side = 12;  // profile-dependent default via MakeDefaultConfig
  std::size_t train_pool = 6000;   // centralized samples partitions draw from
  std::size_t test_samples = 1000;
  std::size_t partition_size = 100;
  double dirichlet_alpha = 0.1;
  bool iid = false;

  // Population.
  std::size_t num_clients = 100;
  std::size_t num_malicious = 20;

  // Attack / defense.
  attacks::AttackKind attack = attacks::AttackKind::kNone;
  double gd_scale = 1.5;
  double adaptive_score_quantile = 0.9;
  DefenseKind defense = DefenseKind::kAsyncFilter;
  // When set, overrides `defense`: lets callers plug a custom Defense
  // implementation (the "plug-and-play" API surface; see
  // examples/custom_defense.cpp and the score-normalisation ablation).
  std::function<std::unique_ptr<defense::Defense>()> defense_factory;

  // Async mechanics + local training.
  SimulationConfig sim;

  // Execution.
  std::size_t threads = 0;  // 0 → hardware concurrency
  TransportKind transport = TransportKind::kInproc;
  TransportOptions net;  // only consulted when transport == kTcp
  // Client fleet shape for distributed transports: real threads (default)
  // or a multiplexed virtual pool (fl/client_pool.h). Ignored inproc.
  ClientPoolSpec pool;

  // Update-compression codec (compress/codec.h registry name; empty →
  // none). Over tcp the codec is negotiated and applied on the wire; inproc
  // runs mirror the same lossy round trip, so the two transports stay
  // bit-identical under the same setting. Also compresses checkpoint model
  // pools for broadcast-safe codecs.
  std::string compress;

  // Resumable runs (inproc transport only; see fl/checkpoint.h). When
  // `checkpoint_path` is set the simulation writes a crash-safe checkpoint
  // every `checkpoint_every` completed rounds (0 → only on a stop request),
  // and `resume` restores from an existing checkpoint before running.
  // `stop_flag`, typically flipped by a SIGTERM handler, requests a final
  // checkpoint and a graceful early return.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  bool resume = false;
  const std::atomic<bool>* stop_flag = nullptr;
};

// Paper-matched defaults per dataset profile (model family, optimizer — see
// Table 1 — and our scaled partition sizes). `seed` feeds data generation,
// partitioning, initial model, and the simulator.
ExperimentConfig MakeDefaultConfig(data::Profile profile, std::uint64_t seed);

// The model family a profile trains (LeNet surrogate vs VGG surrogate).
nn::ModelSpec ModelForProfile(const data::Profile profile,
                              std::size_t image_side);

// Runs one experiment end to end. `observer`, when set, sees every
// aggregation buffer (Fig. 3/4 study).
SimulationResult RunExperiment(const ExperimentConfig& config,
                               Simulation::BufferObserver observer = nullptr);

}  // namespace fl
