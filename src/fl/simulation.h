// Discrete-event asynchronous federated learning server loop.
//
// Plays the role PLATO plays in the paper: clients train continuously, the
// server aggregates FedBuff-style whenever the buffer reaches the minimum
// aggregation bound, staleness arises naturally from Zipf-distributed client
// latencies, and the attached Defense decides what enters each aggregate.
//
// Timing is independent of training results, so arrivals between two
// aggregations are popped first and their local training runs as one batch
// through a TrainBackend — the thread-pool inproc backend or the TCP
// distributed backend (fl/distributed.h). Both are bit-deterministic
// because every job draws from an RNG stream derived from
// (seed, client, job index).
//
// Clients can disappear mid-round (a TCP client dropping its connection):
// the backend reports their jobs as lost, the server logs the eviction,
// stops scheduling them, and keeps aggregating from the survivors.
//
// Runs are resumable: the complete mid-run state (event queue, RNG stream
// positions, deferred buffer, defense state, round records) serializes
// through SaveState/LoadState, and fl/checkpoint.h wraps that in a
// crash-safe on-disk format. A run checkpointed, killed, and restored
// produces a bit-identical SimulationResult to one that ran straight
// through.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <queue>

#include "attacks/attack.h"
#include "attacks/coordinator.h"
#include "defense/defense.h"
#include "fl/backend.h"
#include "fl/client.h"
#include "fl/metrics.h"
#include "fl/types.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace fl {

struct SimulationConfig {
  std::size_t buffer_goal = 40;     // minimum aggregation bound Ω
  std::size_t staleness_limit = 20; // server rejects staler arrivals
  double zipf_s = 1.2;              // client speed heterogeneity
  double base_latency = 1.0;        // fastest client's job duration
  // FedAsync-style server mixing rate: w ← w + server_lr · aggregate.
  double server_learning_rate = 1.0;
  // Probability that a client starts its next job immediately after
  // reporting; otherwise it rests for one latency period first (models
  // devices that drop out of sampling rounds).
  double participation = 1.0;
  std::size_t rounds = 40;
  LocalTrainConfig local;
  std::size_t eval_every = 1;
  std::uint64_t seed = 1;
  std::size_t attacker_window = 20; // colluder knowledge pool size
  // Aggregation-weight staleness discount (FedBuff's 1/sqrt(1+tau) default).
  defense::StalenessWeightingConfig staleness_weighting;
  // Root-dataset size for clean-dataset defenses (Zeno++/AFLGuard); the
  // simulator only provisions it when the defense requires a reference.
  std::size_t server_root_samples = 128;
};

// Everything a Simulation is built from, by name. Exactly one execution
// form must be set:
//   * `backend` — a caller-owned TrainBackend that outlives the simulation
//     (the tcp transport uses this), with `clients` empty; or
//   * `clients` + `pool` — the simulation owns an InprocBackend over the
//     clients, executed on the caller-owned thread pool; the defense
//     borrows the same pool while it runs (FilterContext::pool). Run()'s
//     thread trains beside the pool, and while round r+1 trains it also
//     measures round r's test accuracy (TrainBackend::TrainAlongside). A
//     caller backend that does not override TrainAlongside evaluates just
//     before Train, serially.
// `malicious_ids` route their reports through `attack`; `defense` decides
// aggregation; `server_root` may be empty unless the defense declares
// RequiresServerReference().
struct ExperimentSpec {
  SimulationConfig sim;
  nn::ModelSpec model;

  // Execution (pick one form).
  TrainBackend* backend = nullptr;
  std::vector<std::unique_ptr<Client>> clients;
  util::ThreadPool* pool = nullptr;

  // Adversary.
  std::vector<int> malicious_ids;
  std::unique_ptr<attacks::Attack> attack;

  // Server policy.
  std::unique_ptr<defense::Defense> defense;

  // Datasets: held-out evaluation set (required, caller-owned) and the
  // server's simulated clean root (owned by the simulation; only needed for
  // clean-dataset defenses).
  const data::Dataset* test_set = nullptr;
  data::Dataset server_root;

  // Update-compression codec name (compress/codec.h); empty or "identity"
  // → none. Only meaningful with the clients+pool form: the owned
  // InprocBackend mirrors the wire's lossy round trip, and checkpoint model
  // pools are written through the codec (broadcast-safe codecs only). The
  // tcp transport compresses on the wire itself, so DistributedDriver
  // leaves this empty.
  std::string codec;
};

// Crash-safe checkpointing during Run() (see fl/checkpoint.h for the
// on-disk format). With an empty path nothing is ever written; `stop` lets
// a signal handler request a final checkpoint + graceful early return.
struct CheckpointPolicy {
  std::string path;       // checkpoint file; empty → checkpointing disabled
  std::size_t every = 0;  // write every N completed rounds (0 → only on stop)
  const std::atomic<bool>* stop = nullptr;  // graceful-stop request flag
};

class Simulation {
 public:
  // The one constructor: named fields instead of positional soup. (The
  // deprecated positional forms completed their one-release grace period
  // and are gone.)
  explicit Simulation(ExperimentSpec spec);

  // Optional observer invoked with the full buffer just before each
  // aggregation (used by the Fig. 3/4 t-SNE study).
  using BufferObserver =
      std::function<void(std::size_t round, const std::vector<ModelUpdate>&)>;
  void SetBufferObserver(BufferObserver observer) {
    observer_ = std::move(observer);
  }

  void SetCheckpointPolicy(CheckpointPolicy policy) {
    checkpoint_ = std::move(policy);
  }

  SimulationResult Run();

  // Checkpoint payload: serializes/restores the complete mid-run state at a
  // round boundary (global model, event queue, per-client job counters, RNG
  // stream positions, deferred buffer, attacker window, defense state,
  // per-round records). LoadState must run on a Simulation built from the
  // same ExperimentSpec (seed, population, model, defense) — the framing in
  // fl/checkpoint.h verifies that before any state is touched.
  void SaveState(util::serial::Writer& w) const;
  void LoadState(util::serial::Reader& r);

  // Rounds completed so far (== number of aggregations recorded).
  std::size_t current_round() const { return round_; }

  const defense::Defense& defense() const { return *defense_; }

 private:
  struct Job {
    double completion_time = 0.0;
    int client_id = -1;
    std::size_t dispatch_round = 0;
    std::uint64_t job_index = 0;  // per-client counter, keys the RNG stream
    std::shared_ptr<const std::vector<float>> base;
  };
  struct JobLater {
    bool operator()(const Job& a, const Job& b) const {
      if (a.completion_time != b.completion_time) {
        return a.completion_time > b.completion_time;
      }
      return a.client_id > b.client_id;  // deterministic tie-break
    }
  };

  void Init();
  void Dispatch(int client_id, double now);
  bool IsMalicious(int client_id) const;
  // Smaller of the configured aggregation bound and the surviving
  // population, so the loop still terminates after evictions.
  std::size_t EffectiveGoal() const;
  std::vector<float> ServerReferenceUpdate();
  // Writes a crash-safe checkpoint to checkpoint_.path.
  void WriteCheckpoint() const;

  SimulationConfig config_;
  nn::ModelSpec spec_;  // copied: the simulation outlives caller temporaries
  std::unique_ptr<TrainBackend> owned_backend_;  // inproc convenience form
  TrainBackend* backend_ = nullptr;
  // The clients form's training pool, lent to the defense between Train
  // calls; null in the backend form.
  util::ThreadPool* pool_ = nullptr;
  // Codec for checkpoint model-pool blocks (registry singleton; null →
  // raw AFPM). LoadState sniffs, so it accepts either form regardless.
  const compress::Codec* checkpoint_codec_ = nullptr;
  std::vector<bool> malicious_;
  std::unique_ptr<attacks::Attack> attack_;
  attacks::Coordinator coordinator_;
  std::unique_ptr<defense::Defense> defense_;
  const data::Dataset* test_set_;
  data::Dataset server_root_;
  std::unique_ptr<Client> server_trainer_;  // for clean-dataset defenses

  util::RngFactory rngs_;
  std::mt19937_64 participation_rng_;
  std::mt19937_64 server_rng_;  // defense RNG; advances across rounds
  std::vector<double> latencies_;
  std::vector<std::uint64_t> job_counters_;
  std::priority_queue<Job, std::vector<Job>, JobLater> events_;
  std::shared_ptr<const std::vector<float>> global_;
  std::size_t round_ = 0;
  double now_ = 0.0;                    // simulated clock at last arrival
  std::vector<ModelUpdate> buffer_;     // deferred leftovers between rounds
  std::size_t dropped_this_round_ = 0;
  SimulationResult partial_;            // round records accumulated so far
  bool resumed_ = false;                // LoadState ran; skip initial kickoff
  CheckpointPolicy checkpoint_;
  BufferObserver observer_;
};

// Builds a simulation from a spec. The factory form keeps call sites
// allocation-agnostic (the engine is move-hostile: it hands out pointers to
// internal state through the backend).
std::unique_ptr<Simulation> BuildSimulation(ExperimentSpec spec);

}  // namespace fl
