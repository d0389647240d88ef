// Training-execution backends for the simulator.
//
// The discrete-event server loop in Simulation is transport-agnostic: it
// decides *which* client trains from *which* base model and *when*, and a
// TrainBackend decides *where* that training happens. The inproc backend
// runs jobs on a thread pool (the original single-process mode); the tcp
// backend in fl/distributed.cc round-trips each job through the net/ wire
// protocol. Both must be deterministic given (seed, client_id, job_index),
// which is what makes the two run modes bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "fl/client.h"
#include "net/update_view.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fl {

// One unit of local training: "client_id trains from `base`". job_index is
// the per-client job counter that keys the client's RNG stream.
struct TrainJob {
  int client_id = -1;
  std::uint64_t job_index = 0;
  std::size_t dispatch_round = 0;
  std::shared_ptr<const std::vector<float>> base;
};

class TrainBackend {
 public:
  virtual ~TrainBackend() = default;

  // Executes every job and returns the honest deltas by position, as
  // ref-counted views (the tcp backend materializes each wire payload once
  // into an arena; the inproc backend hands over the trained vectors with
  // no copy at all). An empty delta marks a lost job — the client
  // disconnected mid-round — and the simulator degrades gracefully
  // (aggregates from survivors).
  virtual std::vector<net::UpdateView> Train(
      const std::vector<TrainJob>& jobs) = 0;

  virtual std::size_t ClientCount() const = 0;
  virtual std::size_t NumSamples(int client_id) const = 0;

  // Liveness: evicted clients stop being scheduled. The inproc backend
  // never loses anyone.
  virtual bool IsAlive(int /*client_id*/) const { return true; }
  virtual std::size_t AliveCount() const { return ClientCount(); }

  // Wire provenance of the update a (client, job) produced — codec name and
  // encoded payload size. Backends with no wire return empty stats (the
  // inproc default); the tcp backend reports what actually crossed the
  // socket. Observability only: values land in the run record, never in
  // aggregation.
  struct WireStats {
    std::string codec;
    std::uint64_t wire_bytes = 0;
  };
  virtual WireStats UpdateWireStats(int /*client_id*/,
                                    std::uint64_t /*job_index*/) const {
    return {};
  }
};

// Thread-pool execution in the simulator's own process.
//
// When a compression codec is set, every job mirrors the tcp transport's
// lossy round trip — base params decode as a client would see them (for
// broadcast-safe codecs), the honest delta decodes as the server would
// receive it, with the same per-client error-feedback stream — so an inproc
// run stays bit-identical to a quiet-wire tcp run under the same
// --compress setting.
class InprocBackend : public TrainBackend {
 public:
  // `pool` must outlive the backend; `codec` (optional) is a process-lived
  // registry singleton.
  InprocBackend(std::vector<std::unique_ptr<Client>> clients,
                util::ThreadPool* pool, std::uint64_t seed,
                LocalTrainConfig local, const compress::Codec* codec = nullptr);

  std::vector<net::UpdateView> Train(
      const std::vector<TrainJob>& jobs) override;
  std::size_t ClientCount() const override { return clients_.size(); }
  std::size_t NumSamples(int client_id) const override;

 private:
  std::vector<std::unique_ptr<Client>> clients_;
  util::ThreadPool* pool_;
  util::RngFactory rngs_;
  LocalTrainConfig local_;
  const compress::Codec* codec_ = nullptr;  // null or identity → no-op
  std::vector<compress::FeedbackState> feedback_;  // per client, uplink only
};

}  // namespace fl
