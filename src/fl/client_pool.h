// Virtual-client engine: the scale half of the distributed run mode.
//
// The thread-per-client worker model is dead at 10k clients. A
// VirtualClientPool instead multiplexes N simulated clients over a small
// set of TCP connections (each announcing its id slice with one Hello
// frame) and runs their training jobs on a shared work queue drained by a
// fixed crew of worker threads — 100k–1M-client populations cost
// connections + workers, not threads.
//
//   pump thread (client-side net::Reactor)     engine workers
//   ───────────────────────────────────────    ─────────────────────────
//   reads sockets, demuxes ModelBroadcasts     pop job → optional latency
//   by their client-id field, submits          sleep → train fn → encode
//   jobs; flushes outboxes the workers         ClientUpdate into the
//   filled (woken via Reactor::Wakeup)         conn's outbox → Wakeup
//
// Updates are sent exactly once: fault injection is forbidden on virtual
// pools (enforced by the driver), TCP is reliable, and the server acks are
// read and dropped by the pump. Training draws from the same
// (client_id, job_index)-keyed RNG streams as the real workers, so a
// virtual run is bit-identical to a real-worker or inproc run of the same
// config — across any worker count, since the server assigns results by
// job position, not arrival order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/socket.h"
#include "net/update_view.h"

namespace fl {

// Per-client artificial latency: client i sleeps base_ms / (i+1)^zipf_s
// before training (client 0 is the slowest). base_ms == 0 → no sleeps.
// Purely a timing model — results are unaffected.
struct LatencyModelSpec {
  double base_ms = 0.0;
  double zipf_s = 0.0;
};

// How a distributed run executes its client fleet. Part of the public
// experiment surface (ExperimentConfig::pool / DistributedSpec::pool).
struct ClientPoolSpec {
  enum class Mode {
    // Default: one OS thread + one connection per client; the only mode
    // with fault injection.
    kReal,
    kVirtual,  // multiplexed virtual clients (this header)
  };
  Mode mode = Mode::kReal;
  // Virtual mode only: TCP connections carrying the fleet; 0 → one per 64
  // clients, clamped to [1, 256].
  int connections = 0;
  // Virtual mode only: training worker threads; 0 → hardware concurrency.
  int workers = 0;
  LatencyModelSpec latency;
};

// Resolved defaults for ClientPoolSpec's zero values.
int ResolvePoolConnections(int requested, int num_clients);
int ResolvePoolWorkers(int requested);

// One training job demuxed off a connection. `base` is a read-only view of
// the broadcast parameters that keeps its floats alive: the connection
// decodes each distinct model once, and every job that receives it shares
// that one buffer across the engine workers.
struct VirtualJob {
  int client_id = -1;
  std::uint64_t job_index = 0;
  std::uint64_t round = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  net::UpdateView base;
};

// Shared work queue + fixed worker crew. Tasks are opaque thunks so the
// engine is reusable outside the pool (benchmarks submit synthetic work).
class VirtualClientEngine {
 public:
  explicit VirtualClientEngine(int workers);
  ~VirtualClientEngine();  // drains nothing: stops after in-flight tasks

  VirtualClientEngine(const VirtualClientEngine&) = delete;
  VirtualClientEngine& operator=(const VirtualClientEngine&) = delete;

  void Submit(std::function<void()> task);
  // Blocks until the queue is empty and every popped task has returned.
  void Drain();
  int worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct VirtualPoolOptions {
  std::uint16_t port = 0;
  int num_clients = 0;  // clients get ids 0 .. num_clients-1
  int connections = 0;  // 0 → ResolvePoolConnections default
  int workers = 0;      // 0 → ResolvePoolWorkers default
  int io_timeout_ms = 10000;
  bool trace_context = false;  // accept trace context when offered
  net::RetryConfig retry;
  std::uint64_t seed = 0;
  LatencyModelSpec latency;
};

class VirtualClientPool {
 public:
  // Produces the flat delta for one job. Called concurrently from engine
  // workers, at most once per (client_id, job_index), and never
  // concurrently for the same client: the pool serializes a client's jobs
  // in arrival order (FedBuff may dispatch several to one client; a real
  // worker would drain them sequentially off its socket).
  using TrainFn = std::function<std::vector<float>(const VirtualJob&)>;
  using NumSamplesFn = std::function<std::uint64_t(int client_id)>;

  VirtualClientPool(VirtualPoolOptions options, TrainFn train,
                    NumSamplesFn num_samples);
  ~VirtualClientPool();  // implies Stop()

  VirtualClientPool(const VirtualClientPool&) = delete;
  VirtualClientPool& operator=(const VirtualClientPool&) = delete;

  // Connects every pool connection (Hello sent; the pump answers the
  // server's Offer) and starts the pump + engine. Throws util::CheckError
  // when a connection cannot be established.
  void Start();

  // Joins the pump and drains the engine. Safe to call twice; called by
  // the destructor. Returns once no pool thread can touch a socket again.
  void Stop();

  int connection_count() const;
  int worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fl
