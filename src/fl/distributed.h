// Distributed run mode: the same FedBuff + Defense server loop, but with
// every local-training job round-tripped over a real TCP connection.
//
// Topology (all loopback, one process):
//
//   driver thread                         client fleet (ClientPoolSpec)
//   ─────────────                         ──────────────────────────────
//   net::Server (epoll reactor) ◀─ TCP ─▶ kReal: one thread + connection
//   Simulation + TcpBackend               per client (blocking I/O)
//   update slots → defense                kVirtual: VirtualClientPool —
//                                         few connections, worker crew
//
// Training jobs carry the same (client_id, job_index)-keyed RNG streams as
// the in-process simulator, so with a quiet wire a tcp run is
// bit-identical to an inproc run of the same config — in either fleet
// mode. The wire is allowed to be hostile in kReal mode: a
// net::FaultInjector on each client's uplink can drop, delay, duplicate,
// or truncate frames and kill connections outright; the server evicts the
// dead and keeps aggregating from the survivors. Virtual pools forbid
// fault injection (updates are sent exactly once).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "defense/defense.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/simulation.h"
#include "net/fault_injector.h"
#include "net/socket.h"

namespace fl {

struct TransportOptions {
  std::uint16_t port = 0;      // 0 → ephemeral loopback port
  int io_timeout_ms = 10000;   // per-connection stalled-I/O guard
  int job_timeout_ms = 120000; // evict a client that never answers a job
  int ack_timeout_ms = 250;    // client resend timer for unacked updates
  int handshake_timeout_ms = 10000;
  net::RetryConfig retry;      // connect retry + update resend backoff
  net::FaultConfig faults;     // wire fault injection (off by default)
  // Update-compression codec name (compress/codec.h). Empty → the Offer
  // lists no codec and every client uses identity. Non-empty (including
  // "identity") makes the server offer it; clients pick it during the
  // handshake, encode uplink deltas with it, and broadcast-safe codecs also
  // compress the downlink. Delta-only codecs (int8, topk-delta) fall back
  // to identity for broadcasts.
  std::string codec;
  // Trace-context propagation: the server offers it during the handshake
  // and, for clients that accept, stamps each job's broadcast with a
  // deterministic trace id (fl/trace_context.h) that the client echoes on
  // its update. Ids are pure functions of (seed, client, job), so enabling
  // this never perturbs results. Off → no AFTC blocks on the wire.
  bool trace_context = false;
};

// Everything a distributed run needs, in one bag — the mirror of
// ExperimentSpec for the over-the-wire mode. `pool` picks how the client
// fleet executes (ClientPoolSpec in fl/client_pool.h).
struct DistributedSpec {
  SimulationConfig sim;
  nn::ModelSpec model;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int> malicious_ids;
  std::unique_ptr<attacks::Attack> attack;
  std::unique_ptr<defense::Defense> defense;
  const data::Dataset* test_set = nullptr;
  data::Dataset server_root;
  TransportOptions transport;
  ClientPoolSpec pool;
};

class DistributedDriver {
 public:
  explicit DistributedDriver(DistributedSpec spec);

  ~DistributedDriver();

  DistributedDriver(const DistributedDriver&) = delete;
  DistributedDriver& operator=(const DistributedDriver&) = delete;

  // Brings the fleet up, runs the full simulation over the wire, shuts the
  // fleet down. Throws util::CheckError when the fleet cannot start (e.g.
  // no client completes the handshake) or when the spec is inconsistent
  // (fault injection on a virtual pool).
  SimulationResult Run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fl
