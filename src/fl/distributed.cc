#include "fl/distributed.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "compress/codec.h"
#include "fl/trace_context.h"
#include "net/server.h"
#include "net/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fl {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// How long an idle worker waits for its next job before assuming the server
// died without saying Shutdown. Slow clients legitimately idle across many
// aggregation rounds, so this is generous.
constexpr int kWorkerIdleTimeoutMs = 10 * 60 * 1000;

// ---------------------------------------------------------------------
// Client worker: one thread per client, blocking I/O over loopback TCP.

struct WorkerContext {
  int client_id = -1;
  Client* client = nullptr;
  std::uint64_t seed = 0;
  LocalTrainConfig local;
  std::uint16_t port = 0;
  TransportOptions options;
};

// Sends the pre-encoded update frame through the fault injector and waits
// for the server's Ack, resending on the retry schedule. Resends reuse the
// same bytes, so retries stay byte-identical. Returns false when the worker
// must die (connection intentionally killed, truncated, or the server never
// acked). Broadcast frames that arrive while waiting are parked in `inbox`.
bool SendUpdateReliably(const WorkerContext& ctx, net::Connection& conn,
                        net::FaultInjector& injector,
                        std::span<const std::uint8_t> update_bytes,
                        std::uint64_t job_index,
                        std::deque<net::Frame>& inbox,
                        std::uint64_t& data_frames_sent,
                        net::BackoffSchedule& backoff, bool& saw_shutdown) {
  obs::Counter& resends =
      obs::DefaultRegistry().GetCounter("net.update_resends");
  obs::Counter& faults = obs::DefaultRegistry().GetCounter(
      "net.faults_injected", {{"kind", "any"}});
  const bool inject = ctx.options.faults.Any();
  // Each job is a fresh retry cycle; the schedule's RNG keeps advancing
  // across cycles so repeated cycles stay decorrelated.
  backoff.Reset();

  for (int attempt = 0; attempt < ctx.options.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      resends.Increment();
      SleepMs(backoff.NextDelayMs());
    }
    // Doomed connections die after their allotted number of data frames.
    if (injector.doomed() && data_frames_sent >= injector.kill_after_frame()) {
      AF_LOG(kInfo) << "net: fault injector killing client "
                    << ctx.client_id << "'s connection";
      conn.Close();
      return false;
    }
    auto action = net::FaultInjector::Action::kDeliver;
    if (inject) {
      action = injector.NextAction();
      if (action != net::FaultInjector::Action::kDeliver) {
        faults.Increment();
      }
    }
    ++data_frames_sent;
    switch (action) {
      case net::FaultInjector::Action::kDrop:
        break;  // never hits the wire; the ack timeout triggers a resend
      case net::FaultInjector::Action::kTruncate:
        // A frame prefix then a hard close: the server sees a stream that
        // dies mid-frame and evicts us.
        conn.SendBytes(update_bytes.first(update_bytes.size() / 2),
                       ctx.options.io_timeout_ms);
        conn.Close();
        return false;
      case net::FaultInjector::Action::kDelay:
        SleepMs(injector.delay_ms());
        conn.SendBytes(update_bytes, ctx.options.io_timeout_ms);
        break;
      case net::FaultInjector::Action::kDuplicate:
        conn.SendBytes(update_bytes, ctx.options.io_timeout_ms);
        conn.SendBytes(update_bytes, ctx.options.io_timeout_ms);
        break;
      case net::FaultInjector::Action::kDeliver:
        conn.SendBytes(update_bytes, ctx.options.io_timeout_ms);
        break;
    }

    // Await the receipt; anything else that arrives is parked.
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(ctx.options.ack_timeout_ms);
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) {
        break;  // resend
      }
      net::Frame in;
      const auto status = conn.TryRecvFrame(&in, static_cast<int>(left));
      if (status == net::Connection::RecvStatus::kTimeout) {
        break;  // resend
      }
      if (status == net::Connection::RecvStatus::kEof) {
        return false;  // server closed on us
      }
      if (in.type == net::MessageType::kAck) {
        if (net::DecodeAck(in).value == job_index) {
          return true;
        }
        continue;  // stale receipt for an earlier job
      }
      if (in.type == net::MessageType::kShutdown) {
        saw_shutdown = true;
        return true;  // run is over; the update no longer matters
      }
      inbox.push_back(std::move(in));
    }
  }
  AF_LOG(kWarn) << "net: client " << ctx.client_id << " gave up on job "
                << job_index << " after "
                << ctx.options.retry.max_attempts << " attempts";
  conn.Close();
  return false;
}

void RunWorker(WorkerContext ctx) {
  util::SetThreadLogPrefix("client " + std::to_string(ctx.client_id));
  try {
    net::FaultInjector injector(ctx.options.faults, ctx.client_id);
    // Decorrelated-jitter resend schedule, seeded per client so a fleet
    // that stalls together fans back out instead of resending in lockstep.
    net::BackoffSchedule backoff(
        ctx.options.retry,
        ctx.seed ^ (0xc0ffee123ull +
                    static_cast<std::uint64_t>(ctx.client_id)));

    net::Connection conn = net::ConnectWithRetry(
        ctx.port, ctx.options.retry,
        ctx.seed ^ static_cast<std::uint64_t>(ctx.client_id));
    const net::SelectMsg select = net::ClientHandshake(
        conn, {{ctx.client_id}}, ctx.options.trace_context,
        ctx.options.handshake_timeout_ms);
    const compress::Codec* codec = net::SelectedCodec(select.codec);

    // Training jobs draw from the same streams as the in-process backend,
    // which is what makes tcp and inproc runs bit-identical.
    util::RngFactory rngs(ctx.seed);
    std::deque<net::Frame> inbox;
    std::uint64_t data_frames_sent = 0;
    bool saw_shutdown = false;
    compress::FeedbackState feedback;
    std::vector<std::uint8_t> update_bytes;  // reused per-job encode scratch

    while (!saw_shutdown) {
      net::Frame frame;
      if (!inbox.empty()) {
        frame = std::move(inbox.front());
        inbox.pop_front();
      } else if (!conn.RecvFrame(&frame, kWorkerIdleTimeoutMs)) {
        break;  // server closed the connection
      }
      if (frame.type == net::MessageType::kShutdown) {
        break;
      }
      if (frame.type != net::MessageType::kModelBroadcast) {
        continue;  // stray ack from a resolved resend race
      }
      const net::ModelBroadcastMsg job = net::DecodeModelBroadcast(frame);
      AF_CHECK_EQ(job.client_id, ctx.client_id)
          << "broadcast addressed to another client";
      const std::uint64_t stream_index =
          (static_cast<std::uint64_t>(ctx.client_id) << 32) | job.job_index;
      auto rng = rngs.Stream("client-train", stream_index);
      net::ClientUpdateMsg update;
      update.client_id = ctx.client_id;
      update.job_index = job.job_index;
      update.base_round = job.round;
      update.num_samples = ctx.client->num_samples();
      // Echo the broadcast's trace id; the train span below and the
      // server's defense span share it, which is the join key
      // tools/merge_traces.py stitches timelines on.
      update.trace_id = job.trace_id;
      update.parent_span_id = TrainSpanId(job.trace_id);
      {
        obs::ScopedSpan span(
            "net.worker.train",
            job.trace_id == 0
                ? obs::TraceContext{}
                : obs::TraceContext{job.trace_id, TrainSpanId(job.trace_id),
                                    job.parent_span_id});
        update.delta = ctx.client->TrainOnce(job.params, ctx.local, rng);
      }
      // Encode exactly once per job, straight into the reused scratch
      // buffer — resends reuse the same bytes, so retries stay
      // byte-identical and the feedback residual advances once.
      update_bytes.clear();
      net::AppendClientUpdateFrame(update_bytes, update, codec, &feedback);
      if (!SendUpdateReliably(ctx, conn, injector, update_bytes,
                              job.job_index, inbox, data_frames_sent,
                              backoff, saw_shutdown)) {
        return;
      }
    }
  } catch (const std::exception& e) {
    AF_LOG(kWarn) << "net: worker for client " << ctx.client_id
                  << " terminated: " << e.what();
  }
}

// ---------------------------------------------------------------------
// TcpBackend: executes the simulator's training batches over the wire.

class TcpBackend : public TrainBackend {
 public:
  TcpBackend(net::Server* server, std::vector<std::size_t> num_samples,
             const TransportOptions& options, std::uint64_t seed)
      : server_(server),
        num_samples_(std::move(num_samples)),
        alive_(num_samples_.size(), true),
        alive_count_(num_samples_.size()),
        options_(options),
        seed_(seed),
        rtt_us_(obs::DefaultRegistry().GetHistogram("net.job_rtt_us")) {
    server_->SetUpdateHandler(
        [this](int client_id, net::ClientUpdateMsg msg) {
          OnUpdate(client_id, std::move(msg));
        });
    server_->SetDisconnectHandler(
        [this](int client_id) { OnDisconnect(client_id); });
  }

  // The server outlives the backend (the driver polls it again during
  // shutdown); the handlers must not.
  ~TcpBackend() override {
    server_->SetUpdateHandler(nullptr);
    server_->SetDisconnectHandler(nullptr);
  }

  std::vector<net::UpdateView> Train(
      const std::vector<TrainJob>& jobs) override {
    AF_TRACE_SPAN("net.backend.train");
    std::vector<net::UpdateView> deltas(jobs.size());
    current_deltas_ = &deltas;
    outstanding_.clear();
    // Jobs dispatched in the same round share one base model, so each
    // (base, downlink codec) pair is encoded once per call and its bytes
    // framed per job straight into the connection's outbox.
    std::map<std::pair<const void*, const compress::Codec*>,
             std::vector<std::uint8_t>>
        blocks;
    // Send in dispatch-round order so each connection sees one run of
    // frames per base, which its receiver decodes once (a batch mixes
    // several rounds' bases in arrival order). The sort is stable and a
    // client's later job never has an earlier round, so every client still
    // gets its jobs in order; results land by position either way.
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return jobs[a].dispatch_round < jobs[b].dispatch_round;
                     });

    for (const std::size_t j : order) {
      const TrainJob& job = jobs[j];
      if (!alive_[static_cast<std::size_t>(job.client_id)]) {
        continue;  // lost between scheduling and training
      }
      net::ModelBroadcastMsg msg;
      msg.round = job.dispatch_round;
      msg.job_index = job.job_index;
      msg.client_id = job.client_id;
      if (options_.trace_context &&
          server_->ClientTraceContext(job.client_id)) {
        msg.trace_id = TraceIdFor(seed_, job.client_id, job.job_index);
        msg.parent_span_id = DispatchSpanId(msg.trace_id);
      }
      // Downlink codec: the client's negotiated pick when it can carry full
      // params; identity for delta-only codecs.
      const compress::Codec* codec = server_->ClientCodec(job.client_id);
      if (codec != nullptr && !codec->broadcast_safe()) {
        codec = nullptr;
      }
      auto [block, fresh] = blocks.try_emplace({job.base.get(), codec});
      if (fresh) {
        block->second = net::EncodeParamsBlock(*job.base, codec);
      }
      if (!server_->SendAppended(
              job.client_id, [&](std::vector<std::uint8_t>& out) {
                net::AppendModelBroadcastFrame(out, msg, block->second);
              })) {
        MarkDead(job.client_id);
        continue;
      }
      outstanding_[{job.client_id, job.job_index}] = {j, NowNs()};
    }

    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.job_timeout_ms);
    while (!outstanding_.empty() && Clock::now() < deadline) {
      server_->PollOnce(20);
    }
    // Anyone still silent blew the job deadline: cut them loose.
    std::vector<int> laggards;
    for (const auto& [key, value] : outstanding_) {
      laggards.push_back(key.first);
    }
    for (int client_id : laggards) {
      server_->Evict(client_id, "job deadline exceeded");
    }
    // Push out any still-queued acks so workers stop resending while the
    // driver is busy aggregating/evaluating.
    server_->Flush(options_.io_timeout_ms);
    current_deltas_ = nullptr;
    return deltas;
  }

  std::size_t ClientCount() const override { return num_samples_.size(); }
  std::size_t NumSamples(int client_id) const override {
    return num_samples_[static_cast<std::size_t>(client_id)];
  }
  bool IsAlive(int client_id) const override {
    return alive_[static_cast<std::size_t>(client_id)];
  }
  std::size_t AliveCount() const override { return alive_count_; }

  WireStats UpdateWireStats(int client_id,
                            std::uint64_t job_index) const override {
    auto it = wire_stats_.find({client_id, job_index});
    return it == wire_stats_.end() ? WireStats{} : it->second;
  }

 private:
  struct Pending {
    std::size_t position = 0;
    std::uint64_t sent_ns = 0;
  };

  void MarkDead(int client_id) {
    const auto idx = static_cast<std::size_t>(client_id);
    if (alive_[idx]) {
      alive_[idx] = false;
      --alive_count_;
    }
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      it = it->first.first == client_id ? outstanding_.erase(it)
                                        : std::next(it);
    }
  }

  void OnUpdate(int client_id, net::ClientUpdateMsg msg) {
    auto it = outstanding_.find({client_id, msg.job_index});
    if (it == outstanding_.end()) {
      return;  // late copy of an already-settled job
    }
    AF_CHECK_EQ(msg.num_samples, NumSamples(client_id))
        << "client " << client_id << " reported inconsistent sample count";
    rtt_us_.Record(static_cast<double>(NowNs() - it->second.sent_ns) / 1e3);
    AF_CHECK(current_deltas_ != nullptr);
    const compress::Codec* codec = server_->ClientCodec(client_id);
    wire_stats_[{client_id, msg.job_index}] = {
        codec != nullptr ? codec->name() : "identity", msg.wire_bytes};
    // Land the update in its job's slot. The delta either owns its floats
    // already (lossy decode materialized them) or aliases the connection's
    // read buffer, which dies when this callback returns — that one gets
    // the single counted uplink copy, into the arena.
    net::UpdateView& slot = (*current_deltas_)[it->second.position];
    if (msg.delta.has_keepalive()) {
      slot = std::move(msg.delta);
    } else {
      obs::DefaultRegistry()
          .GetCounter("transport.bytes_copied")
          .Increment(static_cast<std::uint64_t>(msg.delta.size()) *
                     sizeof(float));
      slot = net::UpdateView::CopyToArena(arena_, msg.delta);
    }
    outstanding_.erase(it);
  }

  void OnDisconnect(int client_id) { MarkDead(client_id); }

  net::Server* server_;
  std::vector<std::size_t> num_samples_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  TransportOptions options_;
  std::uint64_t seed_ = 0;
  obs::Histogram& rtt_us_;
  std::map<std::pair<int, std::uint64_t>, Pending> outstanding_;
  std::map<std::pair<int, std::uint64_t>, WireStats> wire_stats_;
  // Uplink deltas materialize here; blocks free themselves once the last
  // view into them dies (end of the aggregation round, typically).
  util::Arena arena_;
  std::vector<net::UpdateView>* current_deltas_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------
// Driver

struct DistributedDriver::Impl {
  DistributedSpec spec;

  std::unique_ptr<net::Server> server;
  std::vector<std::thread> workers;        // kReal fleet
  std::unique_ptr<VirtualClientPool> pool; // kVirtual fleet

  void ShutdownFleet() {
    if (server != nullptr) {
      server->BroadcastShutdown();
      server->Flush(1000);
    }
    for (auto& worker : workers) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    workers.clear();
    if (pool != nullptr) {
      pool->Stop();
      pool.reset();
    }
    // Fleet sockets are closed now; drop the server so a second call (the
    // destructor's) cannot re-broadcast shutdown into dead connections.
    server.reset();
  }
};

DistributedDriver::DistributedDriver(DistributedSpec spec)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = std::move(spec);
  AF_CHECK(!impl_->spec.clients.empty());
}

DistributedDriver::~DistributedDriver() {
  try {
    impl_->ShutdownFleet();
  } catch (...) {
    // Destructor must not throw; workers exit on their idle timeout.
  }
}

SimulationResult DistributedDriver::Run() {
  AF_TRACE_SPAN("net.driver.run");
  Impl& impl = *impl_;
  DistributedSpec& spec = impl.spec;
  const bool virtual_fleet =
      spec.pool.mode == ClientPoolSpec::Mode::kVirtual;
  if (virtual_fleet) {
    // Virtual clients send each update exactly once (no resend machinery),
    // so fault injection would silently lose updates instead of testing
    // recovery — force the real fleet for fault experiments.
    AF_CHECK(!spec.transport.faults.Any())
        << "fault injection requires the real (thread-per-client) fleet";
  }

  // Resolve AF_LOG_LEVEL before any worker thread exists so every thread
  // sees the same level from its first line, and tag the driver's own lines.
  util::GetLogLevel();
  util::SetThreadLogPrefix("server");

  net::ServerOptions server_options;
  server_options.port = spec.transport.port;
  server_options.io_timeout_ms = spec.transport.io_timeout_ms;
  server_options.offer_trace_context = spec.transport.trace_context;
  server_options.max_client_id = static_cast<int>(spec.clients.size()) - 1;
  if (!spec.transport.codec.empty()) {
    // Validate the name up front (throws with the known-codec list) and
    // advertise it; clients pick it during their handshake.
    compress::Get(spec.transport.codec);
    server_options.advertised_codecs = {spec.transport.codec};
  }
  impl.server = std::make_unique<net::Server>(server_options);
  AF_LOG(kInfo) << "net: server listening on 127.0.0.1:"
                << impl.server->port() << " (epoll)";

  std::vector<std::size_t> num_samples;
  num_samples.reserve(spec.clients.size());
  for (const auto& client : spec.clients) {
    num_samples.push_back(client->num_samples());
  }

  if (virtual_fleet) {
    // The pool trains with the same (client_id, job_index)-keyed streams
    // the thread-per-client workers use; Stream() is const, so the shared
    // factory is safe across the engine's worker crew.
    std::vector<Client*> fleet;
    fleet.reserve(spec.clients.size());
    for (const auto& client : spec.clients) {
      fleet.push_back(client.get());
    }
    auto rngs = std::make_shared<util::RngFactory>(spec.sim.seed);
    const LocalTrainConfig local = spec.sim.local;

    VirtualPoolOptions pool_options;
    pool_options.port = impl.server->port();
    pool_options.num_clients = static_cast<int>(spec.clients.size());
    pool_options.connections = spec.pool.connections;
    pool_options.workers = spec.pool.workers;
    pool_options.io_timeout_ms = spec.transport.io_timeout_ms;
    pool_options.trace_context = spec.transport.trace_context;
    pool_options.retry = spec.transport.retry;
    pool_options.seed = spec.sim.seed;
    pool_options.latency = spec.pool.latency;
    impl.pool = std::make_unique<VirtualClientPool>(
        pool_options,
        [fleet, rngs, local](const VirtualJob& job) {
          const std::uint64_t stream_index =
              (static_cast<std::uint64_t>(job.client_id) << 32) |
              job.job_index;
          auto rng = rngs->Stream("client-train", stream_index);
          return fleet[static_cast<std::size_t>(job.client_id)]->TrainOnce(
              std::span<const float>(job.base), local, rng);
        },
        [fleet](int client_id) {
          return static_cast<std::uint64_t>(
              fleet[static_cast<std::size_t>(client_id)]->num_samples());
        });
    impl.pool->Start();
    AF_LOG(kInfo) << "net: virtual pool up — " << spec.clients.size()
                  << " clients over " << impl.pool->connection_count()
                  << " connection(s), " << impl.pool->worker_count()
                  << " worker(s)";
  } else {
    for (std::size_t c = 0; c < spec.clients.size(); ++c) {
      WorkerContext ctx;
      ctx.client_id = static_cast<int>(c);
      ctx.client = spec.clients[c].get();
      ctx.seed = spec.sim.seed;
      ctx.local = spec.sim.local;
      ctx.port = impl.server->port();
      ctx.options = spec.transport;
      impl.workers.emplace_back(RunWorker, std::move(ctx));
    }
  }

  SimulationResult result;
  try {
    AF_CHECK(impl.server->WaitForClients(
        spec.clients.size(), spec.transport.handshake_timeout_ms))
        << "only " << impl.server->ConnectedCount() << " of "
        << spec.clients.size() << " clients completed the handshake";

    TcpBackend backend(impl.server.get(), std::move(num_samples),
                       spec.transport, spec.sim.seed);
    ExperimentSpec sim_spec;
    sim_spec.sim = spec.sim;
    sim_spec.model = spec.model;
    sim_spec.backend = &backend;
    sim_spec.malicious_ids = spec.malicious_ids;
    sim_spec.attack = std::move(spec.attack);
    sim_spec.defense = std::move(spec.defense);
    sim_spec.test_set = spec.test_set;
    sim_spec.server_root = std::move(spec.server_root);
    Simulation simulation(std::move(sim_spec));
    result = simulation.Run();
  } catch (...) {
    impl.ShutdownFleet();
    util::SetThreadLogPrefix("");
    throw;
  }
  impl.ShutdownFleet();
  util::SetThreadLogPrefix("");
  return result;
}

}  // namespace fl
