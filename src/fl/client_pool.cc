#include "fl/client_pool.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "compress/codec.h"
#include "fl/trace_context.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace fl {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

int ResolvePoolConnections(int requested, int num_clients) {
  if (requested > 0) {
    return std::min(requested, std::max(num_clients, 1));
  }
  const int by_fleet = (std::max(num_clients, 1) + 63) / 64;
  return std::clamp(by_fleet, 1, 256);
}

int ResolvePoolWorkers(int requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : static_cast<int>(cores);
}

// ---------------------------------------------------------------------
// VirtualClientEngine

struct VirtualClientEngine::Impl {
  std::mutex mu;
  std::condition_variable task_ready;
  std::condition_variable idle;
  std::deque<std::function<void()>> queue;
  int in_flight = 0;  // popped but not yet finished
  bool stop = false;
  std::vector<std::thread> workers;
  obs::Gauge& queue_depth =
      obs::DefaultRegistry().GetGauge("pool.queue_depth");

  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        task_ready.wait(lock, [&] { return stop || !queue.empty(); });
        if (queue.empty()) {
          return;  // stop requested and nothing left to pop
        }
        task = std::move(queue.front());
        queue.pop_front();
        ++in_flight;
        queue_depth.Set(static_cast<double>(queue.size()));
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
        if (queue.empty() && in_flight == 0) {
          idle.notify_all();
        }
      }
    }
  }
};

VirtualClientEngine::VirtualClientEngine(int workers)
    : impl_(std::make_unique<Impl>()) {
  const int count = ResolvePoolWorkers(workers);
  obs::DefaultRegistry().GetGauge("pool.workers").Set(count);
  impl_->workers.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

VirtualClientEngine::~VirtualClientEngine() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->task_ready.notify_all();
  for (std::thread& worker : impl_->workers) {
    worker.join();
  }
}

void VirtualClientEngine::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
    impl_->queue_depth.Set(static_cast<double>(impl_->queue.size()));
  }
  impl_->task_ready.notify_one();
}

void VirtualClientEngine::Drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle.wait(lock,
                   [&] { return impl_->queue.empty() && impl_->in_flight == 0; });
}

int VirtualClientEngine::worker_count() const {
  return static_cast<int>(impl_->workers.size());
}

// ---------------------------------------------------------------------
// VirtualClientPool

namespace {

// One pool connection: the socket plus its read scratch and the outbox the
// engine workers fill. `out` is the only cross-thread state (out_mu); the
// decode cache is the pump's, and the floats it hands out are immutable.
struct PoolConn {
  net::Connection conn;
  const compress::Codec* codec = nullptr;  // set by pump before any job
  bool done = false;                       // saw Shutdown or EOF
  std::vector<std::uint8_t> in;
  std::size_t in_offset = 0;
  net::BroadcastDecodeCache broadcasts;
  std::mutex out_mu;
  std::vector<std::uint8_t> out;
  std::size_t out_offset = 0;
};

}  // namespace

struct VirtualClientPool::Impl {
  VirtualPoolOptions options;
  TrainFn train;
  NumSamplesFn num_samples;

  net::Reactor reactor;  // owned by the pump thread after Start()
  std::vector<std::unique_ptr<PoolConn>> conns;
  std::vector<PoolConn*> by_fd_sparse;  // index: fd → conn (bounded, dense)
  std::vector<compress::FeedbackState> feedback;  // one per client id
  std::vector<double> latency_ms;                 // one per client id
  std::unique_ptr<VirtualClientEngine> engine;
  std::thread pump;
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};

  // Per-client serialization: FedBuff may dispatch several outstanding jobs
  // to one client (the real fleet serializes them on the client's socket).
  // A client's jobs must not run concurrently — TrainOnce reuses the
  // client's model buffers — and must encode in arrival order so
  // error-feedback codecs see the same residual sequence as a real worker.
  // busy[c] marks a job running; later arrivals wait in backlog[c].
  std::mutex sched_mu;
  std::vector<std::uint8_t> client_busy;
  std::unordered_map<int, std::deque<VirtualJob>> client_backlog;

  obs::Counter& jobs = obs::DefaultRegistry().GetCounter("pool.jobs");
  obs::Counter& acks_dropped =
      obs::DefaultRegistry().GetCounter("pool.acks_ignored");

  PoolConn* FindConn(int fd) {
    return fd >= 0 && fd < static_cast<int>(by_fd_sparse.size())
               ? by_fd_sparse[static_cast<std::size_t>(fd)]
               : nullptr;
  }

  // --- pump side --------------------------------------------------------

  void PumpLoop() {
    util::SetThreadLogPrefix("pool");
    std::vector<net::ReactorEvent> events;
    while (!stop.load(std::memory_order_relaxed)) {
      bool all_done = true;
      for (const auto& pc : conns) {
        all_done = all_done && pc->done;
      }
      if (all_done) {
        break;
      }
      events.clear();
      reactor.Wait(50, &events);
      for (const net::ReactorEvent& event : events) {
        PoolConn* pc = FindConn(event.fd);
        if (pc == nullptr || pc->done) {
          continue;
        }
        if (event.error) {
          pc->done = true;
          continue;
        }
        if (event.readable || event.hangup) {
          ReadPoolConn(*pc);
        }
      }
      FlushOutboxes();
    }
    util::SetThreadLogPrefix("");
  }

  void ReadPoolConn(PoolConn& pc) {
    while (true) {
      std::uint8_t chunk[16384];
      const ssize_t n = ::recv(pc.conn.fd(), chunk, sizeof(chunk), 0);
      if (n == 0) {
        ProcessConnInbuf(pc);
        pc.done = true;  // server closed
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          break;
        }
        pc.done = true;
        return;
      }
      pc.in.insert(pc.in.end(), chunk, chunk + n);
    }
    ProcessConnInbuf(pc);
  }

  void ProcessConnInbuf(PoolConn& pc) {
    while (!pc.done) {
      net::FrameView frame;
      std::size_t consumed = 0;
      try {
        consumed = net::DecodeFrameView(
            std::span<const std::uint8_t>(pc.in).subspan(pc.in_offset),
            &frame);
      } catch (const util::CheckError& e) {
        AF_LOG(kWarn) << "pool: malformed frame from server: " << e.what();
        pc.done = true;
        break;
      }
      if (consumed == 0) {
        break;
      }
      pc.in_offset += consumed;
      HandleServerFrame(pc, frame);
    }
    if (pc.in_offset == pc.in.size()) {
      pc.in.clear();
      pc.in_offset = 0;
    } else if (pc.in_offset > 0) {
      pc.in.erase(pc.in.begin(),
                  pc.in.begin() + static_cast<std::ptrdiff_t>(pc.in_offset));
      pc.in_offset = 0;
    }
  }

  void HandleServerFrame(PoolConn& pc, const net::FrameView& frame) {
    switch (frame.type) {
      case net::MessageType::kShutdown:
        pc.done = true;
        return;
      case net::MessageType::kAck:
        // Receipt for an update we sent exactly once over reliable TCP —
        // nothing to retire.
        acks_dropped.Increment();
        return;
      case net::MessageType::kOffer: {
        const net::SelectMsg select = net::AnswerOffer(
            net::DecodeOffer(frame), options.trace_context);
        QueueToConn(pc, net::EncodeSelect(select));
        pc.codec = net::SelectedCodec(select.codec);
        return;
      }
      case net::MessageType::kModelBroadcast: {
        net::ModelBroadcastMsg msg =
            net::DecodeModelBroadcast(frame, &pc.broadcasts);
        AF_CHECK_GE(msg.client_id, 0)
            << "pool: broadcast for negative client " << msg.client_id;
        AF_CHECK_LT(msg.client_id, options.num_clients)
            << "pool: broadcast for unknown client " << msg.client_id;
        VirtualJob job;
        job.client_id = msg.client_id;
        job.job_index = msg.job_index;
        job.round = msg.round;
        job.trace_id = msg.trace_id;
        job.parent_span_id = msg.parent_span_id;
        // The cached decode owns its floats, so the view outlives the
        // frame buffer, which is recycled as soon as we return.
        job.base = std::move(msg.params);
        jobs.Increment();
        {
          std::lock_guard<std::mutex> lock(sched_mu);
          auto& busy =
              client_busy[static_cast<std::size_t>(job.client_id)];
          if (busy != 0) {
            client_backlog[job.client_id].push_back(std::move(job));
            return;
          }
          busy = 1;
        }
        SubmitJob(pc, std::move(job));
        return;
      }
      default:
        AF_LOG(kWarn) << "pool: unexpected " << MessageTypeName(frame.type)
                      << " frame from server; ignoring";
        return;
    }
  }

  void QueueToConn(PoolConn& pc, const net::Frame& frame) {
    std::lock_guard<std::mutex> lock(pc.out_mu);
    net::AppendFrameBytes(pc.out, frame);
  }

  void FlushOutboxes() {
    for (const auto& pc : conns) {
      if (pc->done) {
        continue;
      }
      std::lock_guard<std::mutex> lock(pc->out_mu);
      while (pc->out_offset < pc->out.size()) {
        const ssize_t n =
            ::send(pc->conn.fd(), pc->out.data() + pc->out_offset,
                   pc->out.size() - pc->out_offset, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            break;  // kernel buffer full; retry on the next wake
          }
          pc->done = true;
          break;
        }
        pc->out_offset += static_cast<std::size_t>(n);
      }
      if (pc->out_offset == pc->out.size()) {
        pc->out.clear();
        pc->out_offset = 0;
      }
      reactor.SetWantWrite(pc->conn.fd(),
                           !pc->done && pc->out_offset < pc->out.size());
    }
  }

  // --- engine side ------------------------------------------------------

  void SubmitJob(PoolConn& pc, VirtualJob job) {
    PoolConn* conn_ptr = &pc;
    engine->Submit([this, conn_ptr, job = std::move(job)]() mutable {
      RunJob(*conn_ptr, std::move(job));
    });
  }

  void RunJob(PoolConn& pc, VirtualJob job) {
    const double latency =
        latency_ms[static_cast<std::size_t>(job.client_id)];
    if (latency > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(latency));
    }
    net::ClientUpdateMsg update;
    update.client_id = job.client_id;
    update.job_index = job.job_index;
    update.base_round = job.round;
    update.num_samples = num_samples(job.client_id);
    // Echo the broadcast's trace id; the train span below and the server's
    // defense span share it, which is the join key tools/merge_traces.py
    // stitches timelines on.
    update.trace_id = job.trace_id;
    update.parent_span_id = TrainSpanId(job.trace_id);
    std::vector<float> delta;
    {
      obs::ScopedSpan span(
          "net.worker.train",
          job.trace_id == 0
              ? obs::TraceContext{}
              : obs::TraceContext{job.trace_id, TrainSpanId(job.trace_id),
                                  job.parent_span_id});
      delta = train(job);
    }
    update.delta = net::UpdateView(std::span<const float>(delta), nullptr);
    {
      std::lock_guard<std::mutex> lock(pc.out_mu);
      // Same-client jobs are serialized (client_busy), so this encode is
      // the only writer of this client's feedback residual.
      net::AppendClientUpdateFrame(
          pc.out, update, pc.codec,
          &feedback[static_cast<std::size_t>(job.client_id)]);
    }
    reactor.Wakeup();

    // Release the client or chain its next backlogged job, in order.
    std::optional<VirtualJob> next;
    {
      std::lock_guard<std::mutex> lock(sched_mu);
      auto it = client_backlog.find(job.client_id);
      if (it == client_backlog.end() || it->second.empty()) {
        client_busy[static_cast<std::size_t>(job.client_id)] = 0;
      } else {
        next = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) {
          client_backlog.erase(it);
        }
      }
    }
    if (next.has_value()) {
      SubmitJob(pc, std::move(*next));
    }
  }
};

VirtualClientPool::VirtualClientPool(VirtualPoolOptions options,
                                     TrainFn train, NumSamplesFn num_samples)
    : impl_(std::make_unique<Impl>()) {
  AF_CHECK_GT(options.num_clients, 0);
  AF_CHECK(train != nullptr);
  AF_CHECK(num_samples != nullptr);
  impl_->options = options;
  impl_->train = std::move(train);
  impl_->num_samples = std::move(num_samples);
}

VirtualClientPool::~VirtualClientPool() {
  try {
    Stop();
  } catch (...) {
    // Destructor must not throw.
  }
}

void VirtualClientPool::Start() {
  Impl& impl = *impl_;
  AF_CHECK(!impl.started.load()) << "pool started twice";
  const VirtualPoolOptions& opt = impl.options;
  const int connections =
      ResolvePoolConnections(opt.connections, opt.num_clients);

  impl.feedback.resize(static_cast<std::size_t>(opt.num_clients));
  impl.client_busy.resize(static_cast<std::size_t>(opt.num_clients), 0);
  impl.latency_ms.resize(static_cast<std::size_t>(opt.num_clients), 0.0);
  if (opt.latency.base_ms > 0.0) {
    for (int c = 0; c < opt.num_clients; ++c) {
      impl.latency_ms[static_cast<std::size_t>(c)] =
          opt.latency.base_ms /
          std::pow(static_cast<double>(c + 1), opt.latency.zipf_s);
    }
  }

  // Client c rides connection c % connections; each connection announces
  // its slice with one hello.
  std::vector<net::HelloMsg> hellos(static_cast<std::size_t>(connections));
  for (int c = 0; c < opt.num_clients; ++c) {
    hellos[static_cast<std::size_t>(c % connections)].client_ids.push_back(c);
  }
  impl.conns.reserve(static_cast<std::size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    auto pc = std::make_unique<PoolConn>();
    pc->conn = net::ConnectWithRetry(
        opt.port, opt.retry,
        opt.seed ^ (0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i)));
    pc->conn.SendFrame(net::EncodeHello(hellos[static_cast<std::size_t>(i)]),
                       opt.io_timeout_ms);
    const int fd = pc->conn.fd();
    if (fd >= static_cast<int>(impl.by_fd_sparse.size())) {
      impl.by_fd_sparse.resize(static_cast<std::size_t>(fd) + 1, nullptr);
    }
    impl.by_fd_sparse[static_cast<std::size_t>(fd)] = pc.get();
    // Pre-Start registration is safe: the pump thread (the reactor's owner
    // after this) does not exist yet.
    impl.reactor.Add(fd);
    impl.conns.push_back(std::move(pc));
  }
  obs::DefaultRegistry().GetGauge("pool.connections").Set(connections);

  impl.engine = std::make_unique<VirtualClientEngine>(opt.workers);
  impl.pump = std::thread([this] { impl_->PumpLoop(); });
  impl.started.store(true);
}

void VirtualClientPool::Stop() {
  Impl& impl = *impl_;
  if (impl.pump.joinable()) {
    impl.stop.store(true, std::memory_order_relaxed);
    impl.reactor.Wakeup();
    impl.pump.join();
  }
  if (impl.engine != nullptr) {
    // Engine tasks may still be encoding into outboxes; wait them out
    // before the connections die under them.
    impl.engine->Drain();
    impl.engine.reset();
  }
  impl.conns.clear();
  impl.by_fd_sparse.clear();
}

int VirtualClientPool::connection_count() const {
  return static_cast<int>(impl_->conns.size());
}

int VirtualClientPool::worker_count() const {
  return impl_->engine == nullptr ? 0 : impl_->engine->worker_count();
}

}  // namespace fl
