// End-to-end tests of the distributed run mode (--transport=tcp): the same
// simulation round-tripped over real loopback TCP connections must match the
// in-process run, and must degrade gracefully when the fault injector turns
// the wire hostile. These are the slowest tests in the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string_view>
#include <thread>

#include "defense/defense.h"
#include "fl/experiment.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fl {
namespace {

ExperimentConfig SmallConfig(std::uint64_t seed) {
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 20;
  config.num_malicious = 4;
  config.train_pool = 1500;
  config.test_samples = 300;
  config.partition_size = 50;
  config.sim.buffer_goal = 8;
  config.sim.rounds = 10;
  config.sim.local.epochs = 2;
  config.threads = 2;
  return config;
}

TEST(DistributedTest, TcpMatchesInprocUnderLieAttack) {
  // The acceptance bar for the transport: a 10-round FedBuff + AsyncFilter
  // run under the LIE attack must reach the same accuracy over TCP as in
  // process. Scheduling, attack crafting, and RNG streams all live on the
  // server side, so with a quiet wire the runs are bit-identical — the
  // tolerance below is pure paranoia, not an expected gap. Multi-Krum runs
  // its pairwise pass on the lent training pool in process and serially
  // over tcp, so its run pins that the pool changes no bit either.
  for (DefenseKind defense : {DefenseKind::kAsyncFilter,
                              DefenseKind::kMultiKrum}) {
    SCOPED_TRACE(DefenseKindName(defense));
    ExperimentConfig config = SmallConfig(61);
    config.attack = attacks::AttackKind::kLie;
    config.defense = defense;

    config.transport = TransportKind::kInproc;
    const SimulationResult inproc = RunExperiment(config);

    config.transport = TransportKind::kTcp;
    const SimulationResult tcp = RunExperiment(config);

    ASSERT_EQ(tcp.rounds.size(), inproc.rounds.size());
    EXPECT_NEAR(tcp.final_accuracy, inproc.final_accuracy, 1e-6);
    EXPECT_EQ(tcp.final_model, inproc.final_model);  // bit-exact
    EXPECT_EQ(tcp.evicted_clients, 0u);
  }
}

TEST(DistributedTest, OnlyInprocLendsTheTrainingPool) {
  // In process the defense borrows the simulation's idle training pool;
  // over tcp training runs in other processes and the defense runs serially.
  class PoolProbe : public defense::NoDefense {
   public:
    explicit PoolProbe(std::vector<util::ThreadPool*>* seen) : seen_(seen) {}
    defense::AggregationResult Process(
        const defense::FilterContext& context,
        const std::vector<ModelUpdate>& updates) override {
      seen_->push_back(context.pool);
      return NoDefense::Process(context, updates);
    }

   private:
    std::vector<util::ThreadPool*>* seen_;
  };
  for (TransportKind transport : {TransportKind::kInproc,
                                  TransportKind::kTcp}) {
    const bool inproc = transport == TransportKind::kInproc;
    SCOPED_TRACE(inproc ? "inproc" : "tcp");
    std::vector<util::ThreadPool*> seen;
    ExperimentConfig config = SmallConfig(65);
    config.sim.rounds = 3;
    config.transport = transport;
    config.defense_factory = [&seen] {
      return std::make_unique<PoolProbe>(&seen);
    };
    RunExperiment(config);
    ASSERT_EQ(seen.size(), 3u);
    for (util::ThreadPool* pool : seen) {
      if (inproc) {
        ASSERT_NE(pool, nullptr);
        EXPECT_EQ(pool->size(), config.threads);
      } else {
        EXPECT_EQ(pool, nullptr);
      }
    }
  }
}

TEST(DistributedTest, SurvivesFaultyWireWithSameResult) {
  // Drops are resent, duplicates deduped, delays absorbed — none of them may
  // change what the server aggregates.
  ExperimentConfig config = SmallConfig(62);
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;
  config.sim.rounds = 6;

  config.transport = TransportKind::kInproc;
  const SimulationResult inproc = RunExperiment(config);

  config.transport = TransportKind::kTcp;
  config.net.faults.drop_prob = 0.1;
  config.net.faults.duplicate_prob = 0.1;
  config.net.faults.delay_prob = 0.1;
  config.net.faults.delay_ms = 2.0;
  config.net.faults.seed = 62;
  const SimulationResult tcp = RunExperiment(config);

  EXPECT_EQ(tcp.final_model, inproc.final_model);
  EXPECT_EQ(tcp.evicted_clients, 0u);
}

TEST(DistributedTest, CompressedTcpMatchesInprocBitExactly) {
  // The compression acceptance bar: for every codec, a tcp run and an
  // inproc run under the same --compress setting produce the same final
  // model bit-for-bit. identity is trivially exact; fp16 and topk-delta
  // work because the inproc backend mirrors the wire's lossy round trip
  // (including the per-client error-feedback stream for topk-delta).
  for (const char* codec : {"identity", "fp16", "topk-delta"}) {
    SCOPED_TRACE(codec);
    ExperimentConfig config = SmallConfig(64);
    config.sim.rounds = 5;
    config.attack = attacks::AttackKind::kLie;
    config.defense = DefenseKind::kAsyncFilter;
    config.compress = codec;

    config.transport = TransportKind::kInproc;
    const SimulationResult inproc = RunExperiment(config);

    config.transport = TransportKind::kTcp;
    const SimulationResult tcp = RunExperiment(config);

    ASSERT_EQ(tcp.rounds.size(), inproc.rounds.size());
    EXPECT_EQ(tcp.final_model, inproc.final_model);  // bit-exact
    EXPECT_EQ(tcp.evicted_clients, 0u);
  }
}

TEST(DistributedTest, IdentityCompressionLeavesResultUnchanged) {
  // --compress=identity must be a true no-op: same raw AFPM bytes on the
  // wire as a run with no codec, same simulation result.
  ExperimentConfig config = SmallConfig(65);
  config.sim.rounds = 5;
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;
  config.transport = TransportKind::kTcp;

  const SimulationResult plain = RunExperiment(config);
  config.compress = "identity";
  const SimulationResult identity = RunExperiment(config);

  EXPECT_EQ(identity.final_model, plain.final_model);
  EXPECT_NEAR(identity.final_accuracy, plain.final_accuracy, 1e-9);
}

TEST(DistributedTest, SurvivesTruncatedCompressedFrames) {
  // Truncated frames hard-close the sender's connection mid-frame; with a
  // codec negotiated, the server must still reject the partial stream
  // cleanly, evict, and finish every round from the survivors.
  ExperimentConfig config = SmallConfig(66);
  config.sim.rounds = 5;
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;
  config.transport = TransportKind::kTcp;
  config.compress = "fp16";
  config.net.faults.truncate_prob = 0.03;
  config.net.faults.seed = 66;
  config.net.job_timeout_ms = 30000;

  const SimulationResult result = RunExperiment(config);

  EXPECT_EQ(result.rounds.size(), config.sim.rounds);
  EXPECT_LT(result.evicted_clients, config.num_clients);
  EXPECT_GT(result.final_accuracy, 0.1);
}

TEST(DistributedTest, TraceContextLinksClientTrainToServerDefenseSpans) {
  // Cross-process trace propagation, end to end over real TCP: a client's
  // net.worker.train span and the server's defense.process.update span for
  // the same training job must share a trace id — and negotiating the
  // extension must not perturb the simulation (bit-identical to inproc).
  ExperimentConfig config = SmallConfig(67);
  config.sim.rounds = 5;
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;

  config.transport = TransportKind::kInproc;
  const SimulationResult inproc = RunExperiment(config);

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  config.transport = TransportKind::kTcp;
  config.net.trace_context = true;
  const SimulationResult tcp = RunExperiment(config);
  recorder.SetEnabled(false);

  std::set<std::uint64_t> train_ids;
  std::set<std::uint64_t> defense_ids;
  for (const obs::SpanEvent& event : recorder.Snapshot()) {
    if (event.context.trace_id == 0) {
      continue;
    }
    const std::string_view name(event.name);
    if (name == "net.worker.train") {
      train_ids.insert(event.context.trace_id);
    } else if (name == "defense.process.update") {
      defense_ids.insert(event.context.trace_id);
    }
  }
  recorder.Clear();

  EXPECT_FALSE(train_ids.empty());
  EXPECT_FALSE(defense_ids.empty());
  std::size_t shared = 0;
  for (std::uint64_t id : defense_ids) {
    shared += train_ids.count(id);
  }
  EXPECT_GT(shared, 0u) << "no trace id links a client train span to a "
                           "server defense span";

  EXPECT_EQ(tcp.final_model, inproc.final_model);  // propagation is free
  EXPECT_EQ(tcp.evicted_clients, 0u);
}

TEST(DistributedTest, VirtualPoolTcpMatchesInprocBitExactly) {
  // The virtual-client pool multiplexes the whole fleet over a handful of
  // TCP connections and a worker crew — but it draws from the same
  // (client, job)-keyed RNG streams and the server assigns results by job
  // position, so the run must stay bit-identical to inproc.
  ExperimentConfig config = SmallConfig(69);
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;
  config.sim.rounds = 6;

  config.transport = TransportKind::kInproc;
  const SimulationResult inproc = RunExperiment(config);

  config.transport = TransportKind::kTcp;
  config.pool.mode = ClientPoolSpec::Mode::kVirtual;
  config.pool.connections = 4;
  config.pool.workers = 3;
  const SimulationResult virt = RunExperiment(config);

  ASSERT_EQ(virt.rounds.size(), inproc.rounds.size());
  EXPECT_EQ(virt.final_model, inproc.final_model);  // bit-exact
  EXPECT_NEAR(virt.final_accuracy, inproc.final_accuracy, 0.0);
  EXPECT_EQ(virt.evicted_clients, 0u);
}

TEST(DistributedTest, VirtualPoolMatchesRealFleetBitExactly) {
  // The virtual pool multiplexes many clients per connection and trains on
  // a few workers; updates still land by job position, so the fleet shape
  // must never leak into the result. Both client kinds answer the same
  // Offer/Select handshake: once with nothing to negotiate, once with a
  // codec and trace context on.
  struct Extensions {
    const char* codec;
    bool trace_context;
  };
  for (const Extensions& ext : {Extensions{"", false},
                                Extensions{"fp16", true}}) {
    SCOPED_TRACE(ext.codec);
    ExperimentConfig config = SmallConfig(70);
    config.attack = attacks::AttackKind::kLie;
    config.defense = DefenseKind::kAsyncFilter;
    config.sim.rounds = 5;
    config.transport = TransportKind::kTcp;
    config.compress = ext.codec;
    config.net.trace_context = ext.trace_context;
    const SimulationResult real_fleet = RunExperiment(config);

    config.pool.mode = ClientPoolSpec::Mode::kVirtual;
    config.pool.connections = 5;
    config.pool.workers = 2;
    const SimulationResult pooled = RunExperiment(config);

    EXPECT_EQ(pooled.final_model, real_fleet.final_model);  // bit-exact
    EXPECT_EQ(real_fleet.evicted_clients, 0u);
    EXPECT_EQ(pooled.evicted_clients, 0u);
  }
}

TEST(DistributedTest, PoolConnectionDecodesEachBaseOncePerBatch) {
  // A batch mixes the bases of several dispatch rounds in arrival order.
  // The server sends it grouped by base, so a pool connection decodes each
  // base at most once per batch however the arrivals interleave.
  ExperimentConfig config = SmallConfig(71);
  config.sim.rounds = 8;
  config.transport = TransportKind::kTcp;
  config.compress = "fp16";
  config.pool.mode = ClientPoolSpec::Mode::kVirtual;
  config.pool.connections = 1;
  config.pool.workers = 2;
  obs::Counter& misses =
      obs::DefaultRegistry().GetCounter("net.broadcast_cache.misses");
  obs::Counter& hits =
      obs::DefaultRegistry().GetCounter("net.broadcast_cache.hits");
  const std::uint64_t misses_before = misses.Value();
  const std::uint64_t hits_before = hits.Value();
  const SimulationResult result = RunExperiment(config);
  ASSERT_EQ(result.evicted_clients, 0u);

  // One batch per round; each staleness value in it is one base.
  std::size_t bases = 0;
  for (const RoundRecord& round : result.rounds) {
    bases += round.staleness_histogram.size();
  }
  EXPECT_GT(bases, result.rounds.size()) << "no batch mixed two bases";
  EXPECT_LE(misses.Value() - misses_before, bases);
  EXPECT_GT(hits.Value() - hits_before, 0u);
}

TEST(DistributedTest, CompletesWhenFifthOfClientsDieMidRun) {
  // The graceful-degradation bar: kill 20% of the client connections mid-run
  // and the server must still finish every round, aggregating from the
  // survivors.
  ExperimentConfig config = SmallConfig(63);
  config.attack = attacks::AttackKind::kLie;
  config.defense = DefenseKind::kAsyncFilter;
  config.transport = TransportKind::kTcp;
  config.net.faults.kill_fraction = 0.2;
  config.net.faults.seed = 63;
  config.net.job_timeout_ms = 30000;

  const SimulationResult result = RunExperiment(config);

  EXPECT_EQ(result.rounds.size(), config.sim.rounds);
  EXPECT_GE(result.evicted_clients, 1u);
  EXPECT_LT(result.evicted_clients, config.num_clients);
  // The run must still have learned something (random guessing is 0.1).
  EXPECT_GT(result.final_accuracy, 0.1);
}

TEST(DistributedTest, StrangerHelloOutsideTheFleetChangesNothing) {
  // Mid-run, a peer that is not in the fleet connects, names client id
  // 100000 and hangs up before its Select. The server must refuse the id
  // rather than bind it, and its hang-up must disconnect no one: nothing
  // reaches the backend's liveness table, and the run stays bit-identical.
  ExperimentConfig config = SmallConfig(64);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  config.sim.rounds = 6;
  const SimulationResult inproc = RunExperiment(config);

  config.transport = TransportKind::kTcp;
  config.net.port = net::Listener(0).port();  // a free ephemeral port
  const std::uint16_t port = config.net.port;
  obs::Counter& updates =
      obs::DefaultRegistry().GetCounter("transport.updates");
  const std::uint64_t updates_before = updates.Value();
  std::atomic<bool> refused{false};
  std::thread stranger([&] {
    // Wait for the first update: the backend is training, so its
    // disconnect handler is live.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (updates.Value() == updates_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    try {
      net::RetryConfig retry;
      retry.initial_backoff_ms = 1.0;
      net::Connection conn = net::ConnectWithRetry(port, retry, 64);
      conn.SendFrame(net::EncodeHello({{100000}}), 1000);
      net::Frame frame;
      refused = conn.TryRecvFrame(&frame, 5000) ==
                net::Connection::RecvStatus::kEof;
      conn.Close();  // before any Select
    } catch (const std::exception&) {
      refused = false;
    }
  });
  const SimulationResult tcp = RunExperiment(config);
  stranger.join();

  EXPECT_TRUE(refused) << "the server answered a hello from outside the "
                          "fleet instead of closing it";
  EXPECT_EQ(tcp.evicted_clients, 0u);
  EXPECT_EQ(tcp.final_model, inproc.final_model);  // bit-exact
}

}  // namespace
}  // namespace fl
