#include "runs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "compress/codec.h"
#include "data/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

std::uint64_t HashModel(const std::vector<float>& params) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (float value : params) {
    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &value, sizeof(float));
    for (unsigned char byte : bytes) {
      hash = (hash ^ byte) * 0x100000001b3ULL;
    }
  }
  return hash;
}

// What the process-wide metrics registry gained during one run. src/ keeps
// these counters on its own; the bench only reads them, summed over labels.
class RegistryDelta {
 public:
  RegistryDelta() : before_(Index(obs::DefaultRegistry().Snapshot())) {}

  void Finish() {
    for (const auto& [key, after] : Index(obs::DefaultRegistry().Snapshot())) {
      const auto it = before_.find(key);
      const obs::MetricSnapshot* before = it == before_.end() ? nullptr : &it->second;
      if (after.kind == obs::MetricSnapshot::Kind::kCounter) {
        counters_[after.name] += static_cast<double>(
            after.counter_value - (before ? before->counter_value : 0));
      } else if (after.kind == obs::MetricSnapshot::Kind::kHistogram) {
        Hist& hist = hists_[after.name];
        if (hist.bounds.empty()) {
          hist.bounds = after.bucket_bounds;
          hist.counts.assign(after.bucket_counts.size(), 0.0);
        }
        AF_CHECK(hist.bounds == after.bucket_bounds)
            << after.name << ": labelled histograms with different buckets";
        for (std::size_t i = 0; i < after.bucket_counts.size(); ++i) {
          hist.counts[i] += static_cast<double>(
              after.bucket_counts[i] - (before ? before->bucket_counts[i] : 0));
        }
        hist.count += static_cast<double>(after.hist_count -
                                          (before ? before->hist_count : 0));
        hist.sum += after.hist_sum - (before ? before->hist_sum : 0.0);
      }
    }
  }

  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  double Mean(const std::string& name) const {
    const auto it = hists_.find(name);
    return it == hists_.end() || it->second.count == 0
               ? 0.0
               : it->second.sum / it->second.count;
  }

  // Interpolated within the winning bucket, as obs::Histogram does.
  double Percentile(const std::string& name, double p) const {
    const auto it = hists_.find(name);
    if (it == hists_.end() || it->second.count == 0) {
      return 0.0;
    }
    const Hist& hist = it->second;
    const double target = p * hist.count;
    double seen = 0.0;
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (hist.counts[i] > 0 && seen + hist.counts[i] >= target) {
        const double lo = i == 0 ? 0.0 : hist.bounds[i - 1];
        const double hi = std::isinf(hist.bounds[i]) ? lo : hist.bounds[i];
        return lo + (hi - lo) * (target - seen) / hist.counts[i];
      }
      seen += hist.counts[i];
    }
    return hist.bounds.size() > 1 ? hist.bounds[hist.bounds.size() - 2] : 0.0;
  }

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> counts;
    double count = 0.0;
    double sum = 0.0;
  };

  static std::map<std::string, obs::MetricSnapshot> Index(
      std::vector<obs::MetricSnapshot> snapshot) {
    std::map<std::string, obs::MetricSnapshot> index;
    for (obs::MetricSnapshot& metric : snapshot) {
      std::string key = metric.name;
      for (const auto& [label, value] : metric.labels) {
        key += "|" + label + "=" + value;
      }
      index.emplace(std::move(key), std::move(metric));
    }
    return index;
  }

  std::map<std::string, obs::MetricSnapshot> before_;
  std::map<std::string, double> counters_;
  std::map<std::string, Hist> hists_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// util::ThreadPool records its queue wait only while src's own span
// recorder is on, so the traced run switches it on. Its cost is part of
// obs.trace_overhead_frac; its spans are dropped.
struct SrcRecorderOn {
  SrcRecorderOn() { obs::TraceRecorder::Global().SetEnabled(true); }
  ~SrcRecorderOn() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
  SrcRecorderOn(const SrcRecorderOn&) = delete;
  SrcRecorderOn& operator=(const SrcRecorderOn&) = delete;
};

}  // namespace

RunRecord RunUntraced(const fl::ExperimentConfig& base) {
  RunRecord run;
  fl::ExperimentConfig config = base;
  std::int64_t factory_ns = 0;
  config.defense_factory = [&] {
    factory_ns = NowNs();
    return std::make_unique<TimedDefense>(fl::MakeDefense(base.defense),
                                          &run.process, nullptr);
  };
  const std::int64_t start_ns = NowNs();
  run.result = fl::RunExperiment(config);
  run.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  run.setup_s = static_cast<double>(factory_ns - start_ns) / 1e9;
  run.model_hash = HashModel(run.result.final_model);
  return run;
}

double ProbeSetup(const fl::ExperimentConfig& base) {
  struct SetupDone {};
  fl::ExperimentConfig config = base;
  std::int64_t factory_ns = 0;
  config.defense_factory = [&]() -> std::unique_ptr<defense::Defense> {
    factory_ns = NowNs();
    throw SetupDone{};
  };
  const std::int64_t start_ns = NowNs();
  try {
    fl::RunExperiment(config);
  } catch (const SetupDone&) {
    return static_cast<double>(factory_ns - start_ns) / 1e9;
  }
  AF_CHECK(false) << "RunExperiment never called the defense factory";
  return 0.0;
}

RunRecord RunTraced(const fl::ExperimentConfig& config, Tracer* tracer) {
  // The composition mirrors fl::RunExperiment for what the workloads use;
  // the final-model check catches any drift between the two.
  AF_CHECK(config.attack != attacks::AttackKind::kLabelFlip &&
           !config.defense_factory && config.checkpoint_path.empty() &&
           !config.resume && config.stop_flag == nullptr)
      << "the traced pipeline does not compose this configuration";
  const bool inproc = config.transport == fl::TransportKind::kInproc;
  RunRecord run;
  RegistryDelta counters;
  SrcRecorderOn src_recorder;
  const std::uint64_t seed = config.sim.seed;
  const nn::ModelSpec model = fl::ModelForProfile(config.profile, config.image_side);
  data::Dataset test;  // outlives the pipeline: eval is timed after it
  std::size_t train_jobs = 0;
  std::size_t lost_jobs = 0;

  const std::int64_t start_ns = NowNs();
  {
    Tracer::Scope experiment(tracer, "experiment");
    util::RngFactory rngs(seed);
    data::SyntheticGenerator generator(
        data::MakeProfileSpec(config.profile, config.image_side), seed);
    data::Dataset train;
    {
      Tracer::Scope span(tracer, "data.generate");
      train = generator.Generate(config.train_pool, "train");
      test = generator.Generate(config.test_samples, "test");
    }
    data::Partition partition;
    {
      Tracer::Scope span(tracer, "data.partition");
      auto rng = rngs.Stream("partition");
      partition = config.iid
                      ? data::IidPartition(train, config.num_clients,
                                           config.partition_size, rng)
                      : data::DirichletPartition(train, config.num_clients,
                                                 config.partition_size,
                                                 config.dirichlet_alpha, rng);
    }

    std::vector<int> ids(config.num_clients);
    std::iota(ids.begin(), ids.end(), 0);
    auto malicious_rng = rngs.Stream("malicious");
    std::shuffle(ids.begin(), ids.end(), malicious_rng);
    std::vector<int> malicious_ids(ids.begin(), ids.begin() + config.num_malicious);
    if (config.attack == attacks::AttackKind::kNone) {
      malicious_ids.clear();
    }

    std::vector<std::unique_ptr<fl::Client>> clients;
    {
      Tracer::Scope span(tracer, "client.build");
      clients.reserve(config.num_clients);
      for (std::size_t c = 0; c < config.num_clients; ++c) {
        clients.push_back(std::make_unique<fl::Client>(
            static_cast<int>(c), &train, std::move(partition[c]), model, seed));
      }
    }

    attacks::AttackParams attack_params;
    attack_params.total_clients = config.num_clients;
    attack_params.adaptive_score_quantile = config.adaptive_score_quantile;
    attack_params.malicious_clients = std::max<std::size_t>(config.num_malicious, 1);
    attack_params.gd_scale = config.gd_scale;
    auto attack = std::make_unique<TimedAttack>(
        attacks::MakeAttack(config.attack, attack_params), tracer);
    auto defense = std::make_unique<TimedDefense>(fl::MakeDefense(config.defense),
                                                  &run.process, tracer);
    data::Dataset root;
    if (defense->RequiresServerReference()) {
      root = generator.Generate(config.sim.server_root_samples, "server-root");
    }

    tracer->SetRound(0);
    if (inproc) {
      util::ThreadPool pool(config.threads);
      fl::InprocBackend backend(
          std::move(clients), &pool, seed, config.sim.local,
          config.compress.empty() ? nullptr : &compress::Get(config.compress));
      TimedBackend timed(&backend, tracer);
      fl::ExperimentSpec spec;
      spec.sim = config.sim;
      spec.model = model;
      spec.backend = &timed;
      spec.malicious_ids = std::move(malicious_ids);
      spec.attack = std::move(attack);
      spec.defense = std::move(defense);
      spec.test_set = &test;
      spec.server_root = std::move(root);
      auto simulation = fl::BuildSimulation(std::move(spec));
      {
        Tracer::Scope span(tracer, "sim.run");
        run.result = simulation->Run();
      }
      train_jobs = timed.jobs();
      lost_jobs = timed.lost_jobs();
    } else {
      fl::DistributedSpec spec;
      spec.sim = config.sim;
      spec.model = model;
      spec.clients = std::move(clients);
      spec.malicious_ids = std::move(malicious_ids);
      spec.attack = std::move(attack);
      spec.defense = std::move(defense);
      spec.test_set = &test;
      spec.server_root = std::move(root);
      spec.transport = config.net;
      spec.transport.codec = config.compress;
      spec.pool = config.pool;
      fl::DistributedDriver driver(std::move(spec));
      Tracer::Scope span(tracer, "sim.run");
      run.result = driver.Run();
    }
    tracer->SetRound(-1);
  }
  run.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  run.model_hash = HashModel(run.result.final_model);
  counters.Finish();

  // Eval runs serially inside the round loop, where no decorator can reach
  // it; time it on the run's test set and final model instead.
  auto eval_model = model.factory(seed);
  std::vector<double> eval_ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = NowNs();
    fl::EvaluateAccuracy(model, *eval_model, run.result.final_model, test);
    eval_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  const auto evaluated = static_cast<double>(
      std::count_if(run.result.rounds.begin(), run.result.rounds.end(),
                    [](const fl::RoundRecord& r) { return r.test_accuracy >= 0.0; }));

  auto& m = run.layers;
  const double sim_run_s = tracer->BusySeconds("sim.run");
  m["data.generate_s"] = tracer->BusySeconds("data.generate");
  m["data.partition_s"] = tracer->BusySeconds("data.partition");
  m["client.build_s"] = tracer->BusySeconds("client.build");

  m["train.calls"] = static_cast<double>(tracer->Durations("train").size());
  m["train.jobs"] = static_cast<double>(train_jobs);
  m["train.busy_s"] = tracer->BusySeconds("train");
  m["train.share"] = Ratio(m["train.busy_s"], sim_run_s);
  m["train.lost_jobs"] = static_cast<double>(lost_jobs);
  m["threadpool.queue_wait_us_p50"] = counters.Percentile("threadpool.queue_wait_us", 0.5);
  m["threadpool.queue_wait_us_p90"] = counters.Percentile("threadpool.queue_wait_us", 0.9);

  m["gemm.calls"] = counters.Counter("gemm.calls");
  m["gemm.gflop"] = counters.Counter("gemm.flops") / 1e9;
  m["gemm.packed_bytes_per_flop"] =
      Ratio(counters.Counter("gemm.bytes_packed"), counters.Counter("gemm.flops"));
  m["gemm.flop_per_call"] =
      Ratio(counters.Counter("gemm.flops"), counters.Counter("gemm.calls"));

  m["eval.call_ms"] = Quantile(eval_ms, 0.5);
  m["eval.est_s"] = m["eval.call_ms"] / 1e3 * evaluated;

  const std::vector<double> crafts = tracer->Durations("attack.craft");
  m["attack.crafts"] = static_cast<double>(crafts.size());
  m["attack.busy_s"] = tracer->BusySeconds("attack.craft");
  m["attack.craft_us_p50"] = Quantile(crafts, 0.5) * 1e6;

  const std::vector<double> process = tracer->Durations("defense.process");
  m["defense.calls"] = static_cast<double>(process.size());
  m["defense.busy_s"] = tracer->BusySeconds("defense.process");
  m["defense.p50_ms"] = Quantile(process, 0.5) * 1e3;
  m["defense.p90_ms"] = Quantile(process, 0.9) * 1e3;
  m["defense.share"] = Ratio(m["defense.busy_s"], sim_run_s);
  m["defense.degenerate_rounds"] = counters.Counter("defense.degenerate_rounds");
  m["defense.precision"] = run.result.total_confusion.Precision();
  m["defense.recall"] = run.result.total_confusion.Recall();

  const double computed = counters.Counter("score.ref_dist_computed");
  const double cached = counters.Counter("score.ref_dist_cached");
  m["score.ref_dist_computed"] = computed;
  m["score.ref_dist_cached"] = cached;
  m["score.cache_hit_ratio"] = Ratio(cached, computed + cached);
  m["score.inserts"] = counters.Counter("score.inserts");

  m["net.job_rtt_us_p50"] = counters.Percentile("net.job_rtt_us", 0.5);
  m["net.job_rtt_us_p90"] = counters.Percentile("net.job_rtt_us", 0.9);
  m["net.server.tick_us_p50"] = counters.Percentile("net.server.tick_us", 0.5);
  m["net.server.tick_us_p90"] = counters.Percentile("net.server.tick_us", 0.9);
  m["net.server.frames"] = counters.Counter("net.server.frames_sent") +
                           counters.Counter("net.server.frames_received");
  m["net.server.bytes"] = counters.Counter("net.server.bytes_out") +
                          counters.Counter("net.server.bytes_in");
  m["net.update_resends"] = counters.Counter("net.update_resends");
  m["net.server.evictions"] = counters.Counter("net.server.evictions");
  m["transport.bytes_copied_per_update"] = Ratio(
      counters.Counter("transport.bytes_copied"), counters.Counter("transport.updates"));
  const double encode_s = counters.Counter("compress.encode_us") / 1e6;
  const double decode_s = counters.Counter("compress.decode_us") / 1e6;
  m["compress.ratio"] = counters.Mean("compress.ratio");
  m["compress.encode_mb_per_s"] =
      Ratio(counters.Counter("compress.bytes_in") / 1e6, encode_s);
  // Codec time on any thread over the run's wall time.
  m["compress.busy_frac"] = Ratio(encode_s + decode_s, sim_run_s);
  m["pool.jobs"] = counters.Counter("pool.jobs");

  m["sim.run_s"] = sim_run_s;
  // The children of sim.run are the train, attack and defense spans; what
  // remains besides eval is the server loop itself (and, over tcp, the
  // training and the wire, which no decorator can separate).
  m["sim.self_s"] = tracer->SelfSeconds("sim.run") - m["eval.est_s"];
  return run;
}

std::vector<std::string> CheckOutputs(const fl::ExperimentConfig& config,
                                      const RunRecord& run, bool full_length) {
  std::vector<std::string> failures;
  const fl::SimulationResult& result = run.result;
  if (result.interrupted || result.rounds.size() != config.sim.rounds) {
    failures.push_back("ran " + std::to_string(result.rounds.size()) + " of " +
                       std::to_string(config.sim.rounds) + " rounds");
  }
  if (run.process.starts_ns.size() != result.rounds.size()) {
    failures.push_back("defense saw " + std::to_string(run.process.starts_ns.size()) +
                       " Process calls for " + std::to_string(result.rounds.size()) +
                       " rounds");
  }
  for (const fl::RoundRecord& record : result.rounds) {
    if (record.accepted + record.rejected + record.deferred != record.buffered) {
      failures.push_back("round " + std::to_string(record.round) +
                         ": accepted+rejected+deferred != buffered");
    }
  }
  if (result.evicted_clients != 0) {
    failures.push_back(std::to_string(result.evicted_clients) + " clients evicted");
  }
  if (result.final_model.empty()) {
    failures.push_back("empty final model");
  }
  if (full_length && !(result.final_accuracy > 0.5)) {
    failures.push_back("final accuracy " + std::to_string(result.final_accuracy) +
                       " is not above 0.5");
  }
  return failures;
}

}  // namespace e2e
