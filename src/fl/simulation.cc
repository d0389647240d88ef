#include "fl/simulation.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "compress/codec.h"
#include "fl/checkpoint.h"
#include "fl/run_record.h"
#include "fl/trace_context.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/zipf.h"
#include "util/check.h"
#include "util/logging.h"

namespace fl {

Simulation::Simulation(ExperimentSpec spec)
    : config_(spec.sim),
      spec_(spec.model),
      attack_(std::move(spec.attack)),
      coordinator_(spec.sim.attacker_window),
      defense_(std::move(spec.defense)),
      test_set_(spec.test_set),
      server_root_(std::move(spec.server_root)),
      rngs_(spec.sim.seed),
      participation_rng_(rngs_.Stream("participation")),
      server_rng_(rngs_.Stream("server-defense")) {
  const compress::Codec* codec =
      spec.codec.empty() ? nullptr : &compress::Get(spec.codec);
  if (codec != nullptr && compress::IsIdentity(*codec)) {
    codec = nullptr;  // identity is the no-op everywhere downstream
  }
  if (spec.backend != nullptr) {
    AF_CHECK(spec.clients.empty())
        << "ExperimentSpec: set either `backend` or `clients`+`pool`, not both";
    AF_CHECK(spec.pool == nullptr)
        << "ExperimentSpec: `pool` belongs to the clients form";
    AF_CHECK(codec == nullptr)
        << "ExperimentSpec: `codec` belongs to the clients form (a caller "
           "backend compresses on its own transport)";
    backend_ = spec.backend;
  } else {
    AF_CHECK(!spec.clients.empty())
        << "ExperimentSpec: one of `backend` or `clients` must be set";
    AF_CHECK(spec.pool != nullptr)
        << "ExperimentSpec: the clients form needs a thread `pool`";
    owned_backend_ = std::make_unique<InprocBackend>(
        std::move(spec.clients), spec.pool, config_.seed, config_.local,
        codec);
    backend_ = owned_backend_.get();
    pool_ = spec.pool;
    if (codec != nullptr && codec->broadcast_safe()) {
      checkpoint_codec_ = codec;
    }
  }
  malicious_.assign(backend_->ClientCount(), false);
  for (int id : spec.malicious_ids) {
    AF_CHECK_GE(id, 0);
    AF_CHECK_LT(static_cast<std::size_t>(id), malicious_.size());
    malicious_[static_cast<std::size_t>(id)] = true;
  }
  Init();
}

std::unique_ptr<Simulation> BuildSimulation(ExperimentSpec spec) {
  return std::make_unique<Simulation>(std::move(spec));
}

void Simulation::Init() {
  AF_CHECK(backend_ != nullptr);
  AF_CHECK_GT(backend_->ClientCount(), 0u);
  AF_CHECK_GT(config_.participation, 0.0);
  AF_CHECK_LE(config_.participation, 1.0);
  AF_CHECK_GT(config_.server_learning_rate, 0.0);
  AF_CHECK(attack_ != nullptr);
  AF_CHECK(defense_ != nullptr);
  AF_CHECK(test_set_ != nullptr);
  AF_CHECK_GT(config_.buffer_goal, 0u);
  AF_CHECK_LE(config_.buffer_goal, backend_->ClientCount())
      << "aggregation bound exceeds client count";

  auto latency_rng = rngs_.Stream("latency");
  latencies_ = stats::SampleClientLatencies(backend_->ClientCount(),
                                            config_.zipf_s,
                                            config_.base_latency, latency_rng);
  job_counters_.assign(backend_->ClientCount(), 0);

  // Initial global model.
  auto init = spec_.factory(config_.seed);
  global_ = std::make_shared<const std::vector<float>>(init->GetFlatParams());

  if (defense_->RequiresServerReference()) {
    AF_CHECK_GT(server_root_.size(), 0u)
        << defense_->Name() << " requires a server root dataset";
    std::vector<std::size_t> all(server_root_.size());
    std::iota(all.begin(), all.end(), 0u);
    server_trainer_ = std::make_unique<Client>(-1, &server_root_,
                                               std::move(all), spec_,
                                               config_.seed ^ 0x5eedULL);
  }
}

bool Simulation::IsMalicious(int client_id) const {
  return malicious_[static_cast<std::size_t>(client_id)];
}

std::size_t Simulation::EffectiveGoal() const {
  const std::size_t alive = backend_->AliveCount();
  AF_CHECK_GT(alive, 0u) << "every client disconnected; cannot aggregate";
  return std::min(config_.buffer_goal, alive);
}

void Simulation::Dispatch(int client_id, double now) {
  if (!backend_->IsAlive(client_id)) {
    return;  // evicted clients are no longer scheduled
  }
  const std::size_t idx = static_cast<std::size_t>(client_id);
  double start_delay = 0.0;
  if (config_.participation < 1.0) {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    if (uniform(participation_rng_) >= config_.participation) {
      start_delay = latencies_[idx];  // sit out roughly one job's worth
    }
  }
  Job job;
  job.completion_time = now + start_delay + latencies_[idx];
  job.client_id = client_id;
  job.dispatch_round = round_;
  job.job_index = job_counters_[idx]++;
  job.base = global_;
  events_.push(std::move(job));
}

std::vector<float> Simulation::ServerReferenceUpdate() {
  AF_TRACE_SPAN("server.reference");
  AF_CHECK(server_trainer_ != nullptr);
  auto rng = rngs_.Stream("server-reference", round_);
  return server_trainer_->TrainOnce(*global_, config_.local, rng);
}

void Simulation::WriteCheckpoint() const {
  SaveCheckpoint(checkpoint_.path, *this);
}

SimulationResult Simulation::Run() {
  AF_TRACE_SPAN("sim.run");
  auto eval_model = spec_.factory(config_.seed);
  bool interrupted = false;

  // Run-level metrics; labelled by defense so grid runs stay separable.
  const obs::Labels metric_labels{{"defense", defense_->Name()}};
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs::Histogram& defense_latency_us =
      registry.GetHistogram("defense.latency_us", metric_labels);
  obs::Histogram& staleness_hist =
      registry.GetHistogram("sim.update_staleness", metric_labels,
                            {.first_bound = 1.0, .growth = 2.0,
                             .bucket_count = 12});
  obs::Counter& rounds_counter = registry.GetCounter("sim.rounds",
                                                     metric_labels);
  obs::Gauge& round_gauge = registry.GetGauge("sim.round", metric_labels);
  RunRecord& run_record = RunRecord::Global();

  // Round r's accuracy is measured while round r+1 trains: the eval reads
  // `model`, an immutable snapshot (aggregation replaces global_, never
  // mutates it), and fills record `record` of partial_ in place. Anything
  // that reads the records — a checkpoint, the next eval, the result —
  // resolves it first.
  struct PendingEval {
    std::shared_ptr<const std::vector<float>> model;
    std::size_t record = 0;
  } pending;
  auto resolve_eval = [&] {
    if (pending.model == nullptr) {
      return;
    }
    AF_TRACE_SPAN("eval.accuracy");
    RoundRecord& record = partial_.rounds[pending.record];
    record.test_accuracy =
        EvaluateAccuracy(spec_, *eval_model, *pending.model, *test_set_);
    AF_LOG(kDebug) << defense_->Name() << " round " << record.round + 1
                   << " acc=" << record.test_accuracy;
    pending.model = nullptr;
  };

  // Kick off every client (the paper's sampler selects all 100 each round).
  // A restored run skips this: its event queue, RNG positions, and job
  // counters came out of the checkpoint.
  if (!resumed_) {
    for (std::size_t c = 0; c < backend_->ClientCount(); ++c) {
      Dispatch(static_cast<int>(c), 0.0);
    }
  }

  while (round_ < config_.rounds) {
    round_gauge.Set(static_cast<double>(round_));
    auto attack_rng = rngs_.Stream("attack", round_);

    // Fill the buffer up to the aggregation bound. Normally one pass; a
    // client evicted mid-batch loses its jobs, so the loop may take another
    // pass over the survivors.
    while (buffer_.size() < EffectiveGoal()) {
      const std::size_t goal = EffectiveGoal();
      std::vector<Job> batch;
      while (buffer_.size() + batch.size() < goal) {
        AF_CHECK(!events_.empty()) << "event queue drained";
        Job job = events_.top();
        events_.pop();
        now_ = job.completion_time;
        if (!backend_->IsAlive(job.client_id)) {
          continue;  // job of an evicted client; nothing to re-dispatch
        }
        const std::size_t staleness = round_ - job.dispatch_round;
        Dispatch(job.client_id, now_);  // client immediately starts a new job
        if (staleness > config_.staleness_limit) {
          ++dropped_this_round_;
          continue;  // server refuses over-stale arrivals without training
        }
        batch.push_back(std::move(job));
      }

      // Local training for all arrivals — thread pool or wire round-trips,
      // depending on the backend. The previous round's eval rides along.
      std::vector<TrainJob> train_jobs;
      train_jobs.reserve(batch.size());
      for (const Job& job : batch) {
        train_jobs.push_back({job.client_id, job.job_index,
                              job.dispatch_round, job.base});
      }
      const std::vector<net::UpdateView> honest =
          backend_->TrainAlongside(train_jobs, resolve_eval);
      AF_CHECK_EQ(honest.size(), batch.size());

      // Sequential report processing in arrival order (attacker coordination
      // must observe a deterministic order).
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const Job& job = batch[j];
        if (honest[j].empty()) {
          // Client evicted mid-round: aggregate from the survivors.
          AF_LOG(kWarn) << "sim: client " << job.client_id
                        << " lost mid-round " << round_
                        << "; continuing with survivors";
          continue;
        }
        ModelUpdate update;
        update.client_id = job.client_id;
        update.base_round = job.dispatch_round;
        update.arrival_round = round_;
        update.staleness = round_ - job.dispatch_round;
        update.num_samples = backend_->NumSamples(job.client_id);
        // Observability sidecar. The trace id is a pure function of
        // (seed, client, job) — the same id the tcp backend stamped on the
        // broadcast — so it costs a mix, never an RNG draw. Wire stats and
        // the queue-entry clock stamp only matter to the run record.
        update.trace_id =
            TraceIdFor(config_.seed, job.client_id, job.job_index);
        if (run_record.enabled()) {
          TrainBackend::WireStats wire =
              backend_->UpdateWireStats(job.client_id, job.job_index);
          update.codec = std::move(wire.codec);
          update.wire_bytes = wire.wire_bytes;
          update.enqueued_ns = obs::TraceRecorder::NowNs();
        }
        if (IsMalicious(job.client_id)) {
          coordinator_.Absorb(honest[j]);
          const auto window = coordinator_.Window();
          attacks::AttackContext ctx;
          ctx.honest_update = honest[j];
          ctx.colluder_updates = &window;
          ctx.rng = &attack_rng;
          update.delta = attack_->Craft(ctx);
          update.is_malicious_truth = true;
        } else {
          update.delta = honest[j];
        }
        buffer_.push_back(std::move(update));
      }
    }

    AF_CHECK_GE(buffer_.size(), EffectiveGoal());

    // Refresh staleness of deferred leftovers and drop over-stale ones.
    std::vector<ModelUpdate> live;
    live.reserve(buffer_.size());
    for (auto& update : buffer_) {
      update.staleness = round_ - update.base_round;
      update.arrival_round = round_;
      if (update.staleness > config_.staleness_limit) {
        ++dropped_this_round_;
        continue;
      }
      live.push_back(std::move(update));
    }
    buffer_.swap(live);
    if (buffer_.empty()) {
      continue;  // everything went stale; keep collecting
    }

    if (observer_) {
      observer_(round_, buffer_);
    }

    // Defense + aggregation.
    defense::FilterContext ctx;
    ctx.round = round_;
    ctx.global_model = *global_;
    ctx.max_staleness = config_.staleness_limit;
    ctx.staleness_weighting = config_.staleness_weighting;
    ctx.rng = &server_rng_;
    ctx.pool = pool_;  // idle: this round's Train has returned
    std::vector<float> server_ref;
    if (defense_->RequiresServerReference()) {
      server_ref = ServerReferenceUpdate();
      ctx.server_reference = server_ref;
    }
    const auto defense_start = std::chrono::steady_clock::now();
    defense::AggregationResult agg;
    {
      AF_TRACE_SPAN("defense.process");
      agg = defense_->Process(ctx, buffer_);
    }
    const auto defense_end = std::chrono::steady_clock::now();
    AF_CHECK_EQ(agg.verdicts.size(), buffer_.size());

    const auto defense_start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            defense_start.time_since_epoch())
            .count());
    const auto defense_end_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            defense_end.time_since_epoch())
            .count());
    const double defense_us =
        static_cast<double>(defense_end_ns - defense_start_ns) / 1e3;
    // Scores align with updates only when the defense filled them.
    const bool has_scores = agg.scores.size() == buffer_.size();

    RoundRecord record;
    record.round = round_;
    record.sim_time = now_;
    record.buffered = buffer_.size();
    record.dropped_stale = dropped_this_round_;
    dropped_this_round_ = 0;
    double staleness_sum = 0.0;
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      staleness_sum += static_cast<double>(buffer_[i].staleness);
      ++record.staleness_histogram[buffer_[i].staleness];
      staleness_hist.Record(static_cast<double>(buffer_[i].staleness));
      const bool rejected = agg.verdicts[i] == defense::Verdict::kRejected;
      const bool deferred = agg.verdicts[i] == defense::Verdict::kDeferred;
      const bool malicious = buffer_[i].is_malicious_truth;
      if (rejected) {
        ++record.rejected;
        if (malicious) {
          ++record.confusion.true_positive;
        } else {
          ++record.confusion.false_positive;
        }
      } else {
        if (deferred) {
          ++record.deferred;
        } else {
          ++record.accepted;
        }
        if (malicious) {
          ++record.confusion.false_negative;
        } else {
          ++record.confusion.true_negative;
        }
      }
      // Run record: one `update` per update the defense saw, in the same
      // loop that tallies RoundRecord, so the two can never disagree.
      if (run_record.enabled()) {
        UpdateRecord entry;
        entry.round = round_;
        entry.client_id = buffer_[i].client_id;
        entry.staleness = buffer_[i].staleness;
        entry.has_score = has_scores;
        entry.score = has_scores ? agg.scores[i] : 0.0;
        entry.verdict = agg.verdicts[i];
        entry.malicious = malicious;
        entry.codec = buffer_[i].codec;
        entry.wire_bytes = buffer_[i].wire_bytes;
        if (buffer_[i].enqueued_ns != 0 &&
            buffer_[i].enqueued_ns <= defense_start_ns) {
          entry.queue_wait_us = static_cast<double>(defense_start_ns -
                                                    buffer_[i].enqueued_ns) /
                                1e3;
        }
        entry.scoring_us = defense_us;
        entry.trace_id = buffer_[i].trace_id;
        entry.reason = agg.reason;
        run_record.AppendUpdate(entry);
      }
      // Per-update defense span sharing the update's trace id; this is the
      // server-side half of the cross-process timeline the client's
      // net.worker.train span belongs to.
      if (buffer_[i].trace_id != 0 &&
          obs::TraceRecorder::Global().enabled()) {
        const std::uint64_t trace_id = buffer_[i].trace_id;
        obs::TraceRecorder::Global().Record(
            "defense.process.update", defense_start_ns, defense_end_ns,
            {trace_id, DefenseSpanId(trace_id), TrainSpanId(trace_id)});
      }
    }
    record.mean_staleness =
        staleness_sum / static_cast<double>(buffer_.size());
    record.defense_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(defense_end -
                                                              defense_start)
            .count();
    defense_latency_us.Record(static_cast<double>(record.defense_micros));
    rounds_counter.Increment();

    if (!agg.aggregated_delta.empty()) {
      AF_CHECK_EQ(agg.aggregated_delta.size(), global_->size());
      auto next = std::make_shared<std::vector<float>>(*global_);
      const float lr = static_cast<float>(config_.server_learning_rate);
      for (std::size_t i = 0; i < next->size(); ++i) {
        (*next)[i] += lr * agg.aggregated_delta[i];
      }
      global_ = std::move(next);
    }
    ++round_;
    buffer_ = std::move(agg.deferred);

    registry.GetCounter("sim.updates_accepted", metric_labels)
        .Increment(record.accepted);
    registry.GetCounter("sim.updates_rejected", metric_labels)
        .Increment(record.rejected);
    registry.GetCounter("sim.updates_deferred", metric_labels)
        .Increment(record.deferred);
    registry.GetCounter("sim.updates_dropped_stale", metric_labels)
        .Increment(record.dropped_stale);
    partial_.rounds.push_back(record);
    // Queue this round's eval. A round whose carried-over buffer already met
    // the goal trained nothing, so the previous one may still be pending.
    resolve_eval();
    if (round_ % config_.eval_every == 0 || round_ == config_.rounds) {
      pending = {global_, partial_.rounds.size() - 1};
    }

    // Checkpoint hooks — the state is at a clean round boundary here.
    const bool stop_requested =
        checkpoint_.stop != nullptr &&
        checkpoint_.stop->load(std::memory_order_relaxed);
    if (!checkpoint_.path.empty()) {
      const bool periodic = checkpoint_.every > 0 &&
                            round_ % checkpoint_.every == 0 &&
                            round_ < config_.rounds;
      if (stop_requested || periodic) {
        resolve_eval();
        WriteCheckpoint();
      }
    }
    if (stop_requested && round_ < config_.rounds) {
      AF_LOG(kInfo) << "sim: stop requested after round " << round_
                    << (checkpoint_.path.empty()
                            ? "; no checkpoint path configured"
                            : "; checkpoint written");
      interrupted = true;
      break;
    }
  }

  resolve_eval();  // the last round's, or the one pending at a stop
  round_gauge.Set(static_cast<double>(round_));
  SimulationResult result = std::move(partial_);
  partial_ = SimulationResult{};
  result.final_model = *global_;
  result.evicted_clients = backend_->ClientCount() - backend_->AliveCount();
  result.interrupted = interrupted;
  FinalizeResult(result);
  return result;
}

namespace {

// RNG engine state round-trips exactly through the standard's text
// representation (decimal integers, no floating point involved).
std::string EncodeRng(const std::mt19937_64& rng) {
  std::ostringstream out;
  out << rng;
  return out.str();
}

void DecodeRng(const std::string& text, std::mt19937_64& rng) {
  std::istringstream in(text);
  in >> rng;
  AF_CHECK(!in.fail()) << "checkpoint: corrupt RNG state";
}

void SaveUpdate(util::serial::Writer& w, const ModelUpdate& update) {
  w.I64(update.client_id);
  w.U64(update.base_round);
  w.U64(update.arrival_round);
  w.U64(update.staleness);
  w.U64(update.num_samples);
  w.U8(update.is_malicious_truth ? 1 : 0);
  w.FloatVec(update.delta);
  // Observability sidecar (checkpoint v2). enqueued_ns is deliberately not
  // saved: a wall-clock queue latency is meaningless across process
  // lifetimes, so restored updates report it as unknown.
  w.U64(update.trace_id);
  w.Str(update.codec);
  w.U64(update.wire_bytes);
}

ModelUpdate LoadUpdate(util::serial::Reader& r) {
  ModelUpdate update;
  update.client_id = static_cast<int>(r.I64());
  update.base_round = r.U64();
  update.arrival_round = r.U64();
  update.staleness = r.U64();
  update.num_samples = r.U64();
  update.is_malicious_truth = r.U8() != 0;
  update.delta = r.FloatVec();
  update.trace_id = r.U64();
  update.codec = r.Str();
  update.wire_bytes = r.U64();
  return update;
}

void SaveRecord(util::serial::Writer& w, const RoundRecord& record) {
  w.U64(record.round);
  w.F64(record.sim_time);
  w.F64(record.test_accuracy);
  w.U64(record.buffered);
  w.U64(record.accepted);
  w.U64(record.rejected);
  w.U64(record.deferred);
  w.U64(record.dropped_stale);
  w.F64(record.mean_staleness);
  w.I64(record.defense_micros);
  w.U64(record.staleness_histogram.size());
  for (const auto& [staleness, count] : record.staleness_histogram) {
    w.U64(staleness);
    w.U64(count);
  }
  w.U64(record.confusion.true_positive);
  w.U64(record.confusion.false_positive);
  w.U64(record.confusion.true_negative);
  w.U64(record.confusion.false_negative);
}

RoundRecord LoadRecord(util::serial::Reader& r) {
  RoundRecord record;
  record.round = r.U64();
  record.sim_time = r.F64();
  record.test_accuracy = r.F64();
  record.buffered = r.U64();
  record.accepted = r.U64();
  record.rejected = r.U64();
  record.deferred = r.U64();
  record.dropped_stale = r.U64();
  record.mean_staleness = r.F64();
  record.defense_micros = r.I64();
  const std::uint64_t histogram_size = r.U64();
  for (std::uint64_t i = 0; i < histogram_size; ++i) {
    const std::size_t staleness = r.U64();
    record.staleness_histogram[staleness] = r.U64();
  }
  record.confusion.true_positive = r.U64();
  record.confusion.false_positive = r.U64();
  record.confusion.true_negative = r.U64();
  record.confusion.false_negative = r.U64();
  return record;
}

}  // namespace

void Simulation::SaveState(util::serial::Writer& w) const {
  // Identity block: LoadState refuses a checkpoint from a different setup.
  w.U64(config_.seed);
  w.U64(config_.rounds);
  w.U64(backend_->ClientCount());
  w.U64(global_->size());
  w.Str(defense_->Name());

  // Scheduler scalars.
  w.U64(round_);
  w.F64(now_);
  w.U64(dropped_this_round_);

  // Model pool: the global model plus every distinct base model still
  // referenced by an in-flight job, deduplicated by identity so shared
  // snapshots serialize once. Parameter payloads use the AFPM framing
  // shared with nn/serialize and the net/ wire protocol — or an AFCZ
  // container when the run compresses checkpoints; LoadState sniffs.
  std::vector<Job> jobs;
  {
    auto queue = events_;  // copies are cheap: jobs share base pointers
    while (!queue.empty()) {
      jobs.push_back(queue.top());
      queue.pop();
    }
  }
  std::vector<const std::vector<float>*> pool;
  std::unordered_map<const void*, std::uint64_t> pool_index;
  pool.push_back(global_.get());
  pool_index[global_.get()] = 0;
  for (const Job& job : jobs) {
    if (pool_index.emplace(job.base.get(), pool.size()).second) {
      pool.push_back(job.base.get());
    }
  }
  w.U64(pool.size());
  for (const std::vector<float>* params : pool) {
    std::vector<std::uint8_t> block;
    if (checkpoint_codec_ != nullptr) {
      compress::AppendEncodedParams(block, *checkpoint_codec_, *params);
    } else {
      nn::AppendFlatParams(block, *params);
    }
    w.U64(block.size());
    w.Raw(block);
  }

  // Event queue (ascending completion time — the queue's pop order).
  w.U64(jobs.size());
  for (const Job& job : jobs) {
    w.F64(job.completion_time);
    w.I64(job.client_id);
    w.U64(job.dispatch_round);
    w.U64(job.job_index);
    w.U64(pool_index.at(job.base.get()));
  }

  // Per-client job counters (RNG stream positions for future jobs).
  w.U64(job_counters_.size());
  for (std::uint64_t counter : job_counters_) {
    w.U64(counter);
  }

  // Long-lived RNG engines.
  w.Str(EncodeRng(participation_rng_));
  w.Str(EncodeRng(server_rng_));

  // Colluder knowledge pool (oldest first).
  const auto window = coordinator_.Window();
  w.U64(window.size());
  for (const auto& update : window) {
    w.FloatVec(update);
  }

  // Deferred buffer carried into the next round.
  w.U64(buffer_.size());
  for (const ModelUpdate& update : buffer_) {
    SaveUpdate(w, update);
  }

  // Round records completed so far.
  w.U64(partial_.rounds.size());
  for (const RoundRecord& record : partial_.rounds) {
    SaveRecord(w, record);
  }

  // Defense cross-round state, length-framed so a defense that reads the
  // wrong byte count fails loudly at the frame boundary.
  util::serial::Writer defense_state;
  defense_->SaveState(defense_state);
  w.U64(defense_state.size());
  w.Raw(defense_state.buffer());
}

void Simulation::LoadState(util::serial::Reader& r) {
  // Identity block.
  const std::uint64_t seed = r.U64();
  const std::uint64_t rounds = r.U64();
  const std::uint64_t client_count = r.U64();
  const std::uint64_t param_count = r.U64();
  const std::string defense_name = r.Str();
  AF_CHECK_EQ(seed, config_.seed) << "checkpoint: seed mismatch";
  AF_CHECK_EQ(rounds, config_.rounds) << "checkpoint: round-count mismatch";
  AF_CHECK_EQ(client_count, backend_->ClientCount())
      << "checkpoint: client-count mismatch";
  AF_CHECK_EQ(param_count, global_->size())
      << "checkpoint: model-size mismatch";
  AF_CHECK_EQ(defense_name, defense_->Name())
      << "checkpoint: defense mismatch";

  round_ = r.U64();
  now_ = r.F64();
  dropped_this_round_ = r.U64();

  // Model pool.
  const std::uint64_t pool_size = r.U64();
  AF_CHECK_GT(pool_size, 0u) << "checkpoint: empty model pool";
  std::vector<std::shared_ptr<const std::vector<float>>> pool;
  pool.reserve(pool_size);
  for (std::uint64_t i = 0; i < pool_size; ++i) {
    const std::uint64_t block_size = r.U64();
    std::span<const std::uint8_t> tail = r.Tail();
    AF_CHECK_LE(block_size, tail.size()) << "checkpoint: truncated model pool";
    std::size_t offset = 0;
    auto params = compress::ParseAnyParams(tail.subspan(0, block_size),
                                           &offset);
    AF_CHECK_EQ(offset, block_size) << "checkpoint: model block trailing bytes";
    AF_CHECK_EQ(params.size(), global_->size())
        << "checkpoint: pooled model size mismatch";
    pool.push_back(
        std::make_shared<const std::vector<float>>(std::move(params)));
    r.Skip(block_size);
  }
  global_ = pool[0];

  // Event queue.
  events_ = decltype(events_){};
  const std::uint64_t num_jobs = r.U64();
  for (std::uint64_t i = 0; i < num_jobs; ++i) {
    Job job;
    job.completion_time = r.F64();
    job.client_id = static_cast<int>(r.I64());
    job.dispatch_round = r.U64();
    job.job_index = r.U64();
    const std::uint64_t base_index = r.U64();
    AF_CHECK_LT(base_index, pool.size()) << "checkpoint: bad base index";
    job.base = pool[base_index];
    events_.push(std::move(job));
  }

  // Job counters.
  const std::uint64_t num_counters = r.U64();
  AF_CHECK_EQ(num_counters, job_counters_.size())
      << "checkpoint: job-counter count mismatch";
  for (auto& counter : job_counters_) {
    counter = r.U64();
  }

  DecodeRng(r.Str(), participation_rng_);
  DecodeRng(r.Str(), server_rng_);

  // Colluder knowledge pool.
  const std::uint64_t window_size = r.U64();
  std::vector<std::vector<float>> window;
  window.reserve(window_size);
  for (std::uint64_t i = 0; i < window_size; ++i) {
    window.push_back(r.FloatVec());
  }
  coordinator_.RestoreWindow(std::move(window));

  // Deferred buffer.
  buffer_.clear();
  const std::uint64_t buffer_size = r.U64();
  buffer_.reserve(buffer_size);
  for (std::uint64_t i = 0; i < buffer_size; ++i) {
    buffer_.push_back(LoadUpdate(r));
  }

  // Completed round records.
  partial_ = SimulationResult{};
  const std::uint64_t num_records = r.U64();
  partial_.rounds.reserve(num_records);
  for (std::uint64_t i = 0; i < num_records; ++i) {
    partial_.rounds.push_back(LoadRecord(r));
  }
  AF_CHECK_EQ(partial_.rounds.size(), round_)
      << "checkpoint: record/round mismatch";

  // Defense state.
  defense_->Reset();
  const std::uint64_t defense_bytes = r.U64();
  std::span<const std::uint8_t> tail = r.Tail();
  AF_CHECK_LE(defense_bytes, tail.size())
      << "checkpoint: truncated defense state";
  util::serial::Reader defense_reader(tail.subspan(0, defense_bytes));
  defense_->LoadState(defense_reader);
  AF_CHECK(defense_reader.AtEnd())
      << "checkpoint: defense state has " << defense_reader.remaining()
      << " unread bytes (Save/Load mismatch in " << defense_->Name() << ")";
  r.Skip(defense_bytes);

  resumed_ = true;
}

}  // namespace fl
