#include "fl/run_record.h"

#include <stdexcept>

#include "obs/json.h"
#include "obs/trace.h"

namespace fl {
namespace {

// Opens a record object with its two leading keys.
void BeginRecord(obs::JsonWriter& json, const char* type) {
  json.BeginObject();
  json.Key("schema_version").Int(kRunRecordSchemaVersion);
  json.Key("type").String(type);
}

void AppendConfusion(obs::JsonWriter& json, const ConfusionCounts& confusion) {
  json.Key("confusion").BeginObject();
  json.Key("tp").UInt(confusion.true_positive);
  json.Key("fp").UInt(confusion.false_positive);
  json.Key("tn").UInt(confusion.true_negative);
  json.Key("fn").UInt(confusion.false_negative);
  json.EndObject();
}

void StringOrNull(obs::JsonWriter& json, std::string_view key,
                  std::string_view value) {
  json.Key(key);
  if (value.empty()) {
    json.Null();
  } else {
    json.String(value);
  }
}

std::string RoundJson(const RoundRecord& r) {
  obs::JsonWriter json;
  BeginRecord(json, "round");
  json.Key("round").UInt(r.round);
  json.Key("sim_time").Number(r.sim_time);
  json.Key("test_accuracy");
  if (r.test_accuracy >= 0.0) {
    json.Number(r.test_accuracy);
  } else {
    json.Null();
  }
  json.Key("buffered").UInt(r.buffered);
  json.Key("accepted").UInt(r.accepted);
  json.Key("rejected").UInt(r.rejected);
  json.Key("deferred").UInt(r.deferred);
  json.Key("dropped_stale").UInt(r.dropped_stale);
  json.Key("mean_staleness").Number(r.mean_staleness);
  json.Key("defense_micros").Int(r.defense_micros);
  json.Key("staleness_histogram").BeginObject();
  for (const auto& [staleness, count] : r.staleness_histogram) {
    json.Key(std::to_string(staleness)).UInt(count);
  }
  json.EndObject();
  AppendConfusion(json, r.confusion);
  json.EndObject();
  return json.TakeString();
}

std::string SummaryJson(const SimulationResult& result) {
  obs::JsonWriter json;
  BeginRecord(json, "summary");
  json.Key("final_accuracy").Number(result.final_accuracy);
  json.Key("rounds").UInt(result.rounds.size());
  json.Key("wall_seconds").Number(result.wall_seconds);
  json.Key("total_dropped_stale").UInt(result.total_dropped_stale);
  json.Key("detection_precision").Number(result.total_confusion.Precision());
  json.Key("detection_recall").Number(result.total_confusion.Recall());
  AppendConfusion(json, result.total_confusion);
  json.Key("defense_latency").BeginObject();
  json.Key("total_micros").Int(result.defense_latency.total_micros);
  json.Key("samples").UInt(result.defense_latency.samples);
  json.Key("p50_micros").Number(result.defense_latency.p50_micros);
  json.Key("p95_micros").Number(result.defense_latency.p95_micros);
  json.Key("p99_micros").Number(result.defense_latency.p99_micros);
  json.Key("max_micros").Number(result.defense_latency.max_micros);
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

}  // namespace

const char* VerdictName(defense::Verdict verdict) {
  switch (verdict) {
    case defense::Verdict::kAccepted:
      return "accepted";
    case defense::Verdict::kRejected:
      return "rejected";
    case defense::Verdict::kDeferred:
      return "deferred";
  }
  return "?";
}

RunRecord& RunRecord::Global() {
  static RunRecord* record = new RunRecord();
  return *record;
}

void RunRecord::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.close();
  out_.clear();
  out_.open(path, std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("cannot open run record: " + path);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void RunRecord::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_.is_open()) {
    out_.close();
  }
}

void RunRecord::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) {  // else lost a race with Close(): drop the line
    out_ << line << '\n';
  }
}

void RunRecord::WriteRun(const RunLabels& labels,
                         const ExperimentConfig& config) {
  if (!enabled()) {
    return;
  }
  obs::JsonWriter json;
  BeginRecord(json, "run");
  json.Key("profile").String(labels.profile);
  json.Key("attack").String(labels.attack);
  json.Key("defense").String(labels.defense);
  json.Key("seed").UInt(config.sim.seed);
  json.Key("clients").UInt(config.num_clients);
  json.Key("malicious").UInt(config.num_malicious);
  json.Key("partition").UInt(config.partition_size);
  json.Key("buffer").UInt(config.sim.buffer_goal);
  json.Key("rounds").UInt(config.sim.rounds);
  json.Key("staleness_limit").UInt(config.sim.staleness_limit);
  json.Key("dirichlet").Number(config.dirichlet_alpha);
  json.Key("zipf").Number(config.sim.zipf_s);
  json.Key("gd_scale").Number(config.gd_scale);
  json.Key("threads").UInt(config.threads);
  json.Key("transport").String(TransportKindName(config.transport));
  StringOrNull(json, "compress", config.compress);
  json.Key("clients_virtual")
      .Bool(config.pool.mode == ClientPoolSpec::Mode::kVirtual);
  json.EndObject();
  WriteLine(json.str());
}

void RunRecord::AppendUpdate(const UpdateRecord& record) {
  if (!enabled()) {
    return;
  }
  obs::JsonWriter json;
  BeginRecord(json, "update");
  json.Key("round").UInt(record.round);
  json.Key("client_id").Int(record.client_id);
  json.Key("staleness").UInt(record.staleness);
  json.Key("score");
  if (record.has_score) {
    json.Number(record.score);
  } else {
    json.Null();
  }
  json.Key("verdict").String(VerdictName(record.verdict));
  json.Key("malicious").Bool(record.malicious);
  StringOrNull(json, "codec", record.codec);
  json.Key("wire_bytes");
  if (record.wire_bytes == 0) {
    json.Null();
  } else {
    json.UInt(record.wire_bytes);
  }
  json.Key("queue_wait_us");
  if (record.queue_wait_us < 0.0) {
    json.Null();
  } else {
    json.Number(record.queue_wait_us);
  }
  json.Key("scoring_us").Number(record.scoring_us);
  json.Key("trace_id");
  if (record.trace_id == 0) {
    json.Null();
  } else {
    json.String(obs::TraceIdHex(record.trace_id));
  }
  StringOrNull(json, "reason", record.reason);
  json.EndObject();
  WriteLine(json.str());
}

void RunRecord::WriteResult(const SimulationResult& result) {
  if (!enabled()) {
    return;
  }
  for (const RoundRecord& r : result.rounds) {
    WriteLine(RoundJson(r));
  }
  WriteLine(SummaryJson(result));
}

}  // namespace fl
