// The run record writer (fl/run_record.h): every record type's line
// format, its null rules and the sink's open/close behaviour, plus the
// observability smoke test: a short instrumented run must produce the
// expected spans and metrics while leaving SimulationResult bit-identical.
#include "fl/run_record.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fl {
namespace {

SimulationResult MakeFakeResult() {
  SimulationResult result;
  for (std::size_t i = 0; i < 3; ++i) {
    RoundRecord r;
    r.round = i;
    r.sim_time = 1.5 * static_cast<double>(i + 1);
    r.test_accuracy = (i == 1) ? -1.0 : 0.5 + 0.1 * static_cast<double>(i);
    r.buffered = 6;
    r.accepted = 4;
    r.rejected = 1;
    r.deferred = 1;
    r.dropped_stale = i;
    r.mean_staleness = 0.5;
    r.defense_micros = static_cast<long long>(100 * (i + 1));
    r.staleness_histogram[0] = 4;
    r.staleness_histogram[3] = 2;
    r.confusion.true_positive = 1;
    r.confusion.true_negative = 5;
    result.rounds.push_back(r);
  }
  FinalizeResult(result);
  return result;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// Writes `write(record)` through a fresh sink and returns the file's lines.
template <typename Write>
std::vector<std::string> Record(const std::string& name, Write write) {
  const std::string path = ::testing::TempDir() + name;
  RunRecord record;
  record.Open(path);
  write(record);
  record.Close();
  std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(obs::JsonLint(line, &error)) << error << "\n" << line;
  }
  return lines;
}

TEST(TelemetryTest, JsonlHasOneValidLinePerRound) {
  const SimulationResult result = MakeFakeResult();
  const std::vector<std::string> lines = Record(
      "rounds_test.jsonl",
      [&](RunRecord& record) { record.WriteResult(result); });

  ASSERT_EQ(lines.size(), result.rounds.size() + 1);  // + the summary
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_TRUE(StartsWith(lines[i],
                           "{\"schema_version\":1,\"type\":\"round\","))
        << lines[i];
    EXPECT_TRUE(Contains(lines[i], "\"defense_micros\""));
    EXPECT_TRUE(Contains(lines[i], "\"confusion\""));
  }
  // Round 1 was not evaluated: accuracy must be JSON null, not -1.
  EXPECT_TRUE(Contains(lines[1], "\"test_accuracy\":null"));
  EXPECT_FALSE(Contains(lines[0], "\"test_accuracy\":null"));
  EXPECT_TRUE(
      Contains(lines[0], "\"staleness_histogram\":{\"0\":4,\"3\":2}"));
}

TEST(TelemetryTest, SummaryRecordCarriesLatencyPercentiles) {
  const SimulationResult result = MakeFakeResult();
  const std::vector<std::string> lines = Record(
      "summary_test.jsonl",
      [&](RunRecord& record) { record.WriteResult(result); });
  ASSERT_FALSE(lines.empty());
  const std::string& summary = lines.back();
  EXPECT_TRUE(StartsWith(summary,
                         "{\"schema_version\":1,\"type\":\"summary\","))
      << summary;
  EXPECT_TRUE(Contains(summary, "\"final_accuracy\""));
  EXPECT_TRUE(Contains(summary, "\"rounds\":3"));
  EXPECT_TRUE(Contains(summary, "\"confusion\":{\"tp\":3,\"fp\":0,"
                                "\"tn\":15,\"fn\":0}"));
  EXPECT_TRUE(Contains(summary, "\"p50_micros\""));
  EXPECT_TRUE(Contains(summary, "\"p99_micros\""));
}

TEST(TelemetryTest, RunRecordNamesTheConfiguredRun) {
  ExperimentConfig config = MakeDefaultConfig(data::Profile::kMnist, 9);
  config.num_clients = 12;
  config.sim.rounds = 4;
  const std::vector<std::string> lines =
      Record("run_test.jsonl", [&](RunRecord& record) {
        record.WriteRun({"mnist", "min-max", "asyncfilter"}, config);
      });
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(StartsWith(lines[0],
                         "{\"schema_version\":1,\"type\":\"run\","
                         "\"profile\":\"mnist\",\"attack\":\"min-max\","
                         "\"defense\":\"asyncfilter\",\"seed\":9,"
                         "\"clients\":12,"))
      << lines[0];
  EXPECT_TRUE(Contains(lines[0], "\"rounds\":4"));
  EXPECT_TRUE(Contains(lines[0], "\"transport\":\"inproc\""));
  EXPECT_TRUE(Contains(lines[0], "\"compress\":null"));
  EXPECT_TRUE(Contains(lines[0], "\"clients_virtual\":false"));
}

TEST(TelemetryTest, UpdateRecordsWriteUnknownsAsNull) {
  const std::vector<std::string> lines =
      Record("update_test.jsonl", [](RunRecord& record) {
        UpdateRecord scored;
        scored.round = 3;
        scored.client_id = 7;
        scored.staleness = 2;
        scored.has_score = true;
        scored.score = 0.8125;
        scored.verdict = defense::Verdict::kRejected;
        scored.malicious = true;
        scored.codec = "fp16";
        scored.wire_bytes = 1234;
        scored.queue_wait_us = 55.5;
        scored.scoring_us = 12.0;
        scored.trace_id = 0xDEADBEEFull;
        record.AppendUpdate(scored);

        UpdateRecord bare;  // every optional field at its "unknown" default
        bare.round = 4;
        bare.client_id = 1;
        record.AppendUpdate(bare);
      });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[0],
                         "{\"schema_version\":1,\"type\":\"update\","));
  EXPECT_TRUE(Contains(lines[0], "\"verdict\":\"rejected\""));
  EXPECT_TRUE(Contains(lines[0], "\"malicious\":true"));
  EXPECT_TRUE(Contains(lines[0], "\"score\":0.8125"));
  EXPECT_TRUE(Contains(lines[0], "\"codec\":\"fp16\""));
  EXPECT_TRUE(Contains(lines[0], "\"wire_bytes\":1234"));
  EXPECT_TRUE(Contains(lines[0], "\"trace_id\":\"" +
                                     obs::TraceIdHex(0xDEADBEEFull)));
  // Unknowns are explicit nulls, never absent and never fake zeros.
  EXPECT_TRUE(Contains(lines[1], "\"verdict\":\"accepted\""));
  EXPECT_TRUE(Contains(lines[1], "\"malicious\":false"));
  EXPECT_TRUE(Contains(lines[1], "\"score\":null"));
  EXPECT_TRUE(Contains(lines[1], "\"codec\":null"));
  EXPECT_TRUE(Contains(lines[1], "\"wire_bytes\":null"));
  EXPECT_TRUE(Contains(lines[1], "\"queue_wait_us\":null"));
  EXPECT_TRUE(Contains(lines[1], "\"trace_id\":null"));
  EXPECT_TRUE(Contains(lines[1], "\"reason\":null"));
}

TEST(TelemetryTest, VerdictNamesMatchDefenseVerdicts) {
  EXPECT_STREQ(VerdictName(defense::Verdict::kAccepted), "accepted");
  EXPECT_STREQ(VerdictName(defense::Verdict::kRejected), "rejected");
  EXPECT_STREQ(VerdictName(defense::Verdict::kDeferred), "deferred");
}

TEST(TelemetryTest, ClosedRecordDropsWritesSilently) {
  RunRecord record;
  EXPECT_FALSE(record.enabled());
  record.AppendUpdate({});  // must be a no-op, not a crash
  record.WriteResult(MakeFakeResult());
  record.Close();  // closing a closed record is fine too
}

TEST(TelemetryTest, ReopenTruncates) {
  const std::string path = ::testing::TempDir() + "record_reopen.jsonl";
  RunRecord record;
  record.Open(path);
  record.AppendUpdate({});
  record.Close();

  record.Open(path);
  record.Close();
  EXPECT_TRUE(ReadLines(path).empty());
  std::remove(path.c_str());
}

TEST(TelemetryTest, OpenThrowsOnUnwritablePath) {
  RunRecord record;
  EXPECT_THROW(record.Open("/nonexistent-dir/run.jsonl"),
               std::runtime_error);
  EXPECT_FALSE(record.enabled());
}

TEST(TelemetryTest, FinalizeResultSummarisesDefenseLatency) {
  const SimulationResult result = MakeFakeResult();  // 100/200/300 μs rounds
  EXPECT_EQ(result.defense_latency.samples, 3u);
  EXPECT_EQ(result.defense_latency.total_micros, 600);
  EXPECT_DOUBLE_EQ(result.defense_latency.max_micros, 300.0);
  EXPECT_GT(result.defense_latency.p50_micros, 0.0);
  EXPECT_LE(result.defense_latency.p50_micros,
            result.defense_latency.p95_micros);
  EXPECT_LE(result.defense_latency.p95_micros,
            result.defense_latency.p99_micros);
  EXPECT_LE(result.defense_latency.p99_micros, 300.0);
}

ExperimentConfig SmokeConfig(std::uint64_t seed) {
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 20;
  config.num_malicious = 4;
  config.train_pool = 800;
  config.test_samples = 200;
  config.partition_size = 40;
  config.sim.buffer_goal = 8;
  config.sim.rounds = 2;
  config.sim.local.epochs = 1;
  config.threads = 2;
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  return config;
}

// The ISSUE 1 acceptance smoke test: a 2-round instrumented run emits the
// expected spans and metrics, and turning tracing on changes nothing about
// the simulation's output.
TEST(ObservabilitySmokeTest, TwoRoundRunEmitsSpansAndMetricsWithoutDrift) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();

  // Baseline: tracing off.
  recorder.SetEnabled(false);
  recorder.Clear();
  obs::DefaultRegistry().Reset();
  const SimulationResult baseline = RunExperiment(SmokeConfig(21));
  EXPECT_EQ(recorder.SpanCount(), 0u);

  // Instrumented: tracing on, same seed.
  recorder.SetEnabled(true);
  recorder.Clear();
  obs::DefaultRegistry().Reset();
  const SimulationResult traced = RunExperiment(SmokeConfig(21));
  recorder.SetEnabled(false);

  // Zero behavioural change: bit-identical model and identical round records.
  ASSERT_EQ(traced.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(traced.final_model, baseline.final_model);
  EXPECT_DOUBLE_EQ(traced.final_accuracy, baseline.final_accuracy);
  for (std::size_t i = 0; i < baseline.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(traced.rounds[i].test_accuracy,
                     baseline.rounds[i].test_accuracy);
    EXPECT_EQ(traced.rounds[i].accepted, baseline.rounds[i].accepted);
    EXPECT_EQ(traced.rounds[i].rejected, baseline.rounds[i].rejected);
    EXPECT_EQ(traced.rounds[i].staleness_histogram,
              baseline.rounds[i].staleness_histogram);
  }

  // The hot paths all reported spans.
  std::set<std::string> names;
  for (const obs::SpanEvent& event : recorder.Snapshot()) {
    names.insert(event.name);
  }
  for (const char* expected :
       {"sim.run", "train.wave", "client.train", "defense.process",
        "filter.process", "filter.score", "filter.cluster", "kmeans.run",
        "kmeans.iter", "eval.accuracy", "threadpool.task"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing span: " << expected;
  }

  // And the metrics registry saw the run.
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  const obs::Labels labels{{"defense", "AsyncFilter"}};
  EXPECT_EQ(registry.GetCounter("sim.rounds", labels).Value(), 2u);
  EXPECT_EQ(registry.GetHistogram("defense.latency_us", labels).Count(), 2u);
  EXPECT_GT(registry.GetHistogram("sim.update_staleness", labels).Count(), 0u);
  const std::string snapshot = registry.SnapshotJson();
  std::string error;
  EXPECT_TRUE(obs::JsonLint(snapshot, &error)) << error;
  EXPECT_NE(snapshot.find("\"defense.latency_us\""), std::string::npos);

  recorder.Clear();
  obs::DefaultRegistry().Reset();
}

}  // namespace
}  // namespace fl
