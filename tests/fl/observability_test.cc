// The live observability plane's correctness contracts: the run record's
// `update` lines reconcile exactly with SimulationResult, recording and the
// /metrics exporter are
// observation-only (bit-identical results on or off), and trace ids are
// deterministic pure functions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "fl/experiment.h"
#include "fl/run_record.h"
#include "fl/trace_context.h"
#include "obs/export.h"
#include "obs/json.h"

namespace fl {
namespace {

ExperimentConfig TinyConfig(std::uint64_t seed) {
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 12;
  config.num_malicious = 3;
  config.train_pool = 600;
  config.test_samples = 200;
  config.partition_size = 40;
  config.sim.buffer_goal = 6;
  config.sim.rounds = 6;
  config.sim.local.epochs = 1;
  config.threads = 2;
  return config;
}

// Close the global run record after each test: it is process-wide state
// shared with every other simulation-running test.
class ObservabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { RunRecord::Global().Close(); }
};

// The value of `"key":` in one JSONL line (up to the next ',' or '}').
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return "<missing>";
  }
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

TEST_F(ObservabilityTest, AuditCountsReconcileExactlyWithSimulationResult) {
  const std::string path = ::testing::TempDir() + "obs_record_run.jsonl";
  ExperimentConfig config = TinyConfig(71);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  RunRecord& record = RunRecord::Global();
  record.Open(path);
  const SimulationResult result = RunExperiment(config);
  record.Close();

  // The `update` lines and RoundRecord are tallied in the same loop; their
  // counts must agree exactly, per round, per verdict and per ground truth.
  std::map<std::size_t, RoundRecord> tallies;
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    std::string error;
    ASSERT_TRUE(obs::JsonLint(line, &error)) << error << "\n" << line;
    ASSERT_EQ(Field(line, "type"), "\"update\"") << line;
    const int client = std::stoi(Field(line, "client_id"));
    EXPECT_GE(client, 0);
    EXPECT_LT(client, static_cast<int>(config.num_clients));
    RoundRecord& tally = tallies[std::stoul(Field(line, "round"))];
    const std::string verdict = Field(line, "verdict");
    const std::string malicious = Field(line, "malicious");
    ASSERT_TRUE(malicious == "true" || malicious == "false") << line;
    const bool truth = malicious == "true";
    ++tally.buffered;
    if (verdict == "\"rejected\"") {
      ++tally.rejected;
      ++(truth ? tally.confusion.true_positive
               : tally.confusion.false_positive);
    } else {
      ASSERT_TRUE(verdict == "\"accepted\"" || verdict == "\"deferred\"")
          << line;
      ++(verdict == "\"accepted\"" ? tally.accepted : tally.deferred);
      ++(truth ? tally.confusion.false_negative
               : tally.confusion.true_negative);
    }
    ++lines;
  }
  in.close();
  std::remove(path.c_str());

  std::size_t buffered = 0;
  for (const RoundRecord& round : result.rounds) {
    SCOPED_TRACE(round.round);
    const RoundRecord& tally = tallies[round.round];
    EXPECT_EQ(tally.buffered, round.buffered);
    EXPECT_EQ(tally.accepted, round.accepted);
    EXPECT_EQ(tally.rejected, round.rejected);
    EXPECT_EQ(tally.deferred, round.deferred);
    EXPECT_EQ(tally.confusion.true_positive, round.confusion.true_positive);
    EXPECT_EQ(tally.confusion.false_positive, round.confusion.false_positive);
    EXPECT_EQ(tally.confusion.true_negative, round.confusion.true_negative);
    EXPECT_EQ(tally.confusion.false_negative, round.confusion.false_negative);
    buffered += round.buffered;
  }
  EXPECT_EQ(lines, buffered);
  EXPECT_EQ(tallies.size(), result.rounds.size());
}

TEST_F(ObservabilityTest, AuditOnLeavesResultsBitIdentical) {
  const std::string path = ::testing::TempDir() + "obs_record_identical.jsonl";
  ExperimentConfig config = TinyConfig(72);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  const SimulationResult plain = RunExperiment(config);
  RunRecord::Global().Open(path);
  const SimulationResult audited = RunExperiment(config);
  RunRecord::Global().Close();
  std::remove(path.c_str());

  EXPECT_EQ(audited.final_model, plain.final_model);  // bit-exact
  EXPECT_EQ(audited.final_accuracy, plain.final_accuracy);
}

TEST_F(ObservabilityTest, ExporterOnLeavesResultsBitIdentical) {
  ExperimentConfig config = TinyConfig(73);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  const SimulationResult off = RunExperiment(config);
  SimulationResult on;
  {
    obs::MetricsExporter exporter;  // live on an ephemeral port for the run
    ASSERT_NE(exporter.port(), 0);
    on = RunExperiment(config);
  }
  EXPECT_EQ(on.final_model, off.final_model);  // bit-exact
  EXPECT_EQ(on.final_accuracy, off.final_accuracy);
  EXPECT_EQ(on.rounds.size(), off.rounds.size());
}

TEST(TraceContextTest, TraceIdsAreDeterministicNonZeroAndDistinct) {
  // Same (seed, client, job) → same id on server and client; trace-plane
  // zero ("no context") can never be produced.
  EXPECT_EQ(TraceIdFor(42, 3, 7), TraceIdFor(42, 3, 7));
  std::set<std::uint64_t> ids;
  for (int client = 0; client < 8; ++client) {
    for (std::uint64_t job = 0; job < 8; ++job) {
      const std::uint64_t id = TraceIdFor(42, client, job);
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), 64u);  // no collisions across a small grid
  EXPECT_NE(TraceIdFor(42, 3, 7), TraceIdFor(43, 3, 7));  // seed matters

  // Span ids within a trace are distinct from each other and the trace id.
  const std::uint64_t trace = TraceIdFor(42, 3, 7);
  const std::set<std::uint64_t> span_ids{trace, DispatchSpanId(trace),
                                         TrainSpanId(trace),
                                         DefenseSpanId(trace)};
  EXPECT_EQ(span_ids.size(), 4u);
}

}  // namespace
}  // namespace fl
