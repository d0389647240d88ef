#include "fl/runtime_options.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/flags.h"

namespace fl {
namespace {

util::FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return util::FlagParser(static_cast<int>(args.size()), args.data());
}

ExperimentConfig Applied(const std::vector<const char*>& args,
                         std::uint64_t seed = 7) {
  const util::FlagParser flags = Parse(args);
  const RuntimeOptions runtime = RuntimeOptions::FromFlags(flags, seed);
  runtime.Validate();
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  runtime.ApplyTo(&config);
  return config;
}

TEST(RuntimeOptionsTest, EveryFlagLandsInItsConfigField) {
  const ExperimentConfig config = Applied({
      "--clients=31", "--malicious=4", "--partition=55", "--buffer=9",
      "--rounds=13", "--staleness-limit=5", "--dirichlet=0.01",
      "--zipf=2.5", "--gd-scale=2.25", "--threads=3", "--transport=tcp",
      "--port=65535", "--fault-drop=0.1", "--fault-delay=0.2",
      "--fault-duplicate=0.3", "--fault-truncate=0.05",
      "--fault-delay-ms=7", "--fault-kill=0.25", "--compress=fp16",
      "--pool-connections=8", "--pool-workers=2", "--pool-latency-ms=1.5",
      "--pool-latency-zipf=0.7",
  }, /*seed=*/11);
  EXPECT_EQ(config.num_clients, 31u);
  EXPECT_EQ(config.num_malicious, 4u);
  EXPECT_EQ(config.partition_size, 55u);
  EXPECT_EQ(config.sim.buffer_goal, 9u);
  EXPECT_EQ(config.sim.rounds, 13u);
  EXPECT_EQ(config.sim.staleness_limit, 5u);
  EXPECT_DOUBLE_EQ(config.dirichlet_alpha, 0.01);
  EXPECT_DOUBLE_EQ(config.sim.zipf_s, 2.5);
  EXPECT_DOUBLE_EQ(config.gd_scale, 2.25);
  EXPECT_EQ(config.threads, 3u);
  EXPECT_EQ(config.transport, TransportKind::kTcp);
  EXPECT_EQ(config.net.port, 65535);
  EXPECT_DOUBLE_EQ(config.net.faults.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(config.net.faults.delay_prob, 0.2);
  EXPECT_DOUBLE_EQ(config.net.faults.duplicate_prob, 0.3);
  EXPECT_DOUBLE_EQ(config.net.faults.truncate_prob, 0.05);
  EXPECT_DOUBLE_EQ(config.net.faults.delay_ms, 7.0);
  EXPECT_DOUBLE_EQ(config.net.faults.kill_fraction, 0.25);
  EXPECT_EQ(config.net.faults.seed, 11u);
  EXPECT_EQ(config.compress, "fp16");
  EXPECT_EQ(config.pool.connections, 8);
  EXPECT_EQ(config.pool.workers, 2);
  EXPECT_DOUBLE_EQ(config.pool.latency.base_ms, 1.5);
  EXPECT_DOUBLE_EQ(config.pool.latency.zipf_s, 0.7);

  const RuntimeOptions metrics = RuntimeOptions::FromFlags(
      Parse({"--metrics-port=9464", "--clients-virtual"}), 7);
  EXPECT_TRUE(metrics.has_metrics_port);
  EXPECT_EQ(metrics.metrics_port, 9464);
  EXPECT_EQ(metrics.pool.mode, ClientPoolSpec::Mode::kVirtual);
}

TEST(RuntimeOptionsTest, OmittedFlagsKeepTheCliDefaults) {
  for (data::Profile profile :
       {data::Profile::kMnist, data::Profile::kCinic10}) {
    const RuntimeOptions runtime = RuntimeOptions::FromFlags(Parse({}), 7);
    ExperimentConfig config = MakeDefaultConfig(profile, 7);
    const std::size_t profile_partition = config.partition_size;
    runtime.ApplyTo(&config);
    EXPECT_EQ(config.num_clients, 50u);
    EXPECT_EQ(config.num_malicious, 10u);
    EXPECT_EQ(config.partition_size, profile_partition);
    EXPECT_EQ(config.sim.buffer_goal, 20u);
    EXPECT_EQ(config.sim.rounds, 20u);
    EXPECT_EQ(config.sim.staleness_limit, 20u);
    EXPECT_DOUBLE_EQ(config.dirichlet_alpha, 0.1);
    EXPECT_DOUBLE_EQ(config.sim.zipf_s, 1.2);
    EXPECT_DOUBLE_EQ(config.gd_scale, ExperimentConfig().gd_scale);
    EXPECT_EQ(config.threads, 0u);
    EXPECT_EQ(config.transport, TransportKind::kInproc);
    EXPECT_EQ(config.net.port, 0);
    EXPECT_FALSE(config.net.faults.Any());
    EXPECT_TRUE(config.compress.empty());
    EXPECT_EQ(config.pool.mode, ClientPoolSpec::Mode::kReal);
    EXPECT_FALSE(runtime.has_metrics_port);
  }
}

TEST(RuntimeOptionsTest, OmittedFlagsKeepTheCallersDefaults) {
  RuntimeOptions defaults;
  defaults.clients = 60;
  defaults.malicious = 0;
  defaults.rounds = 18;
  const RuntimeOptions runtime =
      RuntimeOptions::FromFlags(Parse({"--rounds=3"}), 7, defaults);
  EXPECT_EQ(runtime.clients, 60u);
  EXPECT_EQ(runtime.malicious, 0u);
  EXPECT_EQ(runtime.rounds, 3u);
}

// Each value below used to pass unchecked: -1 became SIZE_MAX clients or a
// SIZE_MAX-thread pool, 65536 wrapped to port 0, a drop probability of 1.5
// reached the fault injector. They must fail in the parser, before anything
// is built from them.
TEST(RuntimeOptionsTest, RejectsOutOfRangeValuesBeforeAnyCast) {
  for (const char* bad : {
           "--clients=-1", "--clients=0", "--malicious=-1",
           "--partition=0", "--partition=-5", "--buffer=0", "--rounds=-1",
           "--staleness-limit=-1", "--threads=-1", "--threads=100000",
           "--port=65536", "--port=-1", "--metrics-port=65536",
           "--metrics-port=70000", "--pool-connections=4294967297",
           "--pool-workers=-1", "--pool-workers=5000", "--dirichlet=0",
           "--dirichlet=-0.1", "--dirichlet=nan", "--zipf=-1",
           "--zipf=inf", "--gd-scale=nan", "--clients=7x",
           "--fault-drop=1.5", "--fault-kill=-0.1", "--fault-delay=nan",
           "--fault-delay-ms=-1",
       }) {
    EXPECT_THROW(RuntimeOptions::FromFlags(Parse({bad}), 7),
                 util::CheckError)
        << bad;
  }
}

TEST(RuntimeOptionsTest, ValidateRejectsMoreAttackersThanClients) {
  const RuntimeOptions runtime = RuntimeOptions::FromFlags(
      Parse({"--clients=5", "--malicious=6"}), 7);
  EXPECT_THROW(runtime.Validate(), util::CheckError);
}

}  // namespace
}  // namespace fl
