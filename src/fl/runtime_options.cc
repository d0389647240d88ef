#include "fl/runtime_options.h"

#include <cmath>
#include <limits>

#include "compress/codec.h"
#include "util/check.h"
#include "util/flags.h"

namespace fl {
namespace {

// Counts (clients, rounds, …) fit the int client ids the simulator uses;
// thread-spawning knobs stay far below what a host can start.
constexpr std::int64_t kMaxCount = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxThreads = 1024;
constexpr std::int64_t kMaxPort = 65535;

// An integer flag, range-checked before any narrowing cast so that -1 never
// becomes SIZE_MAX and 65536 never wraps to port 0.
std::int64_t IntIn(const util::FlagParser& flags, const std::string& name,
                   std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = flags.GetInt(name, fallback);
  AF_CHECK(value >= lo && value <= hi)
      << "--" << name << " must be in [" << lo << ", " << hi << "], got "
      << value;
  return value;
}

std::size_t SizeIn(const util::FlagParser& flags, const std::string& name,
                   std::size_t fallback, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(
      IntIn(flags, name, static_cast<std::int64_t>(fallback), lo, hi));
}

double FiniteDouble(const util::FlagParser& flags, const std::string& name,
                    double fallback) {
  const double value = flags.GetDouble(name, fallback);
  AF_CHECK(std::isfinite(value))
      << "--" << name << " must be a finite number, got " << value;
  return value;
}

double Probability(const util::FlagParser& flags, const std::string& name,
                   double fallback) {
  const double value = FiniteDouble(flags, name, fallback);
  AF_CHECK(value >= 0.0 && value <= 1.0)
      << "--" << name << " must be in [0, 1], got " << value;
  return value;
}

}  // namespace

const std::vector<std::string>& RuntimeOptions::FlagNames() {
  static const std::vector<std::string> kNames = {
      "clients",        "malicious",
      "partition",      "buffer",
      "rounds",         "staleness-limit",
      "dirichlet",      "zipf",
      "gd-scale",       "threads",
      "transport",      "port",
      "fault-drop",     "fault-delay",
      "fault-duplicate", "fault-truncate",
      "fault-delay-ms", "fault-kill",
      "compress",       "metrics-port",
      "clients-virtual", "pool-connections",
      "pool-workers",   "pool-latency-ms",
      "pool-latency-zipf",
  };
  return kNames;
}

RuntimeOptions RuntimeOptions::FromFlags(const util::FlagParser& flags,
                                         std::uint64_t seed,
                                         const RuntimeOptions& defaults) {
  RuntimeOptions options = defaults;
  options.clients = SizeIn(flags, "clients", defaults.clients, 1, kMaxCount);
  options.malicious =
      SizeIn(flags, "malicious", defaults.malicious, 0, kMaxCount);
  if (flags.Has("partition")) {
    options.partition = SizeIn(flags, "partition", 0, 1, kMaxCount);
  }
  options.buffer = SizeIn(flags, "buffer", defaults.buffer, 1, kMaxCount);
  options.rounds = SizeIn(flags, "rounds", defaults.rounds, 0, kMaxCount);
  options.staleness_limit = SizeIn(flags, "staleness-limit",
                                   defaults.staleness_limit, 0, kMaxCount);
  options.dirichlet = FiniteDouble(flags, "dirichlet", defaults.dirichlet);
  AF_CHECK_GT(options.dirichlet, 0.0) << "--dirichlet must be > 0";
  options.zipf = FiniteDouble(flags, "zipf", defaults.zipf);
  AF_CHECK_GE(options.zipf, 0.0) << "--zipf must be >= 0";
  options.gd_scale = FiniteDouble(flags, "gd-scale", defaults.gd_scale);
  options.threads = SizeIn(flags, "threads", defaults.threads, 0, kMaxThreads);

  if (flags.Has("transport")) {
    options.transport = ParseTransportKind(flags.GetString("transport", ""));
  }
  options.net.port = static_cast<std::uint16_t>(
      IntIn(flags, "port", defaults.net.port, 0, kMaxPort));
  options.net.faults.drop_prob =
      Probability(flags, "fault-drop", defaults.net.faults.drop_prob);
  options.net.faults.delay_prob =
      Probability(flags, "fault-delay", defaults.net.faults.delay_prob);
  options.net.faults.duplicate_prob = Probability(
      flags, "fault-duplicate", defaults.net.faults.duplicate_prob);
  options.net.faults.truncate_prob =
      Probability(flags, "fault-truncate", defaults.net.faults.truncate_prob);
  options.net.faults.delay_ms =
      FiniteDouble(flags, "fault-delay-ms", defaults.net.faults.delay_ms);
  AF_CHECK_GE(options.net.faults.delay_ms, 0.0)
      << "--fault-delay-ms must be >= 0";
  options.net.faults.kill_fraction =
      Probability(flags, "fault-kill", defaults.net.faults.kill_fraction);
  options.net.faults.seed = seed;
  options.compress = flags.GetString("compress", defaults.compress);
  if (flags.GetBool("clients-virtual", false)) {
    options.pool.mode = ClientPoolSpec::Mode::kVirtual;
  }
  options.pool.connections = static_cast<int>(IntIn(
      flags, "pool-connections", defaults.pool.connections, 0, 4096));
  options.pool.workers = static_cast<int>(
      IntIn(flags, "pool-workers", defaults.pool.workers, 0, kMaxThreads));
  options.pool.latency.base_ms =
      flags.GetDouble("pool-latency-ms", defaults.pool.latency.base_ms);
  options.pool.latency.zipf_s =
      flags.GetDouble("pool-latency-zipf", defaults.pool.latency.zipf_s);
  if (flags.Has("metrics-port")) {
    options.has_metrics_port = true;
    options.metrics_port = static_cast<std::uint16_t>(
        IntIn(flags, "metrics-port", 0, 0, kMaxPort));
  }
  return options;
}

RuntimeOptions RuntimeOptions::FromFlags(const util::FlagParser& flags,
                                         std::uint64_t seed) {
  return FromFlags(flags, seed, RuntimeOptions());
}

void RuntimeOptions::Validate() const {
  AF_CHECK_LE(malicious, clients)
      << "--malicious cannot exceed --clients";
  AF_CHECK(compress.empty() || compress::Registry::Global().Has(compress))
      << "unknown --compress: " << compress << " (try --list-codecs)";
  AF_CHECK(pool.mode != ClientPoolSpec::Mode::kVirtual || !net.faults.Any())
      << "--clients-virtual is incompatible with --fault-* injection "
         "(virtual clients send updates exactly once; use the real "
         "fleet for fault experiments)";
  AF_CHECK_GE(pool.latency.base_ms, 0.0)
      << "--pool-latency-ms must be >= 0";
}

void RuntimeOptions::ApplyTo(ExperimentConfig* config) const {
  AF_CHECK(config != nullptr);
  config->num_clients = clients;
  config->num_malicious = malicious;
  if (partition.has_value()) {
    config->partition_size = *partition;
  }
  config->sim.buffer_goal = buffer;
  config->sim.rounds = rounds;
  config->sim.staleness_limit = staleness_limit;
  config->dirichlet_alpha = dirichlet;
  config->sim.zipf_s = zipf;
  config->gd_scale = gd_scale;
  config->threads = threads;
  config->transport = transport;
  config->net = net;
  config->compress = compress;
  config->pool = pool;
}

}  // namespace fl
