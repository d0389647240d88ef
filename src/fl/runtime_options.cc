#include "fl/runtime_options.h"

#include "compress/codec.h"
#include "util/check.h"
#include "util/flags.h"

namespace fl {

const std::vector<std::string>& RuntimeOptions::FlagNames() {
  static const std::vector<std::string> kNames = {
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
                                         std::uint64_t seed) {
  RuntimeOptions options;
  options.transport =
      ParseTransportKind(flags.GetString("transport", "inproc"));
  options.net.port = static_cast<std::uint16_t>(flags.GetInt("port", 0));
  options.net.faults.drop_prob = flags.GetDouble("fault-drop", 0.0);
  options.net.faults.delay_prob = flags.GetDouble("fault-delay", 0.0);
  options.net.faults.duplicate_prob =
      flags.GetDouble("fault-duplicate", 0.0);
  options.net.faults.truncate_prob = flags.GetDouble("fault-truncate", 0.0);
  options.net.faults.delay_ms = flags.GetDouble("fault-delay-ms", 5.0);
  options.net.faults.kill_fraction = flags.GetDouble("fault-kill", 0.0);
  options.net.faults.seed = seed;
  options.compress = flags.GetString("compress", "");
  if (flags.GetBool("clients-virtual", false)) {
    options.pool.mode = ClientPoolSpec::Mode::kVirtual;
  }
  options.pool.connections =
      static_cast<int>(flags.GetInt("pool-connections", 0));
  options.pool.workers = static_cast<int>(flags.GetInt("pool-workers", 0));
  options.pool.latency.base_ms = flags.GetDouble("pool-latency-ms", 0.0);
  options.pool.latency.zipf_s = flags.GetDouble("pool-latency-zipf", 0.0);
  options.has_metrics_port = flags.Has("metrics-port");
  options.metrics_port =
      static_cast<std::uint16_t>(flags.GetInt("metrics-port", 0));
  return options;
}

void RuntimeOptions::Validate() const {
  AF_CHECK(compress.empty() || compress::Registry::Global().Has(compress))
      << "unknown --compress: " << compress << " (try --list-codecs)";
  AF_CHECK(pool.mode != ClientPoolSpec::Mode::kVirtual || !net.faults.Any())
      << "--clients-virtual is incompatible with --fault-* injection "
         "(virtual clients send updates exactly once; use the real "
         "fleet for fault experiments)";
  AF_CHECK_GE(pool.connections, 0)
      << "--pool-connections must be >= 0 (0 picks a default)";
  AF_CHECK_LE(pool.connections, 4096) << "--pool-connections too large";
  AF_CHECK_GE(pool.workers, 0)
      << "--pool-workers must be >= 0 (0 picks hardware concurrency)";
  AF_CHECK_GE(pool.latency.base_ms, 0.0)
      << "--pool-latency-ms must be >= 0";
}

void RuntimeOptions::ApplyTo(ExperimentConfig* config) const {
  AF_CHECK(config != nullptr);
  config->transport = transport;
  config->net = net;
  config->compress = compress;
  config->pool = pool;
}

}  // namespace fl
