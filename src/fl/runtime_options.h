// Shared CLI surface: every binary that runs experiments parses the
// population, schedule, transport, codec and pool flags through this one
// struct, so a flag, its default and its bounds land once instead of once
// per tool (run_experiment, run_sweep and the C++ bench studies).
//
//   util::FlagParser flags(argc, argv);
//   flags.RejectUnknown(Concat(my_flags, fl::RuntimeOptions::FlagNames()));
//   fl::RuntimeOptions runtime = fl::RuntimeOptions::FromFlags(flags, seed);
//   runtime.Validate();
//   fl::ExperimentConfig config = fl::MakeDefaultConfig(profile, seed);
//   runtime.ApplyTo(&config);
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/experiment.h"

namespace util {
class FlagParser;
}  // namespace util

namespace fl {

struct RuntimeOptions {
  // Population and schedule. The defaults are the CLIs' evaluation setting
  // (the paper's §5.1 population scaled 2× down, every ratio kept).
  std::size_t clients = 50;
  std::size_t malicious = 10;
  std::optional<std::size_t> partition;  // empty → the profile's default
  std::size_t buffer = 20;
  std::size_t rounds = 20;
  std::size_t staleness_limit = 20;
  double dirichlet = 0.1;
  double zipf = 1.2;
  double gd_scale = ExperimentConfig().gd_scale;
  std::size_t threads = 0;  // 0 → hardware concurrency

  TransportKind transport = TransportKind::kInproc;
  TransportOptions net;       // port, faults
  std::string compress;       // codec registry name; empty → none
  ClientPoolSpec pool;        // --clients-virtual fleet shape
  bool has_metrics_port = false;
  std::uint16_t metrics_port = 0;

  // The flag names this struct consumes — splice into RejectUnknown():
  //   clients, malicious, partition, buffer, rounds, staleness-limit,
  //   dirichlet, zipf, gd-scale, threads, transport, port, fault-drop,
  //   fault-delay, fault-duplicate, fault-truncate, fault-delay-ms,
  //   fault-kill, compress, metrics-port, clients-virtual,
  //   pool-connections, pool-workers, pool-latency-ms, pool-latency-zipf
  static const std::vector<std::string>& FlagNames();

  // Parses the flags above; an omitted flag keeps its value in `defaults`
  // (a study with its own population passes it here). `seed` feeds the
  // fault injector's RNG so runs stay reproducible. Throws util::CheckError
  // on an unparseable or out-of-range value — a negative count, a port
  // above 65535, a thread count in the thousands — before any cast.
  static RuntimeOptions FromFlags(const util::FlagParser& flags,
                                  std::uint64_t seed,
                                  const RuntimeOptions& defaults);
  static RuntimeOptions FromFlags(const util::FlagParser& flags,
                                  std::uint64_t seed);

  // Cross-flag consistency: at most --clients attackers, known codec name,
  // no fault injection on a virtual fleet.
  // Throws util::CheckError with an actionable message.
  void Validate() const;

  // Copies every parsed setting into an experiment config built by
  // MakeDefaultConfig (population, schedule, transport, net, compress,
  // pool).
  void ApplyTo(ExperimentConfig* config) const;
};

}  // namespace fl
