// Shared CLI surface for the distributed runtime: every binary that takes
// --transport / --fault-* / --compress / --metrics-port parses them through
// this one struct, so a new runtime flag (e.g. --clients-virtual) lands
// once instead of once per tool.
//
//   util::FlagParser flags(argc, argv);
//   flags.RejectUnknown(Concat(my_flags, fl::RuntimeOptions::FlagNames()));
//   fl::RuntimeOptions runtime = fl::RuntimeOptions::FromFlags(flags, seed);
//   runtime.Validate();
//   runtime.ApplyTo(&config);
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/experiment.h"

namespace util {
class FlagParser;
}  // namespace util

namespace fl {

struct RuntimeOptions {
  TransportKind transport = TransportKind::kInproc;
  TransportOptions net;       // port, faults
  std::string compress;       // codec registry name; empty → none
  ClientPoolSpec pool;        // --clients-virtual fleet shape
  bool has_metrics_port = false;
  std::uint16_t metrics_port = 0;

  // The flag names this struct consumes — splice into RejectUnknown():
  //   transport, port, fault-drop, fault-delay, fault-duplicate,
  //   fault-truncate, fault-delay-ms, fault-kill, compress, metrics-port,
  //   clients-virtual, pool-connections, pool-workers, pool-latency-ms,
  //   pool-latency-zipf
  static const std::vector<std::string>& FlagNames();

  // Parses the flags above. `seed` feeds the fault injector's RNG so runs
  // stay reproducible. Throws util::CheckError on unparseable values.
  static RuntimeOptions FromFlags(const util::FlagParser& flags,
                                  std::uint64_t seed);

  // Cross-flag consistency: known codec name, no fault injection on a
  // virtual fleet, sane connection counts.
  // Throws util::CheckError with an actionable message.
  void Validate() const;

  // Copies the parsed runtime settings into an experiment config
  // (transport, net, compress, pool).
  void ApplyTo(ExperimentConfig* config) const;
};

}  // namespace fl
