// One experiment run, untraced or traced, and the checks on its outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "observers.h"

namespace e2e {

struct RunRecord {
  fl::SimulationResult result;
  std::uint64_t model_hash = 0;  // FNV-1a over the final model's bytes
  double wall_s = 0.0;
  // Untraced runs only: RunExperiment call to defense-factory call (data
  // synthesis, partitioning, client models), and the Process-call log.
  double setup_s = 0.0;
  ProcessLog process;
  // Traced runs only: per-layer metrics by name.
  std::map<std::string, double> layers;
};

// Runs the workload through fl::RunExperiment, the system's entry point,
// observed only by a defense-factory timestamp and a TimedDefense.
RunRecord RunUntraced(const fl::ExperimentConfig& config);

// Times fl::RunExperiment's set-up phase alone, in seconds: the defense
// factory throws, so the call unwinds once data synthesis, partitioning
// and the client models are done.
double ProbeSetup(const fl::ExperimentConfig& config);

// Builds the same pipeline from the public layer APIs with every layer
// wrapped in a timing decorator, records spans into `tracer` and derives
// the per-layer metrics. Must produce the untraced run's final model.
RunRecord RunTraced(const fl::ExperimentConfig& config, Tracer* tracer);

// Output checks every run must pass; returns one message per failure.
// The accuracy floor applies only to full-length runs.
std::vector<std::string> CheckOutputs(const fl::ExperimentConfig& config,
                                      const RunRecord& run, bool full_length);

}  // namespace e2e
