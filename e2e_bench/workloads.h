// The benchmark's workloads: four configurations of the real experiment
// pipeline, each chosen to load a different layer (README.md says why).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/experiment.h"

namespace e2e {

struct Workload {
  std::string name;
  std::size_t rounds = 0;  // full-length run
  fl::ExperimentConfig (*make)(std::uint64_t seed) = nullptr;

  // The experiment for one seed; `rounds_override` 0 keeps the full length.
  fl::ExperimentConfig Config(std::uint64_t seed,
                              std::size_t rounds_override = 0) const;
};

const std::vector<Workload>& Workloads();

// Throws util::CheckError on an unknown name.
const Workload& FindWorkload(const std::string& name);

}  // namespace e2e
