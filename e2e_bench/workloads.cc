#include "workloads.h"

#include "util/check.h"

namespace e2e {
namespace {

// All load comes from this one process on a 4-core box: inproc runs use a
// 3-thread training pool plus the simulation thread; the tcp run uses the
// DistributedDriver thread, the pool pump and 2 training workers over 4
// connections.
constexpr std::size_t kInprocThreads = 3;

fl::ExperimentConfig LenetGd(std::uint64_t seed) {
  auto config = fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 50;
  config.num_malicious = 10;
  config.attack = attacks::AttackKind::kGd;
  config.defense = fl::DefenseKind::kAsyncFilter;
  config.sim.buffer_goal = 20;
  config.threads = kInprocThreads;
  return config;
}

fl::ExperimentConfig VggLie(std::uint64_t seed) {
  auto config = fl::MakeDefaultConfig(data::Profile::kCifar10, seed);
  config.num_clients = 50;
  config.num_malicious = 10;
  config.attack = attacks::AttackKind::kLie;
  config.defense = fl::DefenseKind::kAsyncFilter;
  config.sim.buffer_goal = 20;
  config.threads = kInprocThreads;
  return config;
}

fl::ExperimentConfig WideMultiKrum(std::uint64_t seed) {
  auto config = fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 600;
  config.num_malicious = 120;
  config.partition_size = 8;
  config.sim.local.epochs = 1;
  config.attack = attacks::AttackKind::kGd;
  config.defense = fl::DefenseKind::kMultiKrum;
  config.sim.buffer_goal = 300;
  config.threads = kInprocThreads;
  return config;
}

fl::ExperimentConfig FleetTcpFp16(std::uint64_t seed) {
  auto config = fl::MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 2000;
  config.num_malicious = 400;
  config.partition_size = 2;
  config.sim.local.epochs = 1;
  config.attack = attacks::AttackKind::kGd;
  config.defense = fl::DefenseKind::kAsyncFilter;
  config.sim.buffer_goal = 500;
  config.transport = fl::TransportKind::kTcp;
  config.compress = "fp16";
  config.pool.mode = fl::ClientPoolSpec::Mode::kVirtual;
  config.pool.connections = 4;
  config.pool.workers = 2;
  return config;
}

}  // namespace

fl::ExperimentConfig Workload::Config(std::uint64_t seed,
                                      std::size_t rounds_override) const {
  fl::ExperimentConfig config = make(seed);
  config.sim.rounds = rounds_override > 0 ? rounds_override : rounds;
  return config;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"lenet_gd", 110, LenetGd},
      {"vgg_lie", 110, VggLie},
      {"wide_multikrum", 110, WideMultiKrum},
      {"fleet_tcp_fp16", 150, FleetTcpFp16},
  };
  return workloads;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return workload;
    }
  }
  AF_CHECK(false) << "unknown workload: " << name
                  << " (expected lenet_gd, vgg_lie, wide_multikrum or "
                     "fleet_tcp_fp16)";
  return Workloads().front();
}

}  // namespace e2e
