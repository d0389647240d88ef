#include "fl/experiment.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <numeric>

#include "compress/codec.h"
#include "core/async_filter.h"
#include "data/partition.h"
#include "defense/registry.h"
#include "fl/checkpoint.h"
#include "util/check.h"

namespace fl {
namespace {

// Static-library builds only pull async_filter.o into a link when one of
// its symbols is referenced; this reference makes the AsyncFilter registry
// entries available wherever the experiment layer is linked.
const bool kAsyncFilterLinked = [] {
  core::EnsureAsyncFilterRegistered();
  return true;
}();

}  // namespace

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInproc:
      return "inproc";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

TransportKind ParseTransportKind(const std::string& name) {
  std::string canon;
  for (char c : name) {
    canon.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (canon == "inproc" || canon == "local" || canon == "threads") {
    return TransportKind::kInproc;
  }
  if (canon == "tcp" || canon == "net" || canon == "distributed") {
    return TransportKind::kTcp;
  }
  AF_CHECK(false) << "unknown transport name: " << name
                  << " (expected inproc or tcp)";
  return TransportKind::kInproc;
}

const char* DefenseKindName(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::kFedBuff:
      return "FedBuff";
    case DefenseKind::kFlDetector:
      return "FLDetector";
    case DefenseKind::kAsyncFilter:
      return "AsyncFilter";
    case DefenseKind::kAsyncFilter2Means:
      return "AsyncFilter-2means";
    case DefenseKind::kAsyncFilterDeferMid:
      return "AsyncFilter-defermid";
    case DefenseKind::kAsyncFilterRejectMid:
      return "AsyncFilter-rejectmid";
    case DefenseKind::kKrum:
      return "Krum";
    case DefenseKind::kMultiKrum:
      return "Multi-Krum";
    case DefenseKind::kTrimmedMean:
      return "Trimmed-Mean";
    case DefenseKind::kMedian:
      return "Median";
    case DefenseKind::kZenoPlusPlus:
      return "Zeno++";
    case DefenseKind::kAflGuard:
      return "AFLGuard";
    case DefenseKind::kNnm:
      return "NNM";
    case DefenseKind::kFlTrust:
      return "FLtrust";
    case DefenseKind::kBucketing:
      return "Bucketing";
  }
  return "?";
}

DefenseKind ParseDefenseKind(const std::string& name) {
  std::string canon;
  for (char c : name) {
    if (c == '-' || c == '_' || c == ' ' || c == '+') {
      continue;
    }
    canon.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (canon == "fedbuff" || canon == "nodefense" || canon == "none") {
    return DefenseKind::kFedBuff;
  }
  if (canon == "fldetector") {
    return DefenseKind::kFlDetector;
  }
  if (canon == "asyncfilter" || canon == "asyncfilter3means") {
    return DefenseKind::kAsyncFilter;
  }
  if (canon == "asyncfilter2means") {
    return DefenseKind::kAsyncFilter2Means;
  }
  if (canon == "asyncfilterdefermid") {
    return DefenseKind::kAsyncFilterDeferMid;
  }
  if (canon == "asyncfilterrejectmid") {
    return DefenseKind::kAsyncFilterRejectMid;
  }
  if (canon == "krum") {
    return DefenseKind::kKrum;
  }
  if (canon == "multikrum") {
    return DefenseKind::kMultiKrum;
  }
  if (canon == "trimmedmean") {
    return DefenseKind::kTrimmedMean;
  }
  if (canon == "median") {
    return DefenseKind::kMedian;
  }
  if (canon == "zeno" || canon == "zenoplusplus") {
    return DefenseKind::kZenoPlusPlus;
  }
  if (canon == "aflguard") {
    return DefenseKind::kAflGuard;
  }
  if (canon == "nnm") {
    return DefenseKind::kNnm;
  }
  if (canon == "fltrust") {
    return DefenseKind::kFlTrust;
  }
  if (canon == "bucketing" || canon.rfind("bucketing", 0) == 0) {
    return DefenseKind::kBucketing;
  }
  AF_CHECK(false) << "unknown defense name: " << name;
  return DefenseKind::kFedBuff;
}

std::unique_ptr<defense::Defense> MakeDefense(DefenseKind kind) {
  // One source of truth: the enum's display name resolves through the same
  // canonicalization the registry applies, so the grid enum and the
  // string-keyed path can never drift apart.
  return defense::Make(DefenseKindName(kind));
}

nn::ModelSpec ModelForProfile(const data::Profile profile,
                              std::size_t image_side) {
  switch (profile) {
    case data::Profile::kMnist:
    case data::Profile::kFashionMnist:
      return nn::MakeLeNet5Surrogate(image_side);
    case data::Profile::kCifar10:
    case data::Profile::kCinic10:
      return nn::MakeVggSurrogate(image_side);
  }
  AF_CHECK(false) << "unhandled profile";
  return nn::MakeLeNet5Surrogate(image_side);
}

ExperimentConfig MakeDefaultConfig(data::Profile profile, std::uint64_t seed) {
  ExperimentConfig config;
  config.profile = profile;
  config.sim.seed = seed;
  // Paper Table 1 with the repo's CPU scaling: partition sizes shrink by the
  // same ratio everywhere (CIFAR/CINIC clients keep the larger share), local
  // epochs and batch flavour follow the paper.
  config.sim.local.epochs = 5;
  switch (profile) {
    case data::Profile::kMnist:
      config.partition_size = 80;
      config.sim.local.batch_size = 32;
      config.sim.local.optimizer = {nn::OptimizerKind::kSgd, 0.01, 0.9, 0.0};
      break;
    case data::Profile::kFashionMnist:
      config.partition_size = 100;
      config.sim.local.batch_size = 32;
      config.sim.local.optimizer = {nn::OptimizerKind::kSgd, 0.01, 0.9, 0.0};
      break;
    case data::Profile::kCifar10:
      // 8×8 colour images keep the VGG surrogate CPU-tractable.
      config.image_side = 8;
      config.partition_size = 120;
      config.sim.local.batch_size = 64;
      config.sim.local.optimizer = {nn::OptimizerKind::kAdam, 0.0015, 0.0, 0.0};
      break;
    case data::Profile::kCinic10:
      config.image_side = 8;
      config.partition_size = 120;
      config.sim.local.batch_size = 64;
      config.sim.local.optimizer = {nn::OptimizerKind::kAdam, 0.0015, 0.0, 0.0};
      break;
  }
  return config;
}

SimulationResult RunExperiment(const ExperimentConfig& config,
                               Simulation::BufferObserver observer) {
  AF_CHECK_GT(config.num_clients, 0u);
  AF_CHECK_LE(config.num_malicious, config.num_clients);
  if (!config.compress.empty()) {
    compress::Get(config.compress);  // fail fast on unknown codec names
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto stamp_wall = [wall_start](SimulationResult result) {
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return result;
  };

  util::RngFactory rngs(config.sim.seed);

  // Dataset: a centralized pool plus a held-out test set from the same
  // generator (same prototypes), mirroring the paper's "collected as a
  // centralized dataset then partitioned" setup.
  data::SyntheticSpec spec =
      data::MakeProfileSpec(config.profile, config.image_side);
  data::SyntheticGenerator generator(spec, config.sim.seed);
  data::Dataset train = generator.Generate(config.train_pool, "train");
  data::Dataset test = generator.Generate(config.test_samples, "test");

  auto partition_rng = rngs.Stream("partition");
  data::Partition partition =
      config.iid ? data::IidPartition(train, config.num_clients,
                                      config.partition_size, partition_rng)
                 : data::DirichletPartition(train, config.num_clients,
                                            config.partition_size,
                                            config.dirichlet_alpha,
                                            partition_rng);

  nn::ModelSpec model = ModelForProfile(config.profile, config.image_side);

  // Malicious subset (paper: sampled from the whole pool).
  std::vector<int> ids(config.num_clients);
  std::iota(ids.begin(), ids.end(), 0);
  auto malicious_rng = rngs.Stream("malicious");
  std::shuffle(ids.begin(), ids.end(), malicious_rng);
  std::vector<int> malicious_ids(ids.begin(), ids.begin() + config.num_malicious);
  if (config.attack == attacks::AttackKind::kNone) {
    malicious_ids.clear();
  }
  std::vector<bool> is_malicious(config.num_clients, false);
  for (int id : malicious_ids) {
    is_malicious[static_cast<std::size_t>(id)] = true;
  }

  // Label-flip is data-level poisoning: malicious clients train honestly on
  // a label-rotated view of the pool (l → (l+1) mod C).
  data::Dataset train_flipped;
  const bool label_flip = config.attack == attacks::AttackKind::kLabelFlip;
  if (label_flip) {
    train_flipped = train;
    for (auto& label : train_flipped.labels) {
      label = (label + 1) % static_cast<std::int64_t>(train.num_classes);
    }
  }

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(config.num_clients);
  for (std::size_t c = 0; c < config.num_clients; ++c) {
    const data::Dataset* view =
        (label_flip && is_malicious[c]) ? &train_flipped : &train;
    clients.push_back(std::make_unique<Client>(
        static_cast<int>(c), view, std::move(partition[c]), model,
        config.sim.seed));
  }

  attacks::AttackParams attack_params;
  attack_params.total_clients = config.num_clients;
  attack_params.adaptive_score_quantile = config.adaptive_score_quantile;
  attack_params.malicious_clients = std::max<std::size_t>(
      config.num_malicious, 1);
  attack_params.gd_scale = config.gd_scale;
  auto attack = attacks::MakeAttack(config.attack, attack_params);
  auto defense = config.defense_factory ? config.defense_factory()
                                        : MakeDefense(config.defense);
  AF_CHECK(defense != nullptr) << "defense factory returned null";

  data::Dataset root;
  if (defense->RequiresServerReference()) {
    root = generator.Generate(config.sim.server_root_samples, "server-root");
  }

  if (config.transport != TransportKind::kInproc) {
    // The distributed driver owns scheduling end to end; the buffer observer
    // hook is an in-process-only affordance, and checkpointing mid-run
    // worker state is not supported over the wire.
    AF_CHECK(observer == nullptr)
        << "buffer observers are not supported with --transport=tcp";
    AF_CHECK(config.checkpoint_path.empty() && !config.resume)
        << "checkpoint/resume requires --transport=inproc";
    DistributedSpec dist_spec;
    dist_spec.sim = config.sim;
    dist_spec.model = model;
    dist_spec.clients = std::move(clients);
    dist_spec.malicious_ids = malicious_ids;
    dist_spec.attack = std::move(attack);
    dist_spec.defense = std::move(defense);
    dist_spec.test_set = &test;
    dist_spec.server_root = std::move(root);
    dist_spec.transport = config.net;
    dist_spec.transport.codec = config.compress;
    dist_spec.pool = config.pool;
    DistributedDriver driver(std::move(dist_spec));
    return stamp_wall(driver.Run());
  }

  util::ThreadPool pool(config.threads);
  ExperimentSpec sim_spec;
  sim_spec.sim = config.sim;
  sim_spec.model = model;
  sim_spec.clients = std::move(clients);
  sim_spec.pool = &pool;
  sim_spec.malicious_ids = std::move(malicious_ids);
  sim_spec.attack = std::move(attack);
  sim_spec.defense = std::move(defense);
  sim_spec.test_set = &test;
  sim_spec.server_root = std::move(root);
  sim_spec.codec = config.compress;
  auto simulation = BuildSimulation(std::move(sim_spec));
  if (observer) {
    simulation->SetBufferObserver(std::move(observer));
  }
  if (!config.checkpoint_path.empty() || config.stop_flag != nullptr) {
    CheckpointPolicy policy;
    policy.path = config.checkpoint_path;
    policy.every = config.checkpoint_every;
    policy.stop = config.stop_flag;
    simulation->SetCheckpointPolicy(std::move(policy));
  }
  if (config.resume) {
    AF_CHECK(!config.checkpoint_path.empty())
        << "--resume needs a checkpoint path";
    RestoreCheckpoint(config.checkpoint_path, *simulation);
  }
  return stamp_wall(simulation->Run());
}

}  // namespace fl
