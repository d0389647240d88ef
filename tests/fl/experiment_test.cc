#include "fl/experiment.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace fl {
namespace {

TEST(DefenseRegistryTest, NamesRoundTripThroughParse) {
  for (DefenseKind kind :
       {DefenseKind::kFedBuff, DefenseKind::kFlDetector,
        DefenseKind::kAsyncFilter, DefenseKind::kAsyncFilter2Means,
        DefenseKind::kAsyncFilterDeferMid, DefenseKind::kAsyncFilterRejectMid,
        DefenseKind::kKrum, DefenseKind::kMultiKrum, DefenseKind::kTrimmedMean,
        DefenseKind::kMedian, DefenseKind::kZenoPlusPlus,
        DefenseKind::kAflGuard, DefenseKind::kNnm, DefenseKind::kFlTrust,
        DefenseKind::kBucketing}) {
    EXPECT_EQ(ParseDefenseKind(DefenseKindName(kind)), kind);
  }
}

TEST(DefenseRegistryTest, ParseToleratesVariants) {
  EXPECT_EQ(ParseDefenseKind("fedbuff"), DefenseKind::kFedBuff);
  EXPECT_EQ(ParseDefenseKind("no-defense"), DefenseKind::kFedBuff);
  EXPECT_EQ(ParseDefenseKind("async_filter"), DefenseKind::kAsyncFilter);
  EXPECT_EQ(ParseDefenseKind("Zeno++"), DefenseKind::kZenoPlusPlus);
  EXPECT_THROW(ParseDefenseKind("unknown"), util::CheckError);
}

TEST(DefenseRegistryTest, MakeDefenseBuildsWorkingObjects) {
  for (DefenseKind kind :
       {DefenseKind::kFedBuff, DefenseKind::kFlDetector,
        DefenseKind::kAsyncFilter, DefenseKind::kKrum,
        DefenseKind::kTrimmedMean, DefenseKind::kMedian,
        DefenseKind::kZenoPlusPlus, DefenseKind::kAflGuard,
        DefenseKind::kNnm, DefenseKind::kFlTrust, DefenseKind::kBucketing}) {
    auto defense = MakeDefense(kind);
    ASSERT_NE(defense, nullptr);
    EXPECT_FALSE(defense->Name().empty());
  }
  EXPECT_TRUE(MakeDefense(DefenseKind::kZenoPlusPlus)->RequiresServerReference());
  EXPECT_FALSE(MakeDefense(DefenseKind::kAsyncFilter)->RequiresServerReference());
}

TEST(MakeDefaultConfigTest, MatchesPaperTableOne) {
  auto mnist = MakeDefaultConfig(data::Profile::kMnist, 1);
  EXPECT_EQ(mnist.sim.local.optimizer.kind, nn::OptimizerKind::kSgd);
  EXPECT_DOUBLE_EQ(mnist.sim.local.optimizer.momentum, 0.9);
  EXPECT_EQ(mnist.sim.local.epochs, 5u);
  EXPECT_EQ(mnist.sim.local.batch_size, 32u);

  auto cifar = MakeDefaultConfig(data::Profile::kCifar10, 1);
  EXPECT_EQ(cifar.sim.local.optimizer.kind, nn::OptimizerKind::kAdam);
  EXPECT_GT(cifar.partition_size, mnist.partition_size);
}

TEST(ModelForProfileTest, LeNetForSmallVggForColour) {
  EXPECT_EQ(ModelForProfile(data::Profile::kMnist, 12).name,
            "lenet5-surrogate");
  EXPECT_EQ(ModelForProfile(data::Profile::kFashionMnist, 12).name,
            "lenet5-surrogate");
  EXPECT_EQ(ModelForProfile(data::Profile::kCifar10, 8).name, "vgg-surrogate");
  EXPECT_EQ(ModelForProfile(data::Profile::kCinic10, 8).name, "vgg-surrogate");
}

// Minimal end-to-end configuration shared by the experiment smoke tests.
ExperimentConfig TinyConfig(std::uint64_t seed) {
  ExperimentConfig config = MakeDefaultConfig(data::Profile::kMnist, seed);
  config.num_clients = 10;
  config.num_malicious = 2;
  config.train_pool = 500;
  config.test_samples = 120;
  config.partition_size = 30;
  config.sim.buffer_goal = 5;
  config.sim.rounds = 3;
  config.sim.local.epochs = 1;
  config.threads = 2;
  return config;
}

TEST(RunExperimentTest, EndToEndSmoke) {
  ExperimentConfig config = TinyConfig(21);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  SimulationResult result = RunExperiment(config);
  EXPECT_EQ(result.rounds.size(), 3u);
  EXPECT_GE(result.final_accuracy, 0.0);
  EXPECT_LE(result.final_accuracy, 1.0);
}

TEST(RunExperimentTest, DeterministicAcrossInvocations) {
  ExperimentConfig config = TinyConfig(22);
  config.attack = attacks::AttackKind::kLie;
  SimulationResult a = RunExperiment(config);
  SimulationResult b = RunExperiment(config);
  EXPECT_EQ(a.final_model, b.final_model);
}

TEST(RunExperimentTest, NoAttackMeansNoMaliciousGroundTruth) {
  ExperimentConfig config = TinyConfig(23);
  config.attack = attacks::AttackKind::kNone;
  SimulationResult result = RunExperiment(config);
  EXPECT_EQ(result.total_confusion.false_negative, 0u);
  EXPECT_EQ(result.total_confusion.true_positive, 0u);
}

TEST(RunExperimentTest, CleanDatasetDefenseGetsServerReference) {
  ExperimentConfig config = TinyConfig(24);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kZenoPlusPlus;
  // Would throw inside Zeno++::Process if the reference were missing.
  EXPECT_NO_THROW(RunExperiment(config));
}

TEST(RunExperimentTest, ObserverReceivesBuffers) {
  ExperimentConfig config = TinyConfig(25);
  std::size_t calls = 0;
  RunExperiment(config, [&](std::size_t, const std::vector<ModelUpdate>&) {
    ++calls;
  });
  EXPECT_EQ(calls, config.sim.rounds);
}

TEST(RunExperimentTest, LabelFlipPoisonsThroughTheDataPath) {
  // Label-flip malicious clients send honest updates computed on rotated
  // labels; ground truth must still mark them malicious and their presence
  // must hurt accuracy relative to no attack.
  ExperimentConfig config = TinyConfig(28);
  config.num_malicious = 4;
  config.sim.rounds = 5;
  config.defense = DefenseKind::kFedBuff;
  config.attack = attacks::AttackKind::kNone;
  double clean = RunExperiment(config).final_accuracy;
  config.attack = attacks::AttackKind::kLabelFlip;
  SimulationResult flipped = RunExperiment(config);
  EXPECT_GT(flipped.total_confusion.false_negative, 0u);  // malicious seen
  EXPECT_LT(flipped.final_accuracy, clean + 0.02);
}

TEST(RunExperimentTest, AdaptiveAttackRunsEndToEnd) {
  ExperimentConfig config = TinyConfig(29);
  config.attack = attacks::AttackKind::kAdaptive;
  config.defense = DefenseKind::kAsyncFilter;
  SimulationResult result = RunExperiment(config);
  EXPECT_EQ(result.rounds.size(), config.sim.rounds);
}

TEST(RunExperimentTest, StalenessWeightingIsConfigurable) {
  ExperimentConfig config = TinyConfig(30);
  config.sim.staleness_weighting.kind = defense::StalenessWeighting::kNone;
  SimulationResult none = RunExperiment(config);
  config.sim.staleness_weighting.kind =
      defense::StalenessWeighting::kInverseSqrt;
  SimulationResult sqrt_w = RunExperiment(config);
  // Different weighting → different trained model (same everything else).
  EXPECT_NE(none.final_model, sqrt_w.final_model);
}

TEST(RunExperimentTest, EvalEverySkipsIntermediateRounds) {
  ExperimentConfig config = TinyConfig(31);
  config.sim.rounds = 4;
  config.sim.eval_every = 2;
  SimulationResult result = RunExperiment(config);
  std::size_t evaluated = 0;
  for (const auto& r : result.rounds) {
    evaluated += (r.test_accuracy >= 0.0) ? 1 : 0;
  }
  EXPECT_EQ(evaluated, 2u);
}

TEST(RunExperimentTest, InvalidParticipationThrows) {
  ExperimentConfig config = TinyConfig(32);
  config.sim.participation = 0.0;
  EXPECT_THROW(RunExperiment(config), util::CheckError);
  config.sim.participation = 1.5;
  EXPECT_THROW(RunExperiment(config), util::CheckError);
}

TEST(RunExperimentTest, BufferGoalEqualToClientsWorks) {
  ExperimentConfig config = TinyConfig(33);
  config.sim.buffer_goal = config.num_clients;
  SimulationResult result = RunExperiment(config);
  EXPECT_EQ(result.rounds.size(), config.sim.rounds);
}

TEST(RunExperimentTest, TooManyMaliciousThrows) {
  ExperimentConfig config = TinyConfig(27);
  config.num_malicious = config.num_clients + 1;
  EXPECT_THROW(RunExperiment(config), util::CheckError);
}

}  // namespace
}  // namespace fl
