// Kill-and-resume equivalence: a simulation checkpointed mid-run, thrown
// away, rebuilt from its ExperimentSpec and restored from disk must finish
// with results bit-identical to an uninterrupted run (wall-clock timing
// fields excepted — those can never match).
#include "fl/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <utility>

#include "attacks/registry.h"
#include "core/async_filter.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "defense/fldetector.h"
#include "defense/timeseries.h"
#include "fl/simulation.h"
#include "util/check.h"
#include "util/rng.h"

namespace fl {
namespace {

// Defers the entire buffer of one chosen round and accepts everything else:
// a deterministic probe for the mid-band deferral path (every deferred
// update must re-enter the next round's buffer exactly once). Stateless
// across rounds — the deferred buffer itself is simulator state.
class DeferAtRound : public defense::Defense {
 public:
  explicit DeferAtRound(std::size_t target) : target_(target) {}

  defense::AggregationResult Process(
      const defense::FilterContext& context,
      const std::vector<ModelUpdate>& updates) override {
    defense::AggregationResult out;
    if (context.round == target_) {
      out.verdicts.assign(updates.size(), defense::Verdict::kDeferred);
      out.deferred = updates;
      return out;
    }
    out.verdicts.assign(updates.size(), defense::Verdict::kAccepted);
    std::vector<std::size_t> accepted(updates.size());
    std::iota(accepted.begin(), accepted.end(), 0u);
    out.aggregated_delta = defense::WeightedAverage(
        updates, accepted, context.staleness_weighting);
    return out;
  }
  std::string Name() const override { return "DeferAtRound"; }

 private:
  std::size_t target_;
};

class CheckpointTest : public ::testing::Test {
 protected:
  struct Parts {
    data::Dataset train;
    data::Dataset test;
    nn::ModelSpec spec;
    std::vector<std::unique_ptr<Client>> clients;
  };

  // Each Build() consumes one Parts; the deque keeps every generation's
  // datasets alive for the clients that point into them.
  Parts& MakeParts(std::size_t num_clients, std::uint64_t seed) {
    parts_list_.emplace_back();
    Parts& parts = parts_list_.back();
    data::SyntheticGenerator gen(
        data::MakeProfileSpec(data::Profile::kMnist, 8), seed);
    parts.train = gen.Generate(600, "train");
    parts.test = gen.Generate(150, "test");
    parts.train.sample_shape = {parts.train.sample_dim()};
    parts.test.sample_shape = {parts.test.sample_dim()};
    parts.spec = nn::MakeMlp(parts.train.sample_dim(), {12});
    auto rng = util::RngFactory(seed).Stream("partition");
    auto partition =
        data::DirichletPartition(parts.train, num_clients, 40, 0.5, rng);
    for (std::size_t c = 0; c < num_clients; ++c) {
      parts.clients.push_back(std::make_unique<Client>(
          static_cast<int>(c), &parts.train, std::move(partition[c]),
          parts.spec, seed));
    }
    return parts;
  }

  SimulationConfig SmallConfig(std::uint64_t seed, std::size_t rounds) {
    SimulationConfig config;
    config.buffer_goal = 6;
    config.staleness_limit = 10;
    config.rounds = rounds;
    config.seed = seed;
    config.local.epochs = 1;
    config.local.batch_size = 20;
    config.local.optimizer = {nn::OptimizerKind::kSgd, 0.05, 0.9, 0.0};
    return config;
  }

  std::unique_ptr<Simulation> Build(
      std::uint64_t seed, std::size_t rounds,
      std::unique_ptr<defense::Defense> defense,
      std::vector<int> malicious = {},
      attacks::AttackKind attack = attacks::AttackKind::kNone) {
    Parts& parts = MakeParts(12, seed);
    attacks::AttackParams params;
    params.total_clients = 12;
    params.malicious_clients = std::max<std::size_t>(malicious.size(), 1);
    ExperimentSpec spec;
    spec.sim = SmallConfig(seed, rounds);
    spec.model = parts.spec;
    spec.clients = std::move(parts.clients);
    spec.pool = &pool_;
    spec.malicious_ids = std::move(malicious);
    spec.attack = attacks::MakeAttack(attack, params);
    spec.defense = std::move(defense);
    spec.test_set = &parts.test;
    return BuildSimulation(std::move(spec));
  }

  // Everything except wall-clock timing must match bit-for-bit.
  static void ExpectBitIdentical(const SimulationResult& a,
                                 const SimulationResult& b) {
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < a.rounds.size(); ++i) {
      const RoundRecord& ra = a.rounds[i];
      const RoundRecord& rb = b.rounds[i];
      EXPECT_EQ(ra.round, rb.round) << i;
      EXPECT_EQ(ra.sim_time, rb.sim_time) << i;
      EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << i;
      EXPECT_EQ(ra.buffered, rb.buffered) << i;
      EXPECT_EQ(ra.accepted, rb.accepted) << i;
      EXPECT_EQ(ra.rejected, rb.rejected) << i;
      EXPECT_EQ(ra.deferred, rb.deferred) << i;
      EXPECT_EQ(ra.dropped_stale, rb.dropped_stale) << i;
      EXPECT_EQ(ra.mean_staleness, rb.mean_staleness) << i;
      EXPECT_EQ(ra.staleness_histogram, rb.staleness_histogram) << i;
      EXPECT_EQ(ra.confusion.true_positive, rb.confusion.true_positive) << i;
      EXPECT_EQ(ra.confusion.false_positive, rb.confusion.false_positive) << i;
      EXPECT_EQ(ra.confusion.true_negative, rb.confusion.true_negative) << i;
      EXPECT_EQ(ra.confusion.false_negative, rb.confusion.false_negative) << i;
      // defense_micros is wall-clock: excluded by design.
    }
    EXPECT_EQ(a.final_model, b.final_model);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);
    EXPECT_EQ(a.total_dropped_stale, b.total_dropped_stale);
  }

  // Runs the full kill-and-resume protocol for one defense configuration:
  // straight run vs (checkpoint at `stop_round`, discard, rebuild, restore,
  // finish).
  void RunKillResumeTest(
      const std::string& tag,
      const std::function<std::unique_ptr<defense::Defense>()>& make_defense,
      std::vector<int> malicious, attacks::AttackKind attack,
      std::size_t rounds = 8, std::size_t stop_round = 3) {
    const std::uint64_t seed = 21;
    const std::string path = ::testing::TempDir() + "ckpt_" + tag + ".bin";
    std::remove(path.c_str());

    SimulationResult full =
        Build(seed, rounds, make_defense(), malicious, attack)->Run();
    EXPECT_FALSE(full.interrupted);

    auto victim = Build(seed, rounds, make_defense(), malicious, attack);
    std::atomic<bool> stop{false};
    victim->SetCheckpointPolicy({path, 0, &stop});
    victim->SetBufferObserver(
        [&](std::size_t round, const std::vector<ModelUpdate>&) {
          if (round == stop_round) {
            stop.store(true, std::memory_order_relaxed);
          }
        });
    SimulationResult partial = victim->Run();
    EXPECT_TRUE(partial.interrupted);
    ASSERT_EQ(partial.rounds.size(), stop_round + 1);
    ASSERT_TRUE(CheckpointExists(path));
    victim.reset();  // the "kill": all in-memory state is gone

    auto resumed_sim = Build(seed, rounds, make_defense(), malicious, attack);
    ASSERT_TRUE(RestoreCheckpoint(path, *resumed_sim));
    EXPECT_EQ(resumed_sim->current_round(), stop_round + 1);
    SimulationResult resumed = resumed_sim->Run();
    EXPECT_FALSE(resumed.interrupted);

    ExpectBitIdentical(full, resumed);
    std::remove(path.c_str());
  }

  util::ThreadPool pool_{2};
  std::deque<Parts> parts_list_;
};

TEST_F(CheckpointTest, RestoreIntoMissingFileReturnsFalse) {
  auto sim = Build(3, 2, std::make_unique<defense::NoDefense>());
  EXPECT_FALSE(
      RestoreCheckpoint(::testing::TempDir() + "no_such_ckpt.bin", *sim));
}

TEST_F(CheckpointTest, CorruptCheckpointIsRejected) {
  const std::string path = ::testing::TempDir() + "ckpt_corrupt.bin";
  {
    auto victim = Build(5, 4, std::make_unique<defense::NoDefense>());
    std::atomic<bool> stop{false};
    victim->SetCheckpointPolicy({path, 0, &stop});
    victim->SetBufferObserver(
        [&](std::size_t round, const std::vector<ModelUpdate>&) {
          if (round == 1) {
            stop.store(true, std::memory_order_relaxed);
          }
        });
    victim->Run();
  }
  // Flip one payload byte: the checksum must catch it.
  auto bytes = util::serial::ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;
  util::serial::AtomicWriteFile(path, bytes);
  auto sim = Build(5, 4, std::make_unique<defense::NoDefense>());
  EXPECT_THROW(RestoreCheckpoint(path, *sim), util::CheckError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MismatchedExperimentIsRejected) {
  const std::string path = ::testing::TempDir() + "ckpt_mismatch.bin";
  {
    auto victim = Build(6, 4, std::make_unique<defense::NoDefense>());
    std::atomic<bool> stop{false};
    victim->SetCheckpointPolicy({path, 0, &stop});
    victim->SetBufferObserver(
        [&](std::size_t round, const std::vector<ModelUpdate>&) {
          if (round == 1) {
            stop.store(true, std::memory_order_relaxed);
          }
        });
    victim->Run();
  }
  // Different seed → different experiment identity.
  auto other_seed = Build(7, 4, std::make_unique<defense::NoDefense>());
  EXPECT_THROW(RestoreCheckpoint(path, *other_seed), util::CheckError);
  // Different defense → also rejected.
  auto other_defense = Build(6, 4, std::make_unique<core::AsyncFilter>());
  EXPECT_THROW(RestoreCheckpoint(path, *other_defense), util::CheckError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, KillResumeBitIdenticalNoDefense) {
  RunKillResumeTest(
      "nodefense", [] { return std::make_unique<defense::NoDefense>(); }, {},
      attacks::AttackKind::kNone);
}

// The two defenses with real cross-round state, under attack so the
// detection path (and the attacker coordinator's window) carries state
// across the checkpoint boundary.
TEST_F(CheckpointTest, KillResumeBitIdenticalAsyncFilter) {
  RunKillResumeTest(
      "asyncfilter", [] { return std::make_unique<core::AsyncFilter>(); },
      {0, 1, 2}, attacks::AttackKind::kGd);
}

TEST_F(CheckpointTest, KillResumeBitIdenticalAsyncFilterDeferMid) {
  // kDefer routes the mid band into the next buffer, so deferred updates
  // and the deferral ledger must survive the checkpoint round boundary.
  RunKillResumeTest(
      "asyncfilter_defermid",
      [] {
        core::AsyncFilterOptions options;
        options.mid_band = core::MidBandPolicy::kDefer;
        return std::make_unique<core::AsyncFilter>(options);
      },
      {0, 1, 2}, attacks::AttackKind::kGd);
}

TEST_F(CheckpointTest, KillResumeBitIdenticalFlDetector) {
  RunKillResumeTest(
      "fldetector", [] { return std::make_unique<defense::FlDetector>(); },
      {0, 1, 2}, attacks::AttackKind::kGd);
}

TEST_F(CheckpointTest, KillResumeBitIdenticalTsDetect) {
  // Per-client trajectory rings + the previous aggregate must cross the
  // checkpoint boundary bit-exactly or post-resume z-scores drift.
  RunKillResumeTest(
      "tsdetect",
      [] { return std::make_unique<defense::TimeSeriesDetector>(); },
      {0, 1, 2}, attacks::AttackKind::kGd);
}

TEST_F(CheckpointTest, PeriodicCheckpointKeepsLatestRoundBoundary) {
  const std::string path = ::testing::TempDir() + "ckpt_periodic.bin";
  std::remove(path.c_str());
  auto sim = Build(9, 6, std::make_unique<defense::NoDefense>());
  sim->SetCheckpointPolicy({path, /*every=*/2, nullptr});
  sim->Run();
  // Rounds 2 and 4 were checkpointed; the final round is not (the run
  // finished). The file on disk is the round-4 state.
  ASSERT_TRUE(CheckpointExists(path));
  auto restored = Build(9, 6, std::make_unique<defense::NoDefense>());
  ASSERT_TRUE(RestoreCheckpoint(path, *restored));
  EXPECT_EQ(restored->current_round(), 4u);
  std::remove(path.c_str());
}

// Mid-band deferral semantics: every update deferred at round R re-enters
// the round-R+1 buffer exactly once and is gone from round R+2 onwards.
// Updates are identified by their delta payload (bit-identical on re-entry;
// distinct across jobs because every job draws a distinct RNG stream).
TEST_F(CheckpointTest, DeferredUpdateReentersNextBufferExactlyOnce) {
  constexpr std::size_t kDeferRound = 2;
  auto sim = Build(31, 6, std::make_unique<DeferAtRound>(kDeferRound));
  std::map<std::size_t, std::vector<std::vector<float>>> buffers;
  sim->SetBufferObserver(
      [&](std::size_t round, const std::vector<ModelUpdate>& buffer) {
        for (const ModelUpdate& u : buffer) {
          buffers[round].push_back(u.delta.ToVector());
        }
      });
  SimulationResult result = sim->Run();

  ASSERT_TRUE(buffers.count(kDeferRound));
  ASSERT_TRUE(buffers.count(kDeferRound + 1));
  ASSERT_FALSE(buffers[kDeferRound].empty());
  EXPECT_EQ(result.rounds[kDeferRound].deferred,
            buffers[kDeferRound].size());
  for (const auto& deferred : buffers[kDeferRound]) {
    std::size_t next = 0;
    for (const auto& delta : buffers[kDeferRound + 1]) {
      next += (delta == deferred) ? 1 : 0;
    }
    EXPECT_EQ(next, 1u) << "deferred update must re-enter exactly once";
    for (std::size_t round = kDeferRound + 2; round < 6; ++round) {
      for (const auto& delta : buffers[round]) {
        EXPECT_NE(delta, deferred) << "deferred update re-entered twice";
      }
    }
  }
}

// Same exactly-once property when the checkpoint boundary lands between the
// deferring round and the re-entry round: the deferred buffer rides the
// checkpoint, and the restored run matches the straight one bit for bit.
TEST_F(CheckpointTest, DeferredUpdateSurvivesCheckpointRestore) {
  constexpr std::size_t kDeferRound = 2;
  const std::string path = ::testing::TempDir() + "ckpt_defer.bin";
  std::remove(path.c_str());

  auto straight = Build(33, 6, std::make_unique<DeferAtRound>(kDeferRound));
  std::vector<std::vector<float>> straight_reentry;
  straight->SetBufferObserver(
      [&](std::size_t round, const std::vector<ModelUpdate>& buffer) {
        if (round == kDeferRound + 1) {
          for (const ModelUpdate& u : buffer) {
            straight_reentry.push_back(u.delta.ToVector());
          }
        }
      });
  SimulationResult full = straight->Run();

  // Checkpoint exactly at the deferring round's boundary.
  auto victim = Build(33, 6, std::make_unique<DeferAtRound>(kDeferRound));
  std::atomic<bool> stop{false};
  victim->SetCheckpointPolicy({path, 0, &stop});
  std::vector<std::vector<float>> deferred_deltas;
  victim->SetBufferObserver(
      [&](std::size_t round, const std::vector<ModelUpdate>& buffer) {
        if (round == kDeferRound) {
          for (const ModelUpdate& u : buffer) {
            deferred_deltas.push_back(u.delta.ToVector());
          }
          stop.store(true, std::memory_order_relaxed);
        }
      });
  SimulationResult partial = victim->Run();
  EXPECT_TRUE(partial.interrupted);
  ASSERT_FALSE(deferred_deltas.empty());
  victim.reset();

  auto resumed_sim = Build(33, 6, std::make_unique<DeferAtRound>(kDeferRound));
  ASSERT_TRUE(RestoreCheckpoint(path, *resumed_sim));
  std::vector<std::vector<float>> resumed_reentry;
  resumed_sim->SetBufferObserver(
      [&](std::size_t round, const std::vector<ModelUpdate>& buffer) {
        if (round == kDeferRound + 1) {
          for (const ModelUpdate& u : buffer) {
            resumed_reentry.push_back(u.delta.ToVector());
          }
        }
      });
  SimulationResult resumed = resumed_sim->Run();

  // The restored first buffer equals the straight run's, and every deferred
  // delta is present in it exactly once.
  EXPECT_EQ(resumed_reentry, straight_reentry);
  for (const auto& deferred : deferred_deltas) {
    std::size_t count = 0;
    for (const auto& delta : resumed_reentry) {
      count += (delta == deferred) ? 1 : 0;
    }
    EXPECT_EQ(count, 1u);
  }
  ExpectBitIdentical(full, resumed);
  std::remove(path.c_str());
}

// Round r's eval runs while round r+1 trains; a periodic checkpoint
// resolves it before the next round instead. Both must measure the same
// snapshot: every round's accuracy matches between the two, and with
// eval_every = 1 every round is evaluated. DeferAtRound's re-entry round
// trains nothing, so its predecessor's eval must resolve without a Train.
TEST_F(CheckpointTest, OverlappedEvalMatchesEagerEval) {
  constexpr std::size_t kRounds = 6;
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<defense::Defense>()>>>
      defenses = {
          {"asyncfilter", [] { return std::make_unique<core::AsyncFilter>(); }},
          {"defer", [] { return std::make_unique<DeferAtRound>(2); }},
      };
  for (const auto& [tag, make_defense] : defenses) {
    const std::string path = ::testing::TempDir() + "ckpt_eval_" + tag + ".bin";
    std::remove(path.c_str());
    SimulationResult overlapped =
        Build(41, kRounds, make_defense(), {0, 1, 2}, attacks::AttackKind::kGd)
            ->Run();
    auto eager_sim =
        Build(41, kRounds, make_defense(), {0, 1, 2}, attacks::AttackKind::kGd);
    eager_sim->SetCheckpointPolicy({path, /*every=*/1, nullptr});
    SimulationResult eager = eager_sim->Run();

    ASSERT_EQ(overlapped.rounds.size(), kRounds) << tag;
    ASSERT_EQ(eager.rounds.size(), kRounds) << tag;
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_GE(overlapped.rounds[r].test_accuracy, 0.0)
          << tag << " round " << r << " was never evaluated";
      EXPECT_EQ(overlapped.rounds[r].test_accuracy,
                eager.rounds[r].test_accuracy)
          << tag << " round " << r;
    }
    ExpectBitIdentical(overlapped, eager);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace fl
