// Reproduces the paper's Fig. 3 / Fig. 4 observation study (§4.2):
// t-SNE embeddings of per-round local updates, labelled with staleness,
// once on IID partitions (Fig. 3) and once on highly non-IID partitions
// (Dirichlet 0.01, Fig. 4).
//
// The paper's visual claims are made quantitative here:
//  (1) updates sharing a staleness level cluster around a common centre —
//      measured as the staleness-cohesion ratio (mean distance to own
//      staleness-group centre / mean distance to the global centre), which
//      is < 1 when the claim holds;
//  (2) non-IID data disperses updates — measured as the mean distance to
//      the own-group centre growing from Fig. 3 to Fig. 4.
// The raw 2-D embeddings are written to fig3_tsne_iid.csv /
// fig4_tsne_noniid.csv for plotting.
//
//   bench_fig3_fig4_tsne [--seed=7] [--rounds=10] [population flags]
//
// Takes the fl::RuntimeOptions flags with this study's own defaults: 60
// clients, none malicious, buffer 24, Dirichlet 0.01 for Fig. 4, 10 rounds.
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

#include "cluster/tsne.h"
#include "fl/runtime_options.h"
#include "stats/vec_ops.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

struct StudyResult {
  double cohesion_ratio = 0.0;  // < 1 → staleness groups are real clusters
  double own_group_spread = 0.0;
  std::size_t updates = 0;
  std::size_t staleness_levels = 0;
};

StudyResult RunStudy(const fl::RuntimeOptions& runtime, std::uint64_t seed,
                     bool iid, const std::string& csv_name) {
  fl::ExperimentConfig config =
      fl::MakeDefaultConfig(data::Profile::kMnist, seed);
  runtime.ApplyTo(&config);
  config.iid = iid;
  config.attack = attacks::AttackKind::kNone;
  config.defense = fl::DefenseKind::kFedBuff;

  // Collect the buffered updates of the last few aggregation rounds.
  std::vector<std::vector<float>> updates;
  std::vector<std::size_t> staleness;
  const std::size_t first_collected_round = config.sim.rounds >= 4
                                                ? config.sim.rounds - 4
                                                : 0;
  fl::RunExperiment(config, [&](std::size_t round,
                                const std::vector<fl::ModelUpdate>& buffer) {
    if (round < first_collected_round) {
      return;
    }
    for (const auto& u : buffer) {
      updates.push_back(u.delta.ToVector());
      staleness.push_back(u.staleness);
    }
  });

  // Embed with t-SNE and write the scatter data.
  util::RngFactory rngs(seed);
  auto rng = rngs.Stream("tsne");
  auto embedding = cluster::TsneEmbed(updates, rng);
  util::CsvWriter csv(csv_name);
  csv.WriteHeader({"x", "y", "staleness"});
  for (std::size_t i = 0; i < embedding.size(); ++i) {
    csv.WriteRow({util::FormatFixed(embedding[i][0], 4),
                  util::FormatFixed(embedding[i][1], 4),
                  std::to_string(staleness[i])});
  }

  // Quantify the two visual claims in the *original* update space — t-SNE
  // embeddings have no comparable absolute scale across runs.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    groups[staleness[i]].push_back(i);
  }
  std::vector<float> global_centre = stats::Mean(updates);
  std::map<std::size_t, std::vector<float>> group_centre;
  for (const auto& [tau, members] : groups) {
    std::vector<std::vector<float>> subset;
    for (std::size_t i : members) {
      subset.push_back(updates[i]);
    }
    group_centre[tau] = stats::Mean(subset);
  }
  double own = 0.0, global = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    own += stats::Distance(updates[i], group_centre[staleness[i]]);
    global += stats::Distance(updates[i], global_centre);
    norm += stats::L2Norm(updates[i]);
  }
  StudyResult result;
  result.updates = updates.size();
  result.staleness_levels = groups.size();
  // Own-group spread normalised by the mean update norm: comparable across
  // the IID and non-IID settings.
  result.own_group_spread = norm > 1e-12 ? own / norm : 0.0;
  result.cohesion_ratio = global > 1e-12 ? own / global : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  std::vector<std::string> known = {"seed"};
  const auto& runtime_flags = fl::RuntimeOptions::FlagNames();
  known.insert(known.end(), runtime_flags.begin(), runtime_flags.end());
  flags.RejectUnknown(known);
  const std::uint64_t seed = flags.GetUint64("seed", 7);
  // Observation-study setting (§4.2): the paper uses 500 clients / buffer
  // 150; we keep the 30% ratio with no attackers.
  fl::RuntimeOptions defaults;
  defaults.clients = 60;
  defaults.malicious = 0;
  defaults.buffer = 24;
  defaults.dirichlet = 0.01;
  defaults.rounds = 10;
  const fl::RuntimeOptions runtime =
      fl::RuntimeOptions::FromFlags(flags, seed, defaults);
  runtime.Validate();

  std::printf("== Fig. 3 / Fig. 4: t-SNE of local updates by staleness ==\n");
  StudyResult iid = RunStudy(runtime, seed, /*iid=*/true, "fig3_tsne_iid.csv");
  StudyResult noniid =
      RunStudy(runtime, seed, /*iid=*/false, "fig4_tsne_noniid.csv");

  std::printf("Fig. 3 (IID):     %zu updates, %zu staleness levels, "
              "cohesion ratio %.3f, own-group spread %.3f\n",
              iid.updates, iid.staleness_levels, iid.cohesion_ratio,
              iid.own_group_spread);
  std::printf("Fig. 4 (non-IID): %zu updates, %zu staleness levels, "
              "cohesion ratio %.3f, own-group spread %.3f\n",
              noniid.updates, noniid.staleness_levels, noniid.cohesion_ratio,
              noniid.own_group_spread);
  std::printf("Claim 1 (same-staleness updates share a centre): cohesion "
              "ratio < 1 in both settings → %s\n",
              (iid.cohesion_ratio < 1.0 && noniid.cohesion_ratio < 1.0)
                  ? "HOLDS"
                  : "VIOLATED");
  std::printf("Claim 2 (non-IID disperses updates): own-group spread grows "
              "IID → non-IID → %s\n",
              noniid.own_group_spread > iid.own_group_spread ? "HOLDS"
                                                             : "VIOLATED");
  std::printf("Embeddings written to fig3_tsne_iid.csv / fig4_tsne_noniid.csv\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
