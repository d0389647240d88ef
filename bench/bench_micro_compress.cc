// Micro-benchmark for the compress/ codecs plus an end-to-end
// defense-fidelity check under compression.
//
// Part 1 measures, per codec and parameter-vector shape (LeNet-surrogate
// through VGG-ish fully-connected sizes), the wire compression ratio and
// encode/decode throughput in MB/s of raw float32 input.
//
// Part 2 runs the small FashionMNIST experiment grid — AsyncFilter vs
// FedBuff under the LIE and Min-Max attacks — once uncompressed and once
// per codec, and reports final accuracy and filtering precision/recall so
// the record shows how much detection quality each codec costs. The
// acceptance bar tracked across PRs: AsyncFilter's filtering recall under
// LIE stays within 5 points of uncompressed for fp16 and int8.
//
// Emits BENCH_compress.json. `--smoke` shrinks repetitions and rounds for
// CI; `--out=FILE` redirects the JSON.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "fl/experiment.h"
#include "nn/models.h"
#include "obs/json.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median-of-`runs` wall time of fn(), each run `reps` back-to-back calls.
template <typename Fn>
double MedianSecondsPerCall(std::size_t runs, std::size_t reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      fn();
    }
    times.push_back(SecondsSince(start) / static_cast<double>(reps));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct ShapeCase {
  const char* label;
  std::size_t count;  // float32 elements
};

// The LeNet surrogate's parameter vector (4,538 floats, the delta the
// default run sends) up through a VGG-ish FC block.
std::vector<ShapeCase> Shapes() {
  return {
      {"lenet_params",
       nn::MakeLeNet5Surrogate().factory(/*seed=*/0)->NumParameters()},
      {"conv_block_512k", 524288},
      {"vgg_fc_4m", 4194304},
  };
}

struct CodecResult {
  std::string codec;
  std::string shape;
  std::size_t count = 0;
  double ratio = 0.0;       // raw float32 bytes / framed wire bytes
  double encode_mb_s = 0.0;  // MB of float32 input per second
  double decode_mb_s = 0.0;
};

CodecResult BenchCodec(const compress::Codec& codec, const ShapeCase& shape,
                       bool smoke, std::mt19937_64& rng) {
  // Delta-like values: zero-mean, small, with heavy-ish tails so top-k has
  // structure to find.
  std::normal_distribution<float> dist(0.0f, 0.02f);
  std::vector<float> values(shape.count);
  for (float& v : values) {
    v = dist(rng);
    if ((rng() & 0xFF) == 0) {
      v *= 20.0f;  // occasional large coordinate
    }
  }
  const double raw_bytes = static_cast<double>(shape.count) * sizeof(float);

  std::vector<std::uint8_t> wire;
  compress::AppendEncodedParams(wire, codec, values);

  const std::size_t runs = smoke ? 3 : 5;
  // Aim each measured run at ~4M (smoke) / ~32M (full) elements of work.
  const std::size_t reps = std::max<std::size_t>(
      1, (smoke ? (1u << 22) : (1u << 25)) / shape.count);

  const double encode_sec = MedianSecondsPerCall(runs, reps, [&] {
    std::vector<std::uint8_t> out;
    compress::AppendEncodedParams(out, codec, values);
  });
  const double decode_sec = MedianSecondsPerCall(runs, reps, [&] {
    std::size_t offset = 0;
    compress::ParseAnyParams(wire, &offset);
  });

  CodecResult result;
  result.codec = codec.name();
  result.shape = shape.label;
  result.count = shape.count;
  result.ratio = raw_bytes / static_cast<double>(wire.size());
  result.encode_mb_s = raw_bytes / encode_sec / 1e6;
  result.decode_mb_s = raw_bytes / decode_sec / 1e6;
  std::printf("  %-12s %-18s ratio %6.2fx  encode %8.1f MB/s  decode %8.1f MB/s\n",
              result.codec.c_str(), result.shape.c_str(), result.ratio,
              result.encode_mb_s, result.decode_mb_s);
  return result;
}

struct FidelityCell {
  std::string defense;
  std::string attack;
  std::string codec;  // "" = uncompressed baseline
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
};

// Mirrors the integration-test miniature population: large enough that
// AsyncFilter's detection actually engages, small enough for CI.
fl::ExperimentConfig FidelityConfig(bool smoke) {
  fl::ExperimentConfig config =
      fl::MakeDefaultConfig(data::Profile::kFashionMnist, /*seed=*/7);
  config.num_clients = 30;
  config.num_malicious = 6;
  config.train_pool = 2000;
  config.test_samples = 400;
  config.partition_size = 60;
  config.sim.buffer_goal = 12;
  config.sim.rounds = smoke ? 6 : 14;
  config.sim.local.epochs = smoke ? 2 : 3;
  config.threads = 0;
  return config;
}

FidelityCell RunFidelityCell(fl::DefenseKind defense, const char* defense_name,
                             attacks::AttackKind attack,
                             const std::string& codec, bool smoke) {
  fl::ExperimentConfig config = FidelityConfig(smoke);
  config.defense = defense;
  config.attack = attack;
  config.compress = codec;
  const fl::SimulationResult result = fl::RunExperiment(config);
  FidelityCell cell;
  cell.defense = defense_name;
  cell.attack = attacks::AttackKindName(attack);
  cell.codec = codec;
  cell.accuracy = result.final_accuracy;
  cell.precision = result.total_confusion.Precision();
  cell.recall = result.total_confusion.Recall();
  std::printf("  %-12s %-8s codec=%-10s acc=%.4f precision=%.2f recall=%.2f\n",
              cell.defense.c_str(), cell.attack.c_str(),
              codec.empty() ? "(none)" : codec.c_str(), cell.accuracy,
              cell.precision, cell.recall);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"smoke", "out"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_compress.json");

  std::mt19937_64 rng(20260806);
  std::printf("bench_micro_compress%s\n", smoke ? " (smoke)" : "");

  std::printf("Codec throughput and wire ratio\n");
  std::vector<CodecResult> micro;
  for (const std::string& name : compress::ListNames()) {
    const compress::Codec& codec = compress::Get(name);
    for (const ShapeCase& shape : Shapes()) {
      if (smoke && shape.count > 600000) {
        continue;  // keep CI runs short; the full run covers the 4M shape
      }
      micro.push_back(BenchCodec(codec, shape, smoke, rng));
    }
  }

  // Acceptance shapes tracked per PR: the LeNet param vector must compress
  // ≥3.5× with int8 and ≥8× with topk-delta (k = 10%).
  bool ratio_targets_met = true;
  for (const CodecResult& r : micro) {
    if (r.shape != std::string("lenet_params")) {
      continue;
    }
    if (r.codec == "int8" && r.ratio < 3.5) {
      ratio_targets_met = false;
    }
    if (r.codec == "topk-delta" && r.ratio < 8.0) {
      ratio_targets_met = false;
    }
  }
  std::printf("ratio targets (int8>=3.5x, topk-delta>=8x on LeNet): %s\n",
              ratio_targets_met ? "met" : "MISSED");

  std::printf("Defense fidelity under compression "
              "(AsyncFilter vs FedBuff, LIE and Min-Max)\n");
  const std::vector<std::string> fidelity_codecs = {"", "identity", "fp16",
                                                    "int8", "topk-delta"};
  std::vector<FidelityCell> fidelity;
  for (const auto& [defense, defense_name] :
       {std::pair{fl::DefenseKind::kAsyncFilter, "asyncfilter"},
        std::pair{fl::DefenseKind::kFedBuff, "fedbuff"}}) {
    for (attacks::AttackKind attack :
         {attacks::AttackKind::kLie, attacks::AttackKind::kMinMax}) {
      for (const std::string& codec : fidelity_codecs) {
        fidelity.push_back(
            RunFidelityCell(defense, defense_name, attack, codec, smoke));
      }
    }
  }

  // The fidelity acceptance: AsyncFilter's filtering recall under LIE for
  // fp16 and int8 within 5 points of the uncompressed run.
  double base_recall = 0.0;
  for (const FidelityCell& cell : fidelity) {
    if (cell.defense == "asyncfilter" && cell.attack == std::string("LIE") &&
        cell.codec.empty()) {
      base_recall = cell.recall;
    }
  }
  bool recall_within_5pts = true;
  for (const FidelityCell& cell : fidelity) {
    if (cell.defense == "asyncfilter" && cell.attack == std::string("LIE") &&
        (cell.codec == "fp16" || cell.codec == "int8")) {
      recall_within_5pts =
          recall_within_5pts &&
          std::fabs(cell.recall - base_recall) <= 0.05 + 1e-9;
    }
  }
  std::printf("recall fidelity (fp16/int8 within 5pts of uncompressed): %s\n",
              recall_within_5pts ? "met" : "MISSED");

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("name").String("compress");
  json.Key("smoke").Bool(smoke);
  json.Key("ratio_targets_met").Bool(ratio_targets_met);
  json.Key("recall_within_5pts").Bool(recall_within_5pts);
  json.Key("codecs").BeginArray();
  for (const CodecResult& r : micro) {
    json.BeginObject();
    json.Key("codec").String(r.codec);
    json.Key("shape").String(r.shape);
    json.Key("count").UInt(r.count);
    json.Key("ratio").Number(r.ratio);
    json.Key("encode_mb_s").Number(r.encode_mb_s);
    json.Key("decode_mb_s").Number(r.decode_mb_s);
    json.EndObject();
  }
  json.EndArray();
  json.Key("fidelity").BeginArray();
  for (const FidelityCell& cell : fidelity) {
    json.BeginObject();
    json.Key("defense").String(cell.defense);
    json.Key("attack").String(cell.attack);
    json.Key("codec").String(cell.codec.empty() ? "uncompressed"
                                                : cell.codec);
    json.Key("accuracy").Number(cell.accuracy);
    json.Key("precision").Number(cell.precision);
    json.Key("recall").Number(cell.recall);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str() << '\n';
  std::printf("perf record written to %s\n", out_path.c_str());
  return 0;
}
