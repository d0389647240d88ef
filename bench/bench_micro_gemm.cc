// Micro-benchmark for the blocked SGEMM core (tensor/gemm.h) against the
// seed's naive triple-loop MatMul, plus the reduction kernels behind the
// defense distance math and an end-to-end training-step throughput record.
//
// The GEMM cases are the ones a training step issues: every forward,
// weight-gradient and input-gradient product of the LeNet surrogate
// (FashionMNIST defaults, batch 32) and the VGG surrogate (CIFAR-10
// defaults, batch 64), with the transposes the layers use. They are derived
// from nn::ModelSpec and fl::MakeDefaultConfig by walking the model's
// layers, so they follow the models. The first layer has no input-gradient
// product (Sequential::Backward never computes it).
//
// Emits BENCH_gemm.json (see docs/PERFORMANCE.md for the schema) so the
// kernel perf trajectory is tracked per PR alongside the table/figure
// records. Each GEMM record also carries the bytes one call packs (its
// gemm.bytes_packed delta), which shows which training GEMMs still copy
// operands. `--smoke` shrinks repetitions for CI; `--out=FILE` redirects
// the JSON; `--threads=N` sizes the pool used for the multi-threaded
// columns.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The seed repo's tensor::MatMul before this PR: ikj loop order with the
// `av == 0.0f` skip, kept verbatim as the baseline the speedup is measured
// against.
void SeedMatMul(const float* a, const float* b, float* c, std::size_t m,
                std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      crow[j] = 0.0f;
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
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

struct GemmCase {
  std::string label;  // model.layer.pass_MxNxK
  tensor::Op op_a, op_b;
  std::size_t m, n, k;
};

void AddCase(std::vector<GemmCase>& cases, const std::string& layer,
             const char* pass, tensor::Op op_a, tensor::Op op_b,
             std::size_t m, std::size_t n, std::size_t k) {
  cases.push_back({layer + "." + pass + "_" + std::to_string(m) + "x" +
                       std::to_string(n) + "x" + std::to_string(k),
                   op_a, op_b, m, n, k});
}

// The GEMMs one training step of `profile`'s default model issues, in
// layer order, found by pushing a batch through the layers one at a time.
std::vector<GemmCase> TrainingStepGemms(const std::string& key,
                                        data::Profile profile) {
  using tensor::Op;
  const fl::ExperimentConfig config = fl::MakeDefaultConfig(profile, 1);
  const nn::ModelSpec spec = fl::ModelForProfile(profile, config.image_side);
  auto model = spec.factory(1);
  tensor::Shape shape = {config.sim.local.batch_size};
  shape.insert(shape.end(), spec.sample_shape.begin(),
               spec.sample_shape.end());
  tensor::Tensor x(shape);
  std::vector<GemmCase> cases;
  int convs = 0, denses = 0;
  for (std::size_t i = 0; i < model->NumLayers(); ++i) {
    nn::Layer& layer = model->layer(i);
    const tensor::Shape& w = layer.Params().empty()
                                 ? tensor::Shape{}
                                 : layer.Params()[0]->shape();
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      // out_flat (out × N·Ho·Wo) = W (out × patch) · cols (patch × N·Ho·Wo).
      const std::size_t out = w[0], patch = w[1] * w[2] * w[3];
      const std::size_t pad2 = 2 * conv->padding();
      const std::size_t cols = x.dim(0) * (x.dim(2) + pad2 - w[2] + 1) *
                               (x.dim(3) + pad2 - w[3] + 1);
      const std::string name = key + ".conv" + std::to_string(++convs);
      AddCase(cases, name, "forward", Op::kNone, Op::kNone, out, cols, patch);
      AddCase(cases, name, "wgrad", Op::kNone, Op::kTranspose, out, patch,
              cols);
      if (i > 0) {
        AddCase(cases, name, "dgrad", Op::kTranspose, Op::kNone, patch, cols,
                out);
      }
    } else if (dynamic_cast<nn::Dense*>(&layer) != nullptr) {
      // out (B × out) = X (B × in) · Wᵀ.
      const std::size_t out = w[0], in = w[1], batch = x.dim(0);
      const std::string name = key + ".fc" + std::to_string(++denses);
      AddCase(cases, name, "forward", Op::kNone, Op::kTranspose, batch, out,
              in);
      AddCase(cases, name, "wgrad", Op::kTranspose, Op::kNone, out, in,
              batch);
      if (i > 0) {
        AddCase(cases, name, "dgrad", Op::kNone, Op::kNone, batch, in, out);
      }
    }
    x = layer.Forward(x);
  }
  return cases;
}

struct GemmResult {
  GemmCase shape;
  double seed_sec = 0.0;
  double blocked_sec = 0.0;
  double blocked_mt_sec = 0.0;
  std::uint64_t bytes_packed = 0;  // per blocked call (gemm.bytes_packed)
};

struct ReductionResult {
  const char* op;
  std::size_t n;
  double sec = 0.0;
  double gbytes_per_sec = 0.0;
};

struct TrainResult {
  std::string model;
  std::size_t batch = 0;
  std::size_t steps = 0;
  double wall_seconds = 0.0;
  double steps_per_sec = 0.0;
  double samples_per_sec = 0.0;
};

double Gflops(const GemmCase& s, double sec) {
  return sec > 0.0
             ? 2.0 * static_cast<double>(s.m) * s.n * s.k / sec / 1e9
             : 0.0;
}

GemmResult BenchGemm(const GemmCase& shape, bool smoke,
                     util::ThreadPool& pool, std::mt19937_64& rng) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> a(shape.m * shape.k), b(shape.k * shape.n);
  std::vector<float> c(shape.m * shape.n);
  for (float& x : a) {
    x = dist(rng);
  }
  for (float& x : b) {
    x = dist(rng);
  }

  // Size repetitions so each measured run lasts long enough to time
  // reliably (~60ms full, ~6ms smoke) without letting big shapes crawl.
  const double target = smoke ? 0.006 : 0.06;
  const std::size_t runs = smoke ? 3 : 7;
  auto reps_for = [&](double sec_per_call) {
    const double reps = target / std::max(sec_per_call, 1e-9);
    return std::max<std::size_t>(1, static_cast<std::size_t>(reps));
  };
  // A and B hold the same element counts in either layout; the seed lane
  // always reads them untransposed (its transposed variants are gone).
  const std::size_t lda = shape.op_a == tensor::Op::kNone ? shape.k : shape.m;
  const std::size_t ldb = shape.op_b == tensor::Op::kNone ? shape.n : shape.k;
  // One untimed warm-up call calibrates reps and touches the buffers.
  const auto warm = Clock::now();
  SeedMatMul(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k);
  const double warm_sec = std::max(SecondsSince(warm), 1e-9);

  GemmResult result{shape};
  obs::Counter& packed = obs::DefaultRegistry().GetCounter("gemm.bytes_packed");
  const std::uint64_t packed_before = packed.Value();
  tensor::Sgemm(shape.op_a, shape.op_b, shape.m, shape.n, shape.k, a.data(),
                lda, b.data(), ldb, c.data(), shape.n);
  result.bytes_packed = packed.Value() - packed_before;
  result.seed_sec = MedianSecondsPerCall(runs, reps_for(warm_sec), [&] {
    SeedMatMul(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k);
  });
  const double est_blocked = warm_sec / 4.0;  // reps guess; self-corrects fast
  result.blocked_sec = MedianSecondsPerCall(runs, reps_for(est_blocked), [&] {
    tensor::Sgemm(shape.op_a, shape.op_b, shape.m, shape.n, shape.k, a.data(),
                  lda, b.data(), ldb, c.data(), shape.n);
  });
  result.blocked_mt_sec =
      MedianSecondsPerCall(runs, reps_for(result.blocked_sec), [&] {
        tensor::Sgemm(shape.op_a, shape.op_b, shape.m, shape.n, shape.k,
                      a.data(), lda, b.data(), ldb, c.data(), shape.n, nullptr,
                      0.0f, &pool);
      });
  std::printf(
      "  %-34s seed %8.2f ms (%6.2f GF/s)  blocked %8.2f ms (%6.2f GF/s)  "
      "x%-5.1f  mt %8.2f ms (x%.1f)  packed %7llu B\n",
      shape.label.c_str(), result.seed_sec * 1e3, Gflops(shape, result.seed_sec),
      result.blocked_sec * 1e3, Gflops(shape, result.blocked_sec),
      result.seed_sec / result.blocked_sec, result.blocked_mt_sec * 1e3,
      result.seed_sec / result.blocked_mt_sec,
      static_cast<unsigned long long>(result.bytes_packed));
  return result;
}

ReductionResult BenchReduction(const char* op, std::size_t n, bool smoke,
                               std::mt19937_64& rng) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
  const std::size_t runs = smoke ? 3 : 7;
  const std::size_t reps = (smoke ? 400000u : 4000000u) / std::max<std::size_t>(n, 1) + 1;
  volatile double sink = 0.0;
  ReductionResult result{op, n};
  if (std::string(op) == "dot") {
    result.sec = MedianSecondsPerCall(
        runs, reps, [&] { sink = tensor::kernels::Dot(a.data(), b.data(), n); });
  } else {
    result.sec = MedianSecondsPerCall(runs, reps, [&] {
      sink = tensor::kernels::SquaredDistance(a.data(), b.data(), n);
    });
  }
  (void)sink;
  // Two float streams in.
  result.gbytes_per_sec =
      result.sec > 0.0
          ? 2.0 * static_cast<double>(n) * sizeof(float) / result.sec / 1e9
          : 0.0;
  std::printf("  %-28s n=%-8zu %8.1f ns/call  %6.2f GB/s\n", op, n,
              result.sec * 1e9, result.gbytes_per_sec);
  return result;
}

TrainResult BenchTrainingStep(bool smoke, std::mt19937_64& rng) {
  const nn::ModelSpec spec = nn::MakeLeNet5Surrogate();
  auto model = spec.factory(/*seed=*/17);
  const std::size_t batch = 32;
  tensor::Shape shape{batch};
  shape.insert(shape.end(), spec.sample_shape.begin(),
               spec.sample_shape.end());
  tensor::Tensor input(shape);
  input.FillNormal(0.0f, 1.0f, rng);
  std::vector<std::int64_t> labels(batch);
  std::uniform_int_distribution<std::int64_t> label_dist(
      0, static_cast<std::int64_t>(spec.num_classes) - 1);
  for (std::int64_t& l : labels) {
    l = label_dist(rng);
  }

  auto step = [&] {
    model->ZeroGrads();
    tensor::Tensor logits = model->Forward(input);
    nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    model->Backward(loss.grad_logits);
  };
  step();  // warm-up: sizes the Conv2d arenas outside the timed region

  const std::size_t steps = smoke ? 5 : 50;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    step();
  }
  TrainResult result;
  result.model = spec.name;
  result.batch = batch;
  result.steps = steps;
  result.wall_seconds = SecondsSince(start);
  result.steps_per_sec =
      result.wall_seconds > 0.0 ? steps / result.wall_seconds : 0.0;
  result.samples_per_sec = result.steps_per_sec * static_cast<double>(batch);
  std::printf(
      "  %s batch=%zu: %.1f steps/s, %.0f samples/s over %zu steps (%.2fs)\n",
      result.model.c_str(), batch, result.steps_per_sec,
      result.samples_per_sec, steps, result.wall_seconds);
  return result;
}

const char* IsaName() {
  return tensor::kernels::ActiveIsa() == tensor::kernels::Isa::kAvx2
             ? "avx2"
             : "scalar";
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  flags.RejectUnknown({"smoke", "out", "threads"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_gemm.json");
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 4));

  util::ThreadPool pool(threads);
  std::mt19937_64 rng(20240806);

  std::printf("bench_micro_gemm (isa=%s, mt threads=%zu%s)\n", IsaName(),
              pool.size(), smoke ? ", smoke" : "");
  std::printf("GEMM: blocked SGEMM vs seed triple loop\n");
  std::vector<GemmCase> cases =
      TrainingStepGemms("lenet", data::Profile::kFashionMnist);
  for (GemmCase& shape : TrainingStepGemms("vgg", data::Profile::kCifar10)) {
    cases.push_back(std::move(shape));
  }
  std::vector<GemmResult> gemm_results;
  for (const GemmCase& shape : cases) {
    gemm_results.push_back(BenchGemm(shape, smoke, pool, rng));
  }
  std::printf("Reduction kernels (defense distance math)\n");
  std::vector<ReductionResult> red_results;
  // The LeNet surrogate's delta (4,538 floats) is what the defenses compare.
  const std::size_t delta =
      nn::MakeLeNet5Surrogate().factory(/*seed=*/0)->NumParameters();
  red_results.push_back(BenchReduction("dot", delta, smoke, rng));
  red_results.push_back(BenchReduction("squared_distance", delta, smoke, rng));
  red_results.push_back(
      BenchReduction("squared_distance", 100000, smoke, rng));
  std::printf("Training step (LeNet surrogate, full fwd+loss+bwd)\n");
  const TrainResult train = BenchTrainingStep(smoke, rng);

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("name").String("gemm");
  json.Key("smoke").Bool(smoke);
  json.Key("isa").String(IsaName());
  json.Key("mt_threads").UInt(pool.size());
  json.Key("gemm").BeginArray();
  for (const GemmResult& r : gemm_results) {
    json.BeginObject();
    json.Key("label").String(r.shape.label);
    json.Key("op_a").String(r.shape.op_a == tensor::Op::kNone ? "N" : "T");
    json.Key("op_b").String(r.shape.op_b == tensor::Op::kNone ? "N" : "T");
    json.Key("m").UInt(r.shape.m);
    json.Key("n").UInt(r.shape.n);
    json.Key("k").UInt(r.shape.k);
    json.Key("seed_ms").Number(r.seed_sec * 1e3);
    json.Key("blocked_ms").Number(r.blocked_sec * 1e3);
    json.Key("blocked_mt_ms").Number(r.blocked_mt_sec * 1e3);
    json.Key("seed_gflops").Number(Gflops(r.shape, r.seed_sec));
    json.Key("blocked_gflops").Number(Gflops(r.shape, r.blocked_sec));
    json.Key("blocked_mt_gflops").Number(Gflops(r.shape, r.blocked_mt_sec));
    json.Key("bytes_packed_per_call").UInt(r.bytes_packed);
    json.Key("speedup").Number(r.blocked_sec > 0.0
                                   ? r.seed_sec / r.blocked_sec
                                   : 0.0);
    json.Key("speedup_mt").Number(r.blocked_mt_sec > 0.0
                                      ? r.seed_sec / r.blocked_mt_sec
                                      : 0.0);
    json.EndObject();
  }
  json.EndArray();
  json.Key("reductions").BeginArray();
  for (const ReductionResult& r : red_results) {
    json.BeginObject();
    json.Key("op").String(r.op);
    json.Key("n").UInt(r.n);
    json.Key("ns_per_call").Number(r.sec * 1e9);
    json.Key("gbytes_per_sec").Number(r.gbytes_per_sec);
    json.EndObject();
  }
  json.EndArray();
  json.Key("training_step").BeginObject();
  json.Key("model").String(train.model);
  json.Key("batch").UInt(train.batch);
  json.Key("steps").UInt(train.steps);
  json.Key("wall_seconds").Number(train.wall_seconds);
  json.Key("steps_per_sec").Number(train.steps_per_sec);
  json.Key("samples_per_sec").Number(train.samples_per_sec);
  json.EndObject();
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
