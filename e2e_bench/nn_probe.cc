#include "nn_probe.h"

#include <memory>
#include <random>
#include <vector>

#include "fl/experiment.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/loss.h"
#include "nn/maxpool2d.h"
#include "nn/relu.h"
#include "observers.h"
#include "stats.h"
#include "util/check.h"

namespace e2e {
namespace {

constexpr int kIterations = 20;

struct NamedLayer {
  std::string name;  // empty: timed together with the other unnamed layers
  std::unique_ptr<nn::Layer> layer;
};

// The layer stacks nn/models.cc builds, rebuilt here because Sequential
// does not expose its layers. ProbeModel checks the parameter counts match.
std::vector<NamedLayer> MirrorStack(bool vgg, std::size_t side, std::size_t classes,
                                    std::mt19937_64& rng) {
  std::vector<NamedLayer> stack;
  auto add = [&stack](std::string name, std::unique_ptr<nn::Layer> layer) {
    stack.push_back({std::move(name), std::move(layer)});
  };
  if (vgg) {
    add("conv1", std::make_unique<nn::Conv2d>(3, 6, 3, 1, rng));
    add("", std::make_unique<nn::ReLU>());
    add("conv2", std::make_unique<nn::Conv2d>(6, 6, 3, 1, rng));
  } else {
    add("conv1", std::make_unique<nn::Conv2d>(1, 6, 3, 1, rng));
  }
  add("", std::make_unique<nn::ReLU>());
  add("", std::make_unique<nn::MaxPool2d>(2));
  add(vgg ? "conv3" : "conv2", std::make_unique<nn::Conv2d>(6, 12, 3, 1, rng));
  add("", std::make_unique<nn::ReLU>());
  add("", std::make_unique<nn::MaxPool2d>(2));
  add("", std::make_unique<nn::Flatten>());
  add("fc1", std::make_unique<nn::Dense>(12 * (side / 4) * (side / 4), 32, rng));
  add("", std::make_unique<nn::ReLU>());
  add("fc2", std::make_unique<nn::Dense>(32, classes, rng));
  return stack;
}

double Micros(std::int64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) / 1e3;
}

void ProbeModel(const std::string& key, data::Profile profile,
                std::map<std::string, double>& out) {
  const fl::ExperimentConfig config = fl::MakeDefaultConfig(profile, 1);
  const nn::ModelSpec spec = fl::ModelForProfile(profile, config.image_side);
  const std::size_t batch = config.sim.local.batch_size;
  const bool vgg = spec.name == "vgg-surrogate";
  const std::string prefix = "nn." + key + ".";

  std::mt19937_64 rng(1);
  std::vector<NamedLayer> stack =
      MirrorStack(vgg, spec.sample_shape[1], spec.num_classes, rng);
  auto model = spec.factory(1);
  std::size_t stack_params = 0;
  for (NamedLayer& named : stack) {
    for (const tensor::Tensor* param : named.layer->Params()) {
      stack_params += param->size();
    }
  }
  AF_CHECK_EQ(stack_params, model->NumParameters())
      << "nn probe: the " << key << " layer stack no longer matches " << spec.name;

  tensor::Shape input_shape = {batch};
  input_shape.insert(input_shape.end(), spec.sample_shape.begin(),
                     spec.sample_shape.end());
  tensor::Tensor input(input_shape);
  input.FillNormal(0.0f, 1.0f, rng);
  std::vector<std::int64_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<std::int64_t>(rng() % spec.num_classes);
  }

  std::vector<std::vector<double>> fwd(stack.size()), bwd(stack.size());
  std::vector<double> model_fwd, model_bwd, step;
  auto optimizer = nn::MakeOptimizer(config.sim.local.optimizer);
  for (int it = 0; it < kIterations; ++it) {
    tensor::Tensor x = input;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      const std::int64_t t0 = NowNs();
      x = stack[i].layer->Forward(x);
      fwd[i].push_back(Micros(t0));
    }
    tensor::Tensor grad = nn::SoftmaxCrossEntropy(x, labels).grad_logits;
    for (std::size_t i = stack.size(); i-- > 0;) {
      const std::int64_t t0 = NowNs();
      grad = stack[i].layer->Backward(grad);
      bwd[i].push_back(Micros(t0));
    }
    for (NamedLayer& named : stack) {
      named.layer->ZeroGrads();
    }

    model->ZeroGrads();
    std::int64_t t0 = NowNs();
    tensor::Tensor logits = model->Forward(input);
    model_fwd.push_back(Micros(t0));
    tensor::Tensor grad_logits = nn::SoftmaxCrossEntropy(logits, labels).grad_logits;
    t0 = NowNs();
    model->Backward(grad_logits);
    model_bwd.push_back(Micros(t0));
    t0 = NowNs();
    optimizer->Step(model->Params(), model->Grads());
    step.push_back(Micros(t0));
  }

  double other_us = 0.0;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (stack[i].name.empty()) {
      other_us += Quantile(fwd[i], 0.5) + Quantile(bwd[i], 0.5);
    } else {
      out[prefix + stack[i].name + ".fwd_us"] = Quantile(fwd[i], 0.5);
      out[prefix + stack[i].name + ".bwd_us"] = Quantile(bwd[i], 0.5);
    }
  }
  out[prefix + "other.fwd_bwd_us"] = other_us;
  out[prefix + "model.fwd_us"] = Quantile(model_fwd, 0.5);
  out[prefix + "model.bwd_us"] = Quantile(model_bwd, 0.5);
  out[prefix + "step_us"] = Quantile(step, 0.5);
}

}  // namespace

std::map<std::string, double> ProbeModels() {
  std::map<std::string, double> out;
  ProbeModel("lenet", data::Profile::kFashionMnist, out);
  ProbeModel("vgg", data::Profile::kCifar10, out);
  return out;
}

}  // namespace e2e
