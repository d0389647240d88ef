#include "nn/models.h"

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/relu.h"
#include "util/check.h"
#include "util/rng.h"

namespace nn {
namespace {

// Every conv is built with its ReLU (and pool) fused in: the result is bit
// for bit that of separate Conv2d, ReLU and MaxPool2d(2) layers, with the
// same parameters in the same order (nn/conv2d.h).
constexpr ConvEpilogue kPool = ConvEpilogue::kReluMaxPool2;

}  // namespace

ModelSpec MakeLeNet5Surrogate(std::size_t side, std::size_t classes) {
  AF_CHECK_EQ(side % 4, 0u) << "two 2x2 pools need side divisible by 4";
  ModelSpec spec;
  spec.name = "lenet5-surrogate";
  spec.sample_shape = {1, side, side};
  spec.num_classes = classes;
  spec.factory = [side, classes](std::uint64_t seed) {
    util::RngFactory rngs(seed);
    auto rng = rngs.Stream("model-init");
    auto model = std::make_unique<Sequential>();
    model->Add(std::make_unique<Conv2d>(1, 6, 3, 1, kPool, rng))
        .Add(std::make_unique<Conv2d>(6, 12, 3, 1, kPool, rng));
    const std::size_t feat = 12 * (side / 4) * (side / 4);
    model->Add(std::make_unique<Flatten>())
        .Add(std::make_unique<Dense>(feat, 32, rng))
        .Add(std::make_unique<ReLU>())
        .Add(std::make_unique<Dense>(32, classes, rng));
    return model;
  };
  return spec;
}

ModelSpec MakeVggSurrogate(std::size_t side, std::size_t classes) {
  AF_CHECK_EQ(side % 4, 0u) << "two 2x2 pools need side divisible by 4";
  ModelSpec spec;
  spec.name = "vgg-surrogate";
  spec.sample_shape = {3, side, side};
  spec.num_classes = classes;
  spec.factory = [side, classes](std::uint64_t seed) {
    util::RngFactory rngs(seed);
    auto rng = rngs.Stream("model-init");
    auto model = std::make_unique<Sequential>();
    model->Add(std::make_unique<Conv2d>(3, 6, 3, 1, ConvEpilogue::kRelu, rng))
        .Add(std::make_unique<Conv2d>(6, 6, 3, 1, kPool, rng))
        .Add(std::make_unique<Conv2d>(6, 12, 3, 1, kPool, rng));
    const std::size_t feat = 12 * (side / 4) * (side / 4);
    model->Add(std::make_unique<Flatten>())
        .Add(std::make_unique<Dense>(feat, 32, rng))
        .Add(std::make_unique<ReLU>())
        .Add(std::make_unique<Dense>(32, classes, rng));
    return model;
  };
  return spec;
}

ModelSpec MakeMlp(std::size_t input_dim, std::vector<std::size_t> hidden,
                  std::size_t classes) {
  AF_CHECK_GT(input_dim, 0u);
  ModelSpec spec;
  spec.name = "mlp";
  spec.sample_shape = {input_dim};
  spec.num_classes = classes;
  spec.factory = [input_dim, hidden, classes](std::uint64_t seed) {
    util::RngFactory rngs(seed);
    auto rng = rngs.Stream("model-init");
    auto model = std::make_unique<Sequential>();
    std::size_t in = input_dim;
    for (std::size_t width : hidden) {
      model->Add(std::make_unique<Dense>(in, width, rng))
          .Add(std::make_unique<ReLU>());
      in = width;
    }
    model->Add(std::make_unique<Dense>(in, classes, rng));
    return model;
  };
  return spec;
}

}  // namespace nn
