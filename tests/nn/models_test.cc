#include "nn/models.h"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/loss.h"
#include "nn/maxpool2d.h"
#include "nn/relu.h"
#include "util/check.h"
#include "util/rng.h"

namespace nn {
namespace {

TEST(ModelsTest, LeNetSurrogateShapes) {
  ModelSpec spec = MakeLeNet5Surrogate(12);
  EXPECT_EQ(spec.sample_shape, (tensor::Shape{1, 12, 12}));
  auto model = spec.factory(1);
  tensor::Tensor in({3, 1, 12, 12});
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 10u);
}

TEST(ModelsTest, VggSurrogateShapes) {
  ModelSpec spec = MakeVggSurrogate(8);
  EXPECT_EQ(spec.sample_shape, (tensor::Shape{3, 8, 8}));
  auto model = spec.factory(1);
  tensor::Tensor in({2, 3, 8, 8});
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(1), 10u);
}

TEST(ModelsTest, MlpShapes) {
  ModelSpec spec = MakeMlp(20, {16, 8}, 4);
  auto model = spec.factory(1);
  tensor::Tensor in({5, 20});
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(1), 4u);
}

TEST(ModelsTest, FactoryIsSeedDeterministic) {
  ModelSpec spec = MakeLeNet5Surrogate(8);
  auto a = spec.factory(77);
  auto b = spec.factory(77);
  auto c = spec.factory(78);
  EXPECT_EQ(a->GetFlatParams(), b->GetFlatParams());
  EXPECT_NE(a->GetFlatParams(), c->GetFlatParams());
}

TEST(ModelsTest, SideMustBeDivisibleByFour) {
  EXPECT_THROW(MakeLeNet5Surrogate(10), util::CheckError);
  EXPECT_THROW(MakeVggSurrogate(9), util::CheckError);
}

TEST(ModelsTest, ParameterCountsAreModest) {
  // Guard against accidental blow-ups that would wreck bench runtimes.
  auto lenet = MakeLeNet5Surrogate(12).factory(1);
  auto vgg = MakeVggSurrogate(8).factory(1);
  EXPECT_LT(lenet->NumParameters(), 20000u);
  EXPECT_LT(vgg->NumParameters(), 20000u);
  EXPECT_GT(lenet->NumParameters(), 1000u);
  EXPECT_GT(vgg->NumParameters(), 1000u);
}

// The surrogates as separate Conv2d, ReLU and MaxPool2d layers, drawing
// the same initial parameters the factories draw.
std::unique_ptr<Sequential> UnfusedStack(bool vgg, std::size_t side,
                                         std::uint64_t seed) {
  util::RngFactory rngs(seed);
  auto rng = rngs.Stream("model-init");
  auto model = std::make_unique<Sequential>();
  if (vgg) {
    model->Add(std::make_unique<Conv2d>(3, 6, 3, 1, rng))
        .Add(std::make_unique<ReLU>())
        .Add(std::make_unique<Conv2d>(6, 6, 3, 1, rng));
  } else {
    model->Add(std::make_unique<Conv2d>(1, 6, 3, 1, rng));
  }
  model->Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2))
      .Add(std::make_unique<Conv2d>(6, 12, 3, 1, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2))
      .Add(std::make_unique<Flatten>())
      .Add(std::make_unique<Dense>(12 * (side / 4) * (side / 4), 32, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Dense>(32, 10, rng));
  return model;
}

TEST(ModelsTest, FusedSurrogatesMatchUnfusedStacksBitForBit) {
  for (bool vgg : {false, true}) {
    SCOPED_TRACE(vgg ? "vgg" : "lenet");
    const std::size_t side = 12;
    const ModelSpec spec =
        vgg ? MakeVggSurrogate(side) : MakeLeNet5Surrogate(side);
    auto fused = spec.factory(5);
    auto unfused = UnfusedStack(vgg, side, 5);
    ASSERT_EQ(fused->GetFlatParams(), unfused->GetFlatParams());

    auto rng = util::RngFactory(6).Stream("input");
    tensor::Shape shape = {7};
    shape.insert(shape.end(), spec.sample_shape.begin(),
                 spec.sample_shape.end());
    tensor::Tensor x(shape);
    x.FillNormal(0.0f, 1.0f, rng);
    const std::vector<std::int64_t> labels = {0, 1, 2, 3, 4, 5, 6};
    // Two steps, so the second runs on reused arenas and updated weights.
    for (int step = 0; step < 2; ++step) {
      fused->ZeroGrads();
      unfused->ZeroGrads();
      const tensor::Tensor a = fused->Forward(x);
      const tensor::Tensor b = unfused->Forward(x);
      ASSERT_EQ(a.shape(), b.shape());
      ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                            a.size() * sizeof(float)),
                0);
      fused->Backward(SoftmaxCrossEntropy(a, labels).grad_logits);
      unfused->Backward(SoftmaxCrossEntropy(b, labels).grad_logits);
      const std::vector<float> ga = fused->GetFlatGrads();
      const std::vector<float> gb = unfused->GetFlatGrads();
      ASSERT_EQ(ga.size(), gb.size());
      ASSERT_EQ(std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)),
                0);
      std::vector<float> params = fused->GetFlatParams();
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i] -= 0.1f * ga[i];
      }
      fused->SetFlatParams(params);
      unfused->SetFlatParams(params);
    }
  }
}

TEST(ModelsTest, MlpZeroInputDimThrows) {
  EXPECT_THROW(MakeMlp(0, {4}), util::CheckError);
}

}  // namespace
}  // namespace nn
