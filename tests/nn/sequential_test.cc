#include "nn/sequential.h"

#include <gtest/gtest.h>

#include "nn/dense.h"
#include "nn/relu.h"
#include "util/check.h"
#include "util/rng.h"

namespace nn {
namespace {

std::unique_ptr<Sequential> SmallModel(std::uint64_t seed = 1) {
  auto rng = util::RngFactory(seed).Stream("m");
  auto model = std::make_unique<Sequential>();
  model->Add(std::make_unique<Dense>(4, 3, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Dense>(3, 2, rng));
  return model;
}

TEST(SequentialTest, ForwardProducesLogits) {
  auto model = SmallModel();
  tensor::Tensor in({5, 4});
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(0), 5u);
  EXPECT_EQ(out.dim(1), 2u);
}

TEST(SequentialTest, NumParametersCountsAllLayers) {
  auto model = SmallModel();
  EXPECT_EQ(model->NumParameters(), 4u * 3 + 3 + 3 * 2 + 2);
  EXPECT_EQ(model->NumLayers(), 3u);
}

TEST(SequentialTest, FlatParamsRoundTrip) {
  auto model = SmallModel(1);
  std::vector<float> flat = model->GetFlatParams();
  ASSERT_EQ(flat.size(), model->NumParameters());
  for (auto& v : flat) {
    v += 0.25f;
  }
  model->SetFlatParams(flat);
  std::vector<float> back = model->GetFlatParams();
  EXPECT_EQ(back, flat);
}

TEST(SequentialTest, SetFlatParamsSizeMismatchThrows) {
  auto model = SmallModel();
  std::vector<float> wrong(model->NumParameters() + 1, 0.0f);
  EXPECT_THROW(model->SetFlatParams(wrong), util::CheckError);
}

TEST(SequentialTest, SameSeedSameInitialParams) {
  auto a = SmallModel(42);
  auto b = SmallModel(42);
  EXPECT_EQ(a->GetFlatParams(), b->GetFlatParams());
}

TEST(SequentialTest, TransferringFlatParamsAlignsModels) {
  auto a = SmallModel(1);
  auto b = SmallModel(2);
  b->SetFlatParams(a->GetFlatParams());
  tensor::Tensor in({1, 4}, {1.0f, -1.0f, 0.5f, 2.0f});
  tensor::Tensor out_a = a->Forward(in);
  tensor::Tensor out_b = b->Forward(in);
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_FLOAT_EQ(out_a[i], out_b[i]);
  }
}

TEST(SequentialTest, ZeroGradsClearsAllAccumulators) {
  auto model = SmallModel();
  tensor::Tensor in({2, 4});
  in.Fill(1.0f);
  tensor::Tensor out = model->Forward(in);
  tensor::Tensor grad(out.shape());
  grad.Fill(1.0f);
  model->Backward(grad);
  bool any_nonzero = false;
  for (float g : model->GetFlatGrads()) {
    any_nonzero |= (g != 0.0f);
  }
  EXPECT_TRUE(any_nonzero);
  model->ZeroGrads();
  for (float g : model->GetFlatGrads()) {
    EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

// Passes activations and gradients through unchanged, counting calls.
class CountingLayer : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& input) override {
    return input;
  }
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override {
    ++backward_calls;
    return grad_output;
  }
  void AccumulateGrads(const tensor::Tensor&) override { ++accumulate_calls; }
  std::string Name() const override { return "Counting"; }

  int backward_calls = 0;
  int accumulate_calls = 0;
};

TEST(SequentialTest, BackwardAsksTheFirstLayerForParameterGradientsOnly) {
  Sequential model;
  auto first = std::make_unique<CountingLayer>();
  auto second = std::make_unique<CountingLayer>();
  CountingLayer* first_ptr = first.get();
  CountingLayer* second_ptr = second.get();
  model.Add(std::move(first)).Add(std::move(second));
  tensor::Tensor in({2, 3});
  model.Backward(model.Forward(in));
  EXPECT_EQ(first_ptr->backward_calls, 0);
  EXPECT_EQ(first_ptr->accumulate_calls, 1);
  EXPECT_EQ(second_ptr->backward_calls, 1);
  EXPECT_EQ(second_ptr->accumulate_calls, 0);
}

TEST(SequentialTest, DefaultAccumulateGradsMatchesBackward) {
  // Dense keeps Layer's default AccumulateGrads (Backward with the result
  // dropped), so a Dense-first model gets exactly Backward's gradients.
  auto model = SmallModel(3);
  auto rng = util::RngFactory(4).Stream("x");
  tensor::Tensor in({3, 4});
  in.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor grad({3, 2});
  grad.FillNormal(0.0f, 1.0f, rng);
  model->Forward(in);
  model->Backward(grad);

  auto init = util::RngFactory(3).Stream("m");
  Dense d1(4, 3, init);
  ReLU relu;
  Dense d2(3, 2, init);
  d2.Forward(relu.Forward(d1.Forward(in)));
  d1.Backward(relu.Backward(d2.Backward(grad)));
  std::vector<float> want;
  for (Layer* layer : std::initializer_list<Layer*>{&d1, &d2}) {
    for (tensor::Tensor* g : layer->Grads()) {
      want.insert(want.end(), g->vec().begin(), g->vec().end());
    }
  }
  EXPECT_EQ(model->GetFlatGrads(), want);
}

TEST(SequentialTest, EmptyModelForwardThrows) {
  Sequential model;
  tensor::Tensor in({1, 1});
  EXPECT_THROW(model.Forward(in), util::CheckError);
}

TEST(SequentialTest, AddNullLayerThrows) {
  Sequential model;
  EXPECT_THROW(model.Add(nullptr), util::CheckError);
}

}  // namespace
}  // namespace nn
