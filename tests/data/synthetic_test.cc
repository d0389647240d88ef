#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "stats/vec_ops.h"
#include "util/check.h"

namespace data {
namespace {

TEST(SyntheticSpecTest, ProfilesHaveExpectedShapes) {
  EXPECT_EQ(MakeProfileSpec(Profile::kMnist, 12).sample_shape,
            (tensor::Shape{1, 12, 12}));
  EXPECT_EQ(MakeProfileSpec(Profile::kFashionMnist, 12).sample_shape,
            (tensor::Shape{1, 12, 12}));
  EXPECT_EQ(MakeProfileSpec(Profile::kCifar10, 8).sample_shape,
            (tensor::Shape{3, 8, 8}));
  EXPECT_EQ(MakeProfileSpec(Profile::kCinic10, 8).sample_shape,
            (tensor::Shape{3, 8, 8}));
}

TEST(SyntheticSpecTest, DifficultyOrderingMatchesPaper) {
  // Clean-accuracy ordering MNIST ≫ Fashion > CIFAR > CINIC is driven by
  // class separation and label noise; check the knobs are ordered that way.
  auto mnist = MakeProfileSpec(Profile::kMnist);
  auto fashion = MakeProfileSpec(Profile::kFashionMnist);
  auto cinic = MakeProfileSpec(Profile::kCinic10, 8);
  EXPECT_GT(mnist.class_separation, fashion.class_separation);
  EXPECT_LT(mnist.label_noise, cinic.label_noise);
}

TEST(SyntheticGeneratorTest, GeneratesRequestedCount) {
  SyntheticGenerator gen(MakeProfileSpec(Profile::kMnist, 8), 1);
  Dataset d = gen.Generate(100, "train");
  EXPECT_EQ(d.size(), 100u);
  EXPECT_EQ(d.sample_dim(), 64u);
  EXPECT_EQ(d.num_classes, 10u);
}

TEST(SyntheticGeneratorTest, LabelsSpanAllClasses) {
  SyntheticGenerator gen(MakeProfileSpec(Profile::kMnist, 8), 2);
  Dataset d = gen.Generate(2000, "train");
  std::vector<int> counts(10, 0);
  for (auto label : d.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 10);
    counts[static_cast<std::size_t>(label)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 100);  // roughly uniform class marginal
  }
}

TEST(SyntheticGeneratorTest, DeterministicPerSeedAndStream) {
  SyntheticGenerator a(MakeProfileSpec(Profile::kFashionMnist, 8), 3);
  SyntheticGenerator b(MakeProfileSpec(Profile::kFashionMnist, 8), 3);
  Dataset da = a.Generate(50, "train");
  Dataset db = b.Generate(50, "train");
  EXPECT_EQ(da.features, db.features);
  EXPECT_EQ(da.labels, db.labels);
}

TEST(SyntheticGeneratorTest, StreamsAreIndependent) {
  SyntheticGenerator gen(MakeProfileSpec(Profile::kFashionMnist, 8), 3);
  Dataset train = gen.Generate(50, "train");
  Dataset test = gen.Generate(50, "test");
  EXPECT_NE(train.features, test.features);
}

TEST(SyntheticGeneratorTest, TrainAndTestShareClassStructure) {
  // Same prototypes: same-class samples across the two splits should be
  // closer on average than different-class samples.
  SyntheticGenerator gen(MakeProfileSpec(Profile::kMnist, 8), 4);
  Dataset train = gen.Generate(300, "train");
  Dataset test = gen.Generate(300, "test");
  double same = 0.0, diff = 0.0;
  std::size_t n_same = 0, n_diff = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 100; ++j) {
      double d = stats::Distance(train.Sample(i), test.Sample(j));
      if (train.labels[i] == test.labels[j]) {
        same += d;
        ++n_same;
      } else {
        diff += d;
        ++n_diff;
      }
    }
  }
  EXPECT_LT(same / n_same, diff / n_diff);
}

TEST(SyntheticGeneratorTest, LabelNoiseInjectsImpurity) {
  SyntheticSpec spec = MakeProfileSpec(Profile::kMnist, 8);
  spec.label_noise = 0.5;
  SyntheticGenerator noisy(spec, 5);
  SyntheticGenerator clean(MakeProfileSpec(Profile::kMnist, 8), 5);
  // With the same seed the underlying class draws match; count differing
  // labels as a proxy for injected noise.
  Dataset dn = noisy.Generate(1000, "train");
  Dataset dc = clean.Generate(1000, "train");
  std::size_t differing = 0;
  for (std::size_t i = 0; i < dn.size(); ++i) {
    differing += (dn.labels[i] != dc.labels[i]) ? 1 : 0;
  }
  EXPECT_GT(differing, 200u);
}

TEST(ProfileNameTest, AllNamed) {
  EXPECT_STREQ(ProfileName(Profile::kMnist), "MNIST");
  EXPECT_STREQ(ProfileName(Profile::kFashionMnist), "FashionMNIST");
  EXPECT_STREQ(ProfileName(Profile::kCifar10), "CIFAR-10");
  EXPECT_STREQ(ProfileName(Profile::kCinic10), "CINIC-10");
}

TEST(ParseProfileTest, CliNamesAndAliases) {
  EXPECT_EQ(ParseProfile("mnist"), Profile::kMnist);
  EXPECT_EQ(ParseProfile("fashionmnist"), Profile::kFashionMnist);
  EXPECT_EQ(ParseProfile("fashion"), Profile::kFashionMnist);
  EXPECT_EQ(ParseProfile("cifar10"), Profile::kCifar10);
  EXPECT_EQ(ParseProfile("cinic"), Profile::kCinic10);
  EXPECT_THROW(ParseProfile("MNIST"), util::CheckError);
}

}  // namespace
}  // namespace data
