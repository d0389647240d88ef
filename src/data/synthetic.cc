#include "data/synthetic.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace data {
namespace {

// One 1-2-1 smoothing pass along rows and columns of each channel, in place.
// Adds the spatial correlation that makes conv layers meaningfully better
// than a flat MLP on the image profiles.
void SmoothImage(std::span<float> image, const tensor::Shape& shape) {
  AF_CHECK_EQ(shape.size(), 3u);
  const std::size_t channels = shape[0], h = shape[1], w = shape[2];
  std::vector<float> tmp(h * w);
  for (std::size_t c = 0; c < channels; ++c) {
    float* plane = image.data() + c * h * w;
    // Horizontal pass.
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        float left = j > 0 ? plane[i * w + j - 1] : plane[i * w + j];
        float right = j + 1 < w ? plane[i * w + j + 1] : plane[i * w + j];
        tmp[i * w + j] = 0.25f * left + 0.5f * plane[i * w + j] + 0.25f * right;
      }
    }
    // Vertical pass.
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        float up = i > 0 ? tmp[(i - 1) * w + j] : tmp[i * w + j];
        float down = i + 1 < h ? tmp[(i + 1) * w + j] : tmp[i * w + j];
        plane[i * w + j] = 0.25f * up + 0.5f * tmp[i * w + j] + 0.25f * down;
      }
    }
  }
}

}  // namespace

SyntheticSpec MakeProfileSpec(Profile profile, std::size_t side) {
  SyntheticSpec spec;
  switch (profile) {
    case Profile::kMnist:
      // Easy, well-separated single-mode classes: clean accuracy ≫ 90%.
      spec.name = "mnist-like";
      spec.sample_shape = {1, side, side};
      spec.class_separation = 2.2;
      spec.modes_per_class = 1;
      spec.noise_std = 1.0;
      spec.label_noise = 0.0;
      spec.smoothing = 1.0;
      break;
    case Profile::kFashionMnist:
      // Overlapping classes with two modes each (shirt vs pullover style
      // confusions): clean accuracy in the mid-80s regime.
      spec.name = "fashionmnist-like";
      spec.sample_shape = {1, side, side};
      spec.class_separation = 1.70;
      spec.modes_per_class = 2;
      spec.noise_std = 1.0;
      spec.label_noise = 0.03;
      spec.smoothing = 1.0;
      break;
    case Profile::kCifar10:
      // Colour images, three modes per class, heavier noise.
      spec.name = "cifar10-like";
      spec.sample_shape = {3, side, side};
      spec.class_separation = 2.0;
      spec.modes_per_class = 3;
      spec.noise_std = 1.0;
      spec.label_noise = 0.05;
      spec.smoothing = 1.0;
      break;
    case Profile::kCinic10:
      // Hardest profile (CINIC mixes CIFAR with ImageNet-derived images):
      // many modes, strong noise and label noise keep clean accuracy low.
      spec.name = "cinic10-like";
      spec.sample_shape = {3, side, side};
      spec.class_separation = 1.40;
      spec.modes_per_class = 4;
      spec.noise_std = 1.2;
      spec.label_noise = 0.12;
      spec.smoothing = 1.0;
      break;
  }
  return spec;
}

const char* ProfileName(Profile profile) {
  switch (profile) {
    case Profile::kMnist:
      return "MNIST";
    case Profile::kFashionMnist:
      return "FashionMNIST";
    case Profile::kCifar10:
      return "CIFAR-10";
    case Profile::kCinic10:
      return "CINIC-10";
  }
  return "?";
}

Profile ParseProfile(const std::string& name) {
  if (name == "mnist") {
    return Profile::kMnist;
  }
  if (name == "fashionmnist" || name == "fashion") {
    return Profile::kFashionMnist;
  }
  if (name == "cifar10" || name == "cifar") {
    return Profile::kCifar10;
  }
  if (name == "cinic10" || name == "cinic") {
    return Profile::kCinic10;
  }
  AF_CHECK(false) << "unknown profile: " << name;
  return Profile::kFashionMnist;
}

SyntheticGenerator::SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  AF_CHECK_GT(spec_.num_classes, 0u);
  AF_CHECK_GT(spec_.modes_per_class, 0u);
  AF_CHECK_GT(spec_.class_separation, 0.0);
  const std::size_t dim = tensor::NumElements(spec_.sample_shape);
  AF_CHECK_GT(dim, 0u);

  util::RngFactory rngs(seed_);
  auto rng = rngs.Stream("synthetic/prototypes");
  std::normal_distribution<float> unit(0.0f, 1.0f);
  prototypes_.resize(spec_.num_classes * spec_.modes_per_class);
  for (std::size_t c = 0; c < spec_.num_classes; ++c) {
    // A class centre plus per-mode offsets: modes of one class stay closer
    // to each other than to other classes.
    std::vector<float> centre(dim);
    for (float& x : centre) {
      x = unit(rng) * static_cast<float>(spec_.class_separation);
    }
    for (std::size_t m = 0; m < spec_.modes_per_class; ++m) {
      std::vector<float> proto = centre;
      if (spec_.modes_per_class > 1) {
        for (float& x : proto) {
          x += unit(rng) * static_cast<float>(spec_.class_separation) * 0.45f;
        }
      }
      prototypes_[c * spec_.modes_per_class + m] = std::move(proto);
    }
  }
}

Dataset SyntheticGenerator::Generate(std::size_t n,
                                     const std::string& stream) const {
  const std::size_t dim = tensor::NumElements(spec_.sample_shape);
  Dataset dataset;
  dataset.sample_shape = spec_.sample_shape;
  dataset.num_classes = spec_.num_classes;
  dataset.features.resize(n * dim);
  dataset.labels.resize(n);

  util::RngFactory rngs(seed_);
  auto rng = rngs.Stream("synthetic/samples/" + stream);
  std::uniform_int_distribution<std::size_t> pick_class(0,
                                                        spec_.num_classes - 1);
  std::uniform_int_distribution<std::size_t> pick_mode(
      0, spec_.modes_per_class - 1);
  std::normal_distribution<float> noise(0.0f,
                                        static_cast<float>(spec_.noise_std));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = pick_class(rng);
    const std::size_t mode = pick_mode(rng);
    const auto& proto = prototypes_[label * spec_.modes_per_class + mode];
    float* sample = dataset.features.data() + i * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      sample[d] = proto[d] + noise(rng);
    }
    if (spec_.smoothing > 0.0 && spec_.sample_shape.size() == 3) {
      for (int pass = 0; pass < static_cast<int>(spec_.smoothing); ++pass) {
        SmoothImage(std::span<float>(sample, dim), spec_.sample_shape);
      }
    }
    std::int64_t final_label = static_cast<std::int64_t>(label);
    if (spec_.label_noise > 0.0 && uniform(rng) < spec_.label_noise) {
      final_label = static_cast<std::int64_t>(pick_class(rng));
    }
    dataset.labels[i] = final_label;
  }
  return dataset;
}

}  // namespace data
