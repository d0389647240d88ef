// Synthetic stand-ins for MNIST / FashionMNIST / CIFAR-10 / CINIC-10.
//
// None of the real datasets are available offline, so each is replaced by a
// class-conditional Gaussian-mixture generator whose difficulty profile
// (class separation, modes per class, noise, label noise) is tuned so the
// *relative* behaviour matches the paper: clean-accuracy ordering
// MNIST ≫ Fashion > CIFAR > CINIC, and the same attack sensitivities.
// See DESIGN.md §1 for the substitution rationale.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace data {

// Difficulty profile of one synthetic dataset family.
struct SyntheticSpec {
  std::string name;
  tensor::Shape sample_shape;      // e.g. {1, 12, 12}
  std::size_t num_classes = 10;
  double class_separation = 2.5;   // prototype scale vs unit noise
  std::size_t modes_per_class = 1; // sub-modes within each class
  double noise_std = 1.0;          // per-dimension sample noise
  double label_noise = 0.0;        // fraction of uniformly relabelled samples
  double smoothing = 0.0;          // spatial 1-2-1 smoothing passes (images)
};

// The four evaluation profiles (paper §5.1).
enum class Profile { kMnist, kFashionMnist, kCifar10, kCinic10 };

// Returns the tuned spec for a profile. `side` controls image resolution
// (default 12 keeps the surrogate models CPU-fast).
SyntheticSpec MakeProfileSpec(Profile profile, std::size_t side = 12);

const char* ProfileName(Profile profile);

// The CLI spelling of a profile: mnist | fashionmnist (fashion) |
// cifar10 (cifar) | cinic10 (cinic). Throws util::CheckError otherwise.
Profile ParseProfile(const std::string& name);

// Deterministic generator: the class/mode prototypes are fixed by
// (spec, seed) at construction, so train and test draws — and every client's
// partition — come from the same underlying distribution.
class SyntheticGenerator {
 public:
  SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed);

  // Draws `n` fresh samples; `stream` disambiguates independent draws
  // (e.g. "train" vs "test").
  Dataset Generate(std::size_t n, const std::string& stream) const;

  const SyntheticSpec& spec() const { return spec_; }

 private:
  SyntheticSpec spec_;
  std::uint64_t seed_;
  // prototypes_[class * modes + mode] is one prototype vector.
  std::vector<std::vector<float>> prototypes_;
};

}  // namespace data
