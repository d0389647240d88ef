#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace tensor::kernels {
namespace {

// Rows of `dim` floats drawn from N(0, 1); a few entries become NaN or ±Inf
// when `special` is set.
std::vector<std::vector<float>> RandomRows(std::size_t count, std::size_t dim,
                                           bool special, std::mt19937_64& rng) {
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::vector<std::vector<float>> rows(count, std::vector<float>(dim));
  for (auto& row : rows) {
    for (float& x : row) {
      x = normal(rng);
    }
  }
  if (special && count > 0) {
    const float values[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t r = (k * 5) % count;
      rows[r][(k * 3 + r) % dim] = values[k];
    }
  }
  return rows;
}

std::vector<const float*> Pointers(const std::vector<std::vector<float>>& rows) {
  std::vector<const float*> ptrs;
  for (const auto& row : rows) {
    ptrs.push_back(row.data());
  }
  return ptrs;
}

// DotMany equals per-pair Dot byte for byte under both ISAs: row counts
// crossing the 2-row tile, column counts 0–9 crossing the 3-column tile,
// dims below, at and across the 8-float step (and the LeNet delta size),
// with NaN/Inf entries, into a table wider than the block whose padding
// must stay untouched.
TEST(DotManyTest, MatchesPerPairDotBitForBit) {
  const std::size_t dims[] = {1, 7, 8, 9, 4538};
  std::mt19937_64 rng(28);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    ForceIsa(isa);
    for (std::size_t dim : dims) {
      for (bool special : {false, true}) {
        const auto a = RandomRows(5, dim, special, rng);
        const auto b = RandomRows(9, dim, special, rng);
        const auto pa = Pointers(a);
        const auto pb = Pointers(b);
        for (std::size_t rows = 0; rows <= 5; ++rows) {
          for (std::size_t cols = 0; cols <= 9; ++cols) {
            const std::size_t ldo = cols + 2;
            const double sentinel = -1234.5;
            std::vector<double> out(rows * ldo, sentinel);
            DotMany(pa.data(), rows, pb.data(), cols, dim, out.data(), ldo);
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < ldo; ++c) {
                const double expected =
                    c < cols ? Dot(pa[r], pb[c], dim) : sentinel;
                ASSERT_EQ(std::memcmp(&out[r * ldo + c], &expected,
                                      sizeof(double)),
                          0)
                    << (ActiveIsa() == Isa::kAvx2 ? "avx2" : "scalar")
                    << " dim " << dim << " rows " << rows << " cols " << cols
                    << " at (" << r << ", " << c << ")"
                    << (special ? " with NaN/Inf" : "");
              }
            }
          }
        }
      }
    }
  }
  ResetForcedIsa();
}

}  // namespace
}  // namespace tensor::kernels
