// Krum / Multi-Krum robust aggregation (Blanchard et al., 2017).
//
// Classical synchronous baseline used in the extension study: each update is
// scored by the sum of squared distances to its n − m − 2 nearest
// neighbours; Krum keeps the single best, Multi-Krum the best n − m.
#pragma once

#include "defense/defense.h"

namespace defense {

class Krum : public Defense {
 public:
  // `assumed_malicious_fraction` sets m = ⌊fraction · n⌋ per buffer.
  explicit Krum(double assumed_malicious_fraction = 0.2, bool multi = true);

  AggregationResult Process(const FilterContext& context,
                            const std::vector<fl::ModelUpdate>& updates) override;
  std::string Name() const override { return multi_ ? "Multi-Krum" : "Krum"; }

 private:
  double fraction_;
  bool multi_;
};

}  // namespace defense
