// Nearest-Neighbour Mixing (Allouah et al., AISTATS 2023).
//
// Pre-aggregation: each update is replaced by the average of itself and its
// n − m − 1 nearest neighbours, shrinking heterogeneity before a plain mean.
#pragma once

#include "defense/defense.h"

namespace defense {

class NearestNeighborMixing : public Defense {
 public:
  explicit NearestNeighborMixing(double assumed_malicious_fraction = 0.2);

  AggregationResult Process(const FilterContext& context,
                            const std::vector<fl::ModelUpdate>& updates) override;
  std::string Name() const override { return "NNM"; }

 private:
  double fraction_;
};

}  // namespace defense
