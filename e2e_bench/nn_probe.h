#pragma once

#include <map>
#include <string>

namespace e2e {

// Times Layer::Forward/Backward for the conv and dense layers of both model
// surrogates at their training batch, the remaining layers together, whole
// Sequential passes and Optimizer::Step. Metric names follow
// nn.<model>.<layer>.fwd_us. Throws util::CheckError if the probe's layer
// stack no longer matches the model factory's parameter count.
std::map<std::string, double> ProbeModels();

}  // namespace e2e
