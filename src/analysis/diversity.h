// Test-diversity metric of Table 5: average L1 distance between generated
// difference-inducing inputs and their seeds.
#ifndef DX_SRC_ANALYSIS_DIVERSITY_H_
#define DX_SRC_ANALYSIS_DIVERSITY_H_

#include <vector>

#include "src/core/session.h"
#include "src/tensor/tensor.h"

namespace dx {

// Mean over tests of L1(test.input, seeds[test.seed_index]).
float AverageSeedL1Diversity(const std::vector<GeneratedTest>& tests,
                             const std::vector<Tensor>& seeds);

}  // namespace dx

#endif  // DX_SRC_ANALYSIS_DIVERSITY_H_
