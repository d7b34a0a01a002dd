// Architecture sweep: for every one of the 15 zoo models (untrained,
// randomly initialized), the input gradient of an output unit computed by
// BackwardInput must match central differences. This guards the exact
// primitive DeepXplore relies on across every layer combination the zoo uses
// (conv stacks, residual blocks, batch-norm, dropout-at-inference, softmax
// and regression heads).
//
// Full-input numeric differencing would need thousands of forwards per
// model; instead a fixed random subset of input coordinates is checked.
#include <gtest/gtest.h>

#include <cmath>

#include "src/models/zoo.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

class ZooGradientTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooGradientTest, OutputGradientMatchesNumericOnSampledCoordinates) {
  const std::string name = GetParam();
  Model model = ModelZoo::Build(name, /*seed=*/2718);
  Rng rng(314);
  // Positive-leaning inputs keep ReLU pre-activations mostly off their kinks.
  Tensor x = Tensor::RandUniform(model.input_shape(), rng, 0.05f, 0.95f);

  const ForwardTrace trace = model.Forward(x);
  const int last = model.num_layers() - 1;
  Tensor seed(model.output_shape());
  seed[0] = 1.0f;  // d(output[0]) / d(input).
  const Tensor analytic = model.BackwardInput(trace, last, seed);

  const auto output0 = [&](const Tensor& xx) {
    return static_cast<double>(testing::OraclePredict(model, xx)[0]);
  };

  const int checks = 24;
  const float eps = 5e-3f;
  int kink_skips = 0;
  for (int c = 0; c < checks; ++c) {
    const int64_t i = rng.UniformInt(0, x.numel() - 1);
    const float orig = x[i];
    x[i] = orig + eps;
    const double plus = output0(x);
    x[i] = orig - eps;
    const double minus = output0(x);
    x[i] = orig;
    const float numeric = static_cast<float>((plus - minus) / (2.0 * eps));
    const float denom = std::max({1.0f, std::abs(numeric), std::abs(analytic[i])});
    const float rel_err = std::abs(numeric - analytic[i]) / denom;
    if (rel_err > 3e-2f && ++kink_skips <= 2) {
      continue;  // Tolerate at most two ReLU/maxpool kink crossings.
    }
    EXPECT_LT(rel_err, 3e-2f) << name << " coordinate " << i;
  }
}

std::string NameOf(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

std::vector<std::string> AllZooNames() {
  std::vector<std::string> names;
  for (const ModelInfo& info : ZooModels()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooGradientTest, ::testing::ValuesIn(AllZooNames()),
                         NameOf);

}  // namespace
}  // namespace dx
