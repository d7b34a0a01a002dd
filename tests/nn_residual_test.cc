// ResidualBlock: shape rules, identity-vs-projection skip paths, gradient
// checks (input and parameters), neuron interface, and serialization inside a
// model — MiniResNet (IMG_C3) is built from these blocks.
#include <gtest/gtest.h>

#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using ::dx::testing::MaxRelError;
using ::dx::testing::NumericalGradient;
using ::dx::testing::RelErrorQuantile;

TEST(ResidualBlockTest, IdentitySkipWhenShapesMatch) {
  ResidualBlock block(4, 4, 1);
  EXPECT_FALSE(block.has_projection());
  EXPECT_EQ(block.OutputShape({4, 8, 8}), (Shape{4, 8, 8}));
}

TEST(ResidualBlockTest, ProjectionOnChannelOrStrideChange) {
  ResidualBlock channels(4, 8, 1);
  EXPECT_TRUE(channels.has_projection());
  ResidualBlock strided(4, 4, 2);
  EXPECT_TRUE(strided.has_projection());
  EXPECT_EQ(strided.OutputShape({4, 8, 8}), (Shape{4, 4, 4}));
}

TEST(ResidualBlockTest, ParamCountsReflectProjection) {
  ResidualBlock identity(4, 4, 1);
  EXPECT_EQ(identity.Params().size(), 4u);  // conv1 w/b + conv2 w/b.
  ResidualBlock projected(4, 8, 2);
  EXPECT_EQ(projected.Params().size(), 6u);  // + projection w/b.
}

TEST(ResidualBlockTest, OutputIsNonNegative) {
  // The block ends in ReLU.
  Rng rng(1);
  ResidualBlock block(2, 2, 1);
  block.InitParams(rng);
  const Tensor x = Tensor::Randn({2, 6, 6}, rng);
  const Tensor y = block.Forward(x, false, nullptr, nullptr);
  EXPECT_GE(y.Min(), 0.0f);
}

TEST(ResidualBlockTest, ZeroWeightsReduceToReluIdentity) {
  // With all conv weights zero, out = relu(0 + x) = relu(x).
  ResidualBlock block(2, 2, 1);
  const Tensor x({2, 4, 4}, std::vector<float>(32, 0.5f));
  const Tensor y = block.Forward(x, false, nullptr, nullptr);
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], 0.5f);
  }
}

class ResidualGradTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ResidualGradTest, InputGradientMatchesNumeric) {
  const auto [in_ch, out_ch, stride] = GetParam();
  Rng rng(7);
  ResidualBlock block(in_ch, out_ch, stride);
  block.InitParams(rng);
  // Positive-biased input keeps most ReLUs away from their kinks.
  Tensor x = Tensor::RandUniform({in_ch, 6, 6}, rng, 0.2f, 1.0f);

  Tensor aux;
  const Tensor y = block.Forward(x, false, nullptr, &aux);
  const Tensor probe = Tensor::RandUniform(y.shape(), rng, 0.1f, 1.0f);
  const Tensor analytic = block.Backward(x, y, probe, aux, nullptr);

  const auto scalar = [&](const Tensor& xx) {
    const Tensor yy = block.Forward(xx, false, nullptr, nullptr);
    double s = 0.0;
    for (int64_t i = 0; i < yy.numel(); ++i) {
      s += static_cast<double>(probe[i]) * yy[i];
    }
    return s;
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  // Three stacked ReLUs: a few elements sit on kinks where central
  // differences are wrong by construction; check the 90th percentile tightly
  // and bound the worst element loosely.
  EXPECT_LT(RelErrorQuantile(analytic, numeric, 0.9f), 3e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 0.6f);
}

TEST_P(ResidualGradTest, ParamGradientsMatchNumeric) {
  const auto [in_ch, out_ch, stride] = GetParam();
  Rng rng(11);
  ResidualBlock block(in_ch, out_ch, stride);
  block.InitParams(rng);
  Tensor x = Tensor::RandUniform({in_ch, 6, 6}, rng, 0.2f, 1.0f);

  Tensor aux;
  const Tensor y = block.Forward(x, false, nullptr, &aux);
  const Tensor probe = Tensor::RandUniform(y.shape(), rng, 0.1f, 1.0f);
  std::vector<Tensor> grads;
  for (const Tensor* p : block.Params()) {
    grads.emplace_back(p->shape());
  }
  block.Backward(x, y, probe, aux, &grads);

  auto params = block.MutableParams();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor* param = params[pi];
    const auto scalar = [&](const Tensor& theta) {
      const Tensor saved = *param;
      *param = theta;
      const Tensor yy = block.Forward(x, false, nullptr, nullptr);
      *param = saved;
      double s = 0.0;
      for (int64_t i = 0; i < yy.numel(); ++i) {
        s += static_cast<double>(probe[i]) * yy[i];
      }
      return s;
    };
    // Small eps: a bias perturbation shifts every spatial pre-activation in
    // its channel simultaneously, so larger steps cross many ReLU kinks.
    const Tensor numeric = NumericalGradient(scalar, *param, 1e-3f);
    EXPECT_LT(RelErrorQuantile(grads[pi], numeric, 0.8f), 3e-2f) << "param " << pi;
    EXPECT_LT(MaxRelError(grads[pi], numeric), 0.6f) << "param " << pi;
  }
}

TEST(ResidualBlockTest, ExactGradientsAwayFromReluKinks) {
  // All-positive weights and inputs keep every pre-activation strictly
  // positive, so every ReLU is in its linear region and the analytic
  // gradient must match the numeric one to worst-element precision.
  Rng rng(23);
  ResidualBlock block(2, 2, 1);
  block.InitParams(rng);
  for (Tensor* p : block.MutableParams()) {
    for (int64_t i = 0; i < p->numel(); ++i) {
      (*p)[i] = std::abs((*p)[i]) + 0.01f;
    }
  }
  const Tensor x = Tensor::RandUniform({2, 5, 5}, rng, 0.2f, 1.0f);
  Tensor aux;
  const Tensor y = block.Forward(x, false, nullptr, &aux);
  ASSERT_GT(y.Min(), 0.0f);
  const Tensor probe = Tensor::RandUniform(y.shape(), rng, 0.1f, 1.0f);
  const Tensor analytic = block.Backward(x, y, probe, aux, nullptr);
  const auto scalar = [&](const Tensor& xx) {
    const Tensor yy = block.Forward(xx, false, nullptr, nullptr);
    double s = 0.0;
    for (int64_t i = 0; i < yy.numel(); ++i) {
      s += static_cast<double>(probe[i]) * yy[i];
    }
    return s;
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 1e-2f);

  // Parameter gradients are exact here too (no kink is ever crossed).
  std::vector<Tensor> grads;
  for (const Tensor* p : block.Params()) {
    grads.emplace_back(p->shape());
  }
  block.Backward(x, y, probe, aux, &grads);
  auto params = block.MutableParams();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor* param = params[pi];
    const auto param_scalar = [&](const Tensor& theta) {
      const Tensor saved = *param;
      *param = theta;
      const Tensor yy = block.Forward(x, false, nullptr, nullptr);
      *param = saved;
      double s = 0.0;
      for (int64_t i = 0; i < yy.numel(); ++i) {
        s += static_cast<double>(probe[i]) * yy[i];
      }
      return s;
    };
    const Tensor numeric_p = NumericalGradient(param_scalar, *param, 1e-3f);
    EXPECT_LT(MaxRelError(grads[pi], numeric_p), 1e-2f) << "param " << pi;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ResidualGradTest,
                         ::testing::Values(std::make_tuple(2, 2, 1),
                                           std::make_tuple(2, 4, 1),
                                           std::make_tuple(3, 3, 2),
                                           std::make_tuple(2, 4, 2)));

TEST(ResidualBlockTest, NeuronInterfaceUsesOutputChannels) {
  ResidualBlock block(2, 4, 2);
  EXPECT_EQ(block.NumNeurons(), 4);
  Tensor y({4, 3, 3}, 2.0f);
  EXPECT_FLOAT_EQ(block.NeuronValue(ConstTensorView(y), 1), 2.0f);
  Tensor seed({4, 3, 3});
  block.AddNeuronSeed(&seed, 2, 1.0f);
  EXPECT_NEAR(seed.Sum(), 1.0f, 1e-5f);
  EXPECT_THROW(block.NeuronValue(ConstTensorView(y), 4), std::out_of_range);
}

TEST(ResidualBlockTest, SerializesInsideModel) {
  Rng rng(13);
  Model m("resnet_bit", {2, 8, 8});
  m.Emplace<ResidualBlock>(2, 4, 2).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 4 * 4, 3).InitParams(rng);
  m.Emplace<SoftmaxLayer>();

  Model restored = Model::Deserialize(m.Serialize());
  const Tensor x = Tensor::RandUniform({2, 8, 8}, rng);
  const Tensor a = m.Predict(x);
  const Tensor b = restored.Predict(x);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
  auto* block = dynamic_cast<ResidualBlock*>(&restored.layer(0));
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(block->has_projection());
}

TEST(ResidualBlockTest, BackwardThroughModelFromInternalNeuron) {
  // The DeepXplore primitive must also work through residual blocks.
  Rng rng(17);
  Model m("resnet_bit", {2, 8, 8});
  auto& block = m.Emplace<ResidualBlock>(2, 4, 1);
  block.InitParams(rng);
  const Tensor x = Tensor::RandUniform({2, 8, 8}, rng, 0.2f, 1.0f);
  const ForwardTrace trace = m.Forward(x);
  Tensor seed(trace.outputs[0].shape());
  block.AddNeuronSeed(&seed, 1, 1.0f);
  const Tensor analytic = m.BackwardInput(trace, 0, seed);

  const auto scalar = [&](const Tensor& xx) {
    const ForwardTrace t = m.Forward(xx);
    return static_cast<double>(block.NeuronValue(ConstTensorView(t.outputs[0]), 1));
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 3e-2f);
}

}  // namespace
}  // namespace dx
