// Layer-level unit tests: shapes, forward values, and — critically —
// numerical gradient checks of every Backward implementation, for both input
// gradients and parameter gradients. These validate the reverse-mode engine
// DeepXplore's joint optimization relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "src/nn/activation.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/pool2d.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using ::dx::testing::MaxRelError;
using ::dx::testing::NumericalGradient;

// Computes <probe, layer(x)> and checks Backward's input gradient against the
// numerical gradient of that scalar.
void CheckInputGradient(const Layer& layer, const Tensor& x, float tol = 2e-2f) {
  Rng rng(123);
  Tensor aux;
  const Tensor y = layer.Forward(x, /*training=*/false, nullptr, &aux);
  const Tensor probe = Tensor::Randn(y.shape(), rng);

  const Tensor analytic = layer.Backward(x, y, probe, aux, nullptr);

  const auto scalar = [&](const Tensor& xx) {
    Tensor aux2;
    const Tensor yy = layer.Forward(xx, false, nullptr, &aux2);
    double s = 0.0;
    for (int64_t i = 0; i < yy.numel(); ++i) {
      s += static_cast<double>(probe[i]) * yy[i];
    }
    return s;
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), tol);
}

// Checks parameter gradients of a layer with params against numeric diff.
// `max_params` limits the check to the first k parameters (BatchNorm's frozen
// mu/var intentionally receive zero analytic gradient).
void CheckParamGradients(Layer& layer, const Tensor& x, float tol = 2e-2f,
                         int max_params = -1) {
  Rng rng(321);
  Tensor aux;
  const Tensor y = layer.Forward(x, false, nullptr, &aux);
  const Tensor probe = Tensor::Randn(y.shape(), rng);

  std::vector<Tensor> grads;
  for (const Tensor* p : layer.Params()) {
    grads.emplace_back(p->shape());
  }
  layer.Backward(x, y, probe, aux, &grads);

  auto params = layer.MutableParams();
  if (max_params >= 0) {
    params.resize(static_cast<size_t>(max_params));
  }
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor* param = params[pi];
    const auto scalar = [&](const Tensor& theta) {
      const Tensor saved = *param;
      *param = theta;
      Tensor aux2;
      const Tensor yy = layer.Forward(x, false, nullptr, &aux2);
      *param = saved;
      double s = 0.0;
      for (int64_t i = 0; i < yy.numel(); ++i) {
        s += static_cast<double>(probe[i]) * yy[i];
      }
      return s;
    };
    const Tensor numeric = NumericalGradient(scalar, *param, 1e-2f);
    EXPECT_LT(MaxRelError(grads[pi], numeric), tol) << "param " << pi;
  }
}

// ---- Dense -------------------------------------------------------------------------------

TEST(DenseTest, ForwardKnownValues) {
  Dense d(2, 2, Activation::kNone);
  d.weight() = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  d.bias() = Tensor({2}, std::vector<float>{0.5f, -0.5f});
  const Tensor y = d.Forward(Tensor({2}, std::vector<float>{1, 1}), false, nullptr, nullptr);
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(DenseTest, OutputShapeValidation) {
  Dense d(6, 3);
  EXPECT_EQ(d.OutputShape({6}), (Shape{3}));
  EXPECT_EQ(d.OutputShape({2, 3}), (Shape{3}));  // Dense flattens logically.
  EXPECT_THROW(d.OutputShape({5}), std::invalid_argument);
}

TEST(DenseTest, RejectsBadConstruction) {
  EXPECT_THROW(Dense(0, 3), std::invalid_argument);
  EXPECT_THROW(Dense(3, -1), std::invalid_argument);
}

class DenseGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradTest, InputAndParamGradientsMatchNumeric) {
  Rng rng(7);
  Dense d(5, 4, GetParam());
  d.InitParams(rng);
  const Tensor x = Tensor::Randn({5}, rng);
  CheckInputGradient(d, x);
  CheckParamGradients(d, x);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseGradTest,
                         ::testing::Values(Activation::kNone, Activation::kRelu,
                                           Activation::kTanh, Activation::kSigmoid));

TEST(DenseTest, NeuronInterface) {
  Dense d(3, 4);
  EXPECT_EQ(d.NumNeurons(), 4);
  Tensor y({4}, std::vector<float>{1, 2, 3, 4});
  EXPECT_FLOAT_EQ(d.NeuronValue(ConstTensorView(y), 2), 3.0f);
  EXPECT_THROW(d.NeuronValue(ConstTensorView(y), 4), std::out_of_range);
  EXPECT_THROW(d.NeuronValue(ConstTensorView(y), -1), std::out_of_range);
  Tensor seed({4});
  d.AddNeuronSeed(&seed, 1, 2.0f);
  EXPECT_FLOAT_EQ(seed[1], 2.0f);
  EXPECT_FLOAT_EQ(seed.Sum(), 2.0f);
}

TEST(DenseTest, WeightInitSchemes) {
  Rng rng(7);
  Dense glorot(100, 50);
  glorot.InitParams(rng, WeightInit::kGlorotUniform);
  const float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(glorot.weight().Max(), limit);
  EXPECT_GE(glorot.weight().Min(), -limit);

  Dense normed(100, 50);
  normed.InitParams(rng, WeightInit::kNormalized);
  // Each row should have unit L2 norm.
  for (int o = 0; o < 50; ++o) {
    double norm = 0.0;
    for (int i = 0; i < 100; ++i) {
      const float w = normed.weight().at({o, i});
      norm += static_cast<double>(w) * w;
    }
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

// ---- Conv2D ------------------------------------------------------------------------------

TEST(Conv2DTest, OutputShapeValidStride) {
  Conv2D c(1, 4, 5, 5);
  EXPECT_EQ(c.OutputShape({1, 28, 28}), (Shape{4, 24, 24}));
  Conv2D s2(3, 8, 5, 5, 2);
  EXPECT_EQ(s2.OutputShape({3, 33, 33}), (Shape{8, 15, 15}));
  Conv2D same(3, 8, 3, 3, 1, 1);
  EXPECT_EQ(same.OutputShape({3, 16, 16}), (Shape{8, 16, 16}));
  EXPECT_THROW(c.OutputShape({2, 28, 28}), std::invalid_argument);
  EXPECT_THROW(c.OutputShape({1, 3, 3}), std::invalid_argument);
}

TEST(Conv2DTest, IdentityKernelReproducesInput) {
  Conv2D c(1, 1, 1, 1);
  c.weight() = Tensor({1, 1, 1, 1}, std::vector<float>{1.0f});
  Rng rng(3);
  const Tensor x = Tensor::Randn({1, 4, 4}, rng);
  const Tensor y = c.Forward(x, false, nullptr, nullptr);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(Conv2DTest, BoxFilterComputesLocalSum) {
  Conv2D c(1, 1, 2, 2);
  c.weight() = Tensor({1, 1, 2, 2}, std::vector<float>{1, 1, 1, 1});
  const Tensor x({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor y = c.Forward(x, false, nullptr, nullptr);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

struct ConvConfig {
  int in_ch;
  int out_ch;
  int kernel;
  int stride;
  int padding;
  Activation act;
};

class ConvGradTest : public ::testing::TestWithParam<ConvConfig> {};

TEST_P(ConvGradTest, GradientsMatchNumeric) {
  const ConvConfig cfg = GetParam();
  Rng rng(11);
  Conv2D c(cfg.in_ch, cfg.out_ch, cfg.kernel, cfg.kernel, cfg.stride, cfg.padding, cfg.act);
  c.InitParams(rng);
  const Tensor x = Tensor::Randn({cfg.in_ch, 7, 7}, rng);
  CheckInputGradient(c, x);
  CheckParamGradients(c, x);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradTest,
    ::testing::Values(ConvConfig{1, 2, 3, 1, 0, Activation::kNone},
                      ConvConfig{2, 3, 3, 1, 1, Activation::kRelu},
                      ConvConfig{3, 2, 5, 2, 0, Activation::kTanh},
                      ConvConfig{2, 2, 3, 2, 1, Activation::kSigmoid},
                      // 1x1 kernels keep pre-activations near zero, so use a
                      // smooth activation to avoid numerical-diff kinks.
                      ConvConfig{1, 4, 1, 1, 0, Activation::kTanh}));

TEST(Conv2DTest, NeuronValueIsChannelMean) {
  Conv2D c(1, 2, 1, 1);
  Tensor y({2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  EXPECT_FLOAT_EQ(c.NeuronValue(ConstTensorView(y), 0), 2.5f);
  EXPECT_FLOAT_EQ(c.NeuronValue(ConstTensorView(y), 1), 25.0f);
  EXPECT_THROW(c.NeuronValue(ConstTensorView(y), 2), std::out_of_range);
}

TEST(Conv2DTest, NeuronSeedMatchesNeuronValueGradient) {
  // d(NeuronValue)/d(output) must equal the seed AddNeuronSeed creates.
  Conv2D c(1, 2, 1, 1);
  Tensor seed({2, 3, 3});
  c.AddNeuronSeed(&seed, 1, 1.0f);
  // Channel 1 entries = 1/9, channel 0 = 0.
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(seed[i], 0.0f);
    EXPECT_NEAR(seed[9 + i], 1.0f / 9.0f, 1e-6f);
  }
}

// ---- Pool2D ------------------------------------------------------------------------------

TEST(Pool2DTest, MaxPoolForward) {
  Pool2D p(PoolMode::kMax, 2);
  const Tensor x({1, 4, 4},
                 std::vector<float>{1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12, 15, 16});
  const Tensor y = p.Forward(x, false, nullptr, nullptr);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
}

TEST(Pool2DTest, AvgPoolForward) {
  Pool2D p(PoolMode::kAvg, 2);
  const Tensor x({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor y = p.Forward(x, false, nullptr, nullptr);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Pool2DTest, MaxPoolBackwardRoutesToWinner) {
  Pool2D p(PoolMode::kMax, 2);
  const Tensor x({1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  Tensor aux;
  const Tensor y = p.Forward(x, false, nullptr, &aux);
  const Tensor g = p.Backward(x, y, Tensor({1, 1, 1}, std::vector<float>{5.0f}), aux, nullptr);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 5.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(Pool2DTest, GradientsMatchNumericWithDistinctValues) {
  // Well-separated values avoid numerical kinks at pooling ties.
  Rng rng(13);
  std::vector<float> vals(2 * 6 * 6);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<float>(i) * 0.1f;
  }
  rng.Shuffle(vals);
  const Tensor x({2, 6, 6}, vals);
  Pool2D max_pool(PoolMode::kMax, 2);
  CheckInputGradient(max_pool, x);
  Pool2D avg_pool(PoolMode::kAvg, 2);
  CheckInputGradient(avg_pool, x);
  Pool2D strided(PoolMode::kMax, 3, 3);
  CheckInputGradient(strided, x);
}

TEST(Pool2DTest, RejectsBadGeometry) {
  EXPECT_THROW(Pool2D(PoolMode::kMax, 0), std::invalid_argument);
  Pool2D p(PoolMode::kMax, 5);
  EXPECT_THROW(p.OutputShape({1, 3, 3}), std::invalid_argument);
  EXPECT_THROW(p.OutputShape({3, 3}), std::invalid_argument);
}

// ---- BatchNorm ---------------------------------------------------------------------------

TEST(BatchNormTest, NormalizesWithStatistics) {
  BatchNorm bn(2);
  bn.SetStatistics({1.0f, 2.0f}, {4.0f, 9.0f});
  const Tensor x({2, 1, 2}, std::vector<float>{1, 5, 2, 11});
  const Tensor y = bn.Forward(x, false, nullptr, nullptr);
  EXPECT_NEAR(y[0], 0.0f, 1e-3f);
  EXPECT_NEAR(y[1], 2.0f, 1e-3f);
  EXPECT_NEAR(y[2], 0.0f, 1e-3f);
  EXPECT_NEAR(y[3], 3.0f, 1e-3f);
}

TEST(BatchNormTest, GradientsMatchNumeric) {
  Rng rng(17);
  BatchNorm bn(3);
  bn.SetStatistics({0.1f, -0.2f, 0.3f}, {1.5f, 0.5f, 2.0f});
  const Tensor x = Tensor::Randn({3, 4, 4}, rng);
  CheckInputGradient(bn, x);
  CheckParamGradients(bn, x, 2e-2f, BatchNorm::kNumTrainableParams);
}

TEST(BatchNormTest, FlatInputSupported) {
  BatchNorm bn(4);
  const Tensor x({4}, std::vector<float>{1, 2, 3, 4});
  const Tensor y = bn.Forward(x, false, nullptr, nullptr);
  EXPECT_EQ(y.shape(), (Shape{4}));
  EXPECT_THROW(bn.OutputShape({5}), std::invalid_argument);
}

TEST(BatchNormTest, SetStatisticsValidatesSize) {
  BatchNorm bn(2);
  EXPECT_THROW(bn.SetStatistics({1.0f}, {1.0f, 2.0f}), std::invalid_argument);
  EXPECT_FALSE(bn.calibrated());
  bn.SetStatistics({0.0f, 0.0f}, {1.0f, 1.0f});
  EXPECT_TRUE(bn.calibrated());
}

// ---- Dropout -----------------------------------------------------------------------------

TEST(DropoutTest, IdentityAtInference) {
  Dropout d(0.5f);
  Rng rng(19);
  const Tensor x = Tensor::Randn({10}, rng);
  const Tensor y = d.Forward(x, false, nullptr, nullptr);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  Dropout d(0.5f);
  Rng rng(19);
  const Tensor x({1000}, 1.0f);
  Tensor aux;
  const Tensor y = d.Forward(x, true, &rng, &aux);
  int zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // Inverted scaling 1/(1-0.5).
    }
  }
  EXPECT_NEAR(zeros, 500, 60);
}

TEST(DropoutTest, BackwardUsesMask) {
  Dropout d(0.5f);
  Rng rng(19);
  const Tensor x({8}, 1.0f);
  Tensor aux;
  const Tensor y = d.Forward(x, true, &rng, &aux);
  const Tensor g = d.Backward(x, y, Tensor({8}, 1.0f), aux, nullptr);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(g[i], y[i]);  // Mask applied equally to value and grad.
  }
}

TEST(DropoutTest, TrainingWithoutRngThrows) {
  Dropout d(0.3f);
  EXPECT_THROW(d.Forward(Tensor({4}), true, nullptr, nullptr), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
}

// ---- Flatten -----------------------------------------------------------------------------

TEST(FlattenTest, ReshapesAndRestores) {
  Flatten f;
  Rng rng(23);
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  const Tensor y = f.Forward(x, false, nullptr, nullptr);
  EXPECT_EQ(y.shape(), (Shape{24}));
  const Tensor g = f.Backward(x, y, y, Tensor(), nullptr);
  EXPECT_EQ(g.shape(), x.shape());
}

// ---- SoftmaxLayer ------------------------------------------------------------------------

TEST(SoftmaxLayerTest, ForwardIsNormalized) {
  SoftmaxLayer sm;
  const Tensor y =
      sm.Forward(Tensor({3}, std::vector<float>{1, 2, 3}), false, nullptr, nullptr);
  EXPECT_NEAR(y.Sum(), 1.0f, 1e-5f);
}

TEST(SoftmaxLayerTest, JacobianVectorProductMatchesNumeric) {
  Rng rng(29);
  SoftmaxLayer sm;
  const Tensor x = Tensor::Randn({6}, rng);
  CheckInputGradient(sm, x, 1e-2f);
}

}  // namespace
}  // namespace dx
