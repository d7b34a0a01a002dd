// Loss and optimizer tests plus end-to-end training convergence on toy
// problems — the NN substrate must actually learn before the model zoo is
// built on top of it.
#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/dense.h"
#include "src/nn/loss.h"
#include "src/nn/model.h"
#include "src/nn/optimizer.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// ---- Losses ------------------------------------------------------------------------------

TEST(LossTest, CrossEntropyValueAndGradient) {
  Rng rng(1);
  Model m("clf", {3});
  auto& d = m.Emplace<Dense>(3, 3);
  d.InitParams(rng);
  m.Emplace<SoftmaxLayer>();

  const Tensor x({3}, std::vector<float>{1, 0, -1});
  const ForwardTrace trace = m.Forward(x);
  const Tensor target = OneHot(1, 3);
  SoftmaxCrossEntropy loss;
  const LossResult r = loss.Compute(m, trace, target);

  const Tensor& probs = trace.Output();
  EXPECT_NEAR(r.loss, -std::log(probs[1]), 1e-5f);
  // Fused gradient at logits: y - t.
  EXPECT_EQ(r.seed_layer, 0);
  EXPECT_NEAR(r.grad[0], probs[0], 1e-6f);
  EXPECT_NEAR(r.grad[1], probs[1] - 1.0f, 1e-6f);
}

TEST(LossTest, CrossEntropyRequiresSoftmaxTail) {
  Rng rng(1);
  Model m("nosm", {3});
  auto& d = m.Emplace<Dense>(3, 3);
  d.InitParams(rng);
  const ForwardTrace trace = m.Forward(Tensor({3}));
  SoftmaxCrossEntropy loss;
  EXPECT_THROW(loss.Compute(m, trace, OneHot(0, 3)), std::invalid_argument);
}

TEST(LossTest, MseValueAndGradient) {
  Rng rng(2);
  Model m("reg", {2});
  auto& d = m.Emplace<Dense>(2, 2);
  d.InitParams(rng);
  const Tensor x({2}, std::vector<float>{1, 2});
  const ForwardTrace trace = m.Forward(x);
  const Tensor target({2}, std::vector<float>{0, 0});
  MeanSquaredError loss;
  const LossResult r = loss.Compute(m, trace, target);
  const Tensor& y = trace.Output();
  EXPECT_NEAR(r.loss, (y[0] * y[0] + y[1] * y[1]) / 2.0f, 1e-5f);
  EXPECT_NEAR(r.grad[0], y[0], 1e-6f);
  EXPECT_EQ(r.seed_layer, 0);
}

TEST(LossTest, TargetShapeMismatchThrows) {
  Rng rng(3);
  Model m("reg", {2});
  auto& d = m.Emplace<Dense>(2, 1);
  d.InitParams(rng);
  const ForwardTrace trace = m.Forward(Tensor({2}));
  MeanSquaredError mse;
  EXPECT_THROW(mse.Compute(m, trace, Tensor({2})), std::invalid_argument);
}

// ---- Optimizers --------------------------------------------------------------------------

TEST(OptimizerTest, SgdStepDirection) {
  Tensor p({2}, std::vector<float>{1.0f, 1.0f});
  std::vector<Tensor> g;
  g.push_back(Tensor({2}, std::vector<float>{1.0f, -1.0f}));
  Sgd sgd(0.1f);
  sgd.Step({&p}, g);
  EXPECT_FLOAT_EQ(p[0], 0.9f);
  EXPECT_FLOAT_EQ(p[1], 1.1f);
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Tensor p({1}, std::vector<float>{0.0f});
  std::vector<Tensor> g;
  g.push_back(Tensor({1}, std::vector<float>{1.0f}));
  Sgd sgd(1.0f, 0.9f);
  sgd.Step({&p}, g);  // v=1, p=-1
  sgd.Step({&p}, g);  // v=1.9, p=-2.9
  EXPECT_NEAR(p[0], -2.9f, 1e-5f);
}

TEST(OptimizerTest, AdamFirstStepIsLearningRateSized) {
  Tensor p({1}, std::vector<float>{0.0f});
  std::vector<Tensor> g;
  g.push_back(Tensor({1}, std::vector<float>{0.5f}));
  Adam adam(0.01f);
  adam.Step({&p}, g);
  // Bias-corrected first Adam step is ~lr * sign(g).
  EXPECT_NEAR(p[0], -0.01f, 1e-4f);
}

TEST(OptimizerTest, MisalignedGradsThrow) {
  Tensor p({2});
  std::vector<Tensor> g;
  g.push_back(Tensor({3}));
  Sgd sgd(0.1f);
  EXPECT_THROW(sgd.Step({&p}, g), std::invalid_argument);
  std::vector<Tensor> empty;
  EXPECT_THROW(sgd.Step({&p}, empty), std::invalid_argument);
}

TEST(OptimizerTest, ZeroGradLeavesParamsUntouched) {
  // BatchNorm's frozen mu/var ride through the optimizer with zero grads and
  // must never move.
  Tensor p({3}, std::vector<float>{1, 2, 3});
  std::vector<Tensor> g;
  g.push_back(Tensor({3}));
  Adam adam(0.1f);
  for (int i = 0; i < 10; ++i) {
    adam.Step({&p}, g);
  }
  EXPECT_FLOAT_EQ(p[0], 1.0f);
  EXPECT_FLOAT_EQ(p[2], 3.0f);
}

// ---- End-to-end convergence --------------------------------------------------------------

// Trains a 2-layer MLP on XOR; exercises Dense backprop, fused CE loss, and
// the optimizer in one loop.
TEST(TrainingTest, LearnsXor) {
  Rng rng(42);
  Model m("xor", {2});
  auto& d1 = m.Emplace<Dense>(2, 8, Activation::kTanh);
  d1.InitParams(rng);
  auto& d2 = m.Emplace<Dense>(8, 2);
  d2.InitParams(rng);
  m.Emplace<SoftmaxLayer>();

  const std::vector<std::pair<std::vector<float>, int>> data = {
      {{0, 0}, 0}, {{0, 1}, 1}, {{1, 0}, 1}, {{1, 1}, 0}};

  SoftmaxCrossEntropy loss;
  Adam opt(0.05f);
  auto params = m.MutableParams();
  for (int epoch = 0; epoch < 300; ++epoch) {
    std::vector<Tensor> grads = m.InitParamGrads();
    for (const auto& [xv, label] : data) {
      const Tensor x({2}, std::vector<float>(xv));
      const ForwardTrace trace = m.Forward(x, true, &rng);
      const LossResult r = loss.Compute(m, trace, OneHot(label, 2));
      m.BackwardParams(trace, r.seed_layer, r.grad, &grads);
    }
    opt.Step(params, grads);
  }

  for (const auto& [xv, label] : data) {
    const Tensor x({2}, std::vector<float>(xv));
    EXPECT_EQ(testing::OraclePredict(m, x).Argmax(), label)
        << "input (" << xv[0] << "," << xv[1] << ")";
  }
}

// Linear regression with MSE must recover the generating coefficients.
TEST(TrainingTest, RecoversLinearMap) {
  Rng rng(7);
  Model m("lin", {3});
  auto& d = m.Emplace<Dense>(3, 1);
  d.InitParams(rng);

  const std::vector<float> true_w = {2.0f, -1.0f, 0.5f};
  MeanSquaredError loss;
  Sgd opt(0.02f);  // Plain SGD: per-sample momentum diverges at this scale.
  auto params = m.MutableParams();
  for (int step = 0; step < 2000; ++step) {
    std::vector<Tensor> grads = m.InitParamGrads();
    const Tensor x = Tensor::Randn({3}, rng);
    float target_v = 0.3f;
    for (int i = 0; i < 3; ++i) {
      target_v += true_w[static_cast<size_t>(i)] * x[i];
    }
    const ForwardTrace trace = m.Forward(x);
    const LossResult r = loss.Compute(m, trace, Tensor({1}, target_v));
    m.BackwardParams(trace, r.seed_layer, r.grad, &grads);
    opt.Step(params, grads);
  }
  EXPECT_NEAR(d.weight()[0], 2.0f, 0.1f);
  EXPECT_NEAR(d.weight()[1], -1.0f, 0.1f);
  EXPECT_NEAR(d.weight()[2], 0.5f, 0.1f);
  EXPECT_NEAR(d.bias()[0], 0.3f, 0.1f);
}

}  // namespace
}  // namespace dx
