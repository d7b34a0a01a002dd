// Baseline generators: FGSM adversarial inputs and random test selection.
#include <gtest/gtest.h>

#include <cmath>

#include "src/baselines/adversarial.h"
#include "src/baselines/random_testing.h"
#include "src/data/synthetic_digits.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

class AdversarialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Dataset(MakeSyntheticDigits(300, 31));
    model_ = new Model(ModelZoo::Build("MNI_C1", 3));
    TrainConfig cfg;
    cfg.epochs = 6;
    cfg.learning_rate = 3e-3f;
    cfg.seed = 32;
    Trainer::Fit(model_, *data_, cfg);
    ASSERT_GT(Trainer::Accuracy(*model_, *data_), 0.85f);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static Dataset* data_;
  static Model* model_;
};

Dataset* AdversarialTest::data_ = nullptr;
Model* AdversarialTest::model_ = nullptr;

TEST_F(AdversarialTest, PerturbationBoundedByEpsilonInfinityNorm) {
  const float eps = 0.1f;
  const Tensor& x = data_->inputs[0];
  const Tensor adv = Fgsm(*model_, x, data_->Label(0), 0.0f, eps);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(adv[i] - x[i]), eps + 1e-6f);
  }
  EXPECT_GE(adv.Min(), 0.0f);
  EXPECT_LE(adv.Max(), 1.0f);
}

TEST_F(AdversarialTest, IncreasesTrueClassLoss) {
  SoftmaxCrossEntropy ce;
  int increased = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const Tensor& x = data_->inputs[static_cast<size_t>(i)];
    const int label = data_->Label(i);
    const Tensor adv = Fgsm(*model_, x, label, 0.0f, 0.15f);
    const float before = ce.Compute(*model_, model_->Forward(x), OneHot(label, 10)).loss;
    const float after = ce.Compute(*model_, model_->Forward(adv), OneHot(label, 10)).loss;
    increased += after > before ? 1 : 0;
  }
  EXPECT_GE(increased, trials * 3 / 4);  // FGSM ascends the loss surface.
}

TEST_F(AdversarialTest, SomeAdversarialInputsFlipPredictions) {
  int flips = 0;
  for (int i = 0; i < 60; ++i) {
    const Tensor& x = data_->inputs[static_cast<size_t>(i)];
    const int64_t pred = testing::OraclePredict(*model_, x).Argmax();
    const Tensor adv = Fgsm(*model_, x, data_->Label(i), 0.0f, 0.25f);
    flips += testing::OraclePredict(*model_, adv).Argmax() != pred ? 1 : 0;
  }
  EXPECT_GT(flips, 0);
}

TEST_F(AdversarialTest, BatchGeneratorShapesAndBounds) {
  Rng rng(33);
  const auto advs = AdversarialInputs(*model_, *data_, 10, 0.1f, rng);
  EXPECT_EQ(advs.size(), 10u);
  for (const Tensor& t : advs) {
    EXPECT_EQ(t.shape(), data_->input_shape);
  }
  EXPECT_THROW(AdversarialInputs(*model_, *data_, data_->size() + 1, 0.1f, rng),
               std::invalid_argument);
}

TEST(RandomTestingTest, SelectsDistinctDatasetMembers) {
  const Dataset data = MakeSyntheticDigits(50, 34);
  Rng rng(35);
  const auto picks = RandomInputs(data, 20, rng);
  EXPECT_EQ(picks.size(), 20u);
  // Every pick is an actual dataset member.
  for (const Tensor& p : picks) {
    bool found = false;
    for (const Tensor& x : data.inputs) {
      if (L1Distance(p, x) == 0.0f) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_THROW(RandomInputs(data, 51, rng), std::invalid_argument);
}

TEST(RandomTestingTest, DeterministicGivenSeed) {
  const Dataset data = MakeSyntheticDigits(30, 36);
  Rng a(37);
  Rng b(37);
  const auto pa = RandomInputs(data, 5, a);
  const auto pb = RandomInputs(data, 5, b);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(L1Distance(pa[i], pb[i]), 0.0f);
  }
}

}  // namespace
}  // namespace dx
