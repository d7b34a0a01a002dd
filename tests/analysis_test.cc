// Analysis utilities: SSIM, diversity, majority-vote retraining, pollution
// detection.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/diversity.h"
#include "src/analysis/pollution.h"
#include "src/analysis/retraining.h"
#include "src/analysis/ssim.h"
#include "src/data/synthetic_digits.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/nn/dense.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"

namespace dx {
namespace {

// ---- SSIM --------------------------------------------------------------------------------

TEST(SsimTest, IdenticalImagesScoreOne) {
  Rng rng(1);
  const Tensor img = Tensor::RandUniform({1, 16, 16}, rng);
  EXPECT_NEAR(Ssim(img, img), 1.0f, 1e-5f);
}

TEST(SsimTest, NoiseLowersScore) {
  Rng rng(2);
  const Tensor img = Tensor::RandUniform({1, 16, 16}, rng);
  Tensor noisy = img;
  for (int64_t i = 0; i < noisy.numel(); ++i) {
    noisy[i] = std::clamp(noisy[i] + static_cast<float>(rng.Normal(0.0, 0.3)), 0.0f, 1.0f);
  }
  const float s = Ssim(img, noisy);
  EXPECT_LT(s, 0.9f);
  EXPECT_GT(s, -1.0f);
}

TEST(SsimTest, SymmetricAndRankSensible) {
  Rng rng(3);
  const Tensor a = RenderDigit(3, rng);
  Rng rng2(3);
  const Tensor a_like = RenderDigit(3, rng2);  // Same stream: identical.
  Rng rng3(99);
  const Tensor b = RenderDigit(7, rng3);
  EXPECT_FLOAT_EQ(Ssim(a, b), Ssim(b, a));
  EXPECT_GT(Ssim(a, a_like), Ssim(a, b));
}

TEST(SsimTest, ValidatesInputs) {
  EXPECT_THROW(Ssim(Tensor({1, 16, 16}), Tensor({1, 8, 8})), std::invalid_argument);
  EXPECT_THROW(Ssim(Tensor({1, 4, 4}), Tensor({1, 4, 4})), std::invalid_argument);
  EXPECT_THROW(Ssim(Tensor({16}), Tensor({16})), std::invalid_argument);
}

TEST(SsimTest, MultiChannelSupported) {
  Rng rng(4);
  const Tensor rgb = Tensor::RandUniform({3, 16, 16}, rng);
  EXPECT_NEAR(Ssim(rgb, rgb), 1.0f, 1e-5f);
}

// ---- Diversity ---------------------------------------------------------------------------

TEST(DiversityTest, AveragesSeedDistances) {
  std::vector<Tensor> seeds;
  seeds.push_back(Tensor({2}, std::vector<float>{0, 0}));
  seeds.push_back(Tensor({2}, std::vector<float>{1, 1}));
  std::vector<GeneratedTest> tests(2);
  tests[0].input = Tensor({2}, std::vector<float>{1, 0});  // L1 = 1 from seed 0.
  tests[0].seed_index = 0;
  tests[1].input = Tensor({2}, std::vector<float>{4, 1});  // L1 = 3 from seed 1.
  tests[1].seed_index = 1;
  EXPECT_FLOAT_EQ(AverageSeedL1Diversity(tests, seeds), 2.0f);
  EXPECT_FLOAT_EQ(AverageSeedL1Diversity({}, seeds), 0.0f);
  tests[1].seed_index = 9;
  EXPECT_THROW(AverageSeedL1Diversity(tests, seeds), std::out_of_range);
}

// ---- Majority vote / retraining ----------------------------------------------------------

Model ConstantClassifier(const std::string& name, int winner, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {2});
  auto& d = m.Emplace<Dense>(2, 3);
  d.InitParams(rng);
  d.weight().Fill(0.0f);
  d.bias().Fill(0.0f);
  d.bias()[winner] = 10.0f;
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(RetrainingTest, MajorityVoteTakesModalLabel) {
  Model a = ConstantClassifier("a", 1, 1);
  Model b = ConstantClassifier("b", 1, 2);
  Model c = ConstantClassifier("c", 2, 3);
  const std::vector<Tensor> inputs = {Tensor({2}), Tensor({2}, 0.5f)};
  EXPECT_EQ(MajorityVoteLabels({&a, &b, &c}, inputs), (std::vector<int>{1, 1}));
  // A 1-1-1 split breaks toward the lowest label.
  Model d = ConstantClassifier("d", 0, 4);
  EXPECT_EQ(MajorityVoteLabels({&c, &a, &d}, inputs), (std::vector<int>{0, 0}));
  EXPECT_THROW(MajorityVoteLabels({}, inputs), std::invalid_argument);
}

TEST(RetrainingTest, AugmentAppendsVotedSamples) {
  Dataset train{"t", {2}, 3, {}, {}};
  train.Add(Tensor({2}), 0.0f);
  Model a = ConstantClassifier("a", 2, 1);
  Model b = ConstantClassifier("b", 2, 2);
  std::vector<Tensor> extra = {Tensor({2}, 0.5f)};
  const Dataset augmented = AugmentWithVotedLabels(train, extra, {&a, &b});
  EXPECT_EQ(augmented.size(), 2);
  EXPECT_EQ(augmented.Label(1), 2);
}

TEST(RetrainingTest, CurveHasEpochEntriesAndImprovesOnToyTask) {
  // An undertrained model should improve with extra epochs of retraining.
  const Dataset train = MakeSyntheticDigits(300, 41);
  const Dataset test = MakeSyntheticDigits(150, 42);
  Model m = ModelZoo::Build("MNI_C1", 6);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.seed = 43;
  Trainer::Fit(&m, train, cfg);

  const auto curve = RetrainAccuracyCurve(&m, train, test, 3, 44, 1e-3f);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_GT(curve.back(), curve.front());
}

// ---- Pollution detection -----------------------------------------------------------------

TEST(PollutionTest, FlagsStructurallySimilarTrainingSamples) {
  // Training set of 9s and 1s; "polluted" samples are 9s relabeled to 1.
  Rng rng(51);
  Dataset train{"digits", {1, 28, 28}, 10, {}, {}};
  for (int i = 0; i < 40; ++i) {
    train.Add(RenderDigit(1, rng), 1.0f);
  }
  std::vector<int> polluted;
  for (int i = 0; i < 10; ++i) {
    train.Add(RenderDigit(9, rng), 1.0f);  // A 9 wearing label 1.
    polluted.push_back(40 + i);
  }
  // Difference-inducing inputs in the real attack look like 9s.
  std::vector<Tensor> diffs;
  for (int i = 0; i < 5; ++i) {
    diffs.push_back(RenderDigit(9, rng));
  }
  const auto result = DetectPollutedSamples(train, 1, diffs, polluted, 3);
  EXPECT_GT(result.precision, 0.7f);
  EXPECT_GT(result.recall, 0.3f);
  for (const int idx : result.flagged) {
    EXPECT_EQ(train.Label(idx), 1);
  }
}

TEST(PollutionTest, EmptyInputsYieldEmptyResult) {
  Dataset train{"d", {1, 28, 28}, 10, {}, {}};
  Rng rng(52);
  train.Add(RenderDigit(1, rng), 1.0f);
  const auto result = DetectPollutedSamples(train, 1, {}, {0}, 3);
  EXPECT_TRUE(result.flagged.empty());
  EXPECT_FLOAT_EQ(result.precision, 0.0f);
}

}  // namespace
}  // namespace dx
