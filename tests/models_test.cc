// Trainer + zoo tests: calibration, learning on small datasets, and the
// registry-backed zoo's architecture metadata (the paper's 15 models plus
// every registered out-of-paper domain).
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/core/domain.h"
#include "src/data/drebin.h"
#include "src/data/pdf.h"
#include "src/data/road.h"
#include "src/data/synthetic_digits.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/nn/batchnorm.h"
#include "src/nn/dense.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// ---- Registry ----------------------------------------------------------------------------

TEST(ZooRegistryTest, ThreeModelsPerBuiltinDomain) {
  // Every built-in domain ships the paper-style trio; a registered domain in
  // general only promises >= 2 (the differential-testing minimum).
  EXPECT_GE(ZooModels().size(), 21u);
  for (const std::string& key : DomainKeys()) {
    EXPECT_GE(DomainModelNames(key).size(), 2u) << key;
  }
  for (const char* key :
       {"mnist", "imagenet", "driving", "pdf", "drebin", "speech", "tabular"}) {
    EXPECT_EQ(DomainModelNames(key).size(), 3u) << key;
  }
}

TEST(ZooRegistryTest, FindModelResolvesAndThrows) {
  EXPECT_EQ(FindModel("MNI_C1").arch, "LeNet-1");
  EXPECT_EQ(FindModel("MNI_C1").domain, "mnist");
  EXPECT_EQ(FindModel("IMG_C3").arch, "MiniResNet");
  EXPECT_EQ(FindModel("SPC_C1").domain, "speech");
  EXPECT_EQ(FindModel("TAB_C3").domain, "tabular");
  EXPECT_THROW(FindModel("NOPE"), std::out_of_range);
}

TEST(ZooRegistryTest, DomainNames) {
  EXPECT_EQ(DomainName("mnist"), "MNIST");
  EXPECT_EQ(DomainName("pdf"), "VirusTotal");
  EXPECT_EQ(DomainName("speech"), "Speech");
  EXPECT_EQ(PaperDomainKeys(),
            (std::vector<std::string>{"mnist", "imagenet", "driving", "pdf", "drebin"}));
  // The registry holds the paper domains plus the out-of-paper ones.
  EXPECT_GE(DomainKeys().size(), PaperDomainKeys().size() + 2);
}

// ---- Builders ----------------------------------------------------------------------------

TEST(ZooBuildTest, AllModelsBuildWithCorrectInterfaces) {
  // Paper-pinned shapes for the five Table-1 domains.
  const std::map<std::string, std::pair<Shape, Shape>> paper_shapes = {
      {"mnist", {{1, 28, 28}, {10}}},
      {"imagenet", {{3, 32, 32}, {10}}},
      {"driving", {{3, 32, 64}, {1}}},
      {"pdf", {{kPdfFeatureCount}, {2}}},
      {"drebin", {{kDrebinFeatureCount}, {2}}},
  };
  for (const ModelInfo& info : ZooModels()) {
    const Model m = ModelZoo::Build(info.name, 1);
    EXPECT_EQ(m.name(), info.name);
    EXPECT_GT(m.TotalNeurons(), 0) << info.name;
    // Every model must accept its domain's dataset samples.
    const Dataset probe = GetDomain(info.domain).make_dataset(1, 1);
    EXPECT_EQ(m.input_shape(), probe.input_shape) << info.name;
    const auto pinned = paper_shapes.find(info.domain);
    if (pinned != paper_shapes.end()) {
      EXPECT_EQ(m.input_shape(), pinned->second.first) << info.name;
      EXPECT_EQ(m.output_shape(), pinned->second.second) << info.name;
    }
  }
}

TEST(ZooBuildTest, VariantsWithinDomainDiffer) {
  // The models of one domain must be architecturally distinct, pairwise.
  for (const std::string& key : DomainKeys()) {
    const auto names = DomainModelNames(key);
    ASSERT_GE(names.size(), 2u) << key;
    for (size_t i = 1; i < names.size(); ++i) {
      const Model a = ModelZoo::Build(names[i - 1], 1);
      const Model b = ModelZoo::Build(names[i], 1);
      EXPECT_TRUE(a.NumParams() != b.NumParams() || a.num_layers() != b.num_layers())
          << key << ": " << names[i - 1] << " vs " << names[i];
    }
  }
}

TEST(ZooBuildTest, DaveOrigHasNormLayerNorminitDoesNot) {
  Model orig = ModelZoo::Build("DRV_C1", 1);
  Model norminit = ModelZoo::Build("DRV_C2", 1);
  Model dropout = ModelZoo::Build("DRV_C3", 1);
  EXPECT_EQ(orig.layer(0).Kind(), "batchnorm");
  EXPECT_NE(norminit.layer(0).Kind(), "batchnorm");
  bool has_dropout = false;
  for (int l = 0; l < dropout.num_layers(); ++l) {
    has_dropout = has_dropout || dropout.layer(l).Kind() == "dropout";
  }
  EXPECT_TRUE(has_dropout);
  // Dropout variant has fewer conv layers than orig.
  int convs_orig = 0;
  int convs_drop = 0;
  for (int l = 0; l < orig.num_layers(); ++l) {
    convs_orig += orig.layer(l).Kind() == "conv2d" ? 1 : 0;
  }
  for (int l = 0; l < dropout.num_layers(); ++l) {
    convs_drop += dropout.layer(l).Kind() == "conv2d" ? 1 : 0;
  }
  EXPECT_LT(convs_drop, convs_orig);
}

TEST(ZooBuildTest, CustomLenet1FilterCounts) {
  Model m = ModelZoo::BuildCustomLenet1(5, 13, 3);
  EXPECT_EQ(m.layer(0).NumNeurons(), 5);
  EXPECT_EQ(m.layer(2).NumNeurons(), 13);
  EXPECT_EQ(testing::OraclePredict(m, Tensor({1, 28, 28})).numel(), 10);
}

// ---- Trainer -----------------------------------------------------------------------------

TEST(TrainerTest, CalibrationSetsBatchNormStats) {
  Rng rng(1);
  Model m("bn", {2});
  m.Emplace<BatchNorm>(2);
  m.Emplace<Dense>(2, 2).InitParams(rng);
  m.Emplace<SoftmaxLayer>();

  Dataset ds{"d", {2}, 2, {}, {}};
  Rng data_rng(2);
  for (int i = 0; i < 100; ++i) {
    Tensor x({2});
    x[0] = static_cast<float>(data_rng.Normal(3.0, 2.0));
    x[1] = static_cast<float>(data_rng.Normal(-1.0, 0.5));
    ds.Add(std::move(x), static_cast<float>(i % 2));
  }
  Trainer::CalibrateNormLayers(&m, ds);
  auto* bn = dynamic_cast<BatchNorm*>(&m.layer(0));
  ASSERT_NE(bn, nullptr);
  EXPECT_TRUE(bn->calibrated());
  // After calibration the normalized features should be ~N(0,1).
  double sum0 = 0.0;
  for (int i = 0; i < ds.size(); ++i) {
    const ForwardTrace t = m.Forward(ds.inputs[static_cast<size_t>(i)]);
    sum0 += t.outputs[0][0];
  }
  EXPECT_NEAR(sum0 / ds.size(), 0.0, 0.15);
}

TEST(TrainerTest, LearnsSmallDigitTask) {
  const Dataset train = MakeSyntheticDigits(400, 21);
  const Dataset test = MakeSyntheticDigits(100, 22);
  Model m = ModelZoo::Build("MNI_C1", 5);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.learning_rate = 3e-3f;
  cfg.seed = 6;
  Trainer::Fit(&m, train, cfg);
  EXPECT_GT(Trainer::Accuracy(m, test), 0.8f);
}

TEST(TrainerTest, LearnsRegressionTask) {
  const Dataset train = MakeSyntheticRoad(400, 23);
  const Dataset test = MakeSyntheticRoad(100, 24);
  Model m = ModelZoo::Build("DRV_C3", 5);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.seed = 7;
  Trainer::Fit(&m, train, cfg);
  const float mse = Trainer::MseOf(m, test);
  EXPECT_LT(mse, 0.08f);
  EXPECT_NEAR(Trainer::PaperAccuracy(m, test), 1.0f - mse, 1e-5f);
}

TEST(TrainerTest, LearnsMalwareTask) {
  const Dataset train = MakeSyntheticDrebin(600, 25);
  const Dataset test = MakeSyntheticDrebin(200, 26);
  Model m = ModelZoo::Build("APP_C2", 5);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.seed = 8;
  Trainer::Fit(&m, train, cfg);
  EXPECT_GT(Trainer::Accuracy(m, test), 0.85f);
}

TEST(TrainerTest, AccuracyOnRegressionThrows) {
  const Dataset road = MakeSyntheticRoad(4, 27);
  const Model m = ModelZoo::Build("DRV_C2", 5);
  EXPECT_THROW(Trainer::Accuracy(m, road), std::invalid_argument);
}

TEST(TrainerTest, DeterministicTraining) {
  const Dataset train = MakeSyntheticPdf(200, 28);
  Model a = ModelZoo::Build("PDF_C1", 9);
  Model b = ModelZoo::Build("PDF_C1", 9);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.seed = 10;
  Trainer::Fit(&a, train, cfg);
  Trainer::Fit(&b, train, cfg);
  const Tensor x = train.inputs[0];
  const Tensor ya = testing::OraclePredict(a, x);
  const Tensor yb = testing::OraclePredict(b, x);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

}  // namespace
}  // namespace dx
