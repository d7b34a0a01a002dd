// Reproducibility guarantees: everything in the pipeline is a pure function
// of its seeds — datasets, model initialization, training, and the engine.
// Plus tests for the ablation knobs (gradient normalization, occlusion
// placement).
#include <gtest/gtest.h>

#include "src/constraints/constraint.h"
#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/nn/dense.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

Model TinyClassifier(uint64_t seed) {
  Rng rng(seed);
  Model m("tiny" + std::to_string(seed), {4});
  m.Emplace<Dense>(4, 8, Activation::kTanh).InitParams(rng);
  m.Emplace<Dense>(8, 2).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(DeterminismTest, ModelBuildIsBitReproducible) {
  Model a = ModelZoo::Build("MNI_C1", 77);
  Model b = ModelZoo::Build("MNI_C1", 77);
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->values(), pb[i]->values()) << "param " << i;
  }
}

TEST(DeterminismTest, SerializationIsStable) {
  Model a = ModelZoo::Build("PDF_C1", 5);
  EXPECT_EQ(a.Serialize(), Model::Deserialize(a.Serialize()).Serialize());
}

TEST(DeterminismTest, EngineRunsIdenticallyForSameSeed) {
  Model m1 = TinyClassifier(1);
  Model m2 = TinyClassifier(2);
  UnconstrainedImage constraint;

  Rng data_rng(3);
  std::vector<Tensor> seeds;
  for (int i = 0; i < 10; ++i) {
    seeds.push_back(Tensor::RandUniform({4}, data_rng));
  }

  const auto run_once = [&]() {
    SessionConfig config;
    config.engine.step = 0.05f;
    config.engine.rng_seed = 99;
    Session session({&m1, &m2}, &constraint, config);
    return session.Run(seeds, RunOptions{});
  };
  const RunStats a = run_once();
  const RunStats b = run_once();
  ASSERT_EQ(a.tests.size(), b.tests.size());
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  for (size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_FLOAT_EQ(L1Distance(a.tests[i].input, b.tests[i].input), 0.0f);
    EXPECT_EQ(a.tests[i].deviating_model, b.tests[i].deviating_model);
  }
}

// ---- Ablation knobs ------------------------------------------------------------------

TEST(AblationKnobsTest, RawGradientModeSkipsNormalization) {
  Model m1 = TinyClassifier(1);
  Model m2 = TinyClassifier(2);
  UnconstrainedImage constraint;
  SessionConfig config;
  config.engine.normalize_gradient = false;
  config.engine.step = 0.05f;
  Session session({&m1, &m2}, &constraint, config);
  Rng data_rng(5);
  // Must run without error; with raw (tiny) gradients the input barely moves.
  const RunStats stats = session.Run({Tensor::RandUniform({4}, data_rng)}, RunOptions{});
  EXPECT_EQ(stats.seeds_tried, 1);
}

TEST(AblationKnobsTest, RandomOcclusionPlacementStaysRectangular) {
  OcclusionConstraint random(3, 3, OcclusionConstraint::Placement::kRandom);
  Rng rng(6);
  const Tensor grad({1, 8, 8}, 1.0f);
  for (int trial = 0; trial < 10; ++trial) {
    const Tensor dir = testing::ApplyConstraint(random, grad, Tensor({1, 8, 8}), rng);
    int nonzero = 0;
    for (int64_t i = 0; i < dir.numel(); ++i) {
      nonzero += dir[i] != 0.0f ? 1 : 0;
    }
    EXPECT_EQ(nonzero, 9);  // Exactly one 3x3 rectangle.
  }
}

TEST(AblationKnobsTest, RandomPlacementVariesPosition) {
  OcclusionConstraint random(2, 2, OcclusionConstraint::Placement::kRandom);
  Rng rng(7);
  const Tensor grad({1, 8, 8}, 1.0f);
  const Tensor a = testing::ApplyConstraint(random, grad, Tensor({1, 8, 8}), rng);
  Tensor b = a;
  // With 49 possible positions, 10 draws almost surely differ at least once.
  bool moved = false;
  for (int trial = 0; trial < 10 && !moved; ++trial) {
    b = testing::ApplyConstraint(random, grad, Tensor({1, 8, 8}), rng);
    moved = L1Distance(a, b) > 0.0f;
  }
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace dx
