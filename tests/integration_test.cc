// End-to-end integration: the trained zoo + constraints + engine, exercising
// the full DeepXplore pipeline per domain (in DEEPXPLORE_FAST mode so the zoo
// trains quickly; results are cached across test runs).
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/constraints/image_constraints.h"
#include "src/constraints/malware_constraints.h"
#include "src/core/session.h"
#include "src/data/drebin.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// Must run before any zoo access: shrink datasets/epochs for CI-speed runs.
struct FastModeEnv {
  FastModeEnv() { ::setenv("DEEPXPLORE_FAST", "1", 1); }
};
const FastModeEnv fast_mode_env;

std::vector<Model*> Ptrs(std::vector<Model>& models) {
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }
  return ptrs;
}

std::vector<Tensor> SeedsFrom(const Dataset& data, int n) {
  std::vector<Tensor> seeds;
  for (int i = 0; i < n && i < data.size(); ++i) {
    seeds.push_back(data.inputs[static_cast<size_t>(i)]);
  }
  return seeds;
}

TEST(IntegrationTest, ZooModelsTrainToReasonableAccuracy) {
  // Fast mode shrinks data 4x; accuracies are lower than the full-run Table 1
  // numbers but must still show real learning.
  for (const std::string& domain : PaperDomainKeys()) {
    const Dataset& test = ModelZoo::TestSet(domain);
    for (const std::string& name : DomainModelNames(domain)) {
      const Model m = ModelZoo::Trained(name);
      const float acc = Trainer::PaperAccuracy(m, test);
      EXPECT_GT(acc, domain == "driving" ? 0.85f : 0.55f)
          << name << " paper-accuracy " << acc;
    }
  }
}

TEST(IntegrationTest, MnistLightingFindsDifferences) {
  std::vector<Model> models = ModelZoo::TrainedDomain("mnist");
  LightingConstraint constraint;
  SessionConfig cfg;  // Table 2: λ1=1, λ2=0.1, s=10, t=0.
  cfg.engine.rng_seed = 61;
  Session session(Ptrs(models), &constraint, cfg);

  const auto seeds = SeedsFrom(ModelZoo::TestSet("mnist"), 40);
  RunOptions opts;
  opts.max_tests = 3;
  const RunStats stats = session.Run(seeds, opts);
  EXPECT_GE(static_cast<int>(stats.tests.size()), 1);
  for (const GeneratedTest& t : stats.tests) {
    EXPECT_TRUE(testing::Disagrees(session, t.input));
    EXPECT_GE(t.input.Min(), 0.0f);
    EXPECT_LE(t.input.Max(), 1.0f);
  }
  EXPECT_GT(session.MeanCoverage(), 0.0f);
}

TEST(IntegrationTest, DrivingOcclusionFindsSteeringDisagreement) {
  std::vector<Model> models = ModelZoo::TrainedDomain("driving");
  OcclusionConstraint constraint(8, 8);
  SessionConfig cfg;
  cfg.engine.step = 2.0f;
  cfg.engine.rng_seed = 62;
  cfg.engine.max_iterations_per_seed = 60;
  Session session(Ptrs(models), &constraint, cfg);
  EXPECT_TRUE(session.regression());

  const auto seeds = SeedsFrom(ModelZoo::TestSet("driving"), 40);
  RunOptions opts;
  opts.max_tests = 2;
  const RunStats stats = session.Run(seeds, opts);
  EXPECT_GE(static_cast<int>(stats.tests.size()), 1);
  for (const GeneratedTest& t : stats.tests) {
    ASSERT_EQ(t.outputs.size(), 3u);
    float lo = t.outputs[0];
    float hi = t.outputs[0];
    for (const float v : t.outputs) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_GT(hi - lo, cfg.engine.steering_eps);
  }
}

TEST(IntegrationTest, DrebinEvasionOnlyAddsManifestFeatures) {
  std::vector<Model> models = ModelZoo::TrainedDomain("drebin");
  DrebinConstraint constraint;
  SessionConfig cfg;  // Table 2: λ1=1, λ2=0.5, s discrete.
  cfg.engine.lambda2 = 0.5f;
  cfg.engine.step = 1.0f;
  cfg.engine.max_iterations_per_seed = 150;
  cfg.engine.rng_seed = 63;
  cfg.sync_interval = 8;
  Session session(Ptrs(models), &constraint, cfg);

  const auto seeds = SeedsFrom(ModelZoo::TestSet("drebin"), 64);
  RunOptions opts;
  opts.max_tests = 2;
  const RunStats stats = session.Run(seeds, opts);
  EXPECT_GT(stats.tests.size(), 0u) << "no Drebin difference-inducing input found";
  for (const GeneratedTest& t : stats.tests) {
    const Tensor& seed = seeds[static_cast<size_t>(t.seed_index)];
    // Only additions, only within the manifest region.
    for (int f = 0; f < kDrebinFeatureCount; ++f) {
      EXPECT_GE(t.input[f], seed[f]);
      if (t.input[f] != seed[f]) {
        EXPECT_TRUE(DrebinIsManifestFeature(f));
        EXPECT_FLOAT_EQ(t.input[f], 1.0f);
      }
    }
  }
}

TEST(IntegrationTest, CoverageGoalStopsRun) {
  std::vector<Model> models = ModelZoo::TrainedDomain("pdf");
  PdfConstraint constraint;
  SessionConfig cfg;
  cfg.engine.lambda1 = 2.0f;  // Table 2 PDF hyperparameters.
  cfg.engine.step = 0.1f;
  cfg.engine.rng_seed = 64;
  Session session(Ptrs(models), &constraint, cfg);

  const auto seeds = SeedsFrom(ModelZoo::TestSet("pdf"), 60);
  RunOptions opts;
  opts.coverage_goal = 0.3f;
  opts.max_seed_passes = 3;
  const RunStats stats = session.Run(seeds, opts);
  // Either the goal was reached (and we stopped early) or we exhausted seeds.
  if (session.MeanCoverage() >= 0.3f) {
    EXPECT_LE(stats.seeds_tried, 3 * 60);
  }
  EXPECT_GT(stats.tests.size(), 0u);
}

}  // namespace
}  // namespace dx
