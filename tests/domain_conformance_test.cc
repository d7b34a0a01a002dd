// Domain-conformance certification suite: every registered DomainSpec —
// built-in or third-party — must pass these checks to inherit the engine's
// guarantees (batched executor, ExecutionPlan, corpus/replay, golden
// scenario matrix). The suite is parameterized over the registry, so
// registering a new domain automatically certifies it:
//
//   1. dataset shape + determinism (same (n, seed) => bit-identical data,
//      inputs match the zoo models' input shape, labels in range);
//   2. every zoo model forwards + backwards on a batch (finite outputs,
//      correct shapes, softmax head for classification domains);
//   3. every constraint variant is idempotent (ApplyInto on its own output
//      changes nothing under identical RNG streams) and its projection is a
//      retraction (Project(Project(x)) == Project(x));
//   4. the compiled ExecutionPlan path matches the per-sample scalar oracle
//      for every zoo model (forward trace and input gradient) within the
//      kernel tolerances of tests/test_util.h — the plan path runs the
//      SIMD/GEMM conv2d/dense kernels, whose accumulation order differs
//      from the oracle's.
//
// Plus registry-level tests: lookup error messages (the CLI surfaces them
// verbatim) and the corpus-manifest hardening guarantee — a manifest whose
// domain key is no longer registered fails with a clear message, never a
// crash or a silent default.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/domain.h"
#include "src/corpus/corpus.h"
#include "src/data/tabular_fraud.h"
#include "src/models/zoo.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// Must run before any zoo access: shrink datasets for CI-speed runs.
struct FastModeEnv {
  FastModeEnv() { ::setenv("DEEPXPLORE_FAST", "1", 1); }
};
const FastModeEnv fast_mode_env;

constexpr int kBatch = 4;

std::vector<float> Values(const Tensor& t) {
  return {t.data(), t.data() + t.numel()};
}

Tensor StackFirst(const Dataset& ds, int batch) {
  std::vector<const Tensor*> ptrs;
  for (int b = 0; b < batch; ++b) {
    ptrs.push_back(&ds.inputs[static_cast<size_t>(b % ds.size())]);
  }
  return StackSamples(ptrs);
}

class DomainConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  const DomainSpec& spec() const { return GetDomain(GetParam()); }
};

TEST_P(DomainConformanceTest, DatasetShapeAndDeterminism) {
  const Dataset a = spec().make_dataset(12, 42);
  const Dataset b = spec().make_dataset(12, 42);
  ASSERT_EQ(a.size(), 12);
  a.CheckConsistency();
  ASSERT_EQ(b.size(), a.size());
  for (int i = 0; i < a.size(); ++i) {
    const Tensor& x = a.inputs[static_cast<size_t>(i)];
    ASSERT_EQ(x.shape(), a.input_shape) << spec().key << " sample " << i;
    for (int64_t j = 0; j < x.numel(); ++j) {
      ASSERT_TRUE(std::isfinite(x[j])) << spec().key << " sample " << i;
    }
    // Bit-identical regeneration: the corpus/replay machinery depends on
    // dataset builders being pure functions of (n, seed).
    EXPECT_EQ(Values(x), Values(b.inputs[static_cast<size_t>(i)]))
        << spec().key << " sample " << i;
    EXPECT_EQ(a.targets[static_cast<size_t>(i)], b.targets[static_cast<size_t>(i)]);
    if (!a.regression()) {
      const int label = a.Label(i);
      EXPECT_GE(label, 0);
      EXPECT_LT(label, a.num_classes);
    }
  }
  // A different seed must draw different data (the train/test split relies
  // on disjoint seed streams).
  const Dataset c = spec().make_dataset(12, 43);
  bool any_difference = false;
  for (int i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = Values(a.inputs[static_cast<size_t>(i)]) !=
                     Values(c.inputs[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(any_difference) << spec().key << ": seed does not affect the draw";
}

TEST_P(DomainConformanceTest, ModelsForwardAndBackwardOnABatch) {
  const Dataset ds = spec().make_dataset(kBatch, 7);
  const Tensor stacked = StackFirst(ds, kBatch);
  ASSERT_GE(spec().models.size(), 2u);
  for (const DomainModelSpec& mspec : spec().models) {
    const Model m = mspec.build(11);
    EXPECT_EQ(m.name(), mspec.name);
    EXPECT_EQ(m.input_shape(), ds.input_shape) << mspec.name;
    EXPECT_GT(m.TotalNeurons(), 0) << mspec.name;
    if (!ds.regression()) {
      ASSERT_EQ(m.output_shape(), (Shape{ds.num_classes})) << mspec.name;
      EXPECT_EQ(m.layer(m.num_layers() - 1).Kind(), "softmax") << mspec.name;
    }

    ExecutionPlan plan = m.Compile(kBatch);
    const Tensor& out = plan.ForwardBatch(stacked, kBatch).outputs.back();
    ASSERT_EQ(out.shape(), BatchedShape(kBatch, m.output_shape())) << mspec.name;
    for (int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(out[i])) << mspec.name;
    }

    Tensor seed(out.shape());
    seed.Fill(1.0f);
    const Tensor& grad = plan.BackwardInputBatch(m.num_layers() - 1, seed);
    ASSERT_EQ(grad.shape(), BatchedShape(kBatch, m.input_shape())) << mspec.name;
    for (int64_t i = 0; i < grad.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(grad[i])) << mspec.name;
    }
  }
}

TEST_P(DomainConformanceTest, ConstraintsAreIdempotentAndProjectionsRetract) {
  const Dataset ds = spec().make_dataset(3, 5);
  ASSERT_FALSE(DomainConstraintNames(spec()).empty());
  for (const std::string& name : DomainConstraintNames(spec())) {
    const auto constraint = MakeDomainConstraint(spec(), name);
    for (int i = 0; i < 3; ++i) {
      const Tensor& x = ds.inputs[static_cast<size_t>(i)];
      Rng grad_rng(1000 + static_cast<uint64_t>(i));
      const Tensor grad = Tensor::RandUniform(x.shape(), grad_rng, -1.0f, 1.0f);
      // Identical RNG streams for both applications: stochastic constraints
      // (e.g. random patch placement) must still be idempotent per draw.
      Rng rng_once(77);
      Rng rng_twice(77);
      const Tensor once = testing::ApplyConstraint(*constraint, grad, x, rng_once);
      const Tensor twice = testing::ApplyConstraint(*constraint, once, x, rng_twice);
      EXPECT_EQ(Values(twice), Values(once))
          << spec().key << "/" << name << " is not idempotent (sample " << i << ")";

      // ProjectInput is a retraction onto the valid input set, and valid
      // dataset samples stay inside it.
      Tensor projected = x;
      constraint->ProjectInput(&projected);
      Tensor reprojected = projected;
      constraint->ProjectInput(&reprojected);
      EXPECT_EQ(Values(reprojected), Values(projected))
          << spec().key << "/" << name << " projection is not a retraction";
    }
  }
}

TEST_P(DomainConformanceTest, ExecutionPlanMatchesPerSampleOracle) {
  const Dataset ds = spec().make_dataset(kBatch, 9);
  const Tensor stacked = StackFirst(ds, kBatch);
  for (const DomainModelSpec& mspec : spec().models) {
    const Model m = mspec.build(13);
    ExecutionPlan plan = m.Compile(kBatch);

    const BatchTrace oracle = dx::testing::OracleForwardBatch(m, stacked);
    const BatchTrace& planned = plan.ForwardBatch(stacked, kBatch);
    ASSERT_EQ(planned.outputs.size(), oracle.outputs.size()) << mspec.name;
    for (size_t l = 0; l < oracle.outputs.size(); ++l) {
      dx::testing::ExpectTensorsNear(planned.outputs[l], oracle.outputs[l],
                                     dx::testing::kKernelForwardTolerance,
                                     mspec.name + " layer " + std::to_string(l));
    }

    Tensor seed(oracle.outputs.back().shape());
    seed.Fill(0.5f);
    const Tensor grad_oracle =
        dx::testing::OracleBackwardBatch(m, oracle, m.num_layers() - 1, seed);
    const Tensor& grad_planned = plan.BackwardInputBatch(m.num_layers() - 1, seed);
    dx::testing::ExpectTensorsNear(grad_planned, grad_oracle,
                                   dx::testing::kKernelBackwardTolerance,
                                   mspec.name);
  }
}

std::string DomainTestName(const ::testing::TestParamInfo<std::string>& info) {
  // gtest parameter names must be [A-Za-z0-9_]; display names are free-form.
  return dx::testing::SanitizeTestName(GetDomain(info.param).display_name);
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredDomains, DomainConformanceTest,
                         ::testing::ValuesIn(DomainKeys()), DomainTestName);

// ---- Registry behavior -------------------------------------------------------------------

TEST(DomainRegistryTest, SevenBuiltinDomainsRegistered) {
  const std::vector<std::string> keys = DomainKeys();
  EXPECT_GE(keys.size(), 7u);
  for (const char* key :
       {"mnist", "imagenet", "driving", "pdf", "drebin", "speech", "tabular"}) {
    EXPECT_TRUE(DomainRegistered(key)) << key;
    EXPECT_NE(FindDomain(key), nullptr) << key;
  }
  EXPECT_FALSE(DomainRegistered("martian"));
  EXPECT_EQ(FindDomain("martian"), nullptr);
}

TEST(DomainRegistryTest, UnknownDomainErrorListsRegisteredKeys) {
  try {
    GetDomain("martian");
    FAIL() << "GetDomain should throw for unknown keys";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown domain 'martian'"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("mnist"), std::string::npos) << what;
    EXPECT_NE(what.find("speech"), std::string::npos) << what;
  }
}

TEST(DomainRegistryTest, UnknownConstraintErrorListsValidNames) {
  const DomainSpec& pdf = GetDomain("pdf");
  EXPECT_EQ(ResolveDomainConstraint(pdf, "default"), "pdf");
  EXPECT_EQ(ResolveDomainConstraint(pdf, ""), "pdf");
  EXPECT_EQ(ResolveDomainConstraint(pdf, "none"), "none");
  try {
    MakeDomainConstraint(pdf, "blackout");  // Vision-only constraint.
    FAIL() << "MakeDomainConstraint should throw for unknown variants";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown constraint 'blackout' for domain 'pdf'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("valid: default | pdf | none"), std::string::npos) << what;
  }
}

TEST(DomainRegistryTest, MalformedSpecsAreRejected) {
  DomainSpec no_key;
  EXPECT_THROW(RegisterDomain(std::move(no_key)), std::invalid_argument);

  DomainSpec one_model;
  one_model.key = "one-model";
  one_model.make_dataset = [](int n, uint64_t seed) { return MakeSyntheticTabular(n, seed); };
  one_model.models.push_back(
      {"ONLY", "arch", "arch", [](uint64_t s) { return ModelZoo::Build("TAB_C1", s); }});
  EXPECT_THROW(RegisterDomain(std::move(one_model)), std::invalid_argument);
}

// The corpus-manifest hardening guarantee: resume/replay resolve the stored
// domain key through the registry, so a manifest recorded against a domain
// that is no longer registered fails with the clear lookup error — the same
// path the CLI surfaces verbatim (exit 2) — never a crash or a default.
TEST(DomainRegistryTest, StaleCorpusManifestFailsWithClearError) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dx_stale_manifest_corpus").string();
  std::filesystem::remove_all(dir);
  {
    Corpus corpus(dir);
    corpus.SetMetadata("domain", "martian");
    corpus.SetMetadata("constraint", "default");
    CorpusMeta meta;
    meta.metric = "neuron";
    meta.objective = "joint";
    meta.scheduler = "roundrobin";
    meta.constraint = "unconstrained";
    meta.sync_interval = 16;
    meta.max_tests = 1;
    meta.max_seed_passes = 1;
    meta.model_names = {"A", "B"};
    meta.seeds.push_back(Tensor({2}));
    corpus.Initialize(std::move(meta));
  }
  // A fresh process opens the corpus and resolves the stored key.
  Corpus reopened(dir);
  ASSERT_TRUE(reopened.initialized());
  const std::string* stored = reopened.meta().FindMetadata("domain");
  ASSERT_NE(stored, nullptr);
  try {
    GetDomain(*stored);
    FAIL() << "stale manifest domain key must not resolve";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown domain 'martian'"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dx
