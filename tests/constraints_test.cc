// Domain-constraint property tests: each constraint must only ever produce
// update directions and projections that keep inputs valid for its domain.
#include <gtest/gtest.h>

#include <cmath>

#include "src/constraints/constraint.h"
#include "src/constraints/image_constraints.h"
#include "src/constraints/malware_constraints.h"
#include "src/data/drebin.h"
#include "src/data/pdf.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// ---- Lighting ----------------------------------------------------------------------------

TEST(LightingTest, UniformDirectionFollowsMeanSign) {
  LightingConstraint c;
  Rng rng(1);
  Tensor grad({1, 4, 4}, 0.5f);
  grad[0] = -1.0f;  // Mean still positive.
  const Tensor dir = testing::ApplyConstraint(c, grad, Tensor({1, 4, 4}), rng);
  for (int64_t i = 0; i < dir.numel(); ++i) {
    EXPECT_FLOAT_EQ(dir[i], 1.0f);
  }
  Tensor neg({1, 4, 4}, -0.2f);
  const Tensor dir2 = testing::ApplyConstraint(c, neg, Tensor({1, 4, 4}), rng);
  for (int64_t i = 0; i < dir2.numel(); ++i) {
    EXPECT_FLOAT_EQ(dir2[i], -1.0f);
  }
}

TEST(LightingTest, ProjectionClampsPixels) {
  LightingConstraint c;
  Tensor x({1, 2, 2}, std::vector<float>{-0.5f, 0.5f, 1.5f, 1.0f});
  c.ProjectInput(&x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 1.0f);
}

// ---- Occlusion ---------------------------------------------------------------------------

TEST(OcclusionTest, GradientConfinedToOneRectangle) {
  OcclusionConstraint c(3, 4);
  Rng rng(2);
  Tensor grad = Tensor::Randn({2, 10, 12}, rng);
  const Tensor dir = testing::ApplyConstraint(c, grad, Tensor({2, 10, 12}), rng);
  // Count nonzero columns/rows: must fit in a 3x4 window per channel.
  int nonzero = 0;
  for (int64_t i = 0; i < dir.numel(); ++i) {
    nonzero += dir[i] != 0.0f ? 1 : 0;
  }
  EXPECT_LE(nonzero, 2 * 3 * 4);
  EXPECT_GT(nonzero, 0);
  // Where nonzero, the direction must equal the raw gradient.
  for (int64_t i = 0; i < dir.numel(); ++i) {
    if (dir[i] != 0.0f) {
      EXPECT_FLOAT_EQ(dir[i], grad[i]);
    }
  }
}

TEST(OcclusionTest, PicksHighestMassPosition) {
  OcclusionConstraint c(2, 2);
  Tensor grad({1, 6, 6});
  // Plant a hot 2x2 block at (3,2).
  grad.at({0, 3, 2}) = 5.0f;
  grad.at({0, 3, 3}) = 5.0f;
  grad.at({0, 4, 2}) = 5.0f;
  grad.at({0, 4, 3}) = 5.0f;
  grad.at({0, 0, 0}) = 1.0f;
  Rng rng(3);
  const Tensor dir = testing::ApplyConstraint(c, grad, Tensor({1, 6, 6}), rng);
  EXPECT_FLOAT_EQ(dir.at({0, 3, 2}), 5.0f);
  EXPECT_FLOAT_EQ(dir.at({0, 0, 0}), 0.0f);
}

TEST(OcclusionTest, RejectsBadGeometry) {
  EXPECT_THROW(OcclusionConstraint(0, 3), std::invalid_argument);
  OcclusionConstraint c(30, 30);
  Rng rng(4);
  EXPECT_THROW(testing::ApplyConstraint(c, Tensor({1, 8, 8}), Tensor({1, 8, 8}), rng),
               std::invalid_argument);
  OcclusionConstraint flat(2, 2);
  EXPECT_THROW(testing::ApplyConstraint(flat, Tensor({64}), Tensor({64}), rng),
               std::invalid_argument);
}

// ---- BlackRects --------------------------------------------------------------------------

TEST(BlackRectsTest, OnlyDarkeningPatchesSurvive) {
  BlackRectsConstraint c(10, 2);
  Rng rng(5);
  // All-positive gradient: every patch would brighten -> all zero.
  Tensor bright({1, 8, 8}, 0.5f);
  const Tensor none = testing::ApplyConstraint(c, bright, Tensor({1, 8, 8}), rng);
  EXPECT_FLOAT_EQ(none.L1Norm(), 0.0f);
  // All-negative gradient: selected patches pass through.
  Tensor dark({1, 8, 8}, -0.5f);
  const Tensor some = testing::ApplyConstraint(c, dark, Tensor({1, 8, 8}), rng);
  EXPECT_GT(some.L1Norm(), 0.0f);
  for (int64_t i = 0; i < some.numel(); ++i) {
    EXPECT_LE(some[i], 0.0f);
  }
}

TEST(BlackRectsTest, PatchesAreSmall) {
  BlackRectsConstraint c(1, 2);
  Rng rng(6);
  Tensor dark({1, 12, 12}, -1.0f);
  const Tensor dir = testing::ApplyConstraint(c, dark, Tensor({1, 12, 12}), rng);
  int nonzero = 0;
  for (int64_t i = 0; i < dir.numel(); ++i) {
    nonzero += dir[i] != 0.0f ? 1 : 0;
  }
  EXPECT_LE(nonzero, 4);  // One 2x2 patch.
}

// ---- Drebin ------------------------------------------------------------------------------

TEST(DrebinConstraintTest, FlipsOnlyUnsetManifestFeatures) {
  DrebinConstraint c;
  Rng rng(7);
  Tensor x({kDrebinFeatureCount});
  x[3] = 1.0f;  // Already-set manifest feature.
  Tensor grad({kDrebinFeatureCount});
  grad[3] = 10.0f;                        // Set feature: ineligible.
  grad[kDrebinManifestFeatures] = 9.0f;   // Code feature: ineligible.
  grad[7] = 5.0f;                         // Best eligible.
  grad[9] = 2.0f;
  const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
  EXPECT_FLOAT_EQ(dir[7], 1.0f);
  EXPECT_FLOAT_EQ(dir.Sum(), 1.0f);
}

TEST(DrebinConstraintTest, NoPositiveGradientMeansNoChange) {
  DrebinConstraint c;
  Rng rng(8);
  Tensor x({kDrebinFeatureCount});
  Tensor grad({kDrebinFeatureCount}, -1.0f);
  const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
  EXPECT_FLOAT_EQ(dir.L1Norm(), 0.0f);
}

TEST(DrebinConstraintTest, ProjectionSnapsBinary) {
  DrebinConstraint c;
  Tensor x({kDrebinFeatureCount}, 0.3f);
  x[0] = 0.9f;
  c.ProjectInput(&x);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
}

TEST(DrebinConstraintTest, NeverDeletesFeatures) {
  // Property sweep: from any state, applying the constrained update never
  // turns a 1 into a 0.
  DrebinConstraint c;
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor x({kDrebinFeatureCount});
    for (int64_t i = 0; i < x.numel(); ++i) {
      x[i] = rng.Bernoulli(0.2) ? 1.0f : 0.0f;
    }
    const Tensor before = x;
    const Tensor grad = Tensor::Randn(x.shape(), rng);
    const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
    x.Axpy(1.0f, dir);
    c.ProjectInput(&x);
    for (int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_GE(x[i], before[i]);
    }
  }
}

// ---- PDF ---------------------------------------------------------------------------------

TEST(PdfConstraintTest, FrozenFeaturesGetZeroGradient) {
  PdfConstraint c;
  Rng rng(10);
  const auto& specs = PdfFeatureSpecs();
  Tensor x({kPdfFeatureCount}, 0.5f);
  Tensor grad({kPdfFeatureCount}, 1.0f);
  const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
  for (int f = 0; f < kPdfFeatureCount; ++f) {
    if (!specs[static_cast<size_t>(f)].modifiable) {
      EXPECT_FLOAT_EQ(dir[f], 0.0f) << specs[static_cast<size_t>(f)].name;
    }
  }
}

TEST(PdfConstraintTest, IncrementOnlyBlocksDecreases) {
  PdfConstraint c;
  Rng rng(11);
  const auto& specs = PdfFeatureSpecs();
  Tensor x({kPdfFeatureCount}, 0.5f);
  Tensor grad({kPdfFeatureCount}, -1.0f);
  const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
  for (int f = 0; f < kPdfFeatureCount; ++f) {
    const auto& spec = specs[static_cast<size_t>(f)];
    if (spec.increment_only) {
      EXPECT_FLOAT_EQ(dir[f], 0.0f) << spec.name;
    }
  }
  // author_num is modifiable in both directions.
  EXPECT_LT(dir[4], 0.0f);
}

TEST(PdfConstraintTest, SaturatedFeaturesStop) {
  PdfConstraint c;
  Rng rng(12);
  Tensor x({kPdfFeatureCount}, 1.0f);
  Tensor grad({kPdfFeatureCount}, 1.0f);
  const Tensor dir = testing::ApplyConstraint(c, grad, x, rng);
  EXPECT_FLOAT_EQ(dir.L1Norm(), 0.0f);
}

TEST(PdfConstraintTest, ProjectionYieldsIntegerRawValues) {
  PdfConstraint c;
  Rng rng(13);
  Tensor x = Tensor::RandUniform({kPdfFeatureCount}, rng);
  c.ProjectInput(&x);
  for (int f = 0; f < kPdfFeatureCount; ++f) {
    const float raw = PdfRawValue(f, x[f]);
    EXPECT_NEAR(raw, std::round(raw), 1e-4f);
    EXPECT_GE(x[f], 0.0f);
    EXPECT_LE(x[f], 1.0f);
  }
}

// ---- Unconstrained -----------------------------------------------------------------------

TEST(UnconstrainedTest, PassesGradientThrough) {
  UnconstrainedImage c;
  Rng rng(14);
  const Tensor grad = Tensor::Randn({1, 4, 4}, rng);
  const Tensor dir = testing::ApplyConstraint(c, grad, Tensor({1, 4, 4}), rng);
  for (int64_t i = 0; i < grad.numel(); ++i) {
    EXPECT_FLOAT_EQ(dir[i], grad[i]);
  }
}

}  // namespace
}  // namespace dx
