#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace dx {
namespace {

// ---- Construction / shape ----------------------------------------------------------------

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, FillValueConstructor) {
  Tensor t({4}, 2.5f);
  EXPECT_FLOAT_EQ(t.Sum(), 10.0f);
}

TEST(TensorTest, FromValuesChecksCount) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(TensorTest, ShapeToStringFormat) {
  EXPECT_EQ(ShapeToString({2, 3, 4}), "[2, 3, 4]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

TEST(TensorTest, NumElementsRejectsNegative) {
  EXPECT_THROW(NumElements({2, -1}), std::invalid_argument);
}

TEST(TensorTest, MultiDimIndexing) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0f);
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at(std::vector<int>{0}), std::invalid_argument);
}

TEST(TensorTest, FlatAtBoundsChecked) {
  Tensor t({3});
  EXPECT_THROW(t.at(static_cast<int64_t>(3)), std::out_of_range);
  EXPECT_THROW(t.at(static_cast<int64_t>(-1)), std::out_of_range);
}

// ---- Reshape -----------------------------------------------------------------------------

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(r.at({2, 1}), 5.0f);
}

TEST(TensorTest, ReshapeInfersDimension) {
  Tensor t({2, 6});
  EXPECT_EQ(t.Reshape({-1}).shape(), (Shape{12}));
  EXPECT_EQ(t.Reshape({3, -1}).shape(), (Shape{3, 4}));
}

TEST(TensorTest, ReshapeRejectsBadShapes) {
  Tensor t({2, 3});
  EXPECT_THROW(t.Reshape({4}), std::invalid_argument);
  EXPECT_THROW(t.Reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.Reshape({5, -1}), std::invalid_argument);
}

// ---- Elementwise / in-place --------------------------------------------------------------

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a[2], 9.0f);
  a.SubInPlace(b);
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  a.MulInPlace(b);
  EXPECT_FLOAT_EQ(a[1], 10.0f);
  a.Scale(0.5f);
  EXPECT_FLOAT_EQ(a[1], 5.0f);
  a.AddScalar(1.0f);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.AddInPlace(b), std::invalid_argument);
  EXPECT_THROW(a.Axpy(1.0f, b), std::invalid_argument);
}

TEST(TensorTest, ClampInPlace) {
  Tensor t({4}, std::vector<float>{-2, 0.5f, 2, 0});
  t.ClampInPlace(0.0f, 1.0f);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 0.5f);
  EXPECT_FLOAT_EQ(t[2], 1.0f);
}

TEST(TensorTest, Axpy) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{10, 20});
  a.Axpy(0.1f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
}

// ---- Reductions --------------------------------------------------------------------------

TEST(TensorTest, Reductions) {
  Tensor t({4}, std::vector<float>{1, -3, 2, 0});
  EXPECT_FLOAT_EQ(t.Sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.Mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.Min(), -3.0f);
  EXPECT_FLOAT_EQ(t.Max(), 2.0f);
  EXPECT_EQ(t.Argmax(), 2);
  EXPECT_FLOAT_EQ(t.L1Norm(), 6.0f);
  EXPECT_FLOAT_EQ(t.L2Norm(), std::sqrt(14.0f));
}

TEST(TensorTest, EmptyReductionsThrow) {
  Tensor t;
  EXPECT_THROW(t.Mean(), std::invalid_argument);
  EXPECT_THROW(t.Min(), std::invalid_argument);
  EXPECT_THROW(t.Max(), std::invalid_argument);
  EXPECT_THROW(t.Argmax(), std::invalid_argument);
}

// ---- Random factories --------------------------------------------------------------------

TEST(TensorTest, RandnMoments) {
  Rng rng(5);
  Tensor t = Tensor::Randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.Mean(), 0.0f, 0.1f);
  double var = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    var += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(var / static_cast<double>(t.numel()), 4.0, 0.3);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(5);
  Tensor t = Tensor::RandUniform({1000}, rng, -1.0f, 1.0f);
  EXPECT_GE(t.Min(), -1.0f);
  EXPECT_LT(t.Max(), 1.0f);
}

// ---- Softmax -----------------------------------------------------------------------------

TEST(OpsTest, SoftmaxSumsToOne) {
  Tensor logits({5}, std::vector<float>{1, 2, 3, 4, 5});
  Tensor p = Softmax(logits);
  EXPECT_NEAR(p.Sum(), 1.0f, 1e-5f);
  for (int64_t i = 1; i < p.numel(); ++i) {
    EXPECT_GT(p[i], p[i - 1]);  // Monotone in logits.
  }
}

TEST(OpsTest, SoftmaxStableForLargeLogits) {
  Tensor logits({3}, std::vector<float>{1000, 1001, 1002});
  Tensor p = Softmax(logits);
  EXPECT_NEAR(p.Sum(), 1.0f, 1e-5f);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(OpsTest, SoftmaxRowwiseFor2D) {
  Tensor logits({2, 3}, std::vector<float>{1, 1, 1, 0, 0, 10});
  Tensor p = Softmax(logits);
  EXPECT_NEAR(p.at({0, 0}), 1.0f / 3.0f, 1e-5f);
  EXPECT_GT(p.at({1, 2}), 0.99f);
}

// ---- OneHot / L1 -------------------------------------------------------------------------

TEST(OpsTest, OneHot) {
  Tensor t = OneHot(2, 5);
  EXPECT_FLOAT_EQ(t.Sum(), 1.0f);
  EXPECT_FLOAT_EQ(t[2], 1.0f);
  EXPECT_THROW(OneHot(5, 5), std::out_of_range);
  EXPECT_THROW(OneHot(-1, 5), std::out_of_range);
}

TEST(OpsTest, L1Distance) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{2, 0, 3});
  EXPECT_FLOAT_EQ(L1Distance(a, b), 3.0f);
  EXPECT_THROW(L1Distance(a, Tensor({4})), std::invalid_argument);
}

// ---- Reshape rvalue overload -------------------------------------------------------------

TEST(TensorTest, ReshapeRvalueMovesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const float* before = t.data();
  Tensor flat = std::move(t).Reshape({6});
  // The data vector moved: same heap buffer, no copy.
  EXPECT_EQ(flat.data(), before);
  EXPECT_EQ(flat.shape(), (Shape{6}));
  EXPECT_FLOAT_EQ(flat[5], 6.0f);
}

TEST(TensorTest, ReshapeLvalueStillCopies) {
  const Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor r = t.Reshape({4});
  EXPECT_NE(r.data(), t.data());
  EXPECT_EQ(r.values(), t.values());
  EXPECT_THROW(t.Reshape({3}), std::invalid_argument);
  EXPECT_FLOAT_EQ(t.Reshape({-1})[3], 4.0f);
}

// ---- In-place resize / batch-dim ---------------------------------------------------------

TEST(TensorTest, ResizeInPlaceReusesStorage) {
  Tensor t({4, 3});
  t.Fill(7.0f);
  const int64_t cap = t.Capacity();
  t.ResizeInPlace({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_FLOAT_EQ(t[5], 7.0f);  // Existing elements survive.
  EXPECT_GE(t.Capacity(), cap);
  t.ResizeInPlace({4, 3});  // Grow back within capacity; new elements zeroed.
  EXPECT_EQ(t.numel(), 12);
}

TEST(TensorTest, SetBatchDimAdjustsLeadingDimension) {
  Tensor t({4, 5});
  t.Fill(1.0f);
  const float* before = t.data();
  t.SetBatchDim(2);
  EXPECT_EQ(t.shape(), (Shape{2, 5}));
  EXPECT_EQ(t.numel(), 10);
  t.SetBatchDim(4);
  EXPECT_EQ(t.data(), before);  // Within capacity: storage unchanged.
  EXPECT_EQ(t.numel(), 20);
  Tensor scalarish;
  EXPECT_THROW(scalarish.SetBatchDim(2), std::logic_error);
}

// ---- TensorView --------------------------------------------------------------------------

TEST(TensorViewTest, ConstViewReadsWithoutOwning) {
  const Tensor t({2, 3}, std::vector<float>{1, 9, 2, 3, 4, 0});
  const ConstTensorView v(t);
  EXPECT_EQ(v.numel(), 6);
  EXPECT_EQ(&v.shape(), &t.shape());
  EXPECT_EQ(v.data(), t.data());
  EXPECT_FLOAT_EQ(v[1], 9.0f);
  EXPECT_EQ(v.Argmax(), 1);
  EXPECT_FLOAT_EQ(v.Sum(), t.Sum());
}

TEST(TensorViewTest, SampleRowView) {
  // The executor's difference check reads per-sample rows of batched
  // outputs through views: pointer offset + borrowed sample shape.
  const Tensor batched({3, 4}, std::vector<float>{0, 1, 2, 3,  //
                                                  9, 8, 7, 6,  //
                                                  5, 5, 9, 5});
  const Shape sample_shape{4};
  const ConstTensorView row1(batched.data() + 4, &sample_shape, 4);
  EXPECT_EQ(row1.Argmax(), 0);
  const ConstTensorView row2(batched.data() + 8, &sample_shape, 4);
  EXPECT_EQ(row2.Argmax(), 2);
}

TEST(TensorViewTest, MutableViewWrites) {
  Tensor t({4});
  TensorView v(t);
  v.Fill(2.5f);
  v[3] = -1.0f;
  EXPECT_FLOAT_EQ(t[0], 2.5f);
  EXPECT_FLOAT_EQ(t[3], -1.0f);
  const ConstTensorView cv = v;  // Mutable view converts to const view.
  EXPECT_EQ(cv.data(), t.data());
}

// ---- Workspace ---------------------------------------------------------------------------

TEST(WorkspaceTest, RewindReusesSlotsWithoutReallocating) {
  Workspace ws;
  Tensor* a = ws.Acquire({4, 4});
  Tensor* b = ws.Acquire({2});
  EXPECT_NE(a, b);
  EXPECT_EQ(ws.slots(), 2u);
  a->Fill(1.0f);
  const float* storage = a->data();
  ws.Rewind();
  Tensor* a2 = ws.Acquire({4, 4});
  EXPECT_EQ(a2, a);             // Same slot...
  EXPECT_EQ(a2->data(), storage);  // ...same storage, no reallocation.
  EXPECT_EQ(ws.slots(), 2u);
}

TEST(WorkspaceTest, SlotsShrinkAndGrowWithinCapacity) {
  Workspace ws;
  Tensor* big = ws.Acquire({8, 8});
  const int64_t cap = big->Capacity();
  ws.Rewind();
  Tensor* small = ws.Acquire({3});
  EXPECT_EQ(small->numel(), 3);
  EXPECT_GE(small->Capacity(), cap);  // Storage retained across reshapes.
  ws.Rewind();
  EXPECT_EQ(ws.Acquire({8, 8})->numel(), 64);
}

TEST(WorkspaceTest, AcquireFlatKeepsElementCount) {
  Workspace ws;
  Tensor* t = ws.AcquireFlat(12);
  EXPECT_EQ(t->numel(), 12);
  EXPECT_EQ(t->ndim(), 1);
  ws.Rewind();
  EXPECT_EQ(ws.AcquireFlat(12), t);
  EXPECT_EQ(ws.slots(), 1u);
}

}  // namespace
}  // namespace dx
