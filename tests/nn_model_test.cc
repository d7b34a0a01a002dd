// Model-level tests: forward traces, backprop from arbitrary internal layers
// (the DeepXplore primitive), parameter plumbing, and serialization.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using ::dx::testing::MaxRelError;
using ::dx::testing::NumericalGradient;

Model MakeTinyConvNet(uint64_t seed) {
  Rng rng(seed);
  Model m("tiny", {1, 8, 8});
  auto& c1 = m.Emplace<Conv2D>(1, 3, 3, 3, 1, 0, Activation::kRelu);
  c1.InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Flatten>();
  auto& d1 = m.Emplace<Dense>(3 * 3 * 3, 10, Activation::kTanh);
  d1.InitParams(rng);
  auto& d2 = m.Emplace<Dense>(10, 4, Activation::kNone);
  d2.InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(ModelTest, ShapesPropagateThroughLayers) {
  Model m = MakeTinyConvNet(1);
  EXPECT_EQ(m.num_layers(), 6);
  EXPECT_EQ(m.layer_output_shape(0), (Shape{3, 6, 6}));
  EXPECT_EQ(m.layer_output_shape(1), (Shape{3, 3, 3}));
  EXPECT_EQ(m.layer_output_shape(2), (Shape{27}));
  EXPECT_EQ(m.output_shape(), (Shape{4}));
}

TEST(ModelTest, AddRejectsIncompatibleLayer) {
  Model m("bad", {1, 8, 8});
  EXPECT_THROW(m.Emplace<Dense>(10, 3), std::invalid_argument);
}

TEST(ModelTest, ForwardValidatesInputShape) {
  Model m = MakeTinyConvNet(1);
  EXPECT_THROW(m.Forward(Tensor({1, 7, 7})), std::invalid_argument);
}

TEST(ModelTest, ForwardTraceRecordsEveryLayer) {
  Model m = MakeTinyConvNet(2);
  Rng rng(5);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);
  ASSERT_EQ(trace.outputs.size(), 6u);
  EXPECT_EQ(trace.Output().shape(), (Shape{4}));
  EXPECT_NEAR(trace.Output().Sum(), 1.0f, 1e-5f);  // Softmax normalized.
  // LayerInput(0) is the model input.
  EXPECT_EQ(&trace.LayerInput(0), &trace.input);
}

TEST(ModelTest, PredictHelpers) {
  Model m = MakeTinyConvNet(3);
  Rng rng(5);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const Tensor y = m.Predict(x);
  EXPECT_EQ(m.PredictClass(x), static_cast<int>(y.Argmax()));
  EXPECT_FLOAT_EQ(m.PredictScalar(x), y[0]);
}

TEST(ModelTest, BackwardInputFromOutputMatchesNumeric) {
  Model m = MakeTinyConvNet(4);
  Rng rng(6);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);

  // Gradient of class-0 probability w.r.t. input.
  const int last = m.num_layers() - 1;
  Tensor seed(trace.outputs[static_cast<size_t>(last)].shape());
  seed[0] = 1.0f;
  const Tensor analytic = m.BackwardInput(trace, last, seed);

  const auto scalar = [&](const Tensor& xx) {
    return static_cast<double>(m.Predict(xx)[0]);
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 2e-2f);
}

TEST(ModelTest, BackwardInputFromInternalLayerMatchesNumeric) {
  // The DeepXplore primitive: d(hidden neuron)/d(input).
  Model m = MakeTinyConvNet(5);
  Rng rng(7);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);

  const int conv_layer = 0;
  const int neuron = 1;
  Tensor seed(trace.outputs[0].shape());
  m.layer(conv_layer).AddNeuronSeed(&seed, neuron, 1.0f);
  const Tensor analytic = m.BackwardInput(trace, conv_layer, seed);

  const auto scalar = [&](const Tensor& xx) {
    const ForwardTrace t = m.Forward(xx);
    return static_cast<double>(
        m.layer(conv_layer).NeuronValue(ConstTensorView(t.outputs[0]), neuron));
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 2e-2f);
}

TEST(ModelTest, BackwardInputFromDenseHiddenLayerMatchesNumeric) {
  Model m = MakeTinyConvNet(6);
  Rng rng(8);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);

  const int dense_layer = 3;
  const int neuron = 4;
  Tensor seed(trace.outputs[static_cast<size_t>(dense_layer)].shape());
  m.layer(dense_layer).AddNeuronSeed(&seed, neuron, 1.0f);
  const Tensor analytic = m.BackwardInput(trace, dense_layer, seed);

  const auto scalar = [&](const Tensor& xx) {
    const ForwardTrace t = m.Forward(xx);
    return static_cast<double>(t.outputs[static_cast<size_t>(dense_layer)][neuron]);
  };
  const Tensor numeric = NumericalGradient(scalar, x, 1e-2f);
  EXPECT_LT(MaxRelError(analytic, numeric), 2e-2f);
}

TEST(ModelTest, BackwardParamsAccumulatesAllLayerGrads) {
  Model m = MakeTinyConvNet(7);
  Rng rng(9);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);
  std::vector<Tensor> grads = m.InitParamGrads();
  Tensor seed(m.output_shape());
  seed[0] = 1.0f;
  m.BackwardParams(trace, m.num_layers() - 1, seed, &grads);
  // Conv weights (param 0) and dense weights should all receive gradient.
  EXPECT_GT(grads[0].L1Norm(), 0.0f);
  EXPECT_GT(grads[2].L1Norm(), 0.0f);
  EXPECT_GT(grads[4].L1Norm(), 0.0f);
}

TEST(ModelTest, BackwardRejectsBadSeed) {
  Model m = MakeTinyConvNet(8);
  Rng rng(10);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const ForwardTrace trace = m.Forward(x);
  EXPECT_THROW(m.BackwardInput(trace, 99, Tensor({4})), std::out_of_range);
  EXPECT_THROW(m.BackwardInput(trace, m.num_layers() - 1, Tensor({5})),
               std::invalid_argument);
}

TEST(ModelTest, ParamAndNeuronCounts) {
  Model m = MakeTinyConvNet(9);
  // conv: 3*1*3*3 + 3 = 30; dense1: 27*10+10=280; dense2: 10*4+4=44.
  EXPECT_EQ(m.NumParams(), 30 + 280 + 44);
  // Neurons: conv 3 channels + dense 10 + dense 4.
  EXPECT_EQ(m.TotalNeurons(), 17);
}

TEST(ModelTest, SummaryListsLayers) {
  Model m = MakeTinyConvNet(10);
  const std::string s = m.Summary();
  EXPECT_NE(s.find("conv2d"), std::string::npos);
  EXPECT_NE(s.find("softmax"), std::string::npos);
  EXPECT_NE(s.find("'tiny'"), std::string::npos);
}

TEST(ModelTest, SerializationRoundTripPreservesPredictions) {
  Model m = MakeTinyConvNet(11);
  const std::string blob = m.Serialize();
  Model restored = Model::Deserialize(blob);
  EXPECT_EQ(restored.name(), "tiny");
  EXPECT_EQ(restored.num_layers(), m.num_layers());
  EXPECT_EQ(restored.NumParams(), m.NumParams());

  Rng rng(12);
  for (int i = 0; i < 5; ++i) {
    const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
    const Tensor a = m.Predict(x);
    const Tensor b = restored.Predict(x);
    for (int64_t k = 0; k < a.numel(); ++k) {
      EXPECT_FLOAT_EQ(a[k], b[k]);
    }
  }
}

TEST(ModelTest, SerializationPreservesBatchNormAndDropout) {
  Rng rng(13);
  Model m("bn_net", {2, 4, 4});
  auto& bn = m.Emplace<BatchNorm>(2);
  bn.SetStatistics({0.5f, -0.5f}, {2.0f, 3.0f});
  m.Emplace<Flatten>();
  m.Emplace<Dropout>(0.25f);
  auto& d = m.Emplace<Dense>(32, 3);
  d.InitParams(rng);
  m.Emplace<SoftmaxLayer>();

  Model restored = Model::Deserialize(m.Serialize());
  const Tensor x = Tensor::Randn({2, 4, 4}, rng);
  const Tensor a = m.Predict(x);
  const Tensor b = restored.Predict(x);
  for (int64_t k = 0; k < a.numel(); ++k) {
    EXPECT_FLOAT_EQ(a[k], b[k]);
  }
  auto* restored_bn = dynamic_cast<BatchNorm*>(&restored.layer(0));
  ASSERT_NE(restored_bn, nullptr);
  EXPECT_TRUE(restored_bn->calibrated());
}

TEST(ModelTest, DeserializeRejectsGarbage) {
  EXPECT_THROW(Model::Deserialize("not a model"), std::runtime_error);
}

// A self-consistent blob whose Dense(4, 2) weight is stored as {1, 1}: the
// shape and value count agree with each other but not with the layer, whose
// kernels would read past the weight buffer.
TEST(ModelTest, DeserializeRejectsParamShapeMismatch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  writer.WriteU32(0x44585031);  // "DXP1"
  writer.WriteString("bad_dense");
  writer.WriteInts({4});
  writer.WriteU64(1);
  writer.WriteString("dense");
  Dense(4, 2).SerializeConfig(writer);
  writer.WriteU64(2);
  writer.WriteInts({1, 1});
  writer.WriteFloats({0.5f});
  writer.WriteInts({2});
  writer.WriteFloats({0.0f, 0.0f});
  try {
    Model::Deserialize(out.str());
    FAIL() << "mis-shaped weight accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("layer 0"), std::string::npos) << what;
    EXPECT_NE(what.find("dense"), std::string::npos) << what;
    EXPECT_NE(what.find("param 0"), std::string::npos) << what;
  }
}

TEST(ModelTest, DropoutTraceBackwardIsConsistent) {
  // A training-mode trace must reuse its dropout mask during backward.
  Rng rng(14);
  Model m("drop", {8});
  m.Emplace<Dropout>(0.5f);
  auto& d = m.Emplace<Dense>(8, 2);
  d.InitParams(rng);

  Rng train_rng(15);
  const Tensor x({8}, 1.0f);
  const ForwardTrace trace = m.Forward(x, /*training=*/true, &train_rng);
  Tensor seed({2}, std::vector<float>{1.0f, 0.0f});
  const Tensor g = m.BackwardInput(trace, 1, seed);
  // Gradient must be zero exactly where the mask dropped inputs.
  const Tensor& dropped = trace.outputs[0];
  for (int64_t i = 0; i < 8; ++i) {
    if (dropped[i] == 0.0f) {
      EXPECT_FLOAT_EQ(g[i], 0.0f);
    }
  }
}

}  // namespace
}  // namespace dx
