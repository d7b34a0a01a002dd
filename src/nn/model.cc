#include "src/nn/model.h"

#include <sstream>
#include <stdexcept>

#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/util/serialize.h"

namespace dx {

// ---- Layer base defaults -----------------------------------------------------------------

float Layer::NeuronValue(ConstTensorView /*output*/, int /*index*/) const {
  throw std::logic_error("layer '" + Kind() + "' has no coverage neurons");
}

void Layer::AddNeuronSeed(Tensor* /*seed*/, int /*index*/, float /*weight*/) const {
  throw std::logic_error("layer '" + Kind() + "' has no coverage neurons");
}

void Layer::CheckParamGrads(const std::vector<Tensor>* param_grads,
                            const char* who) const {
  if (param_grads == nullptr) {
    return;  // Input-gradient only: every parameter's work is skipped.
  }
  const size_t expected = Params().size();
  if (param_grads->size() != expected) {
    throw std::invalid_argument(std::string(who) + ": expected " +
                                std::to_string(expected) +
                                " param grad tensors, got " +
                                std::to_string(param_grads->size()));
  }
}

// ---- BatchTrace --------------------------------------------------------------------------

Tensor BatchTrace::SampleOutput(int layer, int index) const {
  return SliceSample(outputs[static_cast<size_t>(layer)], index);
}

// ---- Model -------------------------------------------------------------------------------

Model::Model(std::string name, Shape input_shape)
    : name_(std::move(name)), input_shape_(std::move(input_shape)) {
  if (NumElements(input_shape_) <= 0) {
    throw std::invalid_argument("Model: input shape must have elements");
  }
}

Model::Model(Model&& other) noexcept
    : name_(std::move(other.name_)),
      input_shape_(std::move(other.input_shape_)),
      layers_(std::move(other.layers_)),
      layer_shapes_(std::move(other.layer_shapes_)),
      forward_passes_(other.forward_passes_.load(std::memory_order_relaxed)) {}

Model& Model::operator=(Model&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    input_shape_ = std::move(other.input_shape_);
    layers_ = std::move(other.layers_);
    layer_shapes_ = std::move(other.layer_shapes_);
    forward_passes_.store(other.forward_passes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  return *this;
}

void Model::Add(std::unique_ptr<Layer> layer) {
  const Shape& in = layers_.empty() ? input_shape_ : layer_shapes_.back();
  layer_shapes_.push_back(layer->OutputShape(in));  // Throws on incompatibility.
  layers_.push_back(std::move(layer));
}

const Shape& Model::output_shape() const {
  if (layer_shapes_.empty()) {
    throw std::logic_error("Model::output_shape: model has no layers");
  }
  return layer_shapes_.back();
}

ForwardTrace Model::Forward(const Tensor& input, bool training, Rng* rng) const {
  if (input.shape() != input_shape_) {
    throw std::invalid_argument("Model::Forward: input shape " +
                                ShapeToString(input.shape()) + " != expected " +
                                ShapeToString(input_shape_));
  }
  ForwardTrace trace;
  trace.input = input;
  trace.outputs.reserve(layers_.size());
  trace.aux.resize(layers_.size());
  const Tensor* cur = &trace.input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    trace.outputs.push_back(layers_[l]->Forward(*cur, training, rng, &trace.aux[l]));
    cur = &trace.outputs.back();
  }
  forward_passes_.fetch_add(1, std::memory_order_relaxed);
  return trace;
}

Tensor Model::Predict(const Tensor& input) const { return Forward(input).Output(); }

int Model::PredictClass(const Tensor& input) const {
  return static_cast<int>(Predict(input).Argmax());
}

float Model::PredictScalar(const Tensor& input) const { return Predict(input)[0]; }

Tensor Model::BackwardInput(const ForwardTrace& trace, int from_layer, Tensor seed) const {
  return BackwardParams(trace, from_layer, std::move(seed), nullptr);
}

Tensor Model::BackwardParams(const ForwardTrace& trace, int from_layer, Tensor seed,
                             std::vector<Tensor>* param_grads) const {
  if (from_layer < 0 || from_layer >= num_layers()) {
    throw std::out_of_range("Model::BackwardParams: bad from_layer");
  }
  if (seed.shape() != trace.outputs[static_cast<size_t>(from_layer)].shape()) {
    throw std::invalid_argument("Model::BackwardParams: seed shape mismatch at layer " +
                                std::to_string(from_layer));
  }
  const auto slices = param_grads != nullptr ? ParamSlices() : std::vector<std::pair<int, int>>{};
  Tensor grad = std::move(seed);
  for (int l = from_layer; l >= 0; --l) {
    std::vector<Tensor>* layer_grads = nullptr;
    std::vector<Tensor> view;
    if (param_grads != nullptr && slices[static_cast<size_t>(l)].second > 0) {
      // Move the layer's grad tensors out of the flat vector, hand them to the
      // layer, then move them back (avoids copies; tensors are value types).
      const auto [offset, count] = slices[static_cast<size_t>(l)];
      view.reserve(static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        view.push_back(std::move((*param_grads)[static_cast<size_t>(offset + i)]));
      }
      layer_grads = &view;
    }
    grad = layers_[static_cast<size_t>(l)]->Backward(
        trace.LayerInput(l), trace.outputs[static_cast<size_t>(l)], grad,
        trace.aux[static_cast<size_t>(l)], layer_grads);
    if (layer_grads != nullptr) {
      const auto [offset, count] = slices[static_cast<size_t>(l)];
      for (int i = 0; i < count; ++i) {
        (*param_grads)[static_cast<size_t>(offset + i)] = std::move(view[static_cast<size_t>(i)]);
      }
    }
  }
  return grad;
}

std::vector<Tensor*> Model::MutableParams() {
  std::vector<Tensor*> params;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->MutableParams()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<const Tensor*> Model::Params() const {
  std::vector<const Tensor*> params;
  for (const auto& layer : layers_) {
    for (const Tensor* p : layer->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

int64_t Model::NumParams() const {
  int64_t n = 0;
  for (const Tensor* p : Params()) {
    n += p->numel();
  }
  return n;
}

std::vector<Tensor> Model::InitParamGrads() const {
  std::vector<Tensor> grads;
  for (const Tensor* p : Params()) {
    grads.emplace_back(p->shape());
  }
  return grads;
}

std::vector<std::pair<int, int>> Model::ParamSlices() const {
  std::vector<std::pair<int, int>> slices;
  slices.reserve(layers_.size());
  int offset = 0;
  for (const auto& layer : layers_) {
    const int count = static_cast<int>(layer->Params().size());
    slices.emplace_back(offset, count);
    offset += count;
  }
  return slices;
}

int Model::TotalNeurons() const {
  int n = 0;
  for (const auto& layer : layers_) {
    n += layer->NumNeurons();
  }
  return n;
}

std::string Model::Summary() const {
  std::ostringstream out;
  out << "Model '" << name_ << "' input " << ShapeToString(input_shape_) << ", "
      << NumParams() << " params, " << TotalNeurons() << " neurons\n";
  for (size_t l = 0; l < layers_.size(); ++l) {
    out << "  [" << l << "] " << layers_[l]->Describe() << " -> "
        << ShapeToString(layer_shapes_[l]) << "\n";
  }
  return out.str();
}

// ---- Serialization -----------------------------------------------------------------------

namespace {

constexpr uint32_t kModelMagic = 0x44585031;  // "DXP1"

std::unique_ptr<Layer> MakeLayer(const std::string& kind, BinaryReader& reader) {
  if (kind == "dense") {
    const int in = static_cast<int>(reader.ReadI64());
    const int out = static_cast<int>(reader.ReadI64());
    const Activation act = ActivationFromName(reader.ReadString());
    return std::make_unique<Dense>(in, out, act);
  }
  if (kind == "conv2d") {
    const int in_ch = static_cast<int>(reader.ReadI64());
    const int out_ch = static_cast<int>(reader.ReadI64());
    const int kh = static_cast<int>(reader.ReadI64());
    const int kw = static_cast<int>(reader.ReadI64());
    const int stride = static_cast<int>(reader.ReadI64());
    const int padding = static_cast<int>(reader.ReadI64());
    const Activation act = ActivationFromName(reader.ReadString());
    return std::make_unique<Conv2D>(in_ch, out_ch, kh, kw, stride, padding, act);
  }
  if (kind == "pool2d") {
    const PoolMode mode = static_cast<PoolMode>(reader.ReadI64());
    const int kernel = static_cast<int>(reader.ReadI64());
    const int stride = static_cast<int>(reader.ReadI64());
    return std::make_unique<Pool2D>(mode, kernel, stride);
  }
  if (kind == "batchnorm") {
    const int features = static_cast<int>(reader.ReadI64());
    const float eps = reader.ReadF32();
    const bool calibrated = reader.ReadI64() != 0;
    auto bn = std::make_unique<BatchNorm>(features, eps);
    if (calibrated) {
      // Statistics arrive with the parameter payload; mark as calibrated via
      // SetStatistics with placeholders that the payload then overwrites.
      bn->SetStatistics(std::vector<float>(static_cast<size_t>(features), 0.0f),
                        std::vector<float>(static_cast<size_t>(features), 1.0f));
    }
    return bn;
  }
  if (kind == "residual") {
    const int in_ch = static_cast<int>(reader.ReadI64());
    const int out_ch = static_cast<int>(reader.ReadI64());
    const int stride = static_cast<int>(reader.ReadI64());
    return std::make_unique<ResidualBlock>(in_ch, out_ch, stride);
  }
  if (kind == "dropout") {
    return std::make_unique<Dropout>(reader.ReadF32());
  }
  if (kind == "flatten") {
    return std::make_unique<Flatten>();
  }
  if (kind == "softmax") {
    return std::make_unique<SoftmaxLayer>();
  }
  throw std::runtime_error("Model::Deserialize: unknown layer kind '" + kind + "'");
}

}  // namespace

std::string Model::Serialize() const {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  writer.WriteU32(kModelMagic);
  writer.WriteString(name_);
  writer.WriteInts(input_shape_);
  writer.WriteU64(layers_.size());
  for (const auto& layer : layers_) {
    writer.WriteString(layer->Kind());
    layer->SerializeConfig(writer);
    const auto params = layer->Params();
    writer.WriteU64(params.size());
    for (const Tensor* p : params) {
      writer.WriteInts(p->shape());
      writer.WriteFloats(p->values());
    }
  }
  return out.str();
}

Model Model::Deserialize(const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  BinaryReader reader(in);
  if (reader.ReadU32() != kModelMagic) {
    throw std::runtime_error("Model::Deserialize: bad magic");
  }
  const std::string name = reader.ReadString();
  const std::vector<int> input_shape = reader.ReadInts();
  Model model(name, input_shape);
  const uint64_t num_layers = reader.ReadU64();
  for (uint64_t l = 0; l < num_layers; ++l) {
    const std::string kind = reader.ReadString();
    auto layer = MakeLayer(kind, reader);
    const uint64_t num_params = reader.ReadU64();
    auto params = layer->MutableParams();
    if (num_params != params.size()) {
      throw std::runtime_error("Model::Deserialize: param count mismatch for " + kind);
    }
    for (size_t i = 0; i < params.size(); ++i) {
      const std::vector<int> shape = reader.ReadInts();
      std::vector<float> values = reader.ReadFloats();
      // The layer's kernels index its parameters by the constructed shape.
      if (shape != params[i]->shape()) {
        throw std::runtime_error("Model::Deserialize: layer " + std::to_string(l) + " (" +
                                 kind + ") param " + std::to_string(i) + " has shape " +
                                 ShapeToString(shape) + ", expected " +
                                 ShapeToString(params[i]->shape()));
      }
      *params[i] = Tensor(shape, std::move(values));
    }
    model.Add(std::move(layer));
  }
  return model;
}

}  // namespace dx
