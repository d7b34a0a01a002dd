#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/rng.h"

namespace dx {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (const int d : shape) {
    if (d < 0) {
      throw std::invalid_argument("negative dimension in shape " + ShapeToString(shape));
    }
    if (__builtin_mul_overflow(n, d, &n)) {
      throw std::invalid_argument("shape " + ShapeToString(shape) + " overflows int64");
    }
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(NumElements(shape_)), 0.0f);
}

Tensor::Tensor(Shape shape, float fill_value) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(NumElements(shape_)), fill_value);
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<int64_t>(data_.size()) != NumElements(shape_)) {
    throw std::invalid_argument("value count " + std::to_string(data_.size()) +
                                " does not match shape " + ShapeToString(shape_));
  }
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

int Tensor::dim(int axis) const {
  if (axis < 0 || axis >= ndim()) {
    throw std::out_of_range("axis " + std::to_string(axis) + " out of range for shape " +
                            ShapeToString(shape_));
  }
  return shape_[static_cast<size_t>(axis)];
}

float& Tensor::at(int64_t flat_index) {
  if (flat_index < 0 || flat_index >= numel()) {
    throw std::out_of_range("flat index " + std::to_string(flat_index) + " out of range");
  }
  return data_[static_cast<size_t>(flat_index)];
}

float Tensor::at(int64_t flat_index) const {
  return const_cast<Tensor*>(this)->at(flat_index);
}

float& Tensor::at(const std::vector<int>& indices) {
  if (static_cast<int>(indices.size()) != ndim()) {
    throw std::invalid_argument("index rank mismatch");
  }
  int64_t flat = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] < 0 || indices[i] >= shape_[i]) {
      throw std::out_of_range("index out of range at axis " + std::to_string(i));
    }
    flat = flat * shape_[i] + indices[i];
  }
  return data_[static_cast<size_t>(flat)];
}

float Tensor::at(const std::vector<int>& indices) const {
  return const_cast<Tensor*>(this)->at(indices);
}

namespace {

// Resolves an at-most-one -1 dimension against `numel` and validates the
// element count; shared by both Reshape overloads.
Shape ResolveReshape(Shape new_shape, const Shape& old_shape, int64_t numel) {
  int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (infer_axis != -1) {
        throw std::invalid_argument("at most one -1 dimension allowed in Reshape");
      }
      infer_axis = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    if (known == 0 || numel % known != 0) {
      throw std::invalid_argument("cannot infer dimension in Reshape");
    }
    new_shape[static_cast<size_t>(infer_axis)] = static_cast<int>(numel / known);
  }
  if (NumElements(new_shape) != numel) {
    throw std::invalid_argument("Reshape from " + ShapeToString(old_shape) + " to " +
                                ShapeToString(new_shape) + " changes element count");
  }
  return new_shape;
}

}  // namespace

Tensor Tensor::Reshape(Shape new_shape) const& {
  return Tensor(ResolveReshape(std::move(new_shape), shape_, numel()), data_);
}

Tensor Tensor::Reshape(Shape new_shape) && {
  // Resolve BEFORE moving the data out (argument evaluation order is
  // unspecified, and ResolveReshape reads numel()).
  Shape resolved = ResolveReshape(std::move(new_shape), shape_, numel());
  return Tensor(std::move(resolved), std::move(data_));
}

void Tensor::ResizeInPlace(Shape new_shape) {
  const int64_t n = NumElements(new_shape);
  shape_ = std::move(new_shape);
  data_.resize(static_cast<size_t>(n));
}

void Tensor::SetBatchDim(int batch) {
  if (shape_.empty()) {
    throw std::logic_error("SetBatchDim: tensor has no batch dimension");
  }
  if (batch < 0) {
    throw std::invalid_argument("SetBatchDim: negative batch");
  }
  int64_t stride = 1;
  for (size_t i = 1; i < shape_.size(); ++i) {
    stride *= shape_[i];
  }
  shape_[0] = batch;
  data_.resize(static_cast<size_t>(stride * batch));
}

Tensor& Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

void Tensor::CheckSameShape(const Tensor& other, const char* op) const {
  if (shape_ != other.shape_) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                ShapeToString(shape_) + " vs " + ShapeToString(other.shape_));
  }
}

Tensor& Tensor::AddInPlace(const Tensor& other) {
  CheckSameShape(other, "AddInPlace");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Tensor& Tensor::SubInPlace(const Tensor& other) {
  CheckSameShape(other, "SubInPlace");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::MulInPlace(const Tensor& other) {
  CheckSameShape(other, "MulInPlace");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] *= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::Scale(float factor) {
  for (auto& v : data_) {
    v *= factor;
  }
  return *this;
}

Tensor& Tensor::AddScalar(float value) {
  for (auto& v : data_) {
    v += value;
  }
  return *this;
}

Tensor& Tensor::ClampInPlace(float lo, float hi) {
  for (auto& v : data_) {
    v = std::clamp(v, lo, hi);
  }
  return *this;
}

Tensor& Tensor::Axpy(float factor, const Tensor& other) {
  CheckSameShape(other, "Axpy");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
  return *this;
}

float Tensor::Sum() const {
  // Accumulate in double: reductions feed coverage statistics where drift matters.
  double sum = 0.0;
  for (const float v : data_) {
    sum += v;
  }
  return static_cast<float>(sum);
}

float Tensor::Mean() const {
  if (data_.empty()) {
    throw std::invalid_argument("Mean of empty tensor");
  }
  return Sum() / static_cast<float>(data_.size());
}

float Tensor::Min() const {
  if (data_.empty()) {
    throw std::invalid_argument("Min of empty tensor");
  }
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  if (data_.empty()) {
    throw std::invalid_argument("Max of empty tensor");
  }
  return *std::max_element(data_.begin(), data_.end());
}

int64_t Tensor::Argmax() const {
  if (data_.empty()) {
    throw std::invalid_argument("Argmax of empty tensor");
  }
  return std::distance(data_.begin(), std::max_element(data_.begin(), data_.end()));
}

float Tensor::L1Norm() const {
  double sum = 0.0;
  for (const float v : data_) {
    sum += std::abs(v);
  }
  return static_cast<float>(sum);
}

float Tensor::L2Norm() const {
  double sum = 0.0;
  for (const float v : data_) {
    sum += static_cast<double>(v) * v;
  }
  return static_cast<float>(std::sqrt(sum));
}

int64_t ConstTensorView::Argmax() const {
  if (numel_ == 0) {
    throw std::invalid_argument("Argmax of empty view");
  }
  return std::distance(data_, std::max_element(data_, data_ + numel_));
}

float ConstTensorView::Sum() const {
  double sum = 0.0;
  for (int64_t i = 0; i < numel_; ++i) {
    sum += data_[static_cast<size_t>(i)];
  }
  return static_cast<float>(sum);
}

void TensorView::Fill(float value) const {
  std::fill(data_, data_ + numel_, value);
}

std::string Tensor::ToString(int max_elements) const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min<int64_t>(numel(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << data_[static_cast<size_t>(i)];
  }
  if (numel() > n) {
    out << ", ...";
  }
  out << "}";
  return out.str();
}

}  // namespace dx
