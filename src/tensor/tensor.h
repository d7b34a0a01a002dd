// A dense, row-major, float32 N-dimensional tensor with value semantics.
//
// This is the numeric substrate for the neural-network library. Shapes use
// `int` extents (all tensors in this project are far below 2^31 elements per
// dimension); total element counts use int64_t. Dimension-mismatch and
// out-of-range errors throw std::invalid_argument / std::out_of_range.
#ifndef DX_SRC_TENSOR_TENSOR_H_
#define DX_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace dx {

class Rng;

using Shape = std::vector<int>;

// Number of elements implied by a shape (1 for the empty shape). Throws
// std::invalid_argument on a negative dimension or a product past int64.
int64_t NumElements(const Shape& shape);
// Human-readable "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  // An empty (0-dim, 1-element is NOT the same; this has no elements) tensor.
  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill_value);
  // Takes ownership of `values`; values.size() must equal NumElements(shape).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor Full(Shape shape, float value) { return Tensor(std::move(shape), value); }
  // I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
  // I.i.d. Uniform[lo, hi) entries.
  static Tensor RandUniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int dim(int axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& values() { return data_; }
  const std::vector<float>& values() const { return data_; }

  // Flat element access with bounds checking.
  float& at(int64_t flat_index);
  float at(int64_t flat_index) const;
  // Unchecked flat access for hot loops.
  float& operator[](int64_t flat_index) { return data_[static_cast<size_t>(flat_index)]; }
  float operator[](int64_t flat_index) const { return data_[static_cast<size_t>(flat_index)]; }

  // Multi-dimensional access (checked).
  float& at(const std::vector<int>& indices);
  float at(const std::vector<int>& indices) const;

  // Returns a tensor with the same data and a new shape; element counts must
  // match. A dimension of -1 is inferred (at most one). The rvalue overload
  // moves the data vector instead of deep-copying it, so chains like
  // `std::move(t).Reshape(...)` (e.g. flattening a freshly built batch) are
  // allocation-free.
  Tensor Reshape(Shape new_shape) const&;
  Tensor Reshape(Shape new_shape) &&;

  // Re-shapes this tensor in place, reusing its storage. Growing beyond the
  // current size zero-fills the new elements; within the reserved capacity
  // no heap allocation happens. Existing elements keep their values.
  void ResizeInPlace(Shape new_shape);
  // Changes only the leading (batch) dimension in place — unlike
  // ResizeInPlace this never constructs a Shape, so it is allocation-free
  // even when the extent changes (the execution plan's width-adjust path).
  // Requires ndim() >= 1.
  void SetBatchDim(int batch);
  // Current element capacity of the underlying storage.
  int64_t Capacity() const { return static_cast<int64_t>(data_.capacity()); }

  // In-place mutators (return *this for chaining).
  Tensor& Fill(float value);
  Tensor& AddInPlace(const Tensor& other);
  Tensor& SubInPlace(const Tensor& other);
  Tensor& MulInPlace(const Tensor& other);
  Tensor& Scale(float factor);
  Tensor& AddScalar(float value);
  Tensor& ClampInPlace(float lo, float hi);
  // this += factor * other (axpy).
  Tensor& Axpy(float factor, const Tensor& other);

  // Reductions.
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  int64_t Argmax() const;
  // L1 and L2 norms of the flattened tensor.
  float L1Norm() const;
  float L2Norm() const;

  std::string ToString(int max_elements = 16) const;

 private:
  void CheckSameShape(const Tensor& other, const char* op) const;

  Shape shape_;
  std::vector<float> data_;
};

// ---- Non-owning views --------------------------------------------------------------------
//
// A view is a raw data pointer plus a *borrowed* shape: trivially copyable,
// never allocating — the currency of zero-allocation hot paths (the batched
// executor reads per-sample slices of trace slabs through views instead of
// copying them out as Tensors). Both the viewed data and the Shape object
// must outlive the view; views of a Tensor are invalidated by anything that
// reallocates or reshapes it.

class ConstTensorView {
 public:
  ConstTensorView() = default;
  // Views `numel` contiguous floats at `data`, described by `shape` (which
  // must stay alive; `numel` must equal NumElements(*shape)).
  ConstTensorView(const float* data, const Shape* shape, int64_t numel)
      : data_(data), shape_(shape), numel_(numel) {}
  // View of a whole tensor.
  explicit ConstTensorView(const Tensor& t)
      : data_(t.data()), shape_(&t.shape()), numel_(t.numel()) {}

  const Shape& shape() const { return *shape_; }
  int ndim() const { return static_cast<int>(shape_->size()); }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  const float* data() const { return data_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + numel_; }

  float operator[](int64_t flat_index) const {
    return data_[static_cast<size_t>(flat_index)];
  }

  // Index of the largest element (first on ties), matching Tensor::Argmax.
  int64_t Argmax() const;
  float Sum() const;  // Double-accumulated, matching Tensor::Sum.

 private:
  const float* data_ = nullptr;
  const Shape* shape_ = nullptr;
  int64_t numel_ = 0;
};

class TensorView {
 public:
  TensorView() = default;
  TensorView(float* data, const Shape* shape, int64_t numel)
      : data_(data), shape_(shape), numel_(numel) {}
  explicit TensorView(Tensor& t) : data_(t.data()), shape_(&t.shape()), numel_(t.numel()) {}

  const Shape& shape() const { return *shape_; }
  int ndim() const { return static_cast<int>(shape_->size()); }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  float* data() const { return data_; }

  float& operator[](int64_t flat_index) const {
    return data_[static_cast<size_t>(flat_index)];
  }

  void Fill(float value) const;

  operator ConstTensorView() const { return {data_, shape_, numel_}; }

 private:
  float* data_ = nullptr;
  const Shape* shape_ = nullptr;
  int64_t numel_ = 0;
};

}  // namespace dx

#endif  // DX_SRC_TENSOR_TENSOR_H_
