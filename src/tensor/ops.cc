#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dx {
namespace {

void CheckMatrix(const Tensor& t, const char* name) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string(name) + " must be 2-D, got " +
                                ShapeToString(t.shape()));
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.SubInPlace(b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.MulInPlace(b);
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckMatrix(a, "MatMul lhs");
  CheckMatrix(b, "MatMul rhs");
  const int m = a.dim(0);
  const int k = a.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("MatMul inner dimension mismatch: " +
                                ShapeToString(a.shape()) + " x " + ShapeToString(b.shape()));
  }
  const int n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // i-k-j loop order: unit-stride inner loop over both B and C rows.
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = pa[static_cast<size_t>(i) * k + kk];
      if (aik == 0.0f) {
        continue;
      }
      const float* b_row = pb + static_cast<size_t>(kk) * n;
      float* c_row = pc + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += aik * b_row[j];
      }
    }
  }
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  CheckMatrix(a, "MatMulTransposeA lhs");
  CheckMatrix(b, "MatMulTransposeA rhs");
  const int k = a.dim(0);
  const int m = a.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("MatMulTransposeA inner dimension mismatch");
  }
  const int n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int kk = 0; kk < k; ++kk) {
    const float* a_row = pa + static_cast<size_t>(kk) * m;
    const float* b_row = pb + static_cast<size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float aki = a_row[i];
      if (aki == 0.0f) {
        continue;
      }
      float* c_row = pc + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += aki * b_row[j];
      }
    }
  }
  return c;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  CheckMatrix(a, "MatMulTransposeB lhs");
  CheckMatrix(b, "MatMulTransposeB rhs");
  const int m = a.dim(0);
  const int k = a.dim(1);
  if (b.dim(1) != k) {
    throw std::invalid_argument("MatMulTransposeB inner dimension mismatch");
  }
  const int n = b.dim(0);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    const float* a_row = pa + static_cast<size_t>(i) * k;
    float* c_row = pc + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* b_row = pb + static_cast<size_t>(j) * k;
      double dot = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        dot += static_cast<double>(a_row[kk]) * b_row[kk];
      }
      c_row[j] = static_cast<float>(dot);
    }
  }
  return c;
}

void SoftmaxRowsInPlace(float* p, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = p + static_cast<size_t>(r) * cols;
    float max_v = row[0];
    for (int c = 1; c < cols; ++c) {
      max_v = std::max(max_v, row[c]);
    }
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int c = 0; c < cols; ++c) {
      row[c] *= inv;
    }
  }
}

Tensor Softmax(const Tensor& logits) {
  if (logits.ndim() != 1 && logits.ndim() != 2) {
    throw std::invalid_argument("Softmax expects 1-D or 2-D input, got " +
                                ShapeToString(logits.shape()));
  }
  const int rows = logits.ndim() == 2 ? logits.dim(0) : 1;
  const int cols = logits.ndim() == 2 ? logits.dim(1) : logits.dim(0);
  Tensor out = logits;
  SoftmaxRowsInPlace(out.data(), rows, cols);
  return out;
}

Tensor OneHot(int index, int num_classes) {
  if (index < 0 || index >= num_classes) {
    throw std::out_of_range("OneHot index out of range");
  }
  Tensor t({num_classes});
  t[index] = 1.0f;
  return t;
}

Shape BatchedShape(int batch, const Shape& sample) {
  if (batch < 1) {
    throw std::invalid_argument("BatchedShape: batch must be >= 1");
  }
  Shape shape;
  shape.reserve(sample.size() + 1);
  shape.push_back(batch);
  shape.insert(shape.end(), sample.begin(), sample.end());
  return shape;
}

Shape SampleShape(const Shape& batched) {
  if (batched.empty()) {
    throw std::invalid_argument("SampleShape: tensor has no batch dimension");
  }
  return Shape(batched.begin() + 1, batched.end());
}

Tensor SliceSample(const Tensor& batched, int index) {
  const Shape sample_shape = SampleShape(batched.shape());
  const int64_t stride = NumElements(sample_shape);
  if (index < 0 || index >= batched.dim(0)) {
    throw std::out_of_range("SliceSample: index out of range");
  }
  const float* src = batched.data() + static_cast<size_t>(index) * stride;
  return Tensor(sample_shape, std::vector<float>(src, src + stride));
}

void CopySampleInto(Tensor* batched, int index, const Tensor& sample) {
  const Shape sample_shape = SampleShape(batched->shape());
  if (sample.shape() != sample_shape) {
    throw std::invalid_argument("CopySampleInto: sample shape " +
                                ShapeToString(sample.shape()) + " != slot shape " +
                                ShapeToString(sample_shape));
  }
  if (index < 0 || index >= batched->dim(0)) {
    throw std::out_of_range("CopySampleInto: index out of range");
  }
  const int64_t stride = sample.numel();
  std::copy(sample.data(), sample.data() + stride,
            batched->data() + static_cast<size_t>(index) * stride);
}

Tensor StackSamples(const std::vector<const Tensor*>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument("StackSamples: need at least one sample");
  }
  Tensor out(BatchedShape(static_cast<int>(samples.size()), samples[0]->shape()));
  for (size_t i = 0; i < samples.size(); ++i) {
    CopySampleInto(&out, static_cast<int>(i), *samples[i]);
  }
  return out;
}

std::vector<const Tensor*> SamplePointers(const std::vector<Tensor>& samples) {
  std::vector<const Tensor*> pointers;
  pointers.reserve(samples.size());
  for (const Tensor& sample : samples) {
    pointers.push_back(&sample);
  }
  return pointers;
}

float L1Distance(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("L1Distance shape mismatch");
  }
  double sum = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    sum += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return static_cast<float>(sum);
}

}  // namespace dx
