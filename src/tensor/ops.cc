#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dx {

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
