// Free-function tensor operations: elementwise arithmetic, matrix products,
// row softmax, and one-hot encoding. Matrix products come in the transpose
// variants needed by dense-layer backprop so no explicit transpose copies are
// made in the hot path.
#ifndef DX_SRC_TENSOR_OPS_H_
#define DX_SRC_TENSOR_OPS_H_

#include "src/tensor/tensor.h"

namespace dx {

// Elementwise; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// C[m,n] = A^T[m,k] * B[k,n] where A is stored as [k,m].
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
// C[m,n] = A[m,k] * B^T[k,n] where B is stored as [n,k].
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

// Numerically stable softmax over the last axis of a 1-D or 2-D tensor.
Tensor Softmax(const Tensor& logits);
// In-place building block of Softmax: stable row-wise softmax over a raw
// [rows, cols] buffer (same operation order, so results are bit-identical).
void SoftmaxRowsInPlace(float* p, int rows, int cols);

// One-hot row vector of length `num_classes`.
Tensor OneHot(int index, int num_classes);

// Sum of |a[i] - b[i]| (the paper's L1 diversity measure, Table 5).
float L1Distance(const Tensor& a, const Tensor& b);

// ---- Batch layout helpers ----------------------------------------------------------------
//
// A "batched" tensor prepends a leading batch dimension B to a per-sample
// shape: [B, ...sample]. Samples are stored contiguously, so sample b is the
// flat range [b * numel(sample), (b + 1) * numel(sample)).

// [batch, ...sample]; batch must be >= 1.
Shape BatchedShape(int batch, const Shape& sample);
// Drops the leading batch dimension; throws on a 0-dim tensor shape.
Shape SampleShape(const Shape& batched);

// Copies sample `index` out of a batched tensor.
Tensor SliceSample(const Tensor& batched, int index);
// Copies `sample` into slot `index` of a batched tensor (shapes must agree).
void CopySampleInto(Tensor* batched, int index, const Tensor& sample);
// Stacks equal-shaped samples into one [N, ...sample] tensor.
Tensor StackSamples(const std::vector<const Tensor*>& samples);
// Pointers to each tensor of `samples`, in order (the sample lists that
// StackSamples and ExecutionPlan::ForwardChunks take).
std::vector<const Tensor*> SamplePointers(const std::vector<Tensor>& samples);

}  // namespace dx

#endif  // DX_SRC_TENSOR_OPS_H_
