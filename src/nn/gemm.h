// Tiled float32 GEMM microkernel + im2col/col2im, the shared compute core of
// the Conv2D and Dense ExecutionPlan forward AND backward paths.
//
// Forward:  conv y = GemmBias(W, Im2Col(x), bias), one output channel per
// row; dense y = GemmColumnBias(x, W^T, bias), batch-major, one sample per
// row and one output feature per column.
// Backward: grad-input is the transposed-weight GEMM — dense writes
// GemmBias(grad_pre, W) straight into the gradient buffer; conv GEMMs
// W^T · grad_pre into a column matrix and Col2Im scatter-accumulates it back
// into image geometry. Grad-weight (when a caller asks for parameter
// gradients) is the GEMM of grad_pre against the im2col patches.
//
// Numerics contract: every output element is computed as
//
//   C[m,n] = fma(A[m,K-1], B[K-1,n], ... fma(A[m,1], B[1,n],
//                fma(A[m,0], B[0,n], bias[m])) ...)
//
// i.e. a fused multiply-add chain over ascending k starting from the bias
// (bias[n] instead of bias[m] for GemmColumnBias).
// The microkernel vectorizes over n (independent output columns) and unrolls
// over m (independent output rows) but NEVER splits or reorders the k
// accumulation, and intra-op threading partitions only over m — so results
// are bit-identical at any SIMD width (src/tensor/simd.h), any thread count,
// and any n (callers may grow or shrink the batch dimension freely). They are
// NOT bit-identical to the per-sample scalar kernels, which accumulate in a
// different order; tests compare the two within ULP/abs tolerances.
#ifndef DX_SRC_NN_GEMM_H_
#define DX_SRC_NN_GEMM_H_

#include <cstdint>

namespace dx {

// C[m, n] = bias[m] + sum_k A[m, k] * B[k, n] for m in [0, M), n in [0, N).
// A is [M, K] with row stride lda, B is [K, N] with row stride ldb, C is
// [M, N] with row stride ldc. bias may be null (treated as zeros). When the
// product is large and the calling thread is not already inside a
// ParallelFor region, row blocks are fanned out over the global ThreadPool;
// the call performs no heap allocation either way.
void GemmBias(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, const float* bias, float* C, int ldc);

// C[m, n] = bias[n] + sum_k A[m, k] * B[k, n]: GemmBias with one bias per
// column. Dense forward runs it as x[batch, in] · W^T[in, out], so each
// output is fma(x[b, i], W^T[i, o], ·) over ascending i from bias[o] — the
// chain GemmBias(W, x^T, bias) computes, since fma's two factors commute.
// Every M, 1 included, runs the register tiles.
void GemmColumnBias(int M, int N, int K, const float* A, int lda, const float* B,
                    int ldb, const float* bias, float* C, int ldc);

// Unpacks one CHW sample into the [channels * kernel_h * kernel_w,
// out_h * out_w] patch matrix GemmBias consumes as B: row (c, ky, kx),
// column (oy, ox) holds x[c, oy*stride - padding + ky, ox*stride - padding
// + kx], or 0 where the index falls in the zero-padding border. `col` must
// have room for the full matrix.
void Im2Col(const float* x, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* col);

// The adjoint of Im2Col: zero-fills the CHW image `x` (channels * in_h *
// in_w floats) and scatter-accumulates the [channels * kernel_h * kernel_w,
// out_h * out_w] column matrix back into it — col row (c, ky, kx), column
// (oy, ox) adds into x[c, oy*stride - padding + ky, ox*stride - padding +
// kx]; contributions that fall in the padding border are dropped. Each image
// element accumulates its (possibly overlapping) patch contributions in the
// fixed ascending (c, ky, kx, oy, ox) order, so the result is deterministic
// and independent of SIMD backend, batch width, and thread count (callers
// parallelize only across samples, never inside one Col2Im).
void Col2Im(const float* col, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* x);

// out[j, i] = in[i, j] for a row-major [rows, cols] matrix (pure data
// movement — bit-exact by construction). Shared scratch step of the
// GEMMs: W^T for dense forward and conv grad-input, grad_pre^T / im2col^T
// for the grad-weight reductions.
void TransposeMatrix(const float* in, int rows, int cols, float* out);

}  // namespace dx

#endif  // DX_SRC_NN_GEMM_H_
