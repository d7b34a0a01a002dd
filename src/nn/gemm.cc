#include "src/nn/gemm.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/simd.h"
#include "src/util/thread_pool.h"

namespace dx {
namespace {

using simd::VecF;

// Register-blocking factors. kMR independent rows give the FMA units
// independent dependency chains (the k-loop of a single row is serial by
// contract); kNR = 2 vectors of columns amortizes each A broadcast over two
// FMAs. With AVX2 (8 lanes) this is the classic 4x16 microkernel holding 8
// accumulator registers (TileKernel<kMR, 2>; smaller row blocks take wider
// tiles, see TileKernel).
constexpr int kMR = 4;
constexpr int kNR = 2 * simd::kLanes;

// Work (in FMAs) below which fanning a GEMM out to the pool costs more in
// wake-up latency than it saves; roughly a few hundred microseconds of
// scalar work.
constexpr int64_t kIntraOpMinWork = int64_t{1} << 20;

// Where each output element's FMA chain starts: bias[m] of its row (conv
// forward and the backward GEMMs), bias[n] of its column (dense forward,
// one bias per output feature), or +0 when bias is null. Only the start
// moves; the chain after it is the same ascending-k FMA chain either way.
// The kind of start is a type (RowStart, ColumnStart) the kernels are
// instantiated on, so choosing it costs them no branch: with a run-time
// flag the LeNet conv GEMMs ran 2-6% slower.
template <bool kPerColumn>
struct ChainStart {
  const float* bias;

  // Row m's start for the vector of columns n..n+kLanes-1.
  VecF Vec(int m, int n) const {
    if (bias == nullptr) {
      return VecF::Broadcast(0.0f);
    }
    if constexpr (kPerColumn) {
      return VecF::Load(bias + n);
    } else {
      return VecF::Broadcast(bias[m]);
    }
  }
  float At(int m, int n) const {
    return bias == nullptr ? 0.0f : bias[kPerColumn ? n : m];
  }
  // The starts of the block whose corner is (m0, n0).
  ChainStart Block(int m0, int n0) const {
    return {bias == nullptr ? nullptr : bias + (kPerColumn ? n0 : m0)};
  }
};
using RowStart = ChainStart<false>;
using ColumnStart = ChainStart<true>;

// One MR x (NV vectors) tile: each element is its chain start + an
// ascending-k FMA chain, the MR·NV chains independent. The full kMR x kNR
// tile is TileKernel<kMR, 2>. The last row block of every GEMM whose M is
// not a multiple of kMR has fewer rows; it takes more column vectors so the
// FMA unit still sees 4-8 independent chains instead of stalling on one
// chain's latency. Such blocks run in dense forward, whose M is the batch
// width (the executor's narrow chunks run 1-3 rows), in the batched
// backward's dense grad-input (M = the 2-3 active rows), in conv forward
// when the output channels are not a multiple of 4 (LeNet-4/5's first conv:
// M = 6), and in conv grad-input, whose M is the patch size (25 for a 5x5
// kernel on one channel, 150 on six).
template <int MR, int NV, typename Start>
void TileKernel(int K, const float* A, int lda, const float* B, int ldb, Start start,
                float* C, int ldc) {
  VecF acc[MR][NV];
  for (int m = 0; m < MR; ++m) {
    for (int v = 0; v < NV; ++v) {
      acc[m][v] = start.Vec(m, v * simd::kLanes);
    }
  }
  for (int k = 0; k < K; ++k) {
    const float* b_row = B + static_cast<size_t>(k) * ldb;
    VecF b[NV];
    for (int v = 0; v < NV; ++v) {
      b[v] = VecF::Load(b_row + v * simd::kLanes);
    }
    for (int m = 0; m < MR; ++m) {
      const VecF a = VecF::Broadcast(A[static_cast<size_t>(m) * lda + k]);
      for (int v = 0; v < NV; ++v) {
        acc[m][v] = VecF::Fma(a, b[v], acc[m][v]);
      }
    }
  }
  for (int m = 0; m < MR; ++m) {
    float* c_row = C + static_cast<size_t>(m) * ldc;
    for (int v = 0; v < NV; ++v) {
      acc[m][v].Store(c_row + v * simd::kLanes);
    }
  }
}

// TileKernel<MR, NV> over every whole tile of an MR-row block's N columns;
// returns the first column left for EdgeKernel.
template <int MR, int NV, typename Start>
int RunTiles(int N, int K, const float* A, int lda, const float* B, int ldb, Start start,
             float* C, int ldc) {
  constexpr int kWidth = NV * simd::kLanes;
  int n0 = 0;
  for (; n0 + kWidth <= N; n0 += kWidth) {
    TileKernel<MR, NV>(K, A, lda, B + n0, ldb, start.Block(0, n0), C + n0, ldc);
  }
  return n0;
}

// Any mr x nr remainder (mr <= kMR). Runs whole vectors while they fit,
// then single columns — every path is the same ascending-k FMA chain per
// element, so tile shape never changes a result. The rows' chains are
// interleaved inside one k-loop: each chain is serial by contract, but the
// (up to kMR) chains are independent, which keeps the FMA unit fed and
// shares each B load across rows. It serves the columns past the last
// whole tile: in dense forward, a layer's last output features (all of
// them for a two-class head, N == 1 for a one-output head).
template <typename Start>
void EdgeKernel(int mr, int nr, int K, const float* A, int lda, const float* B,
                int ldb, Start start, float* C, int ldc) {
  int n = 0;
  for (; n + simd::kLanes <= nr; n += simd::kLanes) {
    VecF acc[kMR];
    for (int m = 0; m < mr; ++m) {
      acc[m] = start.Vec(m, n);
    }
    for (int k = 0; k < K; ++k) {
      const VecF b = VecF::Load(B + static_cast<size_t>(k) * ldb + n);
      for (int m = 0; m < mr; ++m) {
        acc[m] = VecF::Fma(VecF::Broadcast(A[static_cast<size_t>(m) * lda + k]),
                           b, acc[m]);
      }
    }
    for (int m = 0; m < mr; ++m) {
      acc[m].Store(C + static_cast<size_t>(m) * ldc + n);
    }
  }
  for (; n < nr; ++n) {
    float acc[kMR];
    for (int m = 0; m < mr; ++m) {
      acc[m] = start.At(m, n);
    }
    const float* b_col = B + n;
    for (int k = 0; k < K; ++k) {
      const float b = b_col[static_cast<size_t>(k) * ldb];
      for (int m = 0; m < mr; ++m) {
        acc[m] = std::fma(A[static_cast<size_t>(m) * lda + k], b, acc[m]);
      }
    }
    for (int m = 0; m < mr; ++m) {
      C[static_cast<size_t>(m) * ldc + n] = acc[m];
    }
  }
}

// M == 1 (GEMV): the blocked kernels would walk B column-block by
// column-block — strided loads that waste half of every cache line. With k
// outermost, B streams row-major and the single C row stays hot in L1.
// Interchanging the loops does not touch the numerics: element C[n] still
// receives bias + an ascending-k chain of Fma(A[k], B[k][n], ·), the exact
// chain the blocked kernels produce. When C starts at +0 (bias == nullptr),
// rows with A[k] == 0 are skipped: a ±0 product added to +0 or to a nonzero
// running value cannot change it (and an exact nonzero cancellation rounds
// to +0 in round-to-nearest, so the accumulator is never -0), making the
// skip bit-invisible — on ReLU-masked gradient rows it drops about half the
// work. This is the dense grad-input shape at batch 1, i.e. the per-sample
// gradient-ascent inner loop.
void Gemv(int N, int K, const float* A, const float* B, int ldb,
          const float* bias, float* C) {
  const float b0 = bias != nullptr ? bias[0] : 0.0f;
  const bool skip_zeros = bias == nullptr;
  std::fill(C, C + N, b0);
  for (int k = 0; k < K; ++k) {
    const float a = A[k];
    if (skip_zeros && a == 0.0f) {
      continue;
    }
    const float* b_row = B + static_cast<size_t>(k) * ldb;
    const VecF av = VecF::Broadcast(a);
    int n = 0;
    for (; n + simd::kLanes <= N; n += simd::kLanes) {
      VecF::Fma(av, VecF::Load(b_row + n), VecF::Load(C + n)).Store(C + n);
    }
    for (; n < N; ++n) {
      C[n] = std::fma(a, b_row[n], C[n]);
    }
  }
}

template <typename Start>
void GemmRows(int m_begin, int m_end, int N, int K, const float* A, int lda,
              const float* B, int ldb, Start start, float* C, int ldc) {
  for (int m0 = m_begin; m0 < m_end; m0 += kMR) {
    const int mr = std::min(kMR, m_end - m0);
    const float* a_blk = A + static_cast<size_t>(m0) * lda;
    const Start start_blk = start.Block(m0, 0);
    float* c_blk = C + static_cast<size_t>(m0) * ldc;
    int n0 = 0;
    switch (mr) {
      case kMR:
        n0 = RunTiles<kMR, kNR / simd::kLanes>(N, K, a_blk, lda, B, ldb, start_blk, c_blk, ldc);
        break;
      case 3:
        n0 = RunTiles<3, 2>(N, K, a_blk, lda, B, ldb, start_blk, c_blk, ldc);
        break;
      case 2:
        n0 = RunTiles<2, 4>(N, K, a_blk, lda, B, ldb, start_blk, c_blk, ldc);
        break;
      default:
        n0 = RunTiles<1, 4>(N, K, a_blk, lda, B, ldb, start_blk, c_blk, ldc);
        break;
    }
    if (n0 < N) {
      EdgeKernel(mr, N - n0, K, a_blk, lda, B + n0, ldb, start_blk.Block(0, n0),
                 c_blk + n0, ldc);
    }
  }
}

// The blocked GEMM under either chain start, fanned out over row blocks
// when the product is large enough to pay for it.
template <typename Start>
void Gemm(int M, int N, int K, const float* A, int lda, const float* B, int ldb,
          Start start, float* C, int ldc) {
  const int64_t work = static_cast<int64_t>(M) * N * K;
  if (work >= kIntraOpMinWork && M >= 2 * kMR && IntraOpParallelismAvailable()) {
    // Partition over row blocks only: each output element is still produced
    // by exactly one ascending-k chain, so the thread count cannot change a
    // bit of the result.
    const int threads = ThreadPool::Global().num_threads() + 1;
    const int max_blocks = (M + kMR - 1) / kMR;
    const int blocks = std::min(max_blocks, threads);
    const int rows_per_block = ((M + blocks - 1) / blocks + kMR - 1) / kMR * kMR;
    const int actual_blocks = (M + rows_per_block - 1) / rows_per_block;
    ParallelFor(actual_blocks, [&](int64_t blk) {
      const int m_begin = static_cast<int>(blk) * rows_per_block;
      const int m_end = std::min(M, m_begin + rows_per_block);
      GemmRows(m_begin, m_end, N, K, A, lda, B, ldb, start, C, ldc);
    });
  } else {
    GemmRows(0, M, N, K, A, lda, B, ldb, start, C, ldc);
  }
}

}  // namespace

void GemmBias(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, const float* bias, float* C, int ldc) {
  if (M <= 0 || N <= 0) {
    return;
  }
  if (M == 1) {
    Gemv(N, K, A, B, ldb, bias, C);
    return;
  }
  Gemm(M, N, K, A, lda, B, ldb, RowStart{bias}, C, ldc);
}

void GemmColumnBias(int M, int N, int K, const float* A, int lda, const float* B,
                    int ldb, const float* bias, float* C, int ldc) {
  if (M <= 0 || N <= 0) {
    return;
  }
  Gemm(M, N, K, A, lda, B, ldb, ColumnStart{bias}, C, ldc);
}

void Im2Col(const float* x, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* col) {
  const size_t n = static_cast<size_t>(out_h) * out_w;
  float* dst = col;  // Row (c, ky, kx) of the [C*KH*KW, OH*OW] matrix.
  for (int c = 0; c < channels; ++c) {
    const float* plane = x + static_cast<size_t>(c) * in_h * in_w;
    for (int ky = 0; ky < kernel_h; ++ky) {
      for (int kx = 0; kx < kernel_w; ++kx, dst += n) {
        for (int oy = 0; oy < out_h; ++oy) {
          float* out_row = dst + static_cast<size_t>(oy) * out_w;
          const int iy = oy * stride - padding + ky;
          if (iy < 0 || iy >= in_h) {
            std::fill(out_row, out_row + out_w, 0.0f);
            continue;
          }
          const float* in_row = plane + static_cast<size_t>(iy) * in_w;
          const int ix0 = kx - padding;
          if (stride == 1) {
            // Contiguous copy with zero borders where ix = ox + ix0 runs
            // outside [0, in_w).
            const int lo = std::min(out_w, std::max(0, -ix0));
            const int hi = std::max(lo, std::min(out_w, in_w - ix0));
            std::fill(out_row, out_row + lo, 0.0f);
            std::copy(in_row + ix0 + lo, in_row + ix0 + hi, out_row + lo);
            std::fill(out_row + hi, out_row + out_w, 0.0f);
          } else {
            for (int ox = 0; ox < out_w; ++ox) {
              const int ix = ox * stride + ix0;
              out_row[ox] = (ix >= 0 && ix < in_w) ? in_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Col2Im(const float* col, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* x) {
  std::fill(x, x + static_cast<size_t>(channels) * in_h * in_w, 0.0f);
  const size_t n = static_cast<size_t>(out_h) * out_w;
  const float* src = col;  // Row (c, ky, kx) of the [C*KH*KW, OH*OW] matrix.
  for (int c = 0; c < channels; ++c) {
    float* plane = x + static_cast<size_t>(c) * in_h * in_w;
    for (int ky = 0; ky < kernel_h; ++ky) {
      for (int kx = 0; kx < kernel_w; ++kx, src += n) {
        for (int oy = 0; oy < out_h; ++oy) {
          const int iy = oy * stride - padding + ky;
          if (iy < 0 || iy >= in_h) {
            continue;  // The whole row landed in the padding border.
          }
          const float* col_row = src + static_cast<size_t>(oy) * out_w;
          float* in_row = plane + static_cast<size_t>(iy) * in_w;
          const int ix0 = kx - padding;
          if (stride == 1) {
            // Contiguous accumulate over the in-bounds span, mirroring the
            // Im2Col fast path: ix = ox + ix0 must stay inside [0, in_w).
            const int lo = std::min(out_w, std::max(0, -ix0));
            const int hi = std::max(lo, std::min(out_w, in_w - ix0));
            for (int ox = lo; ox < hi; ++ox) {
              in_row[ox + ix0] += col_row[ox];
            }
          } else {
            for (int ox = 0; ox < out_w; ++ox) {
              const int ix = ox * stride + ix0;
              if (ix >= 0 && ix < in_w) {
                in_row[ix] += col_row[ox];
              }
            }
          }
        }
      }
    }
  }
}

void TransposeMatrix(const float* in, int rows, int cols, float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* in_row = in + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      out[static_cast<size_t>(j) * rows + i] = in_row[j];
    }
  }
}

}  // namespace dx
