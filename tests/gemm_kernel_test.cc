// Randomized property tests for the im2col/GEMM kernel layer
// (src/nn/gemm.h) in the style of tests/batch_property_test.cc: fixed-seed
// random sweeps over shapes chosen to hit every kernel path — full
// microkernel tiles, row/column edge tiles, the N == 1 GEMV case, odd
// strides, asymmetric padding effects, and kernels larger than the padded
// input. Three properties are checked:
//
//   1. GemmBias matches a naive scalar reference within the kernel forward
//      tolerance (the reference uses separate mul+add, the kernel fused
//      ascending-k FMA — same contract as the scalar oracle comparison).
//   2. GemmBias is BIT-identical however the N dimension is partitioned
//      (whole call vs per-column calls) and however the M dimension is
//      (whole call vs per-row GEMV calls) — the width-invariance guarantees
//      the executor's batch determinism rests on.
//   3. Conv2D / Dense ForwardBatchInto (the im2col+GEMM plan path) match
//      the per-sample scalar oracle within tolerance at batch 1 and 8, and
//      Im2Col itself matches a direct gather exactly (pure data movement).
//
// Dense forward is also pinned bit for bit: every output is one std::fma
// chain from its bias over ascending inputs, on a compiled plan and on the
// call without one, at every batch width.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/execution_plan.h"
#include "src/nn/gemm.h"
#include "src/nn/model.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using testing::ExpectBuffersNear;
using testing::ExpectTensorsNear;
using testing::kKernelForwardTolerance;

constexpr int kTrials = 12;

int RandInt(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.UniformInt(lo, hi));
}

std::vector<float> RandVec(Rng& rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

// Naive reference: separate multiply and add, ascending k (the same
// per-element order the scalar oracle kernels use).
std::vector<float> NaiveGemmBias(int M, int N, int K, const float* A, int lda,
                                 const float* B, int ldb, const float* bias) {
  std::vector<float> C(static_cast<size_t>(M) * N);
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      float acc = bias != nullptr ? bias[m] : 0.0f;
      for (int k = 0; k < K; ++k) {
        acc += A[static_cast<size_t>(m) * lda + k] * B[static_cast<size_t>(k) * ldb + n];
      }
      C[static_cast<size_t>(m) * N + n] = acc;
    }
  }
  return C;
}

TEST(GemmKernelTest, MatchesNaiveReferenceAcrossRandomShapes) {
  Rng rng(0x6E);
  for (int t = 0; t < kTrials; ++t) {
    // Straddle the 4x16 (AVX2) blocking: M and N cover below-one-tile,
    // exact-tile, and tile-plus-edge; K covers the length of the chain.
    const int M = RandInt(rng, 1, 21);
    const int N = RandInt(rng, 1, 37);
    const int K = RandInt(rng, 1, 64);
    const std::vector<float> A = RandVec(rng, static_cast<int64_t>(M) * K);
    const std::vector<float> B = RandVec(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);
    const bool use_bias = rng.Bernoulli(0.5);

    std::vector<float> C(static_cast<size_t>(M) * N, -999.0f);
    GemmBias(M, N, K, A.data(), K, B.data(), N, use_bias ? bias.data() : nullptr,
             C.data(), N);
    const std::vector<float> want =
        NaiveGemmBias(M, N, K, A.data(), K, B.data(), N,
                      use_bias ? bias.data() : nullptr);
    ExpectBuffersNear(C.data(), want.data(), static_cast<int64_t>(M) * N,
                      kKernelForwardTolerance,
                      "gemm M=" + std::to_string(M) + " N=" + std::to_string(N) +
                          " K=" + std::to_string(K));
  }
}

TEST(GemmKernelTest, BitIdenticalUnderColumnPartition) {
  Rng rng(0x6F);
  for (int t = 0; t < kTrials; ++t) {
    const int M = RandInt(rng, 1, 13);
    const int N = RandInt(rng, 2, 40);
    const int K = RandInt(rng, 1, 48);
    const std::vector<float> A = RandVec(rng, static_cast<int64_t>(M) * K);
    const std::vector<float> B = RandVec(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);

    std::vector<float> whole(static_cast<size_t>(M) * N);
    GemmBias(M, N, K, A.data(), K, B.data(), N, bias.data(), whole.data(), N);

    // Column by column: every output element must come out bit-identical,
    // because each element is one fixed ascending-k chain regardless of how
    // many columns share the call (this is what makes plan results
    // independent of batch width).
    std::vector<float> cols(static_cast<size_t>(M) * N);
    for (int n = 0; n < N; ++n) {
      GemmBias(M, 1, K, A.data(), K, B.data() + n, N, bias.data(), cols.data() + n, N);
    }
    for (int64_t i = 0; i < static_cast<int64_t>(M) * N; ++i) {
      ASSERT_EQ(whole[static_cast<size_t>(i)], cols[static_cast<size_t>(i)])
          << "element " << i << " (M=" << M << " N=" << N << " K=" << K << ")";
    }
  }
}

TEST(GemmKernelTest, BitIdenticalUnderRowPartition) {
  Rng rng(0x70);
  for (int t = 0; t < 4 * kTrials; ++t) {
    // Every row-block height (full 4-row tiles, the 3-, 2- and 1-row tiles)
    // and N wide enough for their whole tiles plus vector and scalar edges.
    const int M = RandInt(rng, 2, 13);
    const int N = RandInt(rng, 1, 72);
    const int K = RandInt(rng, 1, 64);
    std::vector<float> A = RandVec(rng, static_cast<int64_t>(M) * K);
    for (float& a : A) {
      if (rng.Bernoulli(0.5)) {
        a = 0.0f;  // ReLU-masked gradient entries: the GEMV skips them.
      }
    }
    const std::vector<float> B = RandVec(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);
    const float* bias_ptr = rng.Bernoulli(0.5) ? bias.data() : nullptr;

    std::vector<float> whole(static_cast<size_t>(M) * N);
    GemmBias(M, N, K, A.data(), K, B.data(), N, bias_ptr, whole.data(), N);

    // Row by row (M == 1, the GEMV path): the batched backward's rows must
    // equal the width-1 backward's bit for bit.
    std::vector<float> rows(static_cast<size_t>(M) * N);
    for (int m = 0; m < M; ++m) {
      GemmBias(1, N, K, A.data() + static_cast<size_t>(m) * K, K, B.data(), N,
               bias_ptr != nullptr ? bias_ptr + m : nullptr,
               rows.data() + static_cast<size_t>(m) * N, N);
    }
    for (int64_t i = 0; i < static_cast<int64_t>(M) * N; ++i) {
      ASSERT_EQ(whole[static_cast<size_t>(i)], rows[static_cast<size_t>(i)])
          << "element " << i << " (M=" << M << " N=" << N << " K=" << K << ")";
    }
  }
}

TEST(GemmKernelTest, Im2ColMatchesDirectGatherExactly) {
  Rng rng(0x70);
  for (int t = 0; t < kTrials; ++t) {
    const int c = RandInt(rng, 1, 4);
    const int in_h = RandInt(rng, 1, 9);
    const int in_w = RandInt(rng, 1, 9);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);  // Odd and even strides.
    const int pad = RandInt(rng, 0, 3);     // Includes kernel > padded input.
    const int out_h = (in_h + 2 * pad - kh) / stride + 1;
    const int out_w = (in_w + 2 * pad - kw) / stride + 1;
    if (out_h <= 0 || out_w <= 0) {
      continue;
    }
    const std::vector<float> x = RandVec(rng, static_cast<int64_t>(c) * in_h * in_w);

    const int64_t rows = static_cast<int64_t>(c) * kh * kw;
    const int64_t cols = static_cast<int64_t>(out_h) * out_w;
    std::vector<float> got(static_cast<size_t>(rows * cols), -999.0f);
    Im2Col(x.data(), c, in_h, in_w, kh, kw, stride, pad, out_h, out_w, got.data());

    for (int ch = 0; ch < c; ++ch) {
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
              const int iy = oy * stride - pad + ky;
              const int ix = ox * stride - pad + kx;
              const float want =
                  (iy >= 0 && iy < in_h && ix >= 0 && ix < in_w)
                      ? x[(static_cast<size_t>(ch) * in_h + iy) * in_w + ix]
                      : 0.0f;
              const int64_t row = (static_cast<int64_t>(ch) * kh + ky) * kw + kx;
              const int64_t col = static_cast<int64_t>(oy) * out_w + ox;
              ASSERT_EQ(got[static_cast<size_t>(row * cols + col)], want)
                  << "c=" << ch << " ky=" << ky << " kx=" << kx << " oy=" << oy
                  << " ox=" << ox << " (stride=" << stride << " pad=" << pad << ")";
            }
          }
        }
      }
    }
  }
}

// The integrated plan path: Conv2D/Dense ForwardBatchInto (im2col + GEMM +
// SIMD, workspace-backed) against the per-sample scalar oracle.
void ExpectForwardIntoNearOracle(const Layer& layer, const Shape& in_shape, int batch,
                                 uint64_t seed) {
  Rng rng(seed);
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, in_shape), rng, -1.0f, 1.0f);
  Tensor want_aux;
  const Tensor want = testing::OracleForward(layer, input, batch, &want_aux);
  Workspace ws;
  Tensor got(want.shape());
  Tensor got_aux;
  layer.ForwardBatchInto(input, batch, false, nullptr, &got, &got_aux, &ws);
  ExpectTensorsNear(got, want, kKernelForwardTolerance,
                    layer.Describe() + " batch=" + std::to_string(batch));
}

TEST(GemmKernelTest, Conv2DForwardIntoSweepsRandomShapes) {
  Rng rng(0x71);
  for (int t = 0; t < kTrials; ++t) {
    const int in_ch = RandInt(rng, 1, 4);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);
    const int pad = RandInt(rng, 0, 3);
    const int in_h = RandInt(rng, 1, 12);
    const int in_w = RandInt(rng, 1, 12);
    // Conv2D rejects kernels larger than the padded input; keep the cases
    // where the kernel exceeds the RAW input but padding covers it (the
    // all-border patches are the interesting edge).
    if (in_h + 2 * pad < kh || in_w + 2 * pad < kw) {
      continue;
    }
    Conv2D layer(in_ch, RandInt(rng, 1, 6), kh, kw, stride, pad,
                 static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectForwardIntoNearOracle(layer, {in_ch, in_h, in_w}, batch, rng.NextU64());
    }
  }
}

TEST(GemmKernelTest, DenseForwardIntoSweepsRandomShapes) {
  Rng rng(0x72);
  for (int t = 0; t < kTrials; ++t) {
    Dense layer(RandInt(rng, 1, 300), RandInt(rng, 1, 70),
                static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectForwardIntoNearOracle(layer, {layer.in_features()}, batch, rng.NextU64());
    }
  }
}

// The dense forward's chain, written out: y[b, o] = act(fma(x[b, in-1],
// W[o, in-1], ... fma(x[b, 0], W[o, 0], bias[o]) ...)).
Tensor DenseFmaChain(const Dense& layer, const Tensor& input, int batch) {
  const int in = layer.in_features();
  const int out = layer.out_features();
  const float* w = layer.Params()[0]->data();
  const float* bias = layer.Params()[1]->data();
  Tensor y({batch, out});
  for (int b = 0; b < batch; ++b) {
    for (int o = 0; o < out; ++o) {
      float acc = bias[o];
      for (int i = 0; i < in; ++i) {
        acc = std::fma(input.data()[static_cast<size_t>(b) * in + i],
                       w[static_cast<size_t>(o) * in + i], acc);
      }
      y.data()[static_cast<size_t>(b) * out + o] = acc;
    }
  }
  ApplyActivation(layer.activation(), &y);
  return y;
}

void ExpectSameBits(const Tensor& got, const Tensor& want, const std::string& label) {
  ASSERT_EQ(got.numel(), want.numel()) << label;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << label << " element " << i << ": got " << got[i] << ", want " << want[i];
  }
}

TEST(GemmKernelTest, DenseForwardIsOneFmaChainFromTheBias) {
  std::vector<int> widths;
  for (int w = 1; w <= 2 * simd::kLanes + 1; ++w) {
    widths.push_back(w);
  }
  widths.push_back(16);
  widths.push_back(17);
  const int max_width = 2 * simd::kLanes + 1 > 17 ? 2 * simd::kLanes + 1 : 17;
  Rng rng(0x73);
  for (const int out : {1, 2, 7, 8, 9, 10, 16, 17, 33, 84}) {
    for (const int in : {1, 3, 32, 135}) {
      for (const Activation act : {Activation::kNone, Activation::kRelu}) {
        Model model("fma_chain", {in});
        Dense& layer = model.Emplace<Dense>(in, out, act);
        layer.InitParams(rng);
        Tensor& bias = layer.bias();
        for (int o = 0; o < out; ++o) {
          bias[o] = static_cast<float>(rng.Uniform(-0.5, 0.5));
        }
        bias[out / 2] = -0.0f;  // A chain over all-zero inputs must keep it.
        Tensor input = Tensor::RandUniform({max_width, in}, rng, -1.0f, 1.0f);
        for (int64_t i = 0; i < input.numel(); ++i) {
          if (rng.Bernoulli(0.25)) {
            input[i] = 0.0f;
          }
        }
        for (int i = 0; i < in; ++i) {
          input[static_cast<int64_t>(in) + i] = 0.0f;  // Sample 1 is all zeros.
        }
        ExecutionPlan plan = model.Compile(max_width);
        Workspace ws;
        for (const int width : widths) {
          const Tensor x({width, in},
                         std::vector<float>(input.data(),
                                            input.data() + static_cast<size_t>(width) * in));
          const Tensor want = DenseFmaChain(layer, x, width);
          const std::string label = layer.Describe() + " width " + std::to_string(width);
          ExpectSameBits(plan.ForwardBatch(x, width).Output(), want, "plan " + label);
          Tensor got({width, out});
          Tensor aux;
          ws.Rewind();
          layer.ForwardBatchInto(x, width, false, nullptr, &got, &aux, &ws);
          ExpectSameBits(got, want, "no plan " + label);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dx
