// Randomized property tests for the GEMM backward path (PR: backward at
// kernel speed) — the gradient mirror of tests/gemm_kernel_test.cc:
//
//   1. Dense/Conv2D BackwardBatchInto (transposed-weight GEMM + Col2Im,
//      GEMM-against-im2col parameter grads) match the per-sample scalar oracle
//      within the kernel backward tolerance across random shapes at batch 1
//      and 8, with and without parameter gradients.
//   2. Col2Im is the exact adjoint of Im2Col: it matches a naive
//      scatter-accumulate bit for bit and satisfies the inner-product
//      identity <Im2Col(x), C> == <x, Col2Im(C)>.
//   3. Backward results are BIT-identical across batch widths (batch-N call
//      vs per-sample batch-1 calls) and across intra-op thread layouts
//      (free-threaded vs forced-serial inside a ParallelFor region) — the
//      invariance the executor's batch/worker determinism rests on.
//   4. The optional param-grads contract: nullptr = input-only (the hot
//      loop), an EMPTY tensor entry skips that parameter, a wrong-sized
//      vector throws, and the grad-input is bit-identical across modes.
//   5. Plan-path gradients: ExecutionPlan::BackwardInputBatch with a
//      param-grads vector matches per-sample Model::BackwardParams sums, and
//      input gradients through conv/dense stacks match central differences
//      at batch 1 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/execution_plan.h"
#include "src/nn/flatten.h"
#include "src/nn/gemm.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using testing::ExpectTensorsNear;
using testing::kKernelBackwardTolerance;

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

// Backward of the *Into path against the per-sample oracle, both fed the SAME
// oracle forward results so the comparison isolates the backward kernels.
// `with_params` also checks dW/db accumulation (both sides start from the
// same random running sum, pinning the += semantics).
void ExpectBackwardIntoNearOracle(const Layer& layer, const Shape& in_shape, int batch,
                                  uint64_t seed, bool with_params) {
  Rng rng(seed);
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, in_shape), rng, -1.0f, 1.0f);
  Tensor aux;
  const Tensor output = testing::OracleForward(layer, input, batch, &aux);
  const Tensor grad_out = Tensor::RandUniform(output.shape(), rng, -1.0f, 1.0f);

  std::vector<Tensor> want_pg;
  std::vector<Tensor> got_pg;
  for (const Tensor* p : layer.Params()) {
    want_pg.push_back(Tensor::RandUniform(p->shape(), rng, -0.1f, 0.1f));
    got_pg.emplace_back(want_pg.back());
  }
  const Tensor want_gin = testing::OracleBackward(layer, input, output, grad_out, aux, batch,
                                                  with_params ? &want_pg : nullptr);
  Workspace ws;
  Tensor got_gin(input.shape());
  layer.BackwardBatchInto(input, output, grad_out, aux, batch, &got_gin, &ws,
                          with_params ? &got_pg : nullptr);

  const std::string what = layer.Describe() + " batch=" + std::to_string(batch) +
                           (with_params ? " +params" : " input-only");
  ExpectTensorsNear(got_gin, want_gin, kKernelBackwardTolerance, what + " grad-input");
  if (with_params) {
    for (size_t p = 0; p < want_pg.size(); ++p) {
      ExpectTensorsNear(got_pg[p], want_pg[p], kKernelBackwardTolerance,
                        what + " param grad " + std::to_string(p));
    }
  }
}

TEST(BackwardKernelTest, DenseBackwardIntoSweepsRandomShapes) {
  Rng rng(0xB1);
  for (int t = 0; t < kTrials; ++t) {
    Dense layer(RandInt(rng, 1, 300), RandInt(rng, 1, 70),
                static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectBackwardIntoNearOracle(layer, {layer.in_features()}, batch, rng.NextU64(),
                                   /*with_params=*/t % 2 == 0);
    }
  }
}

TEST(BackwardKernelTest, Conv2DBackwardIntoSweepsRandomShapes) {
  Rng rng(0xB2);
  for (int t = 0; t < kTrials; ++t) {
    const int in_ch = RandInt(rng, 1, 4);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);
    const int pad = RandInt(rng, 0, 3);
    const int in_h = RandInt(rng, 1, 12);
    const int in_w = RandInt(rng, 1, 12);
    if (in_h + 2 * pad < kh || in_w + 2 * pad < kw) {
      continue;  // Conv2D rejects kernels larger than the padded input.
    }
    Conv2D layer(in_ch, RandInt(rng, 1, 6), kh, kw, stride, pad,
                 static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectBackwardIntoNearOracle(layer, {in_ch, in_h, in_w}, batch, rng.NextU64(),
                                   /*with_params=*/t % 2 == 0);
    }
  }
}

TEST(BackwardKernelTest, Col2ImMatchesNaiveScatterExactly) {
  Rng rng(0xB3);
  for (int t = 0; t < kTrials; ++t) {
    const int c = RandInt(rng, 1, 4);
    const int in_h = RandInt(rng, 1, 9);
    const int in_w = RandInt(rng, 1, 9);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);
    const int pad = RandInt(rng, 0, 3);
    const int out_h = (in_h + 2 * pad - kh) / stride + 1;
    const int out_w = (in_w + 2 * pad - kw) / stride + 1;
    if (out_h <= 0 || out_w <= 0) {
      continue;
    }
    const int64_t rows = static_cast<int64_t>(c) * kh * kw;
    const int64_t cols = static_cast<int64_t>(out_h) * out_w;
    const std::vector<float> col = RandVec(rng, rows * cols);

    std::vector<float> got(static_cast<size_t>(c) * in_h * in_w, -999.0f);
    Col2Im(col.data(), c, in_h, in_w, kh, kw, stride, pad, out_h, out_w, got.data());

    // Naive scatter in the same fixed (c, ky, kx, oy, ox) order — the fast
    // path must be a pure data-movement optimization, bit for bit.
    std::vector<float> want(static_cast<size_t>(c) * in_h * in_w, 0.0f);
    for (int ch = 0; ch < c; ++ch) {
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
              const int iy = oy * stride - pad + ky;
              const int ix = ox * stride - pad + kx;
              if (iy < 0 || iy >= in_h || ix < 0 || ix >= in_w) {
                continue;
              }
              const int64_t row = (static_cast<int64_t>(ch) * kh + ky) * kw + kx;
              const int64_t colidx = static_cast<int64_t>(oy) * out_w + ox;
              want[(static_cast<size_t>(ch) * in_h + iy) * in_w + ix] +=
                  col[static_cast<size_t>(row * cols + colidx)];
            }
          }
        }
      }
    }
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "cell " << i << " (stride=" << stride
                                 << " pad=" << pad << " k=" << kh << "x" << kw << ")";
    }
  }
}

TEST(BackwardKernelTest, Col2ImIsAdjointOfIm2Col) {
  Rng rng(0xB4);
  for (int t = 0; t < kTrials; ++t) {
    const int c = RandInt(rng, 1, 3);
    const int in_h = RandInt(rng, 2, 9);
    const int in_w = RandInt(rng, 2, 9);
    const int kh = RandInt(rng, 1, 4);
    const int kw = RandInt(rng, 1, 4);
    const int stride = RandInt(rng, 1, 2);
    const int pad = RandInt(rng, 0, 2);
    const int out_h = (in_h + 2 * pad - kh) / stride + 1;
    const int out_w = (in_w + 2 * pad - kw) / stride + 1;
    if (out_h <= 0 || out_w <= 0) {
      continue;
    }
    const int64_t image = static_cast<int64_t>(c) * in_h * in_w;
    const int64_t patches = static_cast<int64_t>(c) * kh * kw * out_h * out_w;
    const std::vector<float> x = RandVec(rng, image);
    const std::vector<float> cmat = RandVec(rng, patches);

    std::vector<float> gathered(static_cast<size_t>(patches));
    Im2Col(x.data(), c, in_h, in_w, kh, kw, stride, pad, out_h, out_w, gathered.data());
    std::vector<float> scattered(static_cast<size_t>(image));
    Col2Im(cmat.data(), c, in_h, in_w, kh, kw, stride, pad, out_h, out_w,
           scattered.data());

    // <Im2Col(x), C> == <x, Col2Im(C)>: the same multiset of products up to
    // Col2Im's in-float scatter accumulation, so the sides agree to a few
    // float epsilons relative (not bit-exact — the bit-level contract is
    // pinned by the naive-scatter test above).
    double lhs = 0.0;
    for (int64_t i = 0; i < patches; ++i) {
      lhs += static_cast<double>(gathered[static_cast<size_t>(i)]) *
             cmat[static_cast<size_t>(i)];
    }
    double rhs = 0.0;
    for (int64_t i = 0; i < image; ++i) {
      rhs += static_cast<double>(x[static_cast<size_t>(i)]) *
             scattered[static_cast<size_t>(i)];
    }
    const double scale = std::max({1.0, std::abs(lhs), std::abs(rhs)});
    EXPECT_NEAR(lhs, rhs, 1e-5 * scale)
        << "adjoint identity (stride=" << stride << " pad=" << pad << ")";
  }
}

// Width + thread-layout invariance: the same sample's gradient must come out
// bit-identical whether it is computed in a batch-6 call (big enough that
// the conv's sample-level ParallelFor and the dense GEMM's row-level
// ParallelFor both engage), in a width-1 call (different GEMM M, different
// threading), or with intra-op parallelism forced off (inside a ParallelFor
// region every nested gate sees InParallelRegion() and runs serially).
template <typename MakeLayer>
void ExpectBackwardBitIdenticalAcrossWidthsAndThreads(MakeLayer make_layer,
                                                      const Shape& in_shape, int batch,
                                                      uint64_t seed) {
  const auto layer = make_layer();
  Rng rng(seed);
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, in_shape), rng, -1.0f, 1.0f);
  Tensor aux;
  const Tensor output = testing::OracleForward(*layer, input, batch, &aux);
  const Tensor grad_out = Tensor::RandUniform(output.shape(), rng, -1.0f, 1.0f);

  Workspace ws;
  Tensor batched(input.shape());
  layer->BackwardBatchInto(input, output, grad_out, aux, batch, &batched, &ws, nullptr);

  // Forced-serial run of the identical call: inside a ParallelFor region
  // every intra-op gate sees InParallelRegion() and stays serial. (n == 2
  // because a 1-iteration loop shortcuts inline without entering a region;
  // on a threadless pool this degrades to a plain serial call, which is
  // then trivially identical — still a valid, if vacuous, comparison.)
  Tensor serial(input.shape());
  ParallelFor(2, [&](int64_t idx) {
    if (idx != 0) {
      return;
    }
    Workspace ws_serial;
    layer->BackwardBatchInto(input, output, grad_out, aux, batch, &serial, &ws_serial,
                             nullptr);
  });
  for (int64_t i = 0; i < batched.numel(); ++i) {
    ASSERT_EQ(batched[i], serial[i]) << "thread-layout divergence at element " << i;
  }

  // Per-sample width-1 calls.
  const int64_t in_stride = batched.numel() / batch;
  const int64_t out_stride = output.numel() / batch;
  Tensor x1(BatchedShape(1, in_shape));
  Tensor y1(BatchedShape(1, SampleShape(output.shape())));
  Tensor g1(y1.shape());
  Tensor gi1(x1.shape());
  for (int b = 0; b < batch; ++b) {
    std::copy(input.data() + b * in_stride, input.data() + (b + 1) * in_stride, x1.data());
    std::copy(output.data() + b * out_stride, output.data() + (b + 1) * out_stride,
              y1.data());
    std::copy(grad_out.data() + b * out_stride, grad_out.data() + (b + 1) * out_stride,
              g1.data());
    Workspace ws1;
    layer->BackwardBatchInto(x1, y1, g1, Tensor(), 1, &gi1, &ws1, nullptr);
    for (int64_t i = 0; i < in_stride; ++i) {
      ASSERT_EQ(gi1[i], batched[b * in_stride + i])
          << "width divergence at sample " << b << " element " << i;
    }
  }
}

TEST(BackwardKernelTest, Conv2DBackwardBitIdenticalAcrossWidthsAndThreads) {
  // 16 x (8*3*3) x (32*32) ≈ 1.2M flops/sample: past the 1<<20 intra-op gate
  // at batch 6, so the batched run really is threaded when cores allow.
  ExpectBackwardBitIdenticalAcrossWidthsAndThreads(
      [] {
        Rng rng(0xC1);
        auto conv = std::make_unique<Conv2D>(8, 16, 3, 3, 1, 0, Activation::kRelu);
        conv->InitParams(rng);
        return conv;
      },
      {8, 34, 34}, 6, 0xC2);
}

TEST(BackwardKernelTest, DenseBackwardBitIdenticalAcrossWidthsAndThreads) {
  // 8 x 512 x 256 = 1M: exactly at the GEMM gate with M = batch = 8 >= 2*kMR.
  ExpectBackwardBitIdenticalAcrossWidthsAndThreads(
      [] {
        Rng rng(0xC3);
        auto dense = std::make_unique<Dense>(512, 256, Activation::kRelu);
        dense->InitParams(rng);
        return dense;
      },
      {512}, 8, 0xC4);
}

TEST(BackwardKernelTest, ParamGradContractSkipThrowAndInputOnlyIdentity) {
  Rng rng(0xD1);
  Dense layer(24, 10, Activation::kRelu);
  layer.InitParams(rng);
  const int batch = 4;
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, Shape{24}), rng, -1.0f, 1.0f);
  Tensor aux;
  const Tensor output = testing::OracleForward(layer, input, batch, &aux);
  const Tensor grad_out = Tensor::RandUniform(output.shape(), rng, -1.0f, 1.0f);
  Workspace ws;
  Tensor gin(input.shape());

  // Wrong-sized vector throws (batch kernel and per-sample oracle alike).
  std::vector<Tensor> too_few(1);
  EXPECT_THROW(layer.BackwardBatchInto(input, output, grad_out, aux, batch, &gin, &ws,
                                       &too_few),
               std::invalid_argument);
  EXPECT_THROW(layer.Backward(SliceSample(input, 0), SliceSample(output, 0),
                              SliceSample(grad_out, 0), Tensor(), &too_few),
               std::invalid_argument);

  // Full vector: reference result.
  std::vector<Tensor> full;
  for (const Tensor* p : layer.Params()) {
    full.emplace_back(p->shape());
  }
  Tensor gin_full(input.shape());
  layer.BackwardBatchInto(input, output, grad_out, aux, batch, &gin_full, &ws, &full);

  // Empty entry skips that parameter: dW untouched (stays empty), db equals
  // the full run's bit for bit (independent accumulator chains).
  std::vector<Tensor> skip_w(2);
  skip_w[1] = Tensor(layer.Params()[1]->shape());
  Tensor gin_skip(input.shape());
  layer.BackwardBatchInto(input, output, grad_out, aux, batch, &gin_skip, &ws, &skip_w);
  EXPECT_TRUE(skip_w[0].empty());
  ASSERT_EQ(skip_w[1].numel(), full[1].numel());
  for (int64_t i = 0; i < full[1].numel(); ++i) {
    ASSERT_EQ(skip_w[1][i], full[1][i]) << "db element " << i;
  }

  // Input-only mode returns the identical grad-input bits: the grad-input
  // GEMM is the same call in every mode.
  Tensor gin_only(input.shape());
  layer.BackwardBatchInto(input, output, grad_out, aux, batch, &gin_only, &ws, nullptr);
  for (int64_t i = 0; i < gin_full.numel(); ++i) {
    ASSERT_EQ(gin_only[i], gin_full[i]) << "grad-input element " << i;
    ASSERT_EQ(gin_skip[i], gin_full[i]) << "grad-input element " << i;
  }
}

Model MakeStackModel(uint64_t seed) {
  Model m("stack", {1, 10, 10});
  Rng rng(seed);
  m.Emplace<Conv2D>(1, 4, 3, 3, 1, 0, Activation::kRelu).InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 4 * 4, 6, Activation::kTanh).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(BackwardKernelTest, PlanParamGradsMatchPerSampleBackwardParams) {
  const Model model = MakeStackModel(0xE1);
  ExecutionPlan plan = model.Compile(8);
  for (const int width : {1, 8}) {
    Rng rng(0xE2 + static_cast<uint64_t>(width));
    const Tensor input =
        Tensor::RandUniform(BatchedShape(width, model.input_shape()), rng, 0.0f, 1.0f);
    const Tensor seed = Tensor::RandUniform(
        BatchedShape(width, model.output_shape()), rng, -1.0f, 1.0f);
    const int last = model.num_layers() - 1;

    // Oracle: per-sample BackwardParams, summed over the batch.
    std::vector<Tensor> want_pg = model.InitParamGrads();
    const int64_t in_stride = input.numel() / width;
    const int64_t out_stride = seed.numel() / width;
    for (int b = 0; b < width; ++b) {
      Tensor xb(model.input_shape());
      std::copy(input.data() + b * in_stride, input.data() + (b + 1) * in_stride,
                xb.data());
      Tensor sb(model.output_shape());
      std::copy(seed.data() + b * out_stride, seed.data() + (b + 1) * out_stride,
                sb.data());
      const ForwardTrace trace = model.Forward(xb);
      model.BackwardParams(trace, last, std::move(sb), &want_pg);
    }

    std::vector<Tensor> got_pg = model.InitParamGrads();
    plan.ForwardBatch(input, width);
    const Tensor& gin = plan.BackwardInputBatch(last, seed, &got_pg);
    EXPECT_EQ(gin.numel(), input.numel());
    ASSERT_EQ(got_pg.size(), want_pg.size());
    for (size_t p = 0; p < want_pg.size(); ++p) {
      ExpectTensorsNear(got_pg[p], want_pg[p], kKernelBackwardTolerance,
                        "plan param grad " + std::to_string(p) + " width " +
                            std::to_string(width));
    }

    // Wrong-sized vector throws before any work.
    std::vector<Tensor> bad(got_pg.size() + 1);
    EXPECT_THROW(plan.BackwardInputBatch(last, seed, &bad), std::invalid_argument);
  }
}

// Central differences through the PLAN path itself: f(x) = <seed, plan
// forward(x) last output>, so the check covers the full GEMM forward + GEMM
// backward round trip the executor runs, at both hot-loop widths.
TEST(BackwardKernelTest, PlanBackwardMatchesCentralDifferencesOnStack) {
  const Model model = MakeStackModel(0xE3);
  ExecutionPlan plan = model.Compile(8);
  const int last = model.num_layers() - 1;
  for (const int width : {1, 8}) {
    Rng rng(0xE4 + static_cast<uint64_t>(width));
    // Positive-leaning inputs keep ReLU pre-activations mostly off their
    // kinks (same idea as tests/zoo_gradient_test.cc).
    Tensor x = Tensor::RandUniform(BatchedShape(width, model.input_shape()), rng, 0.05f,
                                   0.95f);
    const Tensor seed = Tensor::RandUniform(
        BatchedShape(width, model.output_shape()), rng, -1.0f, 1.0f);

    plan.ForwardBatch(x, width);
    const Tensor analytic = plan.BackwardInputBatch(last, seed);

    const auto f = [&](const Tensor& xx) {
      const BatchTrace& trace = plan.ForwardBatch(xx, width);
      const Tensor& out = trace.outputs.back();
      double acc = 0.0;
      for (int64_t i = 0; i < out.numel(); ++i) {
        acc += static_cast<double>(seed.data()[i]) * out.data()[i];
      }
      return acc;
    };

    const int checks = 24;
    const float eps = 5e-3f;
    int kink_skips = 0;
    for (int c = 0; c < checks; ++c) {
      const int64_t i = rng.UniformInt(0, x.numel() - 1);
      const float orig = x[i];
      x[i] = orig + eps;
      const double plus = f(x);
      x[i] = orig - eps;
      const double minus = f(x);
      x[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * eps));
      const float denom = std::max({1.0f, std::abs(numeric), std::abs(analytic[i])});
      const float rel_err = std::abs(numeric - analytic[i]) / denom;
      if (rel_err > 3e-2f && ++kink_skips <= 2) {
        continue;  // Tolerate at most two ReLU/maxpool kink crossings.
      }
      EXPECT_LT(rel_err, 3e-2f) << "width " << width << " coordinate " << i;
    }
  }
}

}  // namespace
}  // namespace dx
