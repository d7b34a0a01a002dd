#include "src/nn/activation.h"

#include <cmath>
#include <stdexcept>

#include "src/tensor/simd.h"

namespace dx {
namespace {

using simd::VecF;

// The elementwise activation transforms below are vectorized with the
// lane-parallel ops of src/tensor/simd.h. Each lane performs the exact
// operation sequence of the old scalar loop (one correctly-rounded IEEE op
// per step, no reassociation), so results are bit-identical to the scalar
// code at every SIMD width — these helpers are shared by the per-sample
// oracle and the ExecutionPlan kernels without forking numerics. The
// transcendental activations (tanh, sigmoid forward) stay scalar: libm has
// no vector counterpart here and their cost is dominated by the exp/tanh
// call, not the loop.

void ReluInPlace(float* p, int64_t n) {
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    VecF::Relu(VecF::Load(p + i)).Store(p + i);
  }
  for (; i < n; ++i) {
    p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  }
}

// pg[i] = y[i] > 0 ? pg[i] : 0 (NaN y keeps pg — see simd.h ReluGrad).
void ReluGradInPlace(const float* py, float* pg, int64_t n) {
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    VecF::ReluGrad(VecF::Load(py + i), VecF::Load(pg + i)).Store(pg + i);
  }
  for (; i < n; ++i) {
    if (py[i] <= 0.0f) {
      pg[i] = 0.0f;
    }
  }
}

// pg[i] *= 1 - y[i]^2, associated exactly as the scalar loop: mul, sub, mul.
void TanhGradInPlace(const float* py, float* pg, int64_t n) {
  const VecF one = VecF::Broadcast(1.0f);
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const VecF y = VecF::Load(py + i);
    VecF::Mul(VecF::Load(pg + i), VecF::Sub(one, VecF::Mul(y, y))).Store(pg + i);
  }
  for (; i < n; ++i) {
    pg[i] *= 1.0f - py[i] * py[i];
  }
}

// pg[i] *= y[i] * (1 - y[i]), associated exactly as the scalar loop.
void SigmoidGradInPlace(const float* py, float* pg, int64_t n) {
  const VecF one = VecF::Broadcast(1.0f);
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const VecF y = VecF::Load(py + i);
    VecF::Mul(VecF::Load(pg + i), VecF::Mul(y, VecF::Sub(one, y))).Store(pg + i);
  }
  for (; i < n; ++i) {
    pg[i] *= py[i] * (1.0f - py[i]);
  }
}

}  // namespace

void ApplyActivation(Activation act, Tensor* t) {
  float* p = t->data();
  const int64_t n = t->numel();
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      ReluInPlace(p, n);
      return;
    case Activation::kTanh:
      for (int64_t i = 0; i < n; ++i) {
        p[i] = std::tanh(p[i]);
      }
      return;
    case Activation::kSigmoid:
      for (int64_t i = 0; i < n; ++i) {
        p[i] = 1.0f / (1.0f + std::exp(-p[i]));
      }
      return;
  }
  throw std::invalid_argument("unknown activation");
}

void ApplyActivationGrad(Activation act, const Tensor& y, Tensor* grad) {
  if (y.shape() != grad->shape()) {
    throw std::invalid_argument("ApplyActivationGrad shape mismatch");
  }
  const float* py = y.data();
  float* pg = grad->data();
  const int64_t n = y.numel();
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      ReluGradInPlace(py, pg, n);
      return;
    case Activation::kTanh:
      TanhGradInPlace(py, pg, n);
      return;
    case Activation::kSigmoid:
      SigmoidGradInPlace(py, pg, n);
      return;
  }
  throw std::invalid_argument("unknown activation");
}

std::string ActivationName(Activation act) {
  switch (act) {
    case Activation::kNone:
      return "none";
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  return "none";
}

Activation ActivationFromName(const std::string& name) {
  if (name == "none") return Activation::kNone;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation name: " + name);
}

}  // namespace dx
