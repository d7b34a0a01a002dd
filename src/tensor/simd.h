// Width-abstracted SIMD primitives for the float32 kernel layer.
//
// Exactly one backend is selected at compile time:
//
//   - AVX2 + FMA  (x86-64, 8 lanes)   when __AVX2__ && __FMA__
//   - NEON        (AArch64, 4 lanes)  when __ARM_NEON
//   - scalar      (1 lane)            otherwise, or when DX_SIMD_DISABLE is
//                                     defined (cmake -DDX_SIMD=OFF)
//
// The abstraction deliberately exposes only lane-parallel operations plus a
// fused multiply-add. Kernels built on it (src/nn/gemm.cc) accumulate each
// output element over a fixed index order with Fma, which is fused (single
// rounding) at every width — _mm256_fmadd_ps, vfmaq_f32, and std::fma are all
// correctly-rounded — so kernel results are BIT-IDENTICAL across backends.
// Widening or disabling SIMD changes speed, never bits. Tolerances in tests
// exist for comparing the GEMM path against the per-sample scalar oracle
// (different accumulation order), not for comparing backends.
//
// The elementwise ops (Add/Sub/Mul, Relu, ReluGrad) carry the same guarantee
// trivially: they are single correctly-rounded IEEE operations per lane, so
// a loop written with them produces the exact bits of the equivalent scalar
// loop. This is what lets the activation-gradient glue (src/nn/activation.cc)
// vectorize WITHOUT forking the numerics between the per-sample oracle and the
// plan path — both call the same vectorized helpers.
//
// The active backend is reported at runtime by SimdBackendName()/SimdLanes()
// (defined in simd.cc so the whole program reports what dxcore's kernels were
// actually compiled with), surfaced via `dxplore --version` and the daemon's
// /metrics endpoint.
#ifndef DX_SRC_TENSOR_SIMD_H_
#define DX_SRC_TENSOR_SIMD_H_

#include <cmath>

#if !defined(DX_SIMD_DISABLE) && defined(__AVX2__) && defined(__FMA__)
#define DX_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(DX_SIMD_DISABLE) && defined(__ARM_NEON)
#define DX_SIMD_NEON 1
#include <arm_neon.h>
#else
#define DX_SIMD_SCALAR 1
#endif

namespace dx {
namespace simd {

#if defined(DX_SIMD_AVX2)

inline constexpr int kLanes = 8;
inline constexpr char kBackend[] = "avx2";

// One register of kLanes floats. Loads/stores are unaligned: Tensor storage
// is std::vector<float>, which guarantees only alignof(float).
struct VecF {
  __m256 v;

  static VecF Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static VecF Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecF Zero() { return {_mm256_setzero_ps()}; }
  // a * b + c with a single rounding.
  static VecF Fma(VecF a, VecF b, VecF c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  static VecF Add(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
  static VecF Sub(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
  static VecF Mul(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
  // max(x, 0) with the scalar kernel's NaN convention: x > 0 ? x : 0, so a
  // NaN lane becomes 0 (ordered compare is false on NaN).
  static VecF Relu(VecF x) {
    return {_mm256_and_ps(_mm256_cmp_ps(x.v, _mm256_setzero_ps(), _CMP_GT_OQ), x.v)};
  }
  // The ReLU backward mask: g where !(y <= 0), else 0. A NaN y KEEPS g —
  // exactly the scalar `if (y <= 0) g = 0`, whose ordered compare is false
  // on NaN (note the deliberate asymmetry with Relu above).
  static VecF ReluGrad(VecF y, VecF g) {
    return {_mm256_andnot_ps(_mm256_cmp_ps(y.v, _mm256_setzero_ps(), _CMP_LE_OQ), g.v)};
  }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }
};

#elif defined(DX_SIMD_NEON)

inline constexpr int kLanes = 4;
inline constexpr char kBackend[] = "neon";

struct VecF {
  float32x4_t v;

  static VecF Load(const float* p) { return {vld1q_f32(p)}; }
  static VecF Broadcast(float x) { return {vdupq_n_f32(x)}; }
  static VecF Zero() { return {vdupq_n_f32(0.0f)}; }
  static VecF Fma(VecF a, VecF b, VecF c) {
    return {vfmaq_f32(c.v, a.v, b.v)};
  }
  static VecF Add(VecF a, VecF b) { return {vaddq_f32(a.v, b.v)}; }
  static VecF Sub(VecF a, VecF b) { return {vsubq_f32(a.v, b.v)}; }
  static VecF Mul(VecF a, VecF b) { return {vmulq_f32(a.v, b.v)}; }
  // x > 0 ? x : 0 (NaN lanes become 0; vcgtq is false on NaN).
  static VecF Relu(VecF x) {
    const uint32x4_t gt = vcgtq_f32(x.v, vdupq_n_f32(0.0f));
    return {vreinterpretq_f32_u32(
        vandq_u32(gt, vreinterpretq_u32_f32(x.v)))};
  }
  // g where !(y <= 0), else 0 (NaN y keeps g; vcleq is false on NaN).
  static VecF ReluGrad(VecF y, VecF g) {
    const uint32x4_t le = vcleq_f32(y.v, vdupq_n_f32(0.0f));
    return {vreinterpretq_f32_u32(
        vbicq_u32(vreinterpretq_u32_f32(g.v), le))};
  }
  void Store(float* p) const { vst1q_f32(p, v); }
};

#else  // DX_SIMD_SCALAR

inline constexpr int kLanes = 1;
inline constexpr char kBackend[] = "scalar";

struct VecF {
  float v;

  static VecF Load(const float* p) { return {*p}; }
  static VecF Broadcast(float x) { return {x}; }
  static VecF Zero() { return {0.0f}; }
  // std::fma is correctly rounded, matching the hardware FMA backends bit
  // for bit (glibc dispatches to the FMA instruction when the CPU has one).
  static VecF Fma(VecF a, VecF b, VecF c) {
    return {std::fma(a.v, b.v, c.v)};
  }
  static VecF Add(VecF a, VecF b) { return {a.v + b.v}; }
  static VecF Sub(VecF a, VecF b) { return {a.v - b.v}; }
  static VecF Mul(VecF a, VecF b) { return {a.v * b.v}; }
  static VecF Relu(VecF x) { return {x.v > 0.0f ? x.v : 0.0f}; }
  static VecF ReluGrad(VecF y, VecF g) { return {y.v <= 0.0f ? 0.0f : g.v}; }
  void Store(float* p) const { *p = v; }
};

#endif

}  // namespace simd

// Runtime-queryable identity of the backend dxcore's kernels were compiled
// with (defined in simd.cc). Prefer these over simd::kBackend outside the
// kernel layer: a translation unit compiled with different flags would see a
// different header-level constant, but the kernels live in dxcore.
const char* SimdBackendName();
int SimdLanes();

}  // namespace dx

#endif  // DX_SRC_TENSOR_SIMD_H_
