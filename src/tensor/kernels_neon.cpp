// NEON (aarch64 ASIMD) tier of the matmul range kernels. Only added to the
// build on aarch64 (ASIMD is baseline there, so no per-file -m flags are
// needed — the *dispatch* still gates execution so the tier can be forced
// off via NETLLM_ISA=scalar). Mirrors the AVX2 tier's structure at 4-lane
// width; see kernels_avx2.cpp for the determinism argument: per-element
// accumulation order is a pure function of (shape, element), never of the
// parallel_for row partition, and the Q8/Q4 block dots are exact integers
// feeding the scalar tier's float expression order (fp-contract is off on
// every kernel TU), so quantized outputs are bitwise the scalar tier's.
#if defined(NETLLM_HAVE_NEON)

#include "tensor/kernels_dispatch.hpp"

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace netllm::tensor::kernels::detail {

namespace {

/// Fixed-order pairwise horizontal sum of 4 float lanes.
inline float hsum4(float32x4_t v) {
  float32x2_t s = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  return vget_lane_f32(vpadd_f32(s, s), 0);
}

void matmul_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                        std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      for (std::int64_t p = 0; p < k; ++p) {
        const float32x4_t av = vdupq_n_f32(arow[p]);
        const float* brow = b + p * n + j;
        acc0 = vfmaq_f32(acc0, av, vld1q_f32(brow));
        acc1 = vfmaq_f32(acc1, av, vld1q_f32(brow + 4));
        acc2 = vfmaq_f32(acc2, av, vld1q_f32(brow + 8));
        acc3 = vfmaq_f32(acc3, av, vld1q_f32(brow + 12));
      }
      vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), acc0));
      vst1q_f32(crow + j + 4, vaddq_f32(vld1q_f32(crow + j + 4), acc1));
      vst1q_f32(crow + j + 8, vaddq_f32(vld1q_f32(crow + j + 8), acc2));
      vst1q_f32(crow + j + 12, vaddq_f32(vld1q_f32(crow + j + 12), acc3));
    }
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::int64_t p = 0; p < k; ++p) {
        acc = vfmaq_f32(acc, vdupq_n_f32(arow[p]), vld1q_f32(b + p * n + j));
      }
      vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), acc));
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc = std::fma(arow[p], b[p * n + j], acc);
      crow[j] += acc;
    }
  }
}

void matmul_bt_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                           std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      std::int64_t p = 0;
      for (; p + 16 <= k; p += 16) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(arow + p), vld1q_f32(brow + p));
        acc1 = vfmaq_f32(acc1, vld1q_f32(arow + p + 4), vld1q_f32(brow + p + 4));
        acc2 = vfmaq_f32(acc2, vld1q_f32(arow + p + 8), vld1q_f32(brow + p + 8));
        acc3 = vfmaq_f32(acc3, vld1q_f32(arow + p + 12), vld1q_f32(brow + p + 12));
      }
      for (; p + 4 <= k; p += 4) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(arow + p), vld1q_f32(brow + p));
      }
      float acc = hsum4(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
      for (; p < k; ++p) acc = std::fma(arow[p], brow[p], acc);
      c[i * n + j] += acc;
    }
  }
}

void matmul_at_accum_range(const float* a, const float* b, float* c, std::int64_t m,
                           std::int64_t p0, std::int64_t p1, std::int64_t k,
                           std::int64_t n) {
  for (std::int64_t p = p0; p < p1; ++p) {
    float* crow = c + p * n;
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      for (std::int64_t i = 0; i < m; ++i) {
        const float32x4_t av = vdupq_n_f32(a[i * k + p]);
        const float* brow = b + i * n + j;
        acc0 = vfmaq_f32(acc0, av, vld1q_f32(brow));
        acc1 = vfmaq_f32(acc1, av, vld1q_f32(brow + 4));
        acc2 = vfmaq_f32(acc2, av, vld1q_f32(brow + 8));
        acc3 = vfmaq_f32(acc3, av, vld1q_f32(brow + 12));
      }
      vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), acc0));
      vst1q_f32(crow + j + 4, vaddq_f32(vld1q_f32(crow + j + 4), acc1));
      vst1q_f32(crow + j + 8, vaddq_f32(vld1q_f32(crow + j + 8), acc2));
      vst1q_f32(crow + j + 12, vaddq_f32(vld1q_f32(crow + j + 12), acc3));
    }
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::int64_t i = 0; i < m; ++i) {
        acc = vfmaq_f32(acc, vdupq_n_f32(a[i * k + p]), vld1q_f32(b + i * n + j));
      }
      vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), acc));
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < m; ++i) acc = std::fma(a[i * k + p], b[i * n + j], acc);
      crow[j] += acc;
    }
  }
}

/// Exact int32 dot of 32 signed int8 lanes: widening multiplies into int16,
/// pairwise-accumulate into int32 — associative integer adds, same value as
/// the scalar loop.
inline std::int32_t dot32_i8(const std::int8_t* x, const std::int8_t* y) {
  const int8x16_t x0 = vld1q_s8(x), x1 = vld1q_s8(x + 16);
  const int8x16_t y0 = vld1q_s8(y), y1 = vld1q_s8(y + 16);
  int32x4_t acc = vdupq_n_s32(0);
  acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(x0), vget_low_s8(y0)));
  acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(x0), vget_high_s8(y0)));
  acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(x1), vget_low_s8(y1)));
  acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(x1), vget_high_s8(y1)));
  return vaddvq_s32(acc);
}

/// Decode one packed Q4_0 block into interleaved int8 lanes (lo nibble
/// first, value = code - 8) and run the exact i8 dot.
inline std::int32_t dot32_q4(const std::int8_t* x, const std::uint8_t* packed) {
  const uint8x16_t raw = vld1q_u8(packed);
  const int8x16_t lo =
      vsubq_s8(vreinterpretq_s8_u8(vandq_u8(raw, vdupq_n_u8(0x0f))), vdupq_n_s8(8));
  const int8x16_t hi = vsubq_s8(vreinterpretq_s8_u8(vshrq_n_u8(raw, 4)), vdupq_n_s8(8));
  const int8x16x2_t zipped = vzipq_s8(lo, hi);  // back to source lane order
  const int8x16_t x0 = vld1q_s8(x), x1 = vld1q_s8(x + 16);
  int32x4_t acc = vdupq_n_s32(0);
  acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(x0), vget_low_s8(zipped.val[0])));
  acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(x0), vget_high_s8(zipped.val[0])));
  acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(x1), vget_low_s8(zipped.val[1])));
  acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(x1), vget_high_s8(zipped.val[1])));
  return vaddvq_s32(acc);
}

void matmul_q8_range(const std::int8_t* aq, const float* ascales, const std::int8_t* bq,
                     const float* bscales, float* c, std::int64_t r0, std::int64_t r1,
                     std::int64_t kb, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const std::int8_t* arow = aq + i * kb * 32;
    const float* arow_s = ascales + i * kb;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = bq + j * kb * 32;
      const float* brow_s = bscales + j * kb;
      float acc = 0.0f;
      for (std::int64_t b = 0; b < kb; ++b) {
        acc += arow_s[b] * brow_s[b] *
               static_cast<float>(dot32_i8(arow + b * 32, brow + b * 32));
      }
      crow[j] += acc;
    }
  }
}

void matmul_q4_range(const std::int8_t* aq, const float* ascales, const std::uint8_t* bq,
                     const float* bscales, float* c, std::int64_t r0, std::int64_t r1,
                     std::int64_t kb, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const std::int8_t* arow = aq + i * kb * 32;
    const float* arow_s = ascales + i * kb;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::uint8_t* brow = bq + j * kb * 16;
      const float* brow_s = bscales + j * kb;
      float acc = 0.0f;
      for (std::int64_t b = 0; b < kb; ++b) {
        acc += arow_s[b] * brow_s[b] *
               static_cast<float>(dot32_q4(arow + b * 32, brow + b * 16));
      }
      crow[j] += acc;
    }
  }
}

// One attention head in place (see AttendHeadRangeFn), each element with
// this tier's matmul_accum sequence: acc = 0, acc = fma(a, b, acc) for the
// reduction index ascending, then 0 + acc, as vfmaq_f32 lanes compute it.
// Plain C++ std::fma (one rounding, the same as vfmaq_f32), so the element
// bits are the AVX2 tier's; the softmax is the scalar tier's row body. Not
// vectorized yet: it needs an aarch64 host to build and measure.
void attend_head_range(const float* q, const float* k, const float* v, float* ctx,
                       std::int64_t ld, std::int64_t d_head, std::int64_t len,
                       std::int64_t past, float inv_sqrt, std::int64_t r0, std::int64_t r1) {
  thread_local std::vector<float> scores;
  scores.resize(static_cast<std::size_t>(len));
  float* s = scores.data();
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* qi = q + i * ld;
    const std::int64_t visible = past + i + 1;
    for (std::int64_t j = 0; j < visible; ++j) {
      const float* kj = k + j * ld;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < d_head; ++p) acc = std::fma(qi[p], kj[p], acc);
      s[j] = (0.0f + acc) * inv_sqrt;
    }
    scalar_table().softmax_row(s, s, visible);
    std::fill(s + visible, s + len, 0.0f);
    float* out = ctx + i * ld;
    std::fill(out, out + d_head, 0.0f);
    for (std::int64_t j = 0; j < len; ++j) {
      const float* vj = v + j * ld;
      for (std::int64_t c = 0; c < d_head; ++c) out[c] = std::fma(s[j], vj[c], out[c]);
    }
    for (std::int64_t c = 0; c < d_head; ++c) out[c] = 0.0f + out[c];
  }
}

}  // namespace

// The row kernels take the scalar bodies until an aarch64 host can test
// vector ones against them.
const KernelTable& neon_table() {
  static const KernelTable table{
      &matmul_accum_range,          &matmul_bt_accum_range,
      &matmul_at_accum_range,       &matmul_q8_range,
      &matmul_q4_range,             scalar_table().tanh_row,
      scalar_table().gelu_row,      scalar_table().quantize_row_q8,
      scalar_table().exp_row,       scalar_table().softmax_row,
      &attend_head_range,
  };
  return table;
}

}  // namespace netllm::tensor::kernels::detail

#endif  // NETLLM_HAVE_NEON
