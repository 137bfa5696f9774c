// Scalar (portable-baseline) tier of the matmul range kernels — the single
// compiled implementation every build carries, and the reference the vector
// tiers are tested against. Built with the project's portable flags only
// (no -march): forcing NETLLM_ISA=scalar on any host runs exactly this code.
//
// NaN/Inf propagation is part of the contract: there is deliberately NO
// zero-skip fast path on the activation value. `0 * NaN` must produce NaN in
// C so the serve guard's validity check can see a poisoned weight row even
// when the activation that hits it is zero (tests/test_isa.cpp pins this —
// an earlier `if (aip == 0.0f) continue;` silently swallowed the poison).
//
// The row kernels below define their tier-independent bits: tanh (and so
// GELU) is an in-repo transcription of glibc 2.36's fdlibm-derived tanhf and
// expm1f, exp (and so softmax) one of the FMA build of its expf, and the
// Q8_0 quantizer is the reference block loop. The vector tiers reproduce
// them bitwise.
#include "tensor/kernels_dispatch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace netllm::tensor::kernels::detail {

namespace {

// k-dimension tile: keeps the active B rows in L1/L2 while a row block of C
// is accumulated. Tiling over k does not change the order in which any C
// element receives its additions (p still ascends).
constexpr std::int64_t kKBlock = 64;

/// C[r0:r1, 0:n] += A[r0:r1, 0:k] * B[0:k, 0:n] with rows of A, B and C at
/// strides lda, ldb and ldc (k, n and n for a dense product).
void accum_rows(const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc, std::int64_t r0, std::int64_t r1, std::int64_t k,
                std::int64_t n) {
  for (std::int64_t p0 = 0; p0 < k; p0 += kKBlock) {
    const std::int64_t p1 = std::min(k, p0 + kKBlock);
    for (std::int64_t i = r0; i < r1; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float aip = a[i * lda + p];
        const float* brow = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
      }
    }
  }
}

void matmul_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                        std::int64_t r1, std::int64_t k, std::int64_t n) {
  accum_rows(a, k, b, n, c, n, r0, r1, k, n);
}

void matmul_bt_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                           std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float* arow = a + i * k;
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

// Parallelised over C's rows (the k dimension): every chunk owns a disjoint
// row range [p0,p1) of C, and each element still accumulates over i in
// ascending order — same additions, same order as the serial loop.
void matmul_at_accum_range(const float* a, const float* b, float* c, std::int64_t m,
                           std::int64_t p0, std::int64_t p1, std::int64_t k,
                           std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::int64_t p = p0; p < p1; ++p) {
      const float ap = arow[p];
      float* crow = c + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += ap * brow[j];
    }
  }
}

// One row chunk of the Q8xQ8 product. Every (i, j) element is produced
// entirely inside its chunk: int32 dot per block (lane order t ascending),
// float accumulation over blocks b ascending. The int dot is exact integer
// arithmetic and the float expression order is fixed (fp-contract is off on
// every kernel TU), so the vector tiers reproduce these bits exactly.
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
        const std::int8_t* ab = arow + b * 32;
        const std::int8_t* bb = brow + b * 32;
        std::int32_t dot = 0;
        for (int t = 0; t < 32; ++t) {
          dot += static_cast<std::int32_t>(ab[t]) * static_cast<std::int32_t>(bb[t]);
        }
        acc += arow_s[b] * brow_s[b] * static_cast<float>(dot);
      }
      crow[j] += acc;
    }
  }
}

// Q8 activations against packed Q4_0 weights: each weight byte carries two
// codes (low nibble first), value = code - 8, so the padded code 8 is an
// exact zero lane.
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
        const std::int8_t* ab = arow + b * 32;
        const std::uint8_t* bb = brow + b * 16;
        // Two strided accumulators (even lanes x low nibbles, odd lanes x
        // high nibbles) vectorize measurably better than a fused
        // decode-and-interleave dot. Integer addition is associative, so
        // dlo + dhi is bit-identical to the single-accumulator sum.
        std::int32_t dlo = 0, dhi = 0;
        for (int t = 0; t < 16; ++t) {
          dlo += static_cast<std::int32_t>(ab[2 * t]) *
                 (static_cast<std::int32_t>(bb[t] & 0x0f) - 8);
          dhi += static_cast<std::int32_t>(ab[2 * t + 1]) *
                 (static_cast<std::int32_t>(bb[t] >> 4) - 8);
        }
        acc += arow_s[b] * brow_s[b] * static_cast<float>(dlo + dhi);
      }
      crow[j] += acc;
    }
  }
}

// ---- tanh: glibc 2.36 tanhf / expm1f (fdlibm, Sun Microsystems 1993) ----
//
// A statement-by-statement transcription, constants given by their bit
// patterns. Both functions use only float + - * / and exponent-bit
// arithmetic, and glibc ships them without FMA or ifunc variants, so with
// -ffp-contract=off these return glibc's bits. A DISABLED_ test in
// tests/test_isa.cpp sweeps every 32-bit pattern against the host libm to
// check that claim; the known-answer table there pins the bits without
// reading the host libm.
// The FP-exception side effects of the original (forced underflow and
// inexact, errno on overflow) are dropped: no caller reads them.

float bits_to_float(std::uint32_t u) { return std::bit_cast<float>(u); }
std::uint32_t float_to_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

float expm1f_port(float x) {
  constexpr float kHuge = 1.0e+30f;
  constexpr float kTiny = 1.0e-30f;
  const float o_threshold = bits_to_float(0x42b17180u);  // 88.7216796875
  const float ln2_hi = bits_to_float(0x3f317180u);
  const float ln2_lo = bits_to_float(0x3717f7d1u);
  const float invln2 = bits_to_float(0x3fb8aa3bu);
  const float q1 = bits_to_float(0xbd088889u), q2 = bits_to_float(0x3ad00d01u),
              q3 = bits_to_float(0xb8a670cdu), q4 = bits_to_float(0x36867e54u),
              q5 = bits_to_float(0xb457edbbu);
  std::uint32_t hx = float_to_bits(x);
  const bool neg = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {      // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {    // |x| >= 88.72...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return neg ? -1.0f : x;
      if (x > o_threshold) return kHuge * kHuge;  // overflow
    }
    if (neg) return kTiny - 1.0f;  // x < -27 ln2: -1
  }

  // Argument reduction: x = k ln2 + r with |r| <= ln2 / 2, r = hi - lo.
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {      // |x| > ln2 / 2
    float hi, lo;
    if (hx < 0x3f851592u) {    // and |x| < 1.5 ln2
      if (!neg) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (neg ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t * ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x
    const float t = kHuge + x;
    return x - (t - kHuge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  // Adding k to y's exponent field scales y by 2^k (unsigned: k may be < 0).
  const std::uint32_t kexp = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    const float y = 1.0f - (e - x);
    return bits_to_float(float_to_bits(y) + kexp) - 1.0f;
  }
  if (k < 23) {
    t = bits_to_float(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    const float y = t - (e - x);
    return bits_to_float(float_to_bits(y) + kexp);
  }
  t = bits_to_float(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return bits_to_float(float_to_bits(y) + kexp);
}

float tanhf_port(float x) {
  const std::uint32_t jx = float_to_bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {              // |x| < 22
    if (ix == 0) return x;             // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    const float ax = bits_to_float(ix);
    if (ix >= 0x3f800000u) {           // |x| >= 1
      const float t = expm1f_port(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1f_port(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - 1.0e-30f;  // |x| >= 22: 1
  }
  return neg ? -z : z;
}

void tanh_row(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = tanhf_port(in[i]);
}

void gelu_row(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float t = tanhf_port(kGeluC * (x + kGeluA * x * x * x));
    out[i] = 0.5f * x * (1.0f + t);
  }
}

// ---- exp: glibc 2.36 expf (e_expf.c, Szabolcs Nagy, Arm 2017) ----
//
// On an x86-64 host with FMA, libm's expf is an IFUNC that resolves to the
// FMA build of e_expf.c, where the compiler contracted five multiply-adds.
// They are written out here as std::fma (exact on every target), so the
// port returns that build's bits on any host; without them it differs on
// two inputs. The constants are the kExp* ones in kernels_dispatch.hpp. The
// special path returns what glibc returns, without its errno and
// exception side effects.
//
// This TU has no -mfma, so each std::fma is a libm call. The exp and
// softmax rows are therefore also compiled as target("fma") clones, where
// the same std::fma is one instruction with the same single rounding, and
// scalar_table() picks the clones once when the CPU has FMA.

[[gnu::always_inline]] inline float expf_port(float x) {
  const std::uint32_t ux = float_to_bits(x);
  if ((ux & 0x7fffffffu) >= kExpSpecialBits) {  // |x| >= 88 or NaN
    if (ux == 0xff800000u) return 0.0f;          // exp(-Inf) = +0
    if ((ux & 0x7fffffffu) >= 0x7f800000u) return x + x;  // NaN, +Inf
    if (x > 0x1.62e42ep6f) return 0x1p97f * 0x1p97f;      // overflow: +Inf
    if (x < -0x1.9fe368p6f) return 0x1p-95f * 0x1p-95f;   // underflow: +0
  }
  const double xd = x;
  // x 32/ln2 = k + r: adding kExpShift rounds k into kd's low bits.
  double kd = std::fma(kExpInvLn2N, xd, kExpShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  // s = 2^(k/32): the table entry with k / 32 added to its exponent field.
  const double s = std::bit_cast<double>(kExp2fTable[ki % 32] + (ki << 47));
  const double z = std::fma(kExpC0, r, kExpC1);
  const double r2 = r * r;
  double y = std::fma(kExpC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

[[gnu::always_inline]] inline void exp_body(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = expf_port(in[i]);
}

// The row max, then exp(in[j] - max) with the float sum added serially in
// j order (the order is part of the bits), then one multiply by 1 / sum.
[[gnu::always_inline]] inline void softmax_body(const float* in, float* out, std::int64_t n) {
  float mx = in[0];
  for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, in[j]);
  float sum = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    out[j] = expf_port(in[j] - mx);
    sum += out[j];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t j = 0; j < n; ++j) out[j] *= inv;
}

void exp_row(const float* in, float* out, std::int64_t n) { exp_body(in, out, n); }
void softmax_row(const float* in, float* out, std::int64_t n) { softmax_body(in, out, n); }

#if defined(__x86_64__)
[[gnu::target("fma")]] void exp_row_fma(const float* in, float* out, std::int64_t n) {
  exp_body(in, out, n);
}
[[gnu::target("fma")]] void softmax_row_fma(const float* in, float* out, std::int64_t n) {
  softmax_body(in, out, n);
}
#endif

// ---- attention: one head, rows in place ----
//
// The two products run the matmul_accum body (accum_rows) on the rows in
// place, so each element is the scalar sequence the gathered form gave it:
// a score starts at 0 and gains q[p] * k[j][p] for p ascending (each
// product rounded), then one multiply by inv_sqrt; an output starts at 0
// and gains s[j] * v[j][c] for every key j < len, the masked ones
// included, so a zero weight against a NaN value row still yields NaN. The
// head's K columns are copied transposed into a per-thread panel (score
// columns are keys); Q and V rows are read at the model's row stride.

void attend_head_range(const float* q, const float* k, const float* v, float* ctx,
                       std::int64_t ld, std::int64_t d_head, std::int64_t len,
                       std::int64_t past, float inv_sqrt, std::int64_t r0, std::int64_t r1) {
  thread_local std::vector<float> kt, scores;
  const std::int64_t keys = past + r1;  // the keys the range's last row sees
  kt.resize(static_cast<std::size_t>(d_head * keys));
  for (std::int64_t j = 0; j < keys; ++j) {
    for (std::int64_t p = 0; p < d_head; ++p) kt[p * keys + j] = k[j * ld + p];
  }
  const std::int64_t rows = r1 - r0;
  scores.assign(static_cast<std::size_t>(rows * len), 0.0f);
  float* s = scores.data();
  accum_rows(q + r0 * ld, ld, kt.data(), keys, s, len, 0, rows, d_head, keys);
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = s + i * len;
    const std::int64_t visible = past + r0 + i + 1;
    for (std::int64_t j = 0; j < visible; ++j) row[j] = row[j] * inv_sqrt;
    scalar_table().softmax_row(row, row, visible);
    std::fill(row + visible, row + len, 0.0f);
    std::fill(ctx + (r0 + i) * ld, ctx + (r0 + i) * ld + d_head, 0.0f);
  }
  accum_rows(s, len, v, ld, ctx + r0 * ld, ld, 0, rows, len, d_head);
}

// ---- LoRA projections: the separate passes on the range's rows ----
//
// Each product runs accum_rows into zeroed rows (y for the base, per-thread
// scratch for x A and (x A) B), then one epilogue pass adds the bias and
// the scaled delta: every element is the separate passes' sequence.

void lora_projections_range(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
                            const LoraProjection* projs, int count, std::int64_t r0,
                            std::int64_t r1) {
  thread_local std::vector<float> xa, up;
  const std::int64_t rows = r1 - r0;
  for (int q = 0; q < count; ++q) {
    const LoraProjection& pr = projs[q];
    float* y = pr.y + r0 * n;
    if (pr.w) {
      std::fill(y, y + rows * n, 0.0f);
      accum_rows(x, k, pr.w, n, pr.y, n, r0, r1, k, n);
    }
    xa.assign(static_cast<std::size_t>(rows * r), 0.0f);
    accum_rows(x + r0 * k, k, pr.a, r, xa.data(), r, 0, rows, k, r);
    up.assign(static_cast<std::size_t>(rows * n), 0.0f);
    accum_rows(xa.data(), r, pr.b, n, up.data(), n, 0, rows, r, n);
    for (std::int64_t i = 0; i < rows; ++i) {
      float* yrow = y + i * n;
      const float* urow = up.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float base = pr.bias ? yrow[j] + pr.bias[j] : yrow[j];
        yrow[j] = base + urow[j] * pr.scale;
      }
    }
  }
}

// ---- Q8_0 activation/weight quantizer ----

void quantize_row_q8(const float* x, std::int64_t n, float* scales, std::int8_t* codes) {
  constexpr std::int64_t kBlock = 32;
  for (std::int64_t b = 0; b * kBlock < n; ++b) {
    const float* xb = x + b * kBlock;
    const std::int64_t count = std::min(kBlock, n - b * kBlock);
    const float best = signed_absmax(xb, count);
    // best / -128 is an exact exponent shift (no mantissa rounding), so
    // x == best divides back to exactly -128 and q * d reconstructs it
    // bit-exactly; a constant block is therefore exact end to end.
    const float d = best == 0.0f ? 0.0f : best / -128.0f;
    scales[b] = d;
    for (std::int64_t t = 0; t < kBlock; ++t) {
      std::int32_t q = 0;
      if (t < count && has_codes(d)) q = clamp_code(std::lrintf(xb[t] / d), -128, 127);
      codes[b * kBlock + t] = static_cast<std::int8_t>(q);
    }
  }
}

}  // namespace

ScalarExpBodies scalar_exp_bodies(bool fma) {
#if defined(__x86_64__)
  if (fma) return {&exp_row_fma, &softmax_row_fma};
#endif
  (void)fma;
  return {&exp_row, &softmax_row};
}

const KernelTable& scalar_table() {
  static const KernelTable table = [] {
    bool fma = false;
#if defined(__x86_64__)
    __builtin_cpu_init();  // in case the first kernel call runs in a static initializer
    fma = __builtin_cpu_supports("fma");
#endif
    const auto exp = scalar_exp_bodies(fma);
    return KernelTable{
        &matmul_accum_range, &matmul_bt_accum_range, &matmul_at_accum_range,
        &matmul_q8_range,    &matmul_q4_range,       &tanh_row,
        &gelu_row,           &quantize_row_q8,       exp.exp_row,
        exp.softmax_row,     &attend_head_range,     &lora_projections_range,
    };
  }();
  return table;
}

}  // namespace netllm::tensor::kernels::detail
