// Internal dispatch table between the public matmul entry points
// (tensor/kernels.cpp) and the per-ISA range-kernel TUs (kernels_scalar.cpp,
// kernels_avx2.cpp, kernels_avx512.cpp). Not installed API — callers go
// through tensor/kernels.hpp and tensor/isa.hpp.
//
// The matmul functions here are *range* kernels: each computes a contiguous
// slice of the output and is what core::parallel_for chunks over. The
// contract each tier must honour (DESIGN.md §16): for a fixed tier, every
// output element's accumulation order is a pure function of (shape,
// element) — never of the [r0, r1) range it happens to be computed in — so
// any thread partition of the rows yields bitwise identical results within
// that tier.
//
// The row kernels (tanh, exp, softmax, GELU, the Q8_0 activation quantizer)
// are stricter: every tier returns bitwise the scalar tier's output, so an
// element does not depend on the tier, the row length or where a parallel
// chunk cut it.
//
// The attention kernel and the LoRA projection slot follow the matmul
// contract: each element keeps the sequence the tier's matmul_accum gives
// it, whatever row range it runs in.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/kernels.hpp"

namespace netllm::tensor::kernels::detail {

/// C[r0:r1, n] += A[r0:r1, k] * B[k, n]   (rows of C)
using MatmulRangeFn = void (*)(const float* a, const float* b, float* c,
                               std::int64_t r0, std::int64_t r1, std::int64_t k,
                               std::int64_t n);
/// C[r0:r1, n] += A[r0:r1, k] * B^T, B is [n, k]   (rows of C)
using MatmulBtRangeFn = void (*)(const float* a, const float* b, float* c,
                                 std::int64_t r0, std::int64_t r1, std::int64_t k,
                                 std::int64_t n);
/// C[p0:p1, n] += (A^T B)[p0:p1, :], A is [m, k], B is [m, n]   (rows of C = k dim)
using MatmulAtRangeFn = void (*)(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t p0, std::int64_t p1,
                                 std::int64_t k, std::int64_t n);
/// Q8_0 x Q8_0 rows [r0, r1) of C[m, n] (kb 32-wide blocks per row).
using MatmulQ8RangeFn = void (*)(const std::int8_t* aq, const float* ascales,
                                 const std::int8_t* bq, const float* bscales, float* c,
                                 std::int64_t r0, std::int64_t r1, std::int64_t kb,
                                 std::int64_t n);
/// Q8_0 x Q4_0 rows [r0, r1) of C[m, n].
using MatmulQ4RangeFn = void (*)(const std::int8_t* aq, const float* ascales,
                                 const std::uint8_t* bq, const float* bscales, float* c,
                                 std::int64_t r0, std::int64_t r1, std::int64_t kb,
                                 std::int64_t n);

/// out[0:n] = f(in[0:n]) elementwise (softmax: over the row); in == out is
/// allowed.
using RowFn = void (*)(const float* in, float* out, std::int64_t n);
/// One head of causal self-attention, query rows [r0, r1) of a segment,
/// read in place from row-major buffers of row stride `ld`: query row i is
/// q + i*ld, key and value row j are k + j*ld and v + j*ld (j < len), and
/// the head's d_head output columns are ctx + i*ld. Row i sees the keys
/// j < past + i + 1. Per row: scores s[j] = (Q_i . K_j) * inv_sqrt with the
/// dot as the tier's matmul_accum sequence (p ascending), the tier's
/// softmax_row over the visible scores, zeros after them, and ctx[c] the
/// matmul_accum sequence over all len keys of s[j] * V[j][c].
using AttendHeadRangeFn = void (*)(const float* q, const float* k, const float* v, float* ctx,
                                   std::int64_t ld, std::int64_t d_head, std::int64_t len,
                                   std::int64_t past, float inv_sqrt, std::int64_t r0,
                                   std::int64_t r1);
/// Rows [r0, r1) of `count` LoRA projections of x [m, k] (see
/// kernels::lora_projections): base, down-projection and up-projection each
/// keep the tier's matmul_accum sequence per element.
using LoraRangeFn = void (*)(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
                             const LoraProjection* projs, int count, std::int64_t r0,
                             std::int64_t r1);
/// Q8_0-quantizes n values into ceil(n / 32) blocks: one scale per block and
/// 32 int8 codes per block, the tail of the last block padded with code 0.
using QuantizeRowQ8Fn = void (*)(const float* x, std::int64_t n, float* scales,
                                 std::int8_t* codes);

struct KernelTable {
  MatmulRangeFn matmul_accum = nullptr;
  MatmulBtRangeFn matmul_bt_accum = nullptr;
  MatmulAtRangeFn matmul_at_accum = nullptr;
  MatmulQ8RangeFn matmul_q8 = nullptr;
  MatmulQ4RangeFn matmul_q4 = nullptr;
  RowFn tanh_row = nullptr;
  RowFn gelu_row = nullptr;
  QuantizeRowQ8Fn quantize_row_q8 = nullptr;
  RowFn exp_row = nullptr;
  RowFn softmax_row = nullptr;
  AttendHeadRangeFn attend_head = nullptr;
  LoraRangeFn lora_projections = nullptr;
};

// GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))),
// evaluated left to right as written (every tier and the backward pass).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

// expf: glibc 2.36 e_expf.c as its FMA build runs it (the scalar tier's
// expf_port), with the data of __exp2f_data: exp(x) = 2^(k/32) 2^(r/32),
// k = round(x 32/ln2), the 2^(k/32) from a 32-entry table of doubles whose
// exponent field takes k / 32, the 2^(r/32) from a cubic in double.
// Arguments with |x| >= 88 (and NaN) take the function's special path.
inline constexpr std::uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln2
constexpr double kExpShift = 0x1.8p+52;               // rounds to an integer in the low bits
constexpr double kExpC0 = 0x1.c6af84b912394p-20;       // cubic of 2^(r/32), scaled by 32^-3
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
/// Magnitude bits from which expf leaves its fast path: |x| >= 88 or NaN.
constexpr std::uint32_t kExpSpecialBits = 0x42b00000u;

// ---- block-quantizer helpers (the scalar Q8_0 row kernel and quants.cpp's Q4_0) ----

/// Signed value of largest magnitude in [x, x+n), the earliest one on a tie
/// of magnitudes. Keeping the sign lets the scale map the extreme onto the
/// power-of-two end of the code range (-128 for Q8_0, -8 for Q4_0), so that
/// element reconstructs exactly. A block holding a NaN or Inf yields NaN:
/// its scale becomes NaN, so every value read from the block is NaN instead
/// of a laundered finite code.
inline float signed_absmax(const float* x, std::int64_t n) {
  float best = 0.0f;
  for (std::int64_t t = 0; t < n; ++t) {
    if (!std::isfinite(x[t])) return std::numeric_limits<float>::quiet_NaN();
    if (std::fabs(x[t]) > std::fabs(best)) best = x[t];
  }
  return best;
}

/// Codes are only computed for a finite, non-zero scale; a zero or NaN
/// scale leaves every code at the zero value.
inline bool has_codes(float d) { return d != 0.0f && !std::isnan(d); }

inline std::int32_t clamp_code(long v, std::int32_t lo, std::int32_t hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return static_cast<std::int32_t>(v);
}

/// Portable baseline tier — always compiled, the pre-dispatch kernels.
const KernelTable& scalar_table();

/// The scalar tier's exp and softmax rows, built portable (fma == false:
/// std::fma is a libm call) or as target("fma") clones (x86-64 only; on a
/// CPU without FMA they must not run). Same bits either way; scalar_table()
/// holds the clones when the CPU has FMA. Tests pin both.
struct ScalarExpBodies {
  RowFn exp_row;
  RowFn softmax_row;
};
ScalarExpBodies scalar_exp_bodies(bool fma);

#if defined(NETLLM_HAVE_AVX2)
/// AVX2+FMA tier (kernels_avx2.cpp, built with -mavx2 -mfma on this TU only).
const KernelTable& avx2_table();
/// The AVX2 attention kernel's K panel: kt[p * stride + j] = k[j * ld + p]
/// for j < keys, p < d_head, the lanes of the last 8-key block past `keys`
/// zero (stride is keys rounded up to 8). The AVX-512 tier reuses it.
void avx2_transpose_keys(const float* k, std::int64_t ld, std::int64_t d_head, std::int64_t keys,
                         float* kt, std::int64_t stride);
#endif

#if defined(NETLLM_HAVE_AVX512)
/// AVX-512 tier (kernels_avx512.cpp, built with -mavx512f/bw/vl/vnni -mfma
/// on this TU only): the AVX2 tier's bits from 16-lane bodies.
const KernelTable& avx512_table();
#endif

/// Table for the currently active tier. First call resolves NETLLM_ISA via
/// isa::active_isa(). Defined in isa.cpp.
const KernelTable& active_table();

}  // namespace netllm::tensor::kernels::detail
