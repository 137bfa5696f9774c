// Internal dispatch table between the public matmul entry points
// (tensor/kernels.cpp) and the per-ISA range-kernel TUs (kernels_scalar.cpp,
// kernels_avx2.cpp, kernels_neon.cpp). Not installed API — tests and callers
// go through tensor/kernels.hpp and tensor/isa.hpp.
//
// The matmul functions here are *range* kernels: each computes a contiguous
// slice of the output and is what core::parallel_for chunks over. The
// contract each tier must honour (DESIGN.md §16): for a fixed tier, every
// output element's accumulation order is a pure function of (shape,
// element) — never of the [r0, r1) range it happens to be computed in — so
// any thread partition of the rows yields bitwise identical results within
// that tier.
//
// The row kernels (tanh, GELU, the Q8_0 activation quantizer) are stricter:
// every tier returns bitwise the scalar tier's output, so an element does
// not depend on the tier, the row length or where a parallel chunk cut it.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

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

/// out[0:n] = f(in[0:n]) elementwise; in == out is allowed.
using RowFn = void (*)(const float* in, float* out, std::int64_t n);
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
};

// GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))),
// evaluated left to right as written (every tier and the backward pass).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

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

#if defined(NETLLM_HAVE_AVX2)
/// AVX2+FMA tier (kernels_avx2.cpp, built with -mavx2 -mfma on this TU only).
const KernelTable& avx2_table();
#endif

#if defined(NETLLM_HAVE_NEON)
/// NEON tier (kernels_neon.cpp, aarch64 builds only).
const KernelTable& neon_table();
#endif

/// Table for the currently active tier. First call resolves NETLLM_ISA via
/// isa::active_isa(). Defined in isa.cpp.
const KernelTable& active_table();

}  // namespace netllm::tensor::kernels::detail
