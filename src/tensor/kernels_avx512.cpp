// AVX-512 tier of the range kernels. This TU — and only this TU — is
// compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vnni -mfma (plus
// -ffp-contract=off like every kernel TU); the runtime dispatch table
// (tensor/isa.*) decides whether it runs.
//
// Contract (DESIGN.md §16): every slot returns the AVX2 tier's output bit
// for bit, so NETLLM_ISA=avx2 and avx512 serve the same decisions.
//
// fp32 matmul_accum: the vector tiers define element c[i][j] as acc = 0,
// one fused multiply-add per p ascending, then c[i][j] += acc. That does
// not depend on the lane count, so this tier runs the same sequence in
// 16-lane zmm register tiles (8-lane ymm tiles for n <= 8, where half a
// zmm would idle), with opmask tails instead of maskload/maskstore. The
// tile is chosen by shape; an element's sequence never depends on it.
//
// attend_head runs its score and attn·V products through that body at the
// operands' row strides; the K panel is the AVX2 tier's transpose and the
// softmax is the row kernel below. The fused LoRA slot keeps the same
// per-element sequence for its three products and runs every projection
// of a call (Q, K and V) in one p-loop.
//
// The row kernels (tanh, GELU, exp, softmax, the Q8_0 quantizer) are the
// AVX2 tier's per-lane sequences on 16 floats (exp: 8 doubles per half):
// each lane performs the scalar port's float operations, and the cases the
// AVX2 tier hands to the scalar body (a non-finite tanh argument, an exp
// argument on expf's special path, a non-finite softmax row or quantizer
// block, a partial block) are handed to it here too. The softmax sum stays
// serial in j order.
//
// Q8_0 x Q8_0 computes each exact int32 block dot with vpdpbusd, which
// multiplies unsigned by signed bytes: the weight codes take a +128 offset
// (w + 128 fits a byte) and 128 * sum(a) is subtracted per activation
// block in int32, one scalar per block shared by every column. The
// per-block float accumulation keeps the scalar order, so the bits are
// the scalar tier's (and the AVX2 tier's).
//
// matmul_bt, matmul_at and matmul_q4 are training-only or unserved and
// inherit the AVX2 bodies.
#if defined(NETLLM_HAVE_AVX512)

#include "tensor/kernels_dispatch.hpp"

// GCC 12's AVX-512 headers initialise their "undefined" vectors from
// themselves, which -Wmaybe-uninitialized reports at every masked intrinsic.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace netllm::tensor::kernels::detail {

namespace {

// ---- fp32: C[r0:r1, n] += A * B ----

/// Row strides of A, B and C (k, n and n for a dense product).
struct Strides {
  std::int64_t a, b, c;
};

/// 16-lane zmm vectors, tails masked by a __mmask16.
struct Zmm {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static Mask first(int lanes) { return static_cast<Mask>((1u << lanes) - 1u); }
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static V splat(const float* p) { return _mm512_set1_ps(*p); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm512_mask_storeu_ps(p, m, v); }
};

/// 8-lane ymm vectors under AVX-512VL, tails masked by a __mmask8.
struct Ymm {
  using V = __m256;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  static Mask first(int lanes) { return static_cast<Mask>((1u << lanes) - 1u); }
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm256_maskz_loadu_ps(m, p); }
  static V splat(const float* p) { return _mm256_broadcast_ss(p); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm256_mask_storeu_ps(p, m, v); }
};

/// Rows i..i+R-1 x columns j..j+W*J-1 (W = T::kLanes); with Tail the last
/// vector keeps only its first `lanes` lanes. R*J independent FMA chains
/// share each B load across the rows and each broadcast across the vectors.
template <class T, int R, int J, bool Tail>
void f32_tile(const float* a, const float* b, float* c, std::int64_t k, Strides ld, int lanes) {
  constexpr int W = T::kLanes;
  const typename T::Mask tail = T::first(lanes);
  typename T::V acc[R][J];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) acc[r][v] = T::zero();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ld.b;
    if constexpr (R == 1) {
      // One row reuses nothing, so fetch B's lines four rows ahead (past
      // the end of B a prefetch is a harmless no-op).
      for (int v = 0; v < J; v += 64 / (4 * W)) {
        _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * ld.b + W * v), _MM_HINT_T0);
      }
    }
    typename T::V bv[J];
    for (int v = 0; v < J; ++v) {
      bv[v] = Tail && v == J - 1 ? T::load(brow + W * v, tail) : T::load(brow + W * v);
    }
    for (int r = 0; r < R; ++r) {
      const typename T::V av = T::splat(a + r * ld.a + p);
      for (int v = 0; v < J; ++v) acc[r][v] = T::fma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) {
      float* cv = c + r * ld.c + W * v;
      if (Tail && v == J - 1) {
        T::store(cv, tail, T::add(T::load(cv, tail), acc[r][v]));
      } else {
        T::store(cv, T::add(T::load(cv), acc[r][v]));
      }
    }
  }
}

/// The rest of a row block, fewer than W*J columns: one tile of `vecs`
/// vectors (stepping J down to it), the last holding `lanes` columns.
template <class T, int R, int J>
void f32_tail(const float* a, const float* b, float* c, std::int64_t k, Strides ld, int vecs,
              int lanes) {
  if constexpr (J > 1) {
    if (vecs < J) return f32_tail<T, R, J - 1>(a, b, c, k, ld, vecs, lanes);
  }
  if (lanes == T::kLanes) return f32_tile<T, R, J, false>(a, b, c, k, ld, lanes);
  f32_tile<T, R, J, true>(a, b, c, k, ld, lanes);
}

/// Rows i..i+R-1 across all n columns: full J-vector tiles, then one tail.
template <class T, int R, int J>
void f32_rows(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
              Strides ld) {
  constexpr int W = T::kLanes;
  std::int64_t j = 0;
  for (; j + W * J <= n; j += W * J) f32_tile<T, R, J, false>(a, b + j, c + j, k, ld, W);
  if (j == n) return;
  const auto rest = static_cast<int>(n - j);
  f32_tail<T, R, J>(a, b + j, c + j, k, ld, (rest + W - 1) / W, rest - W * ((rest - 1) / W));
}

/// Rows r0..r1 in blocks of Big rows, then one block of 4, 2 and 1 rows as
/// the remainder needs; T, Big and the column widths are per shape.
template <class T, int Big, int JBig, int J4, int J2, int J1>
void f32_blocks(const float* a, const float* b, float* c, std::int64_t r0, std::int64_t r1,
                std::int64_t k, std::int64_t n, Strides ld) {
  std::int64_t i = r0;
  for (; i + Big <= r1; i += Big) f32_rows<T, Big, JBig>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
  if (i + 4 <= r1) {
    f32_rows<T, 4, J4>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
    i += 4;
  }
  if (i + 2 <= r1) {
    f32_rows<T, 2, J2>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
    i += 2;
  }
  if (i < r1) f32_rows<T, 1, J1>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
}

/// C[r0:r1, 0:n] += A[r0:r1, 0:k] * B[0:k, 0:n] at strides `ld`. Up to 8
/// columns run ymm tiles of 8 rows (a LoRA down-projection: eight chains
/// instead of a half-empty zmm), wider products zmm tiles of 6 rows by 64
/// columns, and a single row 128 columns at a time.
void f32_range(const float* a, const float* b, float* c, std::int64_t r0, std::int64_t r1,
               std::int64_t k, std::int64_t n, Strides ld) {
  if (n <= Ymm::kLanes) return f32_blocks<Ymm, 8, 1, 1, 1, 1>(a, b, c, r0, r1, k, n, ld);
  f32_blocks<Zmm, 6, 4, 4, 8, 8>(a, b, c, r0, r1, k, n, ld);
}

void matmul_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                        std::int64_t r1, std::int64_t k, std::int64_t n) {
  f32_range(a, b, c, r0, r1, k, n, {k, n, n});
}

// ---- shared vector helpers ----

inline __m512i splat(std::uint32_t bits) { return _mm512_set1_epi32(static_cast<int>(bits)); }
inline __m512 splat_f(std::uint32_t bits) { return _mm512_castsi512_ps(splat(bits)); }
/// Signed int32 compares; every operand here is a non-negative magnitude.
inline __mmask16 above(__m512i v, std::uint32_t bits) {
  return _mm512_cmpgt_epi32_mask(v, splat(bits));
}
inline __mmask16 below(__m512i v, std::uint32_t bits) {
  return _mm512_cmpgt_epi32_mask(splat(bits), v);
}
/// Lanes of `yes` where `mask` is set, else `no`.
inline __m512 pick(__mmask16 mask, __m512 yes, __m512 no) {
  return _mm512_mask_blend_ps(mask, no, yes);
}
/// The first `lanes` of 16 (more than 16 means all 16).
inline __mmask16 first_lanes(std::int64_t lanes) {
  return lanes >= 16 ? static_cast<__mmask16>(0xffff) : Zmm::first(static_cast<int>(lanes));
}
/// |v| as integer bits.
inline __m512i magnitude(__m512 v) {
  return _mm512_andnot_si512(splat(0x80000000u), _mm512_castps_si512(v));
}
inline bool any_nonfinite(__m512 v) { return above(magnitude(v), 0x7f7fffffu) != 0; }

// ---- tanh / GELU: the AVX2 tier's tanh body on 16 lanes ----

/// y * 2^k by adding k to the exponent field, as the scalar port does.
inline __m512 add_exponent(__m512 y, __m512i kexp) {
  return _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), kexp));
}

/// expm1f_port on the arguments tanh passes it: finite, in (-2, 44) (the
/// |x| >= 27 ln2 early returns cannot fire there).
inline __m512 expm1_16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f), half = _mm512_set1_ps(0.5f);
  const __m512i sign = splat(0x80000000u);
  const __m512i xb = _mm512_castps_si512(x);
  const __m512i hx = _mm512_andnot_si512(sign, xb);
  // k: 0 for |x| <= ln2/2, +-1 below 1.5 ln2, else trunc(x/ln2 +- 0.5);
  // with t = (float)k the scalar reductions are one formula.
  const __m512 half_signed = _mm512_castsi512_ps(
      _mm512_or_si512(_mm512_castps_si512(half), _mm512_and_si512(sign, xb)));
  const __m512i k_far =
      _mm512_cvttps_epi32(_mm512_add_ps(_mm512_mul_ps(splat_f(0x3fb8aa3bu), x), half_signed));
  const __m512i k_near = _mm512_or_si512(_mm512_srai_epi32(xb, 31), _mm512_set1_epi32(1));
  const __m512i k = _mm512_maskz_mov_epi32(
      above(hx, 0x3eb17218u), _mm512_mask_blend_epi32(below(hx, 0x3f851592u), k_far, k_near));
  const __m512 t = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(t, splat_f(0x3f317180u)));
  const __m512 lo = _mm512_mul_ps(t, splat_f(0x3717f7d1u));
  const __m512 r = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

  const __m512 hfx = _mm512_mul_ps(half, r);
  const __m512 hxs = _mm512_mul_ps(r, hfx);
  __m512 p = _mm512_mul_ps(hxs, splat_f(0xb457edbbu));
  p = _mm512_mul_ps(hxs, _mm512_add_ps(splat_f(0x36867e54u), p));
  p = _mm512_mul_ps(hxs, _mm512_add_ps(splat_f(0xb8a670cdu), p));
  p = _mm512_mul_ps(hxs, _mm512_add_ps(splat_f(0x3ad00d01u), p));
  p = _mm512_mul_ps(hxs, _mm512_add_ps(splat_f(0xbd088889u), p));
  const __m512 r1 = _mm512_add_ps(one, p);
  const __m512 t3 = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t3),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f), _mm512_mul_ps(r, t3))));
  const __m512 y_k0 = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
  const __m512 ek = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
  const __m512 y_km1 = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r, ek)), half);
  const __m512 y_k1 =
      pick(_mm512_cmp_ps_mask(r, _mm512_set1_ps(-0.25f), _CMP_LT_OQ),
           _mm512_mul_ps(_mm512_set1_ps(-2.0f), _mm512_sub_ps(ek, _mm512_add_ps(r, half))),
           _mm512_add_ps(one, _mm512_mul_ps(_mm512_set1_ps(2.0f), _mm512_sub_ps(r, ek))));
  const __m512i kexp = _mm512_slli_epi32(k, 23);
  const __m512 y_far =
      _mm512_sub_ps(add_exponent(_mm512_sub_ps(one, _mm512_sub_ps(ek, r)), kexp), one);
  const __m512 one_minus = _mm512_castsi512_ps(
      _mm512_sub_epi32(splat(0x3f800000u), _mm512_srlv_epi32(splat(0x1000000u), k)));
  const __m512 y_mid = add_exponent(_mm512_sub_ps(one_minus, _mm512_sub_ps(ek, r)), kexp);
  const __m512 two_neg_k = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23));
  const __m512 y_high = add_exponent(
      _mm512_add_ps(_mm512_sub_ps(r, _mm512_add_ps(ek, two_neg_k)), one), kexp);

  // The scalar body's k dispatch, innermost case last.
  const __mmask16 k_ge2 = _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(1));
  const __mmask16 k_le56 = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(57), k);
  const __mmask16 k_lt23 = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(23), k);
  __m512 y = y_far;  // k <= -2 or k > 56
  y = pick(_kand_mask16(_kand_mask16(k_ge2, k_le56), k_lt23), y_mid, y);
  y = pick(_kandn_mask16(k_lt23, k_le56), y_high, y);
  y = pick(_mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(1)), y_k1, y);
  y = pick(_mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), y_km1, y);
  y = pick(_mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), y_k0, y);
  return pick(below(hx, 0x33000000u), x, y);  // |x| < 2^-25: x
}

/// tanhf_port on 16 finite lanes.
inline __m512 tanh_16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f), two = _mm512_set1_ps(2.0f);
  const __m512i sign = splat(0x80000000u);
  const __m512i xb = _mm512_castps_si512(x);
  const __m512i ix = _mm512_andnot_si512(sign, xb);
  const __m512 ax = _mm512_castsi512_ps(ix);
  const __mmask16 ge_one = above(ix, 0x3f7fffffu);
  const __m512 t = expm1_16(
      pick(ge_one, _mm512_mul_ps(two, ax), _mm512_mul_ps(_mm512_set1_ps(-2.0f), ax)));
  const __m512 den = _mm512_add_ps(t, two);
  const __m512 neg_t = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(t), sign));
  __m512 z = pick(ge_one, _mm512_sub_ps(one, _mm512_div_ps(two, den)), _mm512_div_ps(neg_t, den));
  z = pick(above(ix, 0x41afffffu), one, z);  // |x| >= 22
  z = _mm512_castsi512_ps(
      _mm512_xor_si512(_mm512_castps_si512(z), _mm512_and_si512(sign, xb)));
  // |x| < 2^-55 (and +-0, which x * (1 + x) returns unchanged).
  return pick(below(ix, 0x24000000u), _mm512_mul_ps(x, _mm512_add_ps(one, x)), z);
}

/// The first `lanes` (<= 16) tanh values of in -> out.
inline void tanh_vec(const float* in, float* out, std::int64_t lanes) {
  const __mmask16 m = first_lanes(lanes);
  const __m512 x = _mm512_maskz_loadu_ps(m, in);
  if (any_nonfinite(x)) return scalar_table().tanh_row(in, out, lanes);
  _mm512_mask_storeu_ps(out, m, tanh_16(x));
}

/// The first `lanes` (<= 16) GELU values, the scalar expression order:
/// C (x + ((A x) x) x), then (0.5 x)(1 + tanh). Lanes past `lanes` are
/// zero, which is finite, so padding never forces the scalar path.
inline void gelu_vec(const float* in, float* out, std::int64_t lanes) {
  const __mmask16 m = first_lanes(lanes);
  const __m512 x = _mm512_maskz_loadu_ps(m, in);
  const __m512 x3 =
      _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluA), x), x), x);
  const __m512 inner = _mm512_mul_ps(_mm512_set1_ps(kGeluC), _mm512_add_ps(x, x3));
  if (any_nonfinite(inner)) return scalar_table().gelu_row(in, out, lanes);
  const __m512 t = tanh_16(inner);
  _mm512_mask_storeu_ps(out, m, _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), x),
                                              _mm512_add_ps(_mm512_set1_ps(1.0f), t)));
}

/// Whole 16-lane vectors, then the last n mod 16 values through a masked one.
template <void (*Vec)(const float*, float*, std::int64_t)>
void row_by_vectors(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 16) Vec(in + i, out + i, std::min<std::int64_t>(16, n - i));
}

void tanh_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<tanh_vec>(in, out, n);
}

void gelu_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<gelu_vec>(in, out, n);
}

// ---- exp / softmax: the AVX2 tier's expf body on 16 lanes ----
//
// expf_port computes in double, so 16 floats run as two 8-lane double
// vectors through the same operations (fmadd/fmsub round once, as
// std::fma; cvtpd_ps rounds to nearest, as the scalar cast). The 32-entry
// 2^(k/32) table is four zmm of doubles read by two two-source permutes.

inline __m256 low_half(__m512 v) { return _mm512_castps512_ps256(v); }
inline __m256 high_half(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}
inline __m512 join_halves(__m256 lo, __m256 hi) {
  return _mm512_castpd_ps(_mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_castps_pd(lo)),
                                             _mm256_castps_pd(hi), 1));
}

/// expf_port on eight arguments on its fast path.
inline __m256 exp8(__m256 x) {
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d inv = _mm512_set1_pd(kExpInvLn2N), shift = _mm512_set1_pd(kExpShift);
  __m512d kd = _mm512_fmadd_pd(inv, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv, xd, kd);
  // kExp2fTable[ki % 32]: bits 0-3 pick within a 16-entry pair, bit 4 the pair.
  const __m512i lo = _mm512_permutex2var_epi64(_mm512_loadu_si512(kExp2fTable), ki,
                                               _mm512_loadu_si512(kExp2fTable + 8));
  const __m512i hi = _mm512_permutex2var_epi64(_mm512_loadu_si512(kExp2fTable + 16), ki,
                                               _mm512_loadu_si512(kExp2fTable + 24));
  const __m512i entry =
      _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), lo, hi);
  const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(entry, _mm512_slli_epi64(ki, 47)));
  const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(kExpC0), r, _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kExpC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_cvtpd_ps(_mm512_mul_pd(y, s));
}

inline __m512 exp16(__m512 x) { return join_halves(exp8(low_half(x)), exp8(high_half(x))); }

inline bool any_exp_special(__m512 x) { return above(magnitude(x), kExpSpecialBits - 1) != 0; }

/// The first `lanes` (<= 16) exp values of in -> out.
inline void exp_vec(const float* in, float* out, std::int64_t lanes) {
  const __mmask16 m = first_lanes(lanes);
  const __m512 x = _mm512_maskz_loadu_ps(m, in);
  if (any_exp_special(x)) return scalar_table().exp_row(in, out, lanes);
  _mm512_mask_storeu_ps(out, m, exp16(x));
}

void exp_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<exp_vec>(in, out, n);
}

/// The scalar softmax_row on a row of finite values, as the AVX2 tier runs
/// it: the max by vector max (it can differ from the scalar loop's only in
/// the sign of a zero maximum, which changes no exp), the exps 16 at a
/// time, their float sum added serially in j order, then the elementwise
/// normalising multiply. A row holding a non-finite value runs the scalar
/// body.
void softmax_row(const float* in, float* out, std::int64_t n) {
  // Lanes of the last vector past n take the running max (then the max
  // itself), so they add nothing to the max and take exp(0), unstored.
  __m512 mx = _mm512_set1_ps(in[0]);
  __mmask16 bad = 0;
  for (std::int64_t j = 0; j < n; j += 16) {
    const __m512 x = _mm512_mask_loadu_ps(mx, first_lanes(n - j), in + j);
    mx = _mm512_max_ps(mx, x);
    bad = _kor_mask16(bad, above(magnitude(x), 0x7f7fffffu));
  }
  if (bad != 0) return scalar_table().softmax_row(in, out, n);
  const __m512 top = _mm512_set1_ps(_mm512_reduce_max_ps(mx));
  float sum = 0.0f;
  for (std::int64_t j = 0; j < n; j += 16) {
    const __mmask16 m = first_lanes(n - j);
    const __m512 x = _mm512_sub_ps(_mm512_mask_loadu_ps(top, m, in + j), top);
    __m512 e;
    if (any_exp_special(x)) {
      alignas(64) float lanes[16];
      _mm512_store_ps(lanes, x);
      scalar_table().exp_row(lanes, lanes, 16);
      e = _mm512_load_ps(lanes);
    } else {
      e = exp16(x);
    }
    _mm512_mask_storeu_ps(out + j, m, e);
    for (std::int64_t l = j; l < std::min(j + 16, n); ++l) sum += out[l];
  }
  const __m512 inv = _mm512_set1_ps(1.0f / sum);
  for (std::int64_t j = 0; j < n; j += 16) {
    const __mmask16 m = first_lanes(n - j);
    _mm512_mask_storeu_ps(out + j, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, out + j), inv));
  }
}

// ---- attention: one head, rows in place ----
//
// The AVX2 tier's body with this tier's products: the head's K columns for
// the keys the row range sees go through the AVX2 transpose into a
// per-thread panel [d_head][keys rounded up to 8]; each 6-row block of
// scores stops at the keys its last row sees; the output is 0 + (the fma
// chain over every key j < len of s[j] v[j][c]), a masked key's zero
// weight included, so a NaN value row still reaches it.

void attend_head_range(const float* q, const float* k, const float* v, float* ctx,
                       std::int64_t ld, std::int64_t d_head, std::int64_t len,
                       std::int64_t past, float inv_sqrt, std::int64_t r0, std::int64_t r1) {
  thread_local std::vector<float> kt, scores;
  const std::int64_t keys = past + r1;  // the keys the range's last row sees
  const std::int64_t stride = (keys + 7) / 8 * 8;
  kt.resize(static_cast<std::size_t>(d_head * stride));
  avx2_transpose_keys(k, ld, d_head, keys, kt.data(), stride);
  const std::int64_t rows = r1 - r0;
  scores.assign(static_cast<std::size_t>(rows * len), 0.0f);
  float* s = scores.data();
  for (std::int64_t i = 0; i < rows; i += 6) {
    const std::int64_t block = std::min<std::int64_t>(6, rows - i);
    f32_range(q + (r0 + i) * ld, kt.data(), s + i * len, 0, block, d_head,
              past + r0 + i + block, {ld, stride, len});
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = s + i * len;
    const std::int64_t visible = past + r0 + i + 1;
    for (std::int64_t j = 0; j < visible; ++j) row[j] = row[j] * inv_sqrt;
    softmax_row(row, row, visible);
    std::fill(row + visible, row + len, 0.0f);
    std::fill(ctx + (r0 + i) * ld, ctx + (r0 + i) * ld + d_head, 0.0f);
  }
  f32_range(s, v, ctx + r0 * ld, 0, rows, len, d_head, {len, ld, ld});
}

// ---- Q8_0 quantizer: the scalar block loop, one full block at a time ----
//
// The AVX2 tier's block: max |x| by vector max, the earliest lane holding
// it sets the scale best / -128, codes x / d rounded by cvtps_epi32 in the
// current mode (nearest-even, as lrintf) and narrowed with signed
// saturation to [-128, 127], as clamp_code (and the AVX2 packs) do.

void quantize_block_q8(const float* x, float* scale, std::int8_t* codes) {
  const __m512 v0 = _mm512_loadu_ps(x), v1 = _mm512_loadu_ps(x + 16);
  const __m512i mag0 = magnitude(v0), mag1 = magnitude(v1);
  if (_kor_mask16(above(mag0, 0x7f7fffffu), above(mag1, 0x7f7fffffu)) != 0) {
    return scalar_table().quantize_row_q8(x, 32, scale, codes);  // NaN scale, zero codes
  }
  const __m512 m0 = _mm512_castsi512_ps(mag0), m1 = _mm512_castsi512_ps(mag1);
  const float top = _mm512_reduce_max_ps(_mm512_max_ps(m0, m1));
  float d = 0.0f;
  if (top != 0.0f) {
    const __m512 topv = _mm512_set1_ps(top);
    const std::uint32_t first =
        static_cast<std::uint32_t>(_mm512_cmp_ps_mask(m0, topv, _CMP_EQ_OQ)) |
        (static_cast<std::uint32_t>(_mm512_cmp_ps_mask(m1, topv, _CMP_EQ_OQ)) << 16);
    d = x[__builtin_ctz(first)] / -128.0f;
  }
  *scale = d;
  if (!has_codes(d)) {  // zero block, or a scale that underflowed to zero
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes), _mm256_setzero_si256());
    return;
  }
  const __m512 dv = _mm512_set1_ps(d);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes),
                   _mm512_cvtsepi32_epi8(_mm512_cvtps_epi32(_mm512_div_ps(v0, dv))));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + 16),
                   _mm512_cvtsepi32_epi8(_mm512_cvtps_epi32(_mm512_div_ps(v1, dv))));
}

void quantize_row_q8(const float* x, std::int64_t n, float* scales, std::int8_t* codes) {
  const std::int64_t full = n / 32;
  for (std::int64_t b = 0; b < full; ++b) quantize_block_q8(x + 32 * b, scales + b, codes + 32 * b);
  if (full * 32 < n) {
    scalar_table().quantize_row_q8(x + 32 * full, n - 32 * full, scales + full, codes + 32 * full);
  }
}

// ---- Q8_0 x Q8_0: C[r0:r1, n] += A * B^T over 32-wide blocks ----
//
// Lane = output column: one zmm accumulator holds columns j..j+15 of a
// row. Each vpdpbusd covers a block pair (64 bytes) of one column, and an
// exact transpose-reduce turns sixteen columns' partials into two vectors
// of sixteen block dots. The float update per block is the scalar tier's
// `acc += d_a * d_b * (float)dot`, lane by lane, block b before b + 1.

/// p[l] holds column l's int32 partials, lanes 0-7 from block b and 8-15
/// from block b + 1; lane l of `even` / `odd` is column l's exact dot of
/// block b / b + 1.
inline void reduce_columns(const __m512i* p, __m512i& even, __m512i& odd) {
  __m512i l1[8], l2[4];
  for (int q = 0; q < 8; ++q) {  // per 128-bit chunk: x0+x2 y0+y2 x1+x3 y1+y3
    l1[q] = _mm512_add_epi32(_mm512_unpacklo_epi32(p[2 * q], p[2 * q + 1]),
                             _mm512_unpackhi_epi32(p[2 * q], p[2 * q + 1]));
  }
  for (int q = 0; q < 4; ++q) {  // per chunk: the chunk sums of 4 columns
    l2[q] = _mm512_add_epi32(_mm512_unpacklo_epi64(l1[2 * q], l1[2 * q + 1]),
                             _mm512_unpackhi_epi64(l1[2 * q], l1[2 * q + 1]));
  }
  // Chunks of l2[q]: block b lanes 0-3, 4-7, block b + 1 lanes 0-3, 4-7.
  const __m512i l3a = _mm512_add_epi32(_mm512_shuffle_i32x4(l2[0], l2[1], 0x88),
                                       _mm512_shuffle_i32x4(l2[0], l2[1], 0xdd));
  const __m512i l3b = _mm512_add_epi32(_mm512_shuffle_i32x4(l2[2], l2[3], 0x88),
                                       _mm512_shuffle_i32x4(l2[2], l2[3], 0xdd));
  even = _mm512_shuffle_i32x4(l3a, l3b, 0x88);
  odd = _mm512_shuffle_i32x4(l3a, l3b, 0xdd);
}

/// R rows (codes aq, scales ascales, block code sums asums; kb blocks per
/// row) x columns j..j+15. Lanes past n recompute column n-1 and are
/// dropped at the store.
template <int R>
void q8_tile(const std::int8_t* aq, const float* ascales, const std::int32_t* asums,
             const std::int8_t* bq, const float* bscales, float* c, std::int64_t j,
             std::int64_t kb, std::int64_t n) {
  const std::int64_t lanes = std::min<std::int64_t>(16, n - j);
  const std::int8_t* w[16] = {};
  alignas(64) std::int32_t sidx[16] = {};
  for (int l = 0; l < 16; ++l) {
    const std::int64_t col = std::min<std::int64_t>(l, lanes - 1);
    w[l] = bq + (j + col) * kb * 32;
    sidx[l] = static_cast<std::int32_t>(col * kb);
  }
  const __m512i scale_idx = _mm512_load_si512(sidx);
  const float* bs = bscales + j * kb;
  const __m512i offset = _mm512_set1_epi8(static_cast<char>(0x80));
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  // acc += (d_a * d_b) * (float)(dot - 128 * sum(a)), one block.
  const auto update = [&](int r, std::int64_t b, __m512 db, __m512i dot) {
    const __m512i exact = _mm512_sub_epi32(dot, _mm512_set1_epi32(128 * asums[r * kb + b]));
    const __m512 d = _mm512_mul_ps(_mm512_set1_ps(ascales[r * kb + b]), db);
    acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(d, _mm512_cvtepi32_ps(exact)));
  };
  for (std::int64_t b = 0; b < kb; b += 2) {
    const bool pair = b + 1 < kb;
    const __mmask64 bytes = pair ? ~__mmask64{0} : __mmask64{0xffffffffu};
    __m512i wu[16];  // w + 128 as unsigned bytes
    for (int l = 0; l < 16; ++l) {
      wu[l] = _mm512_xor_si512(_mm512_maskz_loadu_epi8(bytes, w[l] + b * 32), offset);
    }
    const __m512 db0 = _mm512_i32gather_ps(scale_idx, bs + b, 4);
    const __m512 db1 = pair ? _mm512_i32gather_ps(scale_idx, bs + b + 1, 4) : db0;
    for (int r = 0; r < R; ++r) {
      const __m512i a = _mm512_maskz_loadu_epi8(bytes, aq + (r * kb + b) * 32);
      __m512i p[16];
      for (int l = 0; l < 16; ++l) p[l] = _mm512_dpbusd_epi32(_mm512_setzero_si512(), wu[l], a);
      __m512i even, odd;
      reduce_columns(p, even, odd);
      update(r, b, db0, even);
      if (pair) update(r, b + 1, db1, odd);
    }
  }
  const __mmask16 keep = first_lanes(lanes);
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * n + j;
    _mm512_mask_storeu_ps(crow, keep, _mm512_add_ps(_mm512_maskz_loadu_ps(keep, crow), acc[r]));
  }
}

void matmul_q8_range(const std::int8_t* aq, const float* ascales, const std::int8_t* bq,
                     const float* bscales, float* c, std::int64_t r0, std::int64_t r1,
                     std::int64_t kb, std::int64_t n) {
  // Per-thread block code sums of the range's rows (exact int32).
  thread_local std::vector<std::int32_t> sums;
  sums.resize(static_cast<std::size_t>((r1 - r0) * kb));
  const std::int8_t* rows = aq + r0 * kb * 32;
  for (std::int64_t t = 0; t < (r1 - r0) * kb; ++t) {
    std::int32_t s = 0;
    for (int e = 0; e < 32; ++e) s += rows[t * 32 + e];
    sums[static_cast<std::size_t>(t)] = s;
  }
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    for (std::int64_t j = 0; j < n; j += 16) {
      q8_tile<4>(aq + i * kb * 32, ascales + i * kb, sums.data() + (i - r0) * kb, bq, bscales,
                 c + i * n, j, kb, n);
    }
  }
  for (; i < r1; ++i) {
    for (std::int64_t j = 0; j < n; j += 16) {
      q8_tile<1>(aq + i * kb * 32, ascales + i * kb, sums.data() + (i - r0) * kb, bq, bscales,
                 c + i * n, j, kb, n);
    }
  }
}

// ---- LoRA projections ----
//
// The AVX2 tier's element sequences and split: fewer than four rows at
// rank <= 16 run row by row, fused; longer ranges and higher ranks run the
// f32 body product by product, then the combine. Fused, one p-loop serves
// every projection of the call (Q, K and V share x): per projection the
// base's first 64 columns (four zmm chains, vectors past n masked off) and
// the down-projection's one zmm chain, so a three-projection step keeps 15
// independent chains in flight. Base columns past 64 run the f32 tiles;
// the epilogue runs the up-projection, scale, bias and add per column
// vector.

constexpr std::int64_t kLoraFusedRank = 16;  // one zmm of down-projection lanes

/// One row of P projections: base columns [0, 64) of each y (none without
/// Base) and the r down-projection lanes of each xa, in one p-loop.
template <int P, bool Base>
void lora_head(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
               const LoraProjection* projs, float* const* y, float (*xa)[kLoraFusedRank]) {
  constexpr int J = 4;
  __mmask16 wmask[J];
  for (int v = 0; v < J; ++v) {
    wmask[v] = Zmm::first(static_cast<int>(std::clamp<std::int64_t>(n - 16 * v, 0, 16)));
  }
  const __mmask16 amask = Zmm::first(static_cast<int>(r));
  __m512 acc[P][J], down[P];
  for (int q = 0; q < P; ++q) {
    for (int v = 0; v < J; ++v) acc[q][v] = _mm512_setzero_ps();
    down[q] = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const __m512 xv = _mm512_set1_ps(x[p]);
    for (int q = 0; q < P; ++q) {
      if constexpr (Base) {
        const float* wrow = projs[q].w + p * n;
        for (int v = 0; v < J; ++v) {
          acc[q][v] = _mm512_fmadd_ps(xv, _mm512_maskz_loadu_ps(wmask[v], wrow + 16 * v),
                                      acc[q][v]);
        }
      }
      down[q] = _mm512_fmadd_ps(xv, _mm512_maskz_loadu_ps(amask, projs[q].a + p * r), down[q]);
    }
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int q = 0; q < P; ++q) {
    if constexpr (Base) {
      for (int v = 0; v < J; ++v) {
        _mm512_mask_storeu_ps(y[q] + 16 * v, wmask[v], _mm512_add_ps(zero, acc[q][v]));
      }
    }
    _mm512_storeu_ps(xa[q], _mm512_add_ps(zero, down[q]));
  }
}

/// y[0:n] = (y + bias) + (0 + xa B) * scale for one row of one projection.
void lora_epilogue(const float* xa, std::int64_t r, std::int64_t n, const LoraProjection& pr,
                   float* y) {
  const __m512 zero = _mm512_setzero_ps(), scale = _mm512_set1_ps(pr.scale);
  for (std::int64_t j = 0; j < n; j += 16) {
    const __mmask16 mask = Zmm::first(static_cast<int>(std::min<std::int64_t>(n - j, 16)));
    __m512 acc = zero;
    for (std::int64_t t = 0; t < r; ++t) {
      acc = _mm512_fmadd_ps(_mm512_set1_ps(xa[t]), _mm512_maskz_loadu_ps(mask, pr.b + t * n + j),
                            acc);
    }
    __m512 yv = _mm512_maskz_loadu_ps(mask, y + j);
    if (pr.bias) yv = _mm512_add_ps(yv, _mm512_maskz_loadu_ps(mask, pr.bias + j));
    yv = _mm512_add_ps(yv, _mm512_mul_ps(_mm512_add_ps(zero, acc), scale));
    _mm512_mask_storeu_ps(y + j, mask, yv);
  }
}

/// One row of every projection, fused (r <= kLoraFusedRank).
template <int P>
void lora_row(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
              const LoraProjection* projs, std::int64_t i) {
  alignas(64) float xa[P][kLoraFusedRank];
  float* y[P];
  for (int q = 0; q < P; ++q) y[q] = projs[q].y + i * n;
  if (!projs[0].w) {
    lora_head<P, false>(x, k, n, r, projs, y, xa);
  } else {
    lora_head<P, true>(x, k, n, r, projs, y, xa);
    if (n > 64) {
      for (int q = 0; q < P; ++q) {
        std::fill(y[q] + 64, y[q] + n, 0.0f);
        f32_rows<Zmm, 1, 8>(x, projs[q].w + 64, y[q] + 64, k, n - 64, {k, n, n});
      }
    }
  }
  for (int q = 0; q < P; ++q) lora_epilogue(xa[q], r, n, projs[q], y[q]);
}

/// Rows [r0, r1) of one projection as the separate products, then the
/// combine; x A and (x A) B go through per-thread scratch.
void lora_rows(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
               const LoraProjection& pr, std::int64_t r0, std::int64_t r1) {
  thread_local std::vector<float> xa, up;
  const std::int64_t rows = r1 - r0;
  float* y = pr.y + r0 * n;
  if (pr.w) {
    std::fill(y, y + rows * n, 0.0f);
    f32_range(x, pr.w, pr.y, r0, r1, k, n, {k, n, n});
  }
  xa.assign(static_cast<std::size_t>(rows * r), 0.0f);
  f32_range(x + r0 * k, pr.a, xa.data(), 0, rows, k, r, {k, r, r});
  up.assign(static_cast<std::size_t>(rows * n), 0.0f);
  f32_range(xa.data(), pr.b, up.data(), 0, rows, r, n, {r, n, n});
  for (std::int64_t i = 0; i < rows; ++i) {
    float* yrow = y + i * n;
    const float* urow = up.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float base = pr.bias ? yrow[j] + pr.bias[j] : yrow[j];
      yrow[j] = base + urow[j] * pr.scale;
    }
  }
}

void lora_projections_range(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
                            const LoraProjection* projs, int count, std::int64_t r0,
                            std::int64_t r1) {
  if (r1 - r0 >= 4 || r > kLoraFusedRank) {
    for (int q = 0; q < count; ++q) lora_rows(x, k, n, r, projs[q], r0, r1);
    return;
  }
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* xi = x + i * k;
    if (count == 1) lora_row<1>(xi, k, n, r, projs, i);
    if (count == 2) lora_row<2>(xi, k, n, r, projs, i);
    if (count == 3) lora_row<3>(xi, k, n, r, projs, i);
  }
}

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table = [] {
    KernelTable t = avx2_table();  // matmul_bt, matmul_at and matmul_q4
    t.matmul_accum = &matmul_accum_range;
    t.matmul_q8 = &matmul_q8_range;
    t.tanh_row = &tanh_row;
    t.gelu_row = &gelu_row;
    t.quantize_row_q8 = &quantize_row_q8;
    t.exp_row = &exp_row;
    t.softmax_row = &softmax_row;
    t.attend_head = &attend_head_range;
    t.lora_projections = &lora_projections_range;
    return t;
  }();
  return table;
}

}  // namespace netllm::tensor::kernels::detail

#endif  // NETLLM_HAVE_AVX512
