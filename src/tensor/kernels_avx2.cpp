// AVX2+FMA tier of the matmul range kernels. This TU — and only this TU —
// is compiled with -mavx2 -mfma (plus -ffp-contract=off like every kernel
// TU), so the rest of the binary stays portable baseline code and the
// runtime dispatch table (tensor/isa.*) decides whether these run.
//
// Determinism (DESIGN.md §16): each output element's accumulation order is
// a pure function of (shape, element) — register tiling groups rows/columns,
// but an element computed in a 4-row, 2-row or 1-row tile, in a full or a
// masked column vector, executes exactly the same per-element FMA sequence,
// so any parallel_for partition of the rows is bitwise identical within
// this tier.
//
// fp32 kernels accumulate in 8-lane FMA registers (j-vectorised: each lane
// IS one output element for accum/at; k-vectorised partial sums + a fixed
// pairwise horizontal reduction for bt) — results differ from the scalar
// tier only by rounding, covered by the pinned cross-tier tolerance.
//
// Q8/Q4 kernels compute the int32 block dot exactly (sign-extend to i16,
// _mm256_madd_epi16, lane sums are associative integer adds) and keep the
// scalar tier's float expression `acc += d_a * d_b * (float)dot` per block,
// so their outputs are bitwise IDENTICAL to the scalar tier. The Q8 kernel
// makes each lane one output column: activation rows are widened to i16
// once per row, 4-row quads share each widened 8-column weight block, an
// exact hadd transpose-reduce turns eight columns' madd partials into one
// vector of dots, and one vector multiply-add per block replaces eight
// scalar ones. Q4 still runs a column-quad of scalar chains per row.
//
// The row kernels (tanh, exp, softmax, GELU, the Q8_0 quantizer) run the
// scalar tier's sequence eight lanes at a time and return its bits: every
// branch of the scalar body is computed and blended, and the cases the
// blend does not cover (a non-finite tanh argument, an exp argument on
// expf's special path, a non-finite softmax row or quantizer block, a
// partial block) are handed to the scalar row kernel itself.
//
// The attention kernel reads one head's columns of the Q rows and the K/V
// cache rows in place and keeps this tier's matmul_accum sequence per
// element, and so does the fused LoRA projection slot.
#if defined(NETLLM_HAVE_AVX2)

#include "tensor/kernels_dispatch.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace netllm::tensor::kernels::detail {

namespace {

/// Fixed-order horizontal sum: pairwise tree (lo+hi 128, then 2x2, then 1+1).
inline float hsum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

/// Largest of 8 finite lanes.
inline float hmax8(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

/// Exact int32 sum of 8 lanes (integer adds — any fixed order, same value).
inline std::int32_t hsum8_i32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
  return _mm_cvtsi128_si32(s);
}

// ---- fp32: C[r0:r1, n] += A * B ----
//
// Per element c[i][j]: acc starts at 0, gains fma(a[i][p], b[p][j], acc) for
// p ascending, then c[i][j] += acc. One register-tile body runs every shape:
// R rows (4, then 2, then 1) by J 8-lane column vectors, R*J independent FMA
// chains sharing each B load across the rows and each broadcast across the
// vectors. The last vector of a row is masked (maskload/maskstore), so no
// column ever runs a scalar chain. Tiling only decides which elements share
// an instruction, never an element's own sequence, so any tile, row range
// or thread computes the same bits. The operands' row strides are separate
// parameters, so the attention kernel below runs this body on rows read in
// place.

/// Row strides of A, B and C (k, n and n for a dense product).
struct Strides {
  std::int64_t a, b, c;
};

/// Rows i..i+R-1 x columns j..j+8J-1; with Tail the last vector keeps only
/// its first `lanes` lanes. The mask is built here rather than passed in: a
/// function taking a __m256i returns without vzeroupper, and the dirty upper
/// YMM state then slows every SSE instruction in the (non-AVX) caller.
template <int R, int J, bool Tail>
void f32_tile(const float* a, const float* b, float* c, std::int64_t k, Strides ld, int lanes) {
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[R][J];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ld.b;
    if constexpr (R == 1) {
      // One row reuses nothing, so the tile streams B at an n-float stride
      // the hardware prefetcher follows poorly: fetch its lines four rows
      // ahead (past the end of B a prefetch is a harmless no-op).
      for (int v = 0; v < J; v += 2) {
        _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * ld.b + 8 * v), _MM_HINT_T0);
      }
    }
    __m256 bv[J];
    for (int v = 0; v < J; ++v) {
      bv[v] = Tail && v == J - 1 ? _mm256_maskload_ps(brow + 8 * v, tail)
                                 : _mm256_loadu_ps(brow + 8 * v);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * ld.a + p);
      for (int v = 0; v < J; ++v) acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) {
      float* cv = c + r * ld.c + 8 * v;
      if (Tail && v == J - 1) {
        _mm256_maskstore_ps(cv, tail, _mm256_add_ps(_mm256_maskload_ps(cv, tail), acc[r][v]));
      } else {
        _mm256_storeu_ps(cv, _mm256_add_ps(_mm256_loadu_ps(cv), acc[r][v]));
      }
    }
  }
}

/// The rest of a row block, fewer than 8J columns: one tile of `vecs`
/// vectors (stepping J down to it), the last holding `lanes` columns.
template <int R, int J>
void f32_tail(const float* a, const float* b, float* c, std::int64_t k, Strides ld, int vecs,
              int lanes) {
  if constexpr (J > 1) {
    if (vecs < J) return f32_tail<R, J - 1>(a, b, c, k, ld, vecs, lanes);
  }
  if (lanes == 8) return f32_tile<R, J, false>(a, b, c, k, ld, lanes);
  f32_tile<R, J, true>(a, b, c, k, ld, lanes);
}

/// Rows i..i+R-1 across all n columns: full J-vector tiles, then one tail.
template <int R, int J>
void f32_rows(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
              Strides ld) {
  std::int64_t j = 0;
  for (; j + 8 * J <= n; j += 8 * J) f32_tile<R, J, false>(a, b + j, c + j, k, ld, 8);
  if (j == n) return;
  const auto rest = static_cast<int>(n - j);
  f32_tail<R, J>(a, b + j, c + j, k, ld, (rest + 7) / 8, rest - 8 * ((rest - 1) / 8));
}

/// C[r0:r1, 0:n] += A[r0:r1, 0:k] * B[0:k, 0:n] at strides `ld`.
void f32_range(const float* a, const float* b, float* c, std::int64_t r0, std::int64_t r1,
               std::int64_t k, std::int64_t n, Strides ld) {
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4) f32_rows<4, 2>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
  if (i + 2 <= r1) {
    f32_rows<2, 4>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
    i += 2;
  }
  if (i < r1) f32_rows<1, 8>(a + i * ld.a, b, c + i * ld.c, k, n, ld);
}

void matmul_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                        std::int64_t r1, std::int64_t k, std::int64_t n) {
  f32_range(a, b, c, r0, r1, k, n, {k, n, n});
}

// ---- fp32: C[r0:r1, n] += A * B^T (dot over k per element) ----
//
// Per element: four 8-lane FMA partial sums over k (lane l accumulates
// p ≡ l mod 32's quarter), combined (acc0+acc1)+(acc2+acc3), fixed pairwise
// hsum, scalar-fma tail — one fixed order per (k, element), partition-free.
void matmul_bt_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                           std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      std::int64_t p = 0;
      for (; p + 32 <= k; p += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p), _mm256_loadu_ps(brow + p), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 8), _mm256_loadu_ps(brow + p + 8),
                               acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 16),
                               _mm256_loadu_ps(brow + p + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 24),
                               _mm256_loadu_ps(brow + p + 24), acc3);
      }
      for (; p + 8 <= k; p += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p), _mm256_loadu_ps(brow + p), acc0);
      }
      float acc = hsum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
      for (; p < k; ++p) acc = std::fma(arow[p], brow[p], acc);
      c[i * n + j] += acc;
    }
  }
}

// ---- fp32: C[p0:p1, n] += A^T * B ----
//
// Per element c[p][j]: fma(a[i][p], b[i][j], acc) for i ascending; four
// j-vectors share each strided a broadcast.
void matmul_at_accum_range(const float* a, const float* b, float* c, std::int64_t m,
                           std::int64_t p0, std::int64_t p1, std::int64_t k,
                           std::int64_t n) {
  for (std::int64_t p = p0; p < p1; ++p) {
    float* crow = c + p * n;
    std::int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      for (std::int64_t i = 0; i < m; ++i) {
        const __m256 av = _mm256_broadcast_ss(a + i * k + p);
        const float* brow = b + i * n + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), acc3);
      }
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), acc0));
      _mm256_storeu_ps(crow + j + 8, _mm256_add_ps(_mm256_loadu_ps(crow + j + 8), acc1));
      _mm256_storeu_ps(crow + j + 16, _mm256_add_ps(_mm256_loadu_ps(crow + j + 16), acc2));
      _mm256_storeu_ps(crow + j + 24, _mm256_add_ps(_mm256_loadu_ps(crow + j + 24), acc3));
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::int64_t i = 0; i < m; ++i) {
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + i * k + p),
                              _mm256_loadu_ps(b + i * n + j), acc);
      }
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), acc));
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < m; ++i) acc = std::fma(a[i * k + p], b[i * n + j], acc);
      crow[j] += acc;
    }
  }
}

// ---- quantized block dots ----
//
// Exact int32 block dots: both operands sign-extend to i16 and
// _mm256_madd_epi16 sums pairs of i16 products into i32 lanes (max
// magnitude 2*128*128, and a whole block at most 32*128*128 = 2^19). Integer
// adds are associative, so any reduction order gives the scalar tier's value.

/// Decode one packed Q4_0 block (16 bytes -> 32 values, lo nibble first,
/// value = code - 8) into interleaved int8 lanes matching the activation
/// layout, then run the exact i8 dot.
inline std::int32_t dot32_q4(const std::int8_t* x, const std::uint8_t* packed) {
  const __m128i raw = _mm_loadu_si128((const __m128i*)(packed));
  const __m128i lo_mask = _mm_set1_epi8(0x0f);
  const __m128i off = _mm_set1_epi8(8);
  const __m128i lo = _mm_sub_epi8(_mm_and_si128(raw, lo_mask), off);
  const __m128i hi = _mm_sub_epi8(_mm_and_si128(_mm_srli_epi16(raw, 4), lo_mask), off);
  // Interleave lo/hi nibbles back to source order: value t lives at lane t.
  const __m128i w0 = _mm_unpacklo_epi8(lo, hi);
  const __m128i w1 = _mm_unpackhi_epi8(lo, hi);
  const __m256i wx0 = _mm256_cvtepi8_epi16(_mm_loadu_si128((const __m128i*)(x)));
  const __m256i wx1 = _mm256_cvtepi8_epi16(_mm_loadu_si128((const __m128i*)(x + 16)));
  const __m256i wy0 = _mm256_cvtepi8_epi16(w0);
  const __m256i wy1 = _mm256_cvtepi8_epi16(w1);
  const __m256i s =
      _mm256_add_epi32(_mm256_madd_epi16(wx0, wy0), _mm256_madd_epi16(wx1, wy1));
  return hsum8_i32(s);
}

// ---- Q8_0 x Q8_0: C[r0:r1, n] += A * B^T over 32-wide blocks ----
//
// Lane = output column: one __m256 accumulator holds columns j..j+7 of a
// row. Per block, each column's eight madd partials are transpose-reduced
// into one vector of eight exact dots, and the float update is the scalar
// tier's `acc += d_a * d_b * (float)dot` evaluated lane by lane — so every
// element is bitwise the scalar tier. Activation rows are widened to i16
// once per row instead of once per column, and row quads share each widened
// weight block; leftover rows run the same per-element sequence one row at
// a time, so any parallel_for row partition is bitwise identical.

/// Sign-extends `rows` activation rows of kb blocks to i16, once, into a
/// per-thread buffer (each parallel_for chunk widens its own rows).
const std::int16_t* widen_rows(const std::int8_t* aq, std::int64_t rows, std::int64_t kb) {
  thread_local std::vector<std::int16_t> buf;
  const auto count = static_cast<std::size_t>(rows * kb * 32);
  if (buf.size() < count) buf.resize(count);
  for (std::size_t t = 0; t < count; t += 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(buf.data() + t),
                        _mm256_cvtepi8_epi16(_mm_loadu_si128((const __m128i*)(aq + t))));
  }
  return buf.data();
}

/// Transpose-reduce: lane c of the result is the exact sum of the eight
/// int32 lanes of p[c].
inline __m256i reduce_columns(const __m256i* p) {
  const __m256i s01 = _mm256_hadd_epi32(p[0], p[1]);  // p0 p0 p1 p1 | p0 p0 p1 p1
  const __m256i s23 = _mm256_hadd_epi32(p[2], p[3]);
  const __m256i s45 = _mm256_hadd_epi32(p[4], p[5]);
  const __m256i s67 = _mm256_hadd_epi32(p[6], p[7]);
  const __m256i s03 = _mm256_hadd_epi32(s01, s23);  // p0 p1 p2 p3 | p0 p1 p2 p3
  const __m256i s47 = _mm256_hadd_epi32(s45, s67);  // p4 p5 p6 p7 | p4 p5 p6 p7
  // [lo(s03) | hi(s47)] + [hi(s03) | lo(s47)]: the blend needs no shuffle.
  return _mm256_add_epi32(_mm256_blend_epi32(s03, s47, 0xf0),
                          _mm256_permute2x128_si256(s03, s47, 0x21));
}

/// R rows (widened in a16, R * kb * 32 lanes) x columns j..j+7. Lanes past
/// n recompute column n-1 and are dropped at the store.
template <int R>
void q8_tile(const std::int16_t* a16, const float* ascales, const std::int8_t* bq,
             const float* bscales, float* c, std::int64_t j, std::int64_t kb,
             std::int64_t n) {
  const std::int64_t lanes = std::min<std::int64_t>(8, n - j);
  const std::int8_t* w[8] = {};
  alignas(32) std::int32_t sidx[8] = {};
  for (int l = 0; l < 8; ++l) {
    const std::int64_t col = std::min<std::int64_t>(l, lanes - 1);
    w[l] = bq + (j + col) * kb * 32;
    sidx[l] = static_cast<std::int32_t>(col * kb);
  }
  const __m256i scale_idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(sidx));
  const float* bs = bscales + j * kb;
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::int64_t b = 0; b < kb; ++b) {
    __m256i wlo[8], whi[8];
    for (int l = 0; l < 8; ++l) {
      wlo[l] = _mm256_cvtepi8_epi16(_mm_loadu_si128((const __m128i*)(w[l] + b * 32)));
      whi[l] = _mm256_cvtepi8_epi16(_mm_loadu_si128((const __m128i*)(w[l] + b * 32 + 16)));
    }
    const __m256 db = _mm256_i32gather_ps(bs + b, scale_idx, 4);
    for (int r = 0; r < R; ++r) {
      const std::int16_t* ab = a16 + (r * kb + b) * 32;
      const __m256i alo = _mm256_loadu_si256((const __m256i*)(ab));
      const __m256i ahi = _mm256_loadu_si256((const __m256i*)(ab + 16));
      __m256i p[8];
      for (int l = 0; l < 8; ++l) {
        p[l] = _mm256_add_epi32(_mm256_madd_epi16(alo, wlo[l]), _mm256_madd_epi16(ahi, whi[l]));
      }
      const __m256 dot = _mm256_cvtepi32_ps(reduce_columns(p));
      const __m256 d = _mm256_mul_ps(_mm256_set1_ps(ascales[r * kb + b]), db);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(d, dot));
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * n + j;
    if (lanes == 8) {
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r]));
    } else {
      alignas(32) float tail[8] = {};
      _mm256_store_ps(tail, acc[r]);
      for (std::int64_t l = 0; l < lanes; ++l) crow[l] += tail[l];
    }
  }
}

void matmul_q8_range(const std::int8_t* aq, const float* ascales, const std::int8_t* bq,
                     const float* bscales, float* c, std::int64_t r0, std::int64_t r1,
                     std::int64_t kb, std::int64_t n) {
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const std::int16_t* a16 = widen_rows(aq + i * kb * 32, 4, kb);
    for (std::int64_t j = 0; j < n; j += 8) {
      q8_tile<4>(a16, ascales + i * kb, bq, bscales, c + i * n, j, kb, n);
    }
  }
  for (; i < r1; ++i) {
    const std::int16_t* a16 = widen_rows(aq + i * kb * 32, 1, kb);
    for (std::int64_t j = 0; j < n; j += 8) {
      q8_tile<1>(a16, ascales + i * kb, bq, bscales, c + i * n, j, kb, n);
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
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      const std::uint8_t* b0 = bq + (j + 0) * kb * 16;
      const std::uint8_t* b1 = bq + (j + 1) * kb * 16;
      const std::uint8_t* b2 = bq + (j + 2) * kb * 16;
      const std::uint8_t* b3 = bq + (j + 3) * kb * 16;
      const float* s0 = bscales + (j + 0) * kb;
      const float* s1 = bscales + (j + 1) * kb;
      const float* s2 = bscales + (j + 2) * kb;
      const float* s3 = bscales + (j + 3) * kb;
      for (std::int64_t b = 0; b < kb; ++b) {
        const std::int8_t* ab = arow + b * 32;
        const float as = arow_s[b];
        acc0 += as * s0[b] * static_cast<float>(dot32_q4(ab, b0 + b * 16));
        acc1 += as * s1[b] * static_cast<float>(dot32_q4(ab, b1 + b * 16));
        acc2 += as * s2[b] * static_cast<float>(dot32_q4(ab, b2 + b * 16));
        acc3 += as * s3[b] * static_cast<float>(dot32_q4(ab, b3 + b * 16));
      }
      crow[j + 0] += acc0;
      crow[j + 1] += acc1;
      crow[j + 2] += acc2;
      crow[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const std::uint8_t* brow = bq + j * kb * 16;
      const float* brow_s = bscales + j * kb;
      float acc = 0.0f;
      for (std::int64_t b = 0; b < kb; ++b) {
        acc += arow_s[b] * brow_s[b] * static_cast<float>(dot32_q4(arow + b * 32, brow + b * 16));
      }
      crow[j] += acc;
    }
  }
}

// ---- tanh / GELU: the scalar tier's glibc tanhf port, eight lanes ----
//
// Each vector computes every branch the scalar body can take on a finite
// argument and selects per lane with the scalar body's own conditions
// (compared on the same exponent bits), so each lane performs exactly the
// float operations the scalar port performs on it. Lanes whose branch
// discards a value may compute garbage (e.g. 2|x| = Inf) that no blend
// keeps. A vector holding a non-finite argument runs the scalar row kernel.

inline __m256i splat(std::uint32_t bits) { return _mm256_set1_epi32(static_cast<int>(bits)); }
inline __m256 splat_f(std::uint32_t bits) { return _mm256_castsi256_ps(splat(bits)); }
/// Signed int32 compares; every operand here is a non-negative magnitude.
inline __m256i above(__m256i v, std::uint32_t bits) { return _mm256_cmpgt_epi32(v, splat(bits)); }
inline __m256i below(__m256i v, std::uint32_t bits) { return _mm256_cmpgt_epi32(splat(bits), v); }
/// Lanes of `yes` where `mask` is set, else `no`.
inline __m256 pick(__m256i mask, __m256 yes, __m256 no) {
  return _mm256_blendv_ps(no, yes, _mm256_castsi256_ps(mask));
}
/// y * 2^k by adding k to the exponent field, as the scalar port does.
inline __m256 add_exponent(__m256 y, __m256i kexp) {
  return _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), kexp));
}

/// expm1f_port on the arguments tanh passes it: finite, in (-2, 44). The
/// |x| >= 27 ln2 early returns cannot fire there (a negative argument is
/// above -2, a positive one below 88.72), so they are not computed.
inline __m256 expm1_8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f), half = _mm256_set1_ps(0.5f);
  const __m256i sign = splat(0x80000000u);
  const __m256i xb = _mm256_castps_si256(x);
  const __m256i hx = _mm256_andnot_si256(sign, xb);
  // k: 0 for |x| <= ln2/2, +-1 below 1.5 ln2, else trunc(x/ln2 +- 0.5).
  // With t = (float)k the scalar reductions are one formula: t * ln2_hi and
  // t * ln2_lo are exact, and k = 0 gives hi = x, lo = 0, r = x, c = 0.
  const __m256 half_signed = _mm256_castsi256_ps(
      _mm256_or_si256(_mm256_castps_si256(half), _mm256_and_si256(sign, xb)));
  const __m256i k_far =
      _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(splat_f(0x3fb8aa3bu), x), half_signed));
  const __m256i k_near = _mm256_or_si256(_mm256_srai_epi32(xb, 31), _mm256_set1_epi32(1));
  const __m256i k = _mm256_and_si256(_mm256_blendv_epi8(k_far, k_near, below(hx, 0x3f851592u)),
                                     above(hx, 0x3eb17218u));
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, splat_f(0x3f317180u)));
  const __m256 lo = _mm256_mul_ps(t, splat_f(0x3717f7d1u));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  const __m256 hfx = _mm256_mul_ps(half, r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 p = _mm256_mul_ps(hxs, splat_f(0xb457edbbu));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0x36867e54u), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0xb8a670cdu), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0x3ad00d01u), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0xbd088889u), p));
  const __m256 r1 = _mm256_add_ps(one, p);
  const __m256 t3 = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(r, t3))));
  const __m256 y_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
  const __m256 ek = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 y_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, ek)), half);
  const __m256 y_k1 = pick(
      _mm256_castps_si256(_mm256_cmp_ps(r, _mm256_set1_ps(-0.25f), _CMP_LT_OQ)),
      _mm256_mul_ps(_mm256_set1_ps(-2.0f), _mm256_sub_ps(ek, _mm256_add_ps(r, half))),
      _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(2.0f), _mm256_sub_ps(r, ek))));
  const __m256i kexp = _mm256_slli_epi32(k, 23);
  const __m256 y_far =
      _mm256_sub_ps(add_exponent(_mm256_sub_ps(one, _mm256_sub_ps(ek, r)), kexp), one);
  const __m256 one_minus = _mm256_castsi256_ps(
      _mm256_sub_epi32(splat(0x3f800000u), _mm256_srlv_epi32(splat(0x1000000u), k)));
  const __m256 y_mid = add_exponent(_mm256_sub_ps(one_minus, _mm256_sub_ps(ek, r)), kexp);
  const __m256 two_neg_k = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_high = add_exponent(
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(ek, two_neg_k)), one), kexp);

  // The scalar body's k dispatch, innermost case last.
  const __m256i k_ge2 = _mm256_cmpgt_epi32(k, _mm256_set1_epi32(1));
  const __m256i k_le56 = _mm256_cmpgt_epi32(_mm256_set1_epi32(57), k);
  const __m256i k_lt23 = _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k);
  __m256 y = y_far;  // k <= -2 or k > 56
  y = pick(_mm256_and_si256(_mm256_and_si256(k_ge2, k_le56), k_lt23), y_mid, y);
  y = pick(_mm256_andnot_si256(k_lt23, k_le56), y_high, y);
  y = pick(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1)), y_k1, y);
  y = pick(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), y_km1, y);
  y = pick(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), y_k0, y);
  return pick(below(hx, 0x33000000u), x, y);  // |x| < 2^-25: x
}

/// tanhf_port on eight finite lanes.
inline __m256 tanh_8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f), two = _mm256_set1_ps(2.0f);
  const __m256i sign = splat(0x80000000u);
  const __m256i xb = _mm256_castps_si256(x);
  const __m256i ix = _mm256_andnot_si256(sign, xb);
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256i ge_one = above(ix, 0x3f7fffffu);
  const __m256 t = expm1_8(
      pick(ge_one, _mm256_mul_ps(two, ax), _mm256_mul_ps(_mm256_set1_ps(-2.0f), ax)));
  const __m256 den = _mm256_add_ps(t, two);
  __m256 z = pick(ge_one, _mm256_sub_ps(one, _mm256_div_ps(two, den)),
                  _mm256_div_ps(_mm256_xor_ps(t, _mm256_castsi256_ps(sign)), den));
  z = pick(above(ix, 0x41afffffu), one, z);  // |x| >= 22
  z = _mm256_xor_ps(z, _mm256_castsi256_ps(_mm256_and_si256(sign, xb)));
  // |x| < 2^-55 (and +-0, which x * (1 + x) returns unchanged).
  return pick(below(ix, 0x24000000u), _mm256_mul_ps(x, _mm256_add_ps(one, x)), z);
}

inline bool any_nonfinite(__m256 v) {
  const __m256i mag = _mm256_andnot_si256(splat(0x80000000u), _mm256_castps_si256(v));
  return _mm256_movemask_epi8(above(mag, 0x7f7fffffu)) != 0;
}

/// Eight tanh lanes: in[0:8] -> out[0:8].
inline void tanh_vec(const float* in, float* out) {
  const __m256 x = _mm256_loadu_ps(in);
  if (any_nonfinite(x)) return scalar_table().tanh_row(in, out, 8);
  _mm256_storeu_ps(out, tanh_8(x));
}

/// Eight GELU lanes, the scalar expression order: C (x + ((A x) x) x), then
/// (0.5 x)(1 + tanh).
inline void gelu_vec(const float* in, float* out) {
  const __m256 x = _mm256_loadu_ps(in);
  const __m256 x3 =
      _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluA), x), x), x);
  const __m256 inner = _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(x, x3));
  if (any_nonfinite(inner)) return scalar_table().gelu_row(in, out, 8);
  const __m256 t = tanh_8(inner);
  _mm256_storeu_ps(out, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                                      _mm256_add_ps(_mm256_set1_ps(1.0f), t)));
}

/// Whole vectors in place, then the last n mod 8 values through a
/// zero-padded vector (zero is finite, so padding never forces the scalar
/// path on its own).
template <void (*Vec)(const float*, float*)>
void row_by_vectors(const float* in, float* out, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) Vec(in + i, out + i);
  if (i == n) return;
  alignas(32) float buf[8] = {};
  std::copy(in + i, in + n, buf);
  Vec(buf, buf);
  std::copy(buf, buf + (n - i), out + i);
}

void tanh_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<tanh_vec>(in, out, n);
}

void gelu_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<gelu_vec>(in, out, n);
}

// ---- exp / softmax: the scalar tier's expf port, eight lanes ----
//
// expf_port computes in double, so eight floats run as two four-lane
// double vectors through the same operations: the three fmas of the
// reduction and cubic are _mm256_fmadd_pd / _mm256_fmsub_pd (one rounding,
// as std::fma), the table entry comes from a 64-bit gather, and
// _mm256_cvtpd_ps rounds to float in the current mode (nearest by default,
// as the scalar cast). A vector holding an argument on expf's special path
// (|x| >= 88, NaN or Inf) runs the scalar row body.

/// expf_port on four arguments on its fast path.
inline __m128 exp4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv = _mm256_set1_pd(kExpInvLn2N), shift = _mm256_set1_pd(kExpShift);
  __m256d kd = _mm256_fmadd_pd(inv, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv, xd, kd);
  const __m256i entry = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2fTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(entry, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

inline bool any_exp_special(__m256 x) {
  const __m256i mag = _mm256_andnot_si256(splat(0x80000000u), _mm256_castps_si256(x));
  return _mm256_movemask_epi8(above(mag, kExpSpecialBits - 1)) != 0;
}

/// Eight exp lanes: in[0:8] -> out[0:8].
inline void exp_vec(const float* in, float* out) {
  const __m256 x = _mm256_loadu_ps(in);
  if (any_exp_special(x)) return scalar_table().exp_row(in, out, 8);
  _mm256_storeu_ps(out, _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)),
                                        exp4(_mm256_castps256_ps128(x))));
}

void exp_row(const float* in, float* out, std::int64_t n) {
  row_by_vectors<exp_vec>(in, out, n);
}

/// The scalar softmax_row on a row of finite values. The max is taken by
/// vector max: the scalar loop's max can differ from it only in the sign
/// of a zero maximum, which changes no difference in[j] - max but the sign
/// of a zero one, and exp(+-0) = 1. The exps run eight at a time; their
/// float sum is added serially in j order, exactly as the scalar loop
/// adds it (a tree sum would round differently). The normalising multiply
/// is elementwise. A row holding a non-finite value runs the scalar body.
void softmax_row(const float* in, float* out, std::int64_t n) {
  const std::int64_t full = n / 8 * 8;
  const __m256i tail = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - full)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // in[j:j+8]; the lanes of the last vector past n take pad's lanes (the
  // max pads with the running max, the exps with the max, so they take
  // exp(0) and are not stored).
  const auto load = [&](std::int64_t j, __m256 pad) {
    if (j < full) return _mm256_loadu_ps(in + j);
    return _mm256_blendv_ps(pad, _mm256_maskload_ps(in + j, tail), _mm256_castsi256_ps(tail));
  };
  const __m256i sign = splat(0x80000000u);
  __m256 mx = _mm256_set1_ps(in[0]);
  __m256i bad = _mm256_setzero_si256();
  for (std::int64_t j = 0; j < n; j += 8) {
    const __m256 x = load(j, mx);
    mx = _mm256_max_ps(mx, x);
    bad = _mm256_or_si256(bad, above(_mm256_andnot_si256(sign, _mm256_castps_si256(x)),
                                     0x7f7fffffu));
  }
  if (!_mm256_testz_si256(bad, bad)) return scalar_table().softmax_row(in, out, n);
  const __m256 top = _mm256_set1_ps(hmax8(mx));
  float sum = 0.0f;
  for (std::int64_t j = 0; j < n; j += 8) {
    const __m256 x = _mm256_sub_ps(load(j, top), top);
    __m256 e;
    if (any_exp_special(x)) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, x);
      scalar_table().exp_row(lanes, lanes, 8);
      e = _mm256_load_ps(lanes);
    } else {
      e = _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)), exp4(_mm256_castps256_ps128(x)));
    }
    if (j < full) {
      _mm256_storeu_ps(out + j, e);
    } else {
      _mm256_maskstore_ps(out + j, tail, e);
    }
    for (std::int64_t l = j; l < std::min(j + 8, n); ++l) sum += out[l];
  }
  const __m256 inv = _mm256_set1_ps(1.0f / sum);
  for (std::int64_t j = 0; j < full; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_mul_ps(_mm256_loadu_ps(out + j), inv));
  }
  if (full < n) {
    _mm256_maskstore_ps(out + full, tail, _mm256_mul_ps(_mm256_maskload_ps(out + full, tail), inv));
  }
}

// ---- attention: one head, rows in place ----
//
// The two products run the matmul_accum body above (f32_range) on the rows
// in place, so every element keeps that kernel's sequence: a score is
// 0 + (the fma chain over p of q[p] k[j][p]), then times inv_sqrt; an
// output is 0 + (the fma chain over every key j < len of s[j] v[j][c]), a
// masked key's zero weight included, so a NaN value row still reaches it.
// Q rows (A of the scores) and V rows (B of the output) are read at the
// model's row stride. The score lanes are keys, so the head's K columns
// for the keys the row range sees are transposed, eight keys by eight
// columns in registers, into a per-thread panel [d_head][keys rounded up
// to 8]. Each 4-row block of scores stops at the keys its last row sees.

/// 8x8 transpose of r[0:8] in place.
inline void transpose8(__m256* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]), t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]), t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]), t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]), t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44), u1 = _mm256_shuffle_ps(t0, t2, 0xee);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44), u3 = _mm256_shuffle_ps(t1, t3, 0xee);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44), u5 = _mm256_shuffle_ps(t4, t6, 0xee);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44), u7 = _mm256_shuffle_ps(t5, t7, 0xee);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// kt[p * stride + j] = k[j * ld + p] for j < keys, p < d_head; the lanes
/// of the last key block past `keys` are zero.
void transpose_keys(const float* k, std::int64_t ld, std::int64_t d_head, std::int64_t keys,
                    float* kt, std::int64_t stride) {
  for (std::int64_t j0 = 0; j0 < keys; j0 += 8) {
    const std::int64_t nk = std::min<std::int64_t>(8, keys - j0);
    std::int64_t p0 = 0;
    for (; p0 + 8 <= d_head; p0 += 8) {
      __m256 r[8];
      for (int l = 0; l < 8; ++l) {
        r[l] = l < nk ? _mm256_loadu_ps(k + (j0 + l) * ld + p0) : _mm256_setzero_ps();
      }
      transpose8(r);
      for (int t = 0; t < 8; ++t) _mm256_storeu_ps(kt + (p0 + t) * stride + j0, r[t]);
    }
    for (std::int64_t p = p0; p < d_head; ++p) {
      for (std::int64_t l = 0; l < 8; ++l) {
        kt[p * stride + j0 + l] = l < nk ? k[(j0 + l) * ld + p] : 0.0f;
      }
    }
  }
}

void attend_head_range(const float* q, const float* k, const float* v, float* ctx,
                       std::int64_t ld, std::int64_t d_head, std::int64_t len,
                       std::int64_t past, float inv_sqrt, std::int64_t r0, std::int64_t r1) {
  thread_local std::vector<float> kt, scores;
  const std::int64_t keys = past + r1;  // the keys the range's last row sees
  const std::int64_t stride = (keys + 7) / 8 * 8;
  kt.resize(static_cast<std::size_t>(d_head * stride));
  transpose_keys(k, ld, d_head, keys, kt.data(), stride);
  const std::int64_t rows = r1 - r0;
  scores.assign(static_cast<std::size_t>(rows * len), 0.0f);
  float* s = scores.data();
  for (std::int64_t i = 0; i < rows; i += 4) {
    const std::int64_t block = std::min<std::int64_t>(4, rows - i);
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
// max |x| by vector max, then the earliest lane holding it (the scalar
// `>` keeps the first of equal magnitudes), so the scale is the scalar
// tier's `best / -128`. Codes: x / d per lane (_mm256_div_ps, correctly
// rounded like the scalar divide), rounded by cvtps_epi32 in the current
// rounding mode (nearest-even by default, as lrintf), then narrowed with
// saturating packs, which clamp to [-128, 127] as clamp_code does.

void quantize_block_q8(const float* x, float* scale, std::int8_t* codes) {
  __m256 v[4], mag[4];
  const __m256 abs_mask = _mm256_castsi256_ps(splat(0x7fffffffu));
  for (int q = 0; q < 4; ++q) {
    v[q] = _mm256_loadu_ps(x + 8 * q);
    mag[q] = _mm256_and_ps(v[q], abs_mask);
  }
  if (any_nonfinite(mag[0]) || any_nonfinite(mag[1]) || any_nonfinite(mag[2]) ||
      any_nonfinite(mag[3])) {
    return scalar_table().quantize_row_q8(x, 32, scale, codes);  // NaN scale, zero codes
  }
  __m256 m = _mm256_max_ps(_mm256_max_ps(mag[0], mag[1]), _mm256_max_ps(mag[2], mag[3]));
  m = _mm256_max_ps(m, _mm256_permute2f128_ps(m, m, 0x01));
  m = _mm256_max_ps(m, _mm256_shuffle_ps(m, m, 0x4e));
  m = _mm256_max_ps(m, _mm256_shuffle_ps(m, m, 0xb1));
  float d = 0.0f;
  if (_mm256_cvtss_f32(m) != 0.0f) {
    std::uint32_t first = 0;
    for (int q = 3; q >= 0; --q) {
      first = (first << 8) |
              static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_cmp_ps(mag[q], m, _CMP_EQ_OQ)));
    }
    d = x[__builtin_ctz(first)] / -128.0f;
  }
  *scale = d;
  if (!has_codes(d)) {  // zero block, or a scale that underflowed to zero
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes), _mm256_setzero_si256());
    return;
  }
  const __m256 dv = _mm256_set1_ps(d);
  __m256i q32[4];
  for (int q = 0; q < 4; ++q) q32[q] = _mm256_cvtps_epi32(_mm256_div_ps(v[q], dv));
  // The packs work per 128-bit half: dword j then holds the j-th of the
  // 4-code groups 0 2 4 6 1 3 5 7, and the permute puts them in order.
  const __m256i q8 = _mm256_packs_epi16(_mm256_packs_epi32(q32[0], q32[1]),
                                        _mm256_packs_epi32(q32[2], q32[3]));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(codes),
      _mm256_permutevar8x32_epi32(q8, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7)));
}

void quantize_row_q8(const float* x, std::int64_t n, float* scales, std::int8_t* codes) {
  const std::int64_t full = n / 32;
  for (std::int64_t b = 0; b < full; ++b) quantize_block_q8(x + 32 * b, scales + b, codes + 32 * b);
  if (full * 32 < n) {
    scalar_table().quantize_row_q8(x + 32 * full, n - 32 * full, scales + full, codes + 32 * full);
  }
}

// ---- LoRA projections ----
//
// Every element keeps the f32 body's sequence (acc = 0, one FMA per
// reduction index ascending, then 0 + acc, as matmul_accum adds acc into
// zeroed rows): the base over x W, the down-projection xa = x A, the
// up-projection over xa B, then ((base + bias) + delta * scale).
//
// A range of fewer than four rows at rank <= 16 runs row by row, fused:
// the one or two latency-bound down-projection chains ride the p-loop of
// the base's first 32 columns, whose four independent chains hide them,
// and one epilogue pass runs the up-projection, scale, bias and add per
// column vector. Four rows and more, or a higher rank, run the f32 body
// product by product (the tiles already give a down-projection four
// chains), then the same combine.

constexpr std::int64_t kLoraFusedRank = 16;  // two ymm of down-projection lanes

/// One row: base columns [0, 32) of y (vectors past n masked off when
/// Masked; none without Base) and the down-projection lanes [0, 8D) of xa,
/// in one p-loop. Lanes of xa past r are never read.
template <bool Base, bool Masked, int D>
void lora_head_tile(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
                    const float* w, const float* a, float* y, float* xa) {
  constexpr int J = 4;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i wmask[J], amask[D];
  for (int v = 0; v < J; ++v) {
    wmask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(
                                      n - 8 * v, 8))),
                                  iota);
  }
  for (int d = 0; d < D; ++d) {
    amask[d] = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r - 8 * d)), iota);
  }
  __m256 acc[J], down[D];
  for (int v = 0; v < J; ++v) acc[v] = _mm256_setzero_ps();
  for (int d = 0; d < D; ++d) down[d] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256 xv = _mm256_broadcast_ss(x + p);
    if constexpr (Base) {
      const float* wrow = w + p * n;
      for (int v = 0; v < J; ++v) {
        const __m256 bv = Masked ? _mm256_maskload_ps(wrow + 8 * v, wmask[v])
                                 : _mm256_loadu_ps(wrow + 8 * v);
        acc[v] = _mm256_fmadd_ps(xv, bv, acc[v]);
      }
    }
    const float* arow = a + p * r;
    for (int d = 0; d < D; ++d) {
      down[d] = _mm256_fmadd_ps(xv, _mm256_maskload_ps(arow + 8 * d, amask[d]), down[d]);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  if constexpr (Base) {
    for (int v = 0; v < J; ++v) {
      if (Masked) {
        _mm256_maskstore_ps(y + 8 * v, wmask[v], _mm256_add_ps(zero, acc[v]));
      } else {
        _mm256_storeu_ps(y + 8 * v, _mm256_add_ps(zero, acc[v]));
      }
    }
  }
  for (int d = 0; d < D; ++d) _mm256_storeu_ps(xa + 8 * d, _mm256_add_ps(zero, down[d]));
}

template <bool Base, bool Masked>
void lora_head(const float* x, std::int64_t k, std::int64_t n, std::int64_t r, const float* w,
               const float* a, float* y, float* xa) {
  if (r <= 8) return lora_head_tile<Base, Masked, 1>(x, k, n, r, w, a, y, xa);
  lora_head_tile<Base, Masked, 2>(x, k, n, r, w, a, y, xa);
}

/// y[0:n] = (y + bias) + (0 + xa B) * scale for one row, one column vector
/// at a time (the vectors are independent chains of r FMAs).
void lora_epilogue(const float* xa, std::int64_t r, std::int64_t n, const LoraProjection& pr,
                   float* y) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 zero = _mm256_setzero_ps(), scale = _mm256_set1_ps(pr.scale);
  for (std::int64_t j = 0; j < n; j += 8) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(n - j, 8))), iota);
    __m256 acc = zero;
    for (std::int64_t t = 0; t < r; ++t) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(xa + t), _mm256_maskload_ps(pr.b + t * n + j, mask),
                            acc);
    }
    __m256 yv = _mm256_maskload_ps(y + j, mask);
    if (pr.bias) yv = _mm256_add_ps(yv, _mm256_maskload_ps(pr.bias + j, mask));
    yv = _mm256_add_ps(yv, _mm256_mul_ps(_mm256_add_ps(zero, acc), scale));
    _mm256_maskstore_ps(y + j, mask, yv);
  }
}

/// One row of one projection, fused (r <= kLoraFusedRank).
void lora_row(const float* x, std::int64_t k, std::int64_t n, std::int64_t r,
              const LoraProjection& pr, float* y) {
  alignas(32) float xa[kLoraFusedRank];
  if (!pr.w) {
    lora_head<false, false>(x, k, n, r, nullptr, pr.a, y, xa);
  } else if (n >= 32) {
    lora_head<true, false>(x, k, n, r, pr.w, pr.a, y, xa);
    if (n > 32) {
      std::fill(y + 32, y + n, 0.0f);
      f32_rows<1, 8>(x, pr.w + 32, y + 32, k, n - 32, {k, n, n});
    }
  } else {
    lora_head<true, true>(x, k, n, r, pr.w, pr.a, y, xa);
  }
  lora_epilogue(xa, r, n, pr, y);
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
    for (int q = 0; q < count; ++q) lora_row(x + i * k, k, n, r, projs[q], projs[q].y + i * n);
  }
}

}  // namespace

void avx2_transpose_keys(const float* k, std::int64_t ld, std::int64_t d_head, std::int64_t keys,
                         float* kt, std::int64_t stride) {
  transpose_keys(k, ld, d_head, keys, kt, stride);
}

const KernelTable& avx2_table() {
  static const KernelTable table{
      &matmul_accum_range, &matmul_bt_accum_range, &matmul_at_accum_range,
      &matmul_q8_range,    &matmul_q4_range,       &tanh_row,
      &gelu_row,           &quantize_row_q8,       &exp_row,
      &softmax_row,        &attend_head_range,     &lora_projections_range,
  };
  return table;
}

}  // namespace netllm::tensor::kernels::detail

#endif  // NETLLM_HAVE_AVX2
