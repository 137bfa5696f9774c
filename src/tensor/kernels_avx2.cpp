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
// or thread computes the same bits.

/// Rows i..i+R-1 x columns j..j+8J-1; with Tail the last vector keeps only
/// its first `lanes` lanes. The mask is built here rather than passed in: a
/// function taking a __m256i returns without vzeroupper, and the dirty upper
/// YMM state then slows every SSE instruction in the (non-AVX) caller.
template <int R, int J, bool Tail>
void f32_tile(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
              int lanes) {
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[R][J];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * n;
    if constexpr (R == 1) {
      // One row reuses nothing, so the tile streams B at an n-float stride
      // the hardware prefetcher follows poorly: fetch its lines four rows
      // ahead (past the end of B a prefetch is a harmless no-op).
      for (int v = 0; v < J; v += 2) {
        _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * n + 8 * v), _MM_HINT_T0);
      }
    }
    __m256 bv[J];
    for (int v = 0; v < J; ++v) {
      bv[v] = Tail && v == J - 1 ? _mm256_maskload_ps(brow + 8 * v, tail)
                                 : _mm256_loadu_ps(brow + 8 * v);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * k + p);
      for (int v = 0; v < J; ++v) acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < J; ++v) {
      float* cv = c + r * n + 8 * v;
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
void f32_tail(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
              int vecs, int lanes) {
  if constexpr (J > 1) {
    if (vecs < J) return f32_tail<R, J - 1>(a, b, c, k, n, vecs, lanes);
  }
  if (lanes == 8) return f32_tile<R, J, false>(a, b, c, k, n, lanes);
  f32_tile<R, J, true>(a, b, c, k, n, lanes);
}

/// Rows i..i+R-1 across all n columns: full J-vector tiles, then one tail.
template <int R, int J>
void f32_rows(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 * J <= n; j += 8 * J) f32_tile<R, J, false>(a, b + j, c + j, k, n, 8);
  if (j == n) return;
  const auto rest = static_cast<int>(n - j);
  f32_tail<R, J>(a, b + j, c + j, k, n, (rest + 7) / 8, rest - 8 * ((rest - 1) / 8));
}

void matmul_accum_range(const float* a, const float* b, float* c, std::int64_t r0,
                        std::int64_t r1, std::int64_t k, std::int64_t n) {
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4) f32_rows<4, 2>(a + i * k, b, c + i * n, k, n);
  if (i + 2 <= r1) {
    f32_rows<2, 4>(a + i * k, b, c + i * n, k, n);
    i += 2;
  }
  if (i < r1) f32_rows<1, 8>(a + i * k, b, c + i * n, k, n);
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

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table{
      &matmul_accum_range, &matmul_bt_accum_range, &matmul_at_accum_range,
      &matmul_q8_range,    &matmul_q4_range,
  };
  return table;
}

}  // namespace netllm::tensor::kernels::detail

#endif  // NETLLM_HAVE_AVX2
