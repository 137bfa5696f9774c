// ISA microkernel tier suite (DESIGN.md §16, ctest -L isa):
//   - dispatch plumbing: names, env override, unsupported-tier fallback,
//     metrics gauge export (the "avx512" name and gauge value 3 included);
//   - per-tier determinism: every kernel bitwise identical at any thread
//     count within a tier (serial vs threads 1/2/8);
//   - forced NETLLM_ISA=scalar bitwise reproduces an inline re-statement of
//     the portable scalar loops (the pre-dispatch kernels);
//   - fp32 tiling seams: on every tier, matmul_accum bitwise equals that
//     tier's per-element sequence over shapes that cross the row tiles and
//     the masked last column vector, serial and threaded, and each row of an
//     m-row product equals that row computed alone;
//   - the AVX2 kernels return with the upper YMM state clean (vzeroupper),
//     so the legacy-SSE code after them pays no state-merge penalty, and
//     the AVX-512 kernels with the upper YMM and ZMM_Hi256 state clean;
//   - cross-tier contract: fp32 within a pinned tolerance, Q8/Q4 bitwise
//     identical between scalar and the vector tier;
//   - Q8 tiling seams: cross-tier and thread-count bitwise equality over
//     shapes that cross the 8-column lane groups and 4-row quads, plus the
//     extreme -128 x -128 block dot;
//   - NaN/Inf propagation: a zero activation against a NaN-poisoned weight
//     row must reach C, in a masked tail lane and in every row-tile kind (the old `aip == 0.0f` skip swallowed the poison
//     before the serve guard could see it), and a poisoned weight or
//     activation must survive quantization into every Q8/Q4 output that
//     reads its block;
//   - whole-decode-stream determinism per tier;
//   - row kernels (tanh, exp, softmax, GELU, the Q8_0 quantizer): every tier
//     bitwise equal to the scalar tier at every length, offset, thread count
//     and special value, and the scalar tanh and exp ports pinned by
//     known-answer tables of glibc 2.36 tanhf and expf bits (DISABLED_
//     sweeps check every float);
//   - the fused attention head: every tier bitwise equal to the gathered
//     Q K^T / softmax / attn V body through matmul_accum, across head widths,
//     row counts, cached rows, stacked segments and thread counts, with a
//     NaN in a masked value row and a score gap on expf's special path, and
//     the matmul counters bumped as the two products bumped them;
//   - the fused LoRA slot: every tier bitwise equal to the separate passes
//     LoRALinear ran (base, x A, (x A) B through matmul_accum, bias, scale,
//     add) over 1-3 projections, k and n across the vector tails and
//     64/160/512, ranks 1-17, with and without bias and base, 1-98 rows
//     and 1/3 threads, with NaN/Inf/-0 operands and products that
//     underflow to -0; a NaN in B reaching every row of its column; and the
//     matmul counters moved by the separate passes' totals;
//   - the scalar tier's exp and softmax rows, portable and FMA clone, both
//     return the known-answer bits and agree on a sampled sweep;
//   - the AVX-512 tier returns the AVX2 tier's bits: the fp32 seam sweep
//     (dense and at row strides through attend_head), every row kernel at
//     every length 0-100 with NaN/Inf lanes, the Q8 kernel on extreme
//     codes and its tiling seams, and the fused LoRA slot.
// Built to run under -DNETLLM_SANITIZE=thread as well.
#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "envs/vp/dataset.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/guarded.hpp"
#include "nn/transformer.hpp"
#include "tensor/isa.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_dispatch.hpp"
#include "tensor/quants.hpp"
#include "tensor/tensor.hpp"

namespace nc = netllm::core;
namespace kd = netllm::tensor::kernels::detail;
namespace nk = netllm::tensor::kernels;
namespace nq = netllm::tensor::quant;
namespace nt = netllm::tensor;
namespace isa = netllm::tensor::isa;
namespace nl = netllm::llm;
namespace nn = netllm::nn;
namespace ad = netllm::adapt;
namespace vp = netllm::vp;
using netllm::core::Rng;

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Restores the default pool size AND the env-resolved ISA tier on exit, so
/// tests that force tiers or thread counts cannot leak into each other.
struct TierGuard {
  ~TierGuard() {
    nc::set_global_threads(0);
    isa::reset_active_isa();
  }
};

/// Sets an env var for one test and restores the previous value on exit.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) saved_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

/// The tiers this binary can actually execute on this host: scalar always,
/// plus every vector tier compiled in and advertised by the CPU.
std::vector<isa::Isa> supported_tiers() { return isa::supported_isas(); }

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  // memcmp needs valid pointers even for zero bytes; empty vectors may hold null.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct QuantOperands {
  std::int64_t kb = 0;
  std::vector<std::int8_t> aq;
  std::vector<float> ascales;
  nq::QTensor w8, w4;
};

QuantOperands quant_operands(const std::vector<float>& x, const std::vector<float>& w,
                             std::int64_t m, std::int64_t k, std::int64_t n) {
  QuantOperands q;
  q.kb = nq::blocks_per_row(k);
  q.aq.resize(static_cast<std::size_t>(m * q.kb * nq::kBlock));
  q.ascales.resize(static_cast<std::size_t>(m * q.kb));
  for (std::int64_t i = 0; i < m; ++i) {
    nq::quantize_row(nq::Dtype::kQ8_0, x.data() + i * k, k, q.ascales.data() + i * q.kb,
                     reinterpret_cast<std::uint8_t*>(q.aq.data()) + i * q.kb * nq::kBlock);
  }
  q.w8 = nq::quantize(nq::Dtype::kQ8_0, w.data(), n, k);
  q.w4 = nq::quantize(nq::Dtype::kQ4_0, w.data(), n, k);
  return q;
}

/// All five kernel outputs for one (tier, thread-count) combination.
struct KernelRun {
  std::vector<float> c, cbt, cat, c8, c4;
};

KernelRun run_all_kernels(const std::vector<float>& a, const std::vector<float>& b,
                          const std::vector<float>& bt, const std::vector<float>& bm,
                          const QuantOperands& q, std::int64_t m, std::int64_t k,
                          std::int64_t n, int threads) {
  KernelRun r;
  r.c.assign(static_cast<std::size_t>(m * n), 0.0f);
  r.cbt.assign(static_cast<std::size_t>(m * n), 0.0f);
  r.cat.assign(static_cast<std::size_t>(k * n), 0.0f);
  r.c8.assign(static_cast<std::size_t>(m * n), 0.0f);
  r.c4.assign(static_cast<std::size_t>(m * n), 0.0f);
  if (threads <= 0) {
    nk::matmul_accum_serial(a.data(), b.data(), r.c.data(), m, k, n);
    nk::matmul_bt_accum_serial(a.data(), bt.data(), r.cbt.data(), m, k, n);
    nk::matmul_at_accum_serial(a.data(), bm.data(), r.cat.data(), m, k, n);
    nk::matmul_q8_accum_serial(q.aq.data(), q.ascales.data(),
                               reinterpret_cast<const std::int8_t*>(q.w8.codes.data()),
                               q.w8.scales.data(), r.c8.data(), m, q.kb, n);
    nk::matmul_q4_accum_serial(q.aq.data(), q.ascales.data(), q.w4.codes.data(),
                               q.w4.scales.data(), r.c4.data(), m, q.kb, n);
  } else {
    nc::set_global_threads(threads);
    nk::matmul_accum(a.data(), b.data(), r.c.data(), m, k, n);
    nk::matmul_bt_accum(a.data(), bt.data(), r.cbt.data(), m, k, n);
    nk::matmul_at_accum(a.data(), bm.data(), r.cat.data(), m, k, n);
    nk::matmul_q8_accum(q.aq.data(), q.ascales.data(),
                        reinterpret_cast<const std::int8_t*>(q.w8.codes.data()),
                        q.w8.scales.data(), r.c8.data(), m, q.kb, n);
    nk::matmul_q4_accum(q.aq.data(), q.ascales.data(), q.w4.codes.data(),
                        q.w4.scales.data(), r.c4.data(), m, q.kb, n);
  }
  return r;
}

}  // namespace

// ---- dispatch plumbing ----

TEST(IsaDispatch, NamesRoundTripAndGarbageThrows) {
  for (auto t : isa::all_isas()) {
    EXPECT_EQ(isa::isa_from_name(isa::isa_name(t)), t);
  }
  EXPECT_STREQ(isa::isa_name(isa::Isa::kAvx512), "avx512");
  EXPECT_EQ(static_cast<int>(isa::Isa::kAvx512), 3);  // the gauge value
  EXPECT_THROW(isa::isa_from_name("avx512f"), std::invalid_argument);
  EXPECT_THROW(isa::isa_from_name(""), std::invalid_argument);
  EXPECT_THROW(isa::isa_from_name("Scalar"), std::invalid_argument);
  // A retired tier's name fails loudly instead of selecting scalar.
  EXPECT_THROW(isa::isa_from_name("neon"), std::invalid_argument);
  // "auto" is an env-level directive, not a tier name.
  EXPECT_THROW(isa::isa_from_name("auto"), std::invalid_argument);
}

TEST(IsaDispatch, ScalarAlwaysPresentAndBestIsSupported) {
  EXPECT_TRUE(isa::isa_compiled(isa::Isa::kScalar));
  EXPECT_TRUE(isa::isa_supported(isa::Isa::kScalar));
  EXPECT_TRUE(isa::isa_supported(isa::best_isa()));
  EXPECT_TRUE(isa::isa_supported(isa::active_isa()));
  // supported_isas(): scalar first, the best tier last, each one supported.
  const auto tiers = isa::supported_isas();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), isa::Isa::kScalar);
  EXPECT_EQ(tiers.back(), isa::best_isa());
  for (auto t : tiers) EXPECT_TRUE(isa::isa_supported(t)) << isa::isa_name(t);
  // The AVX-512 tier ships next to the AVX2 tier, never without it.
  if (isa::isa_supported(isa::Isa::kAvx512)) {
    EXPECT_TRUE(isa::isa_supported(isa::Isa::kAvx2));
    EXPECT_EQ(isa::best_isa(), isa::Isa::kAvx512);
  }
}

TEST(IsaDispatch, UnsupportedTierRequestFallsBackToScalar) {
  TierGuard guard;
  // Every tier this binary or CPU lacks is a valid-but-unsupported request
  // (none on an AVX-512 host with every tier compiled).
  for (auto t : isa::all_isas()) {
    if (isa::isa_supported(t)) continue;
    EXPECT_EQ(isa::set_active_isa(t), isa::Isa::kScalar) << isa::isa_name(t);
    EXPECT_EQ(isa::active_isa(), isa::Isa::kScalar);
  }
}

TEST(IsaDispatch, EnvOverrideResolvesOnReset) {
  TierGuard guard;
  {
    EnvVarGuard env("NETLLM_ISA", "scalar");
    EXPECT_EQ(isa::reset_active_isa(), isa::Isa::kScalar);
    EXPECT_EQ(isa::active_isa(), isa::Isa::kScalar);
  }
  {
    EnvVarGuard env("NETLLM_ISA", "auto");
    EXPECT_EQ(isa::reset_active_isa(), isa::best_isa());
  }
  {
    EnvVarGuard env("NETLLM_ISA", nullptr);
    EXPECT_EQ(isa::reset_active_isa(), isa::best_isa());
  }
  // A valid-but-unsupported tier name falls back to scalar, silently: the
  // dispatch decides, the caller's config stays portable across hosts.
  for (auto t : isa::all_isas()) {
    if (isa::isa_supported(t)) continue;
    EnvVarGuard env("NETLLM_ISA", isa::isa_name(t));
    EXPECT_EQ(isa::reset_active_isa(), isa::Isa::kScalar) << isa::isa_name(t);
  }
  {
    // "avx512" applies where the host has the tier, else falls back to scalar.
    EnvVarGuard env("NETLLM_ISA", "avx512");
    const auto want =
        isa::isa_supported(isa::Isa::kAvx512) ? isa::Isa::kAvx512 : isa::Isa::kScalar;
    EXPECT_EQ(isa::reset_active_isa(), want);
    EXPECT_EQ(isa::active_isa(), want);
  }
}

TEST(IsaDispatch, GarbageEnvThrowsWithoutChangingTier) {
  TierGuard guard;
  isa::set_active_isa(isa::best_isa());
  const auto before = isa::active_isa();
  for (const char* garbage : {"turbo9000", "neon"}) {
    EnvVarGuard env("NETLLM_ISA", garbage);
    EXPECT_THROW(isa::reset_active_isa(), std::invalid_argument) << garbage;
    EXPECT_EQ(isa::active_isa(), before) << garbage;
  }
}

TEST(IsaDispatch, ActiveTierExportedAsMetricsGauge) {
  TierGuard guard;
  nc::metrics::set_enabled(true);
  isa::set_active_isa(isa::Isa::kScalar);
  EXPECT_EQ(nc::metrics::gauge("kernels.isa.active").value(),
            static_cast<double>(isa::Isa::kScalar));
  isa::set_active_isa(isa::best_isa());
  EXPECT_EQ(nc::metrics::gauge("kernels.isa.active").value(),
            static_cast<double>(isa::best_isa()));
  EXPECT_EQ(nc::metrics::gauge("kernels.isa.best").value(),
            static_cast<double>(isa::best_isa()));
  if (isa::isa_supported(isa::Isa::kAvx512)) {
    isa::set_active_isa(isa::Isa::kAvx512);
    EXPECT_EQ(nc::metrics::gauge("kernels.isa.active").value(), 3.0);
    EXPECT_EQ(nc::metrics::gauge("kernels.isa.best").value(), 3.0);
  }
}

// ---- per-tier determinism: bitwise across thread counts ----

TEST(IsaTiers, EveryKernelBitwiseThreadInvariantWithinEachTier) {
  TierGuard guard;
  Rng rng(0x15a);
  // Odd shapes straddle the register-tile widths (4-row quads, 64/8-wide
  // j-blocks, 32-wide k-blocks) so quad/leftover and vector/tail seams are
  // all exercised; m and k past the row grain so the pool really dispatches.
  const std::int64_t m = 13, k = 97, n = 75;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto bt = random_vec(n * k, rng);
  const auto bm = random_vec(m * n, rng);
  const auto q = quant_operands(a, bt, m, k, n);

  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    const auto serial = run_all_kernels(a, b, bt, bm, q, m, k, n, /*threads=*/0);
    for (int threads : {1, 2, 8}) {
      const auto run = run_all_kernels(a, b, bt, bm, q, m, k, n, threads);
      const std::string ctx =
          std::string(isa::isa_name(tier)) + " threads=" + std::to_string(threads);
      EXPECT_TRUE(bitwise_equal(run.c, serial.c)) << "matmul_accum " << ctx;
      EXPECT_TRUE(bitwise_equal(run.cbt, serial.cbt)) << "matmul_bt_accum " << ctx;
      EXPECT_TRUE(bitwise_equal(run.cat, serial.cat)) << "matmul_at_accum " << ctx;
      EXPECT_TRUE(bitwise_equal(run.c8, serial.c8)) << "matmul_q8_accum " << ctx;
      EXPECT_TRUE(bitwise_equal(run.c4, serial.c4)) << "matmul_q4_accum " << ctx;
    }
  }
}

// ---- forced scalar == the portable reference loops, bitwise ----

namespace {

// Inline re-statement of the scalar tier's fp32 loops (kernels_scalar.cpp):
// k tiled in blocks of 64, j innermost, plain mul+add. This is also exactly
// the pre-dispatch kernel minus its zero-skip, so NETLLM_ISA=scalar
// reproducing these bits means the refactor changed no numerics.
constexpr std::int64_t kRefKBlock = 64;

void ref_scalar_accum(const float* a, const float* b, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n) {
  for (std::int64_t p0 = 0; p0 < k; p0 += kRefKBlock) {
    const std::int64_t p1 = std::min(k, p0 + kRefKBlock);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const float aip = a[i * k + p];
        for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += aip * b[p * n + j];
      }
    }
  }
}

void ref_scalar_bt(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      c[i * n + j] += acc;
    }
  }
}

void ref_scalar_at(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float ap = a[i * k + p];
      for (std::int64_t j = 0; j < n; ++j) c[p * n + j] += ap * b[i * n + j];
    }
  }
}

}  // namespace

TEST(IsaTiers, ForcedScalarBitwiseMatchesPortableReferenceLoops) {
  TierGuard guard;
  EnvVarGuard env("NETLLM_ISA", "scalar");
  ASSERT_EQ(isa::reset_active_isa(), isa::Isa::kScalar);
  Rng rng(0x5ca1a);
  for (auto [m, k, n] : {std::tuple<std::int64_t, std::int64_t, std::int64_t>{1, 512, 33},
                         {13, 97, 75},
                         {129, 130, 31}}) {
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    const auto bt = random_vec(n * k, rng);
    const auto bm = random_vec(m * n, rng);

    std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f), want = got;
    nk::matmul_accum_serial(a.data(), b.data(), got.data(), m, k, n);
    ref_scalar_accum(a.data(), b.data(), want.data(), m, k, n);
    EXPECT_TRUE(bitwise_equal(got, want)) << "accum m=" << m << " k=" << k << " n=" << n;

    got.assign(static_cast<std::size_t>(m * n), 0.0f);
    want = got;
    nk::matmul_bt_accum_serial(a.data(), bt.data(), got.data(), m, k, n);
    ref_scalar_bt(a.data(), bt.data(), want.data(), m, k, n);
    EXPECT_TRUE(bitwise_equal(got, want)) << "bt m=" << m << " k=" << k << " n=" << n;

    got.assign(static_cast<std::size_t>(k * n), 0.0f);
    want = got;
    nk::matmul_at_accum_serial(a.data(), bm.data(), got.data(), m, k, n);
    ref_scalar_at(a.data(), bm.data(), want.data(), m, k, n);
    EXPECT_TRUE(bitwise_equal(got, want)) << "at m=" << m << " k=" << k << " n=" << n;
  }
}

// ---- fp32 tiling seams: every tier bitwise equals its per-element definition ----

namespace {

// Inline re-statement of the vector tiers' fp32 element (kernels_avx2.cpp,
// kernels_avx512.cpp): acc = 0, one fused multiply-add per p ascending, then
// c += acc — whatever register tile, row range or thread computes it.
void ref_fma_accum(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc = std::fma(a[i * k + p], b[p * n + j], acc);
      c[i * n + j] += acc;
    }
  }
}

/// C0 + A*B through the active tier; threads <= 0 runs the serial entry point.
std::vector<float> f32_product(const std::vector<float>& a, const std::vector<float>& b,
                               std::vector<float> c, std::int64_t m, std::int64_t k,
                               std::int64_t n, int threads) {
  if (threads <= 0) {
    nk::matmul_accum_serial(a.data(), b.data(), c.data(), m, k, n);
  } else {
    nc::set_global_threads(threads);
    nk::matmul_accum(a.data(), b.data(), c.data(), m, k, n);
  }
  return c;
}

}  // namespace

TEST(IsaTiers, F32TilingSeamsBitwiseAgainstPerElementDefinition) {
  TierGuard guard;
  // m walks the row tiles (quads, a pair, one row) and, past the 8-row
  // grain, puts parallel_for chunk starts mid-quad; n walks the 8-lane
  // column vectors and the masked last vector (LoRA r = 4, a 21-column
  // score row, fc1's 160); k covers the short and served inner widths.
  const std::vector<std::int64_t> ms = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13};
  const std::vector<std::int64_t> ns = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 21, 63, 64, 65, 160};
  const std::vector<std::int64_t> ks = {1, 4, 16, 21, 64, 97, 160};
  Rng rng(0xf32e);
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    const auto ref = tier == isa::Isa::kScalar ? &ref_scalar_accum : &ref_fma_accum;
    for (auto k : ks) {
      for (auto m : ms) {
        for (auto n : ns) {
          const std::string ctx = std::string(isa::isa_name(tier)) + " m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) + " n=" + std::to_string(n);
          // Exact-size operands, so a read or write past the tail is out of
          // bounds under ASAN; C starts nonzero because the kernel adds into it.
          const auto a = random_vec(m * k, rng);
          const auto b = random_vec(k * n, rng);
          const auto c0 = random_vec(m * n, rng);
          auto want = c0;
          ref(a.data(), b.data(), want.data(), m, k, n);
          EXPECT_TRUE(bitwise_equal(f32_product(a, b, c0, m, k, n, 0), want)) << "serial " << ctx;
          for (int threads : {1, 2, 3, 8}) {
            EXPECT_TRUE(bitwise_equal(f32_product(a, b, c0, m, k, n, threads), want))
                << ctx << " threads=" << threads;
          }
          // m-invariance: row i of the m-row product is that row alone.
          for (std::int64_t i = 0; i < m; ++i) {
            const std::vector<float> ai(a.begin() + i * k, a.begin() + (i + 1) * k);
            const std::vector<float> ci(c0.begin() + i * n, c0.begin() + (i + 1) * n);
            const std::vector<float> wi(want.begin() + i * n, want.begin() + (i + 1) * n);
            EXPECT_TRUE(bitwise_equal(f32_product(ai, b, ci, 1, k, n, 0), wi))
                << ctx << " row " << i << " alone";
          }
        }
      }
    }
  }
}

// ---- vector kernels return with the upper vector state clean ----

#if defined(__x86_64__)
namespace {

/// XINUSE state-component bits (XGETBV with ECX = 1): bit 2, the upper
/// halves of the YMM registers, and bit 6, the upper 256 bits of ZMM0-15,
/// are set while that state is not in its initial configuration.
constexpr unsigned kXinuseYmm = 1u << 2;
constexpr unsigned kXinuseZmmHi256 = 1u << 6;

/// The XINUSE bitmap; nullopt when the CPU does not report XINUSE
/// (CPUID.(EAX=0DH,ECX=1):EAX[2]).
std::optional<unsigned> xinuse() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(0xd, 1, &eax, &ebx, &ecx, &edx) == 0 || (eax & (1u << 2)) == 0) {
    return std::nullopt;
  }
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return lo;
}

bool upper_dirty(unsigned bits) { return (*xinuse() & bits) != 0; }

/// Every kernel entry point on the active tier, each followed by a check
/// that none of `bits` is left set in XINUSE.
void expect_clean_upper_state_after_every_kernel(unsigned bits) {
  // A kernel that returns with dirty upper YMM state (no vzeroupper) makes
  // every legacy-SSE instruction after it, e.g. softmax's libm exp, pay a
  // merge penalty until the next AVX function cleans up. Each m (the last
  // row tile is 1, 2 or 4 rows) meets each n = 8J - 3, so every masked tile
  // kind ends a call at least once, whatever the compiler inlined.
  Rng rng(0x7a11);
  const std::int64_t k = 16;
  for (std::int64_t m : {1, 2, 4, 5, 59}) {
    for (std::int64_t n : {4, 5, 13, 21, 29, 37, 45, 53, 61, 64, 98}) {
      const auto a = random_vec(m * k, rng);
      const auto b = random_vec(k * n, rng);
      const auto bt = random_vec(n * k, rng);
      const auto bm = random_vec(m * n, rng);
      const auto q = quant_operands(a, bt, m, k, n);
      const std::string ctx =
          "m=" + std::to_string(m) + " k=" + std::to_string(k) + " n=" + std::to_string(n);
      std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
      std::vector<float> cat(static_cast<std::size_t>(k * n), 0.0f);
      nk::matmul_accum_serial(a.data(), b.data(), c.data(), m, k, n);
      EXPECT_FALSE(upper_dirty(bits)) << "matmul_accum " << ctx;
      nk::matmul_bt_accum_serial(a.data(), bt.data(), c.data(), m, k, n);
      EXPECT_FALSE(upper_dirty(bits)) << "matmul_bt_accum " << ctx;
      nk::matmul_at_accum_serial(a.data(), bm.data(), cat.data(), m, k, n);
      EXPECT_FALSE(upper_dirty(bits)) << "matmul_at_accum " << ctx;
      nk::matmul_q8_accum_serial(q.aq.data(), q.ascales.data(),
                                 reinterpret_cast<const std::int8_t*>(q.w8.codes.data()),
                                 q.w8.scales.data(), c.data(), m, q.kb, n);
      EXPECT_FALSE(upper_dirty(bits)) << "matmul_q8_accum " << ctx;
      nk::matmul_q4_accum_serial(q.aq.data(), q.ascales.data(), q.w4.codes.data(),
                                 q.w4.scales.data(), c.data(), m, q.kb, n);
      EXPECT_FALSE(upper_dirty(bits)) << "matmul_q4_accum " << ctx;
      // The fused LoRA slot: three projections with a base and one without,
      // on the fused row path (rank 4) and the product-by-product one (17).
      for (std::int64_t r : {4, 17}) {
        const auto la = random_vec(k * r, rng), lb = random_vec(r * n, rng);
        std::vector<float> y0(c.size()), y1(c.size()), y2(c.size());
        const nk::LoraProjection qkv[] = {{b.data(), nullptr, la.data(), lb.data(), 2.0f, y0.data()},
                                          {b.data(), b.data(), la.data(), lb.data(), 2.0f, y1.data()},
                                          {b.data(), nullptr, la.data(), lb.data(), 2.0f, y2.data()}};
        nk::lora_projections(a.data(), m, k, n, r, qkv, 3);
        EXPECT_FALSE(upper_dirty(bits)) << "lora_projections r=" << r << " " << ctx;
        const nk::LoraProjection delta{nullptr, nullptr, la.data(), lb.data(), 2.0f, y0.data()};
        nk::lora_projections(a.data(), m, k, n, r, &delta, 1);
        EXPECT_FALSE(upper_dirty(bits)) << "lora_projections delta-only r=" << r << " " << ctx;
      }
    }
  }
  // The row kernels: whole vectors, the padded tail, and the hand-offs to
  // the scalar body (a non-finite lane, a non-finite or partial Q8 block).
  for (std::int64_t n : {1, 7, 8, 19, 32, 45, 64}) {
    auto x = random_vec(n, rng);
    for (bool poison : {false, true}) {
      if (poison) x[static_cast<std::size_t>(n / 2)] = kNaN;
      const std::string ctx = "n=" + std::to_string(n) + (poison ? " with NaN" : "");
      std::vector<float> y(static_cast<std::size_t>(n));
      nt::gelu_row(x.data(), y.data(), n);
      EXPECT_FALSE(upper_dirty(bits)) << "gelu_row " << ctx;
      nk::tanh_row(x.data(), y.data(), n);
      EXPECT_FALSE(upper_dirty(bits)) << "tanh_row " << ctx;
      const auto kb = nq::blocks_per_row(n);
      std::vector<float> scales(static_cast<std::size_t>(kb));
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(kb * nq::kBlock));
      nq::quantize_row(nq::Dtype::kQ8_0, x.data(), n, scales.data(), codes.data());
      EXPECT_FALSE(upper_dirty(bits)) << "quantize_row q8 " << ctx;
      nk::exp_row(x.data(), y.data(), n);
      EXPECT_FALSE(upper_dirty(bits)) << "exp_row " << ctx;
      nt::softmax_row(x.data(), y.data(), n);
      EXPECT_FALSE(upper_dirty(bits)) << "softmax_row " << ctx;
    }
    // A finite row with a score gap past expf's fast path (|x| >= 88).
    auto gap = random_vec(n, rng);
    gap[0] = 200.0f;
    std::vector<float> y(static_cast<std::size_t>(n));
    nt::softmax_row(gap.data(), y.data(), n);
    EXPECT_FALSE(upper_dirty(bits)) << "softmax_row with a gap, n=" << n;
  }
  // The fused attention head: every score-tile and output-tile kind (head
  // widths with and without a masked last vector), one and several rows,
  // with and without cached rows, and a NaN value row.
  for (std::int64_t dh : {8, 12, 16, 40, 64}) {
    for (auto [rows, past] : {std::pair<std::int64_t, std::int64_t>{1, 0}, {1, 30}, {5, 7},
                              {59, 0}}) {
      const std::int64_t len = rows + past, ld = 2 * dh;
      const auto q = random_vec(rows * ld, rng);
      const auto k = random_vec(len * ld, rng);
      auto v = random_vec(len * ld, rng);
      if (rows > 1) v[static_cast<std::size_t>((len - 1) * ld + 1)] = kNaN;
      std::vector<float> ctx(static_cast<std::size_t>(rows * ld));
      nk::attend_head(q.data() + dh, k.data() + dh, v.data() + dh, ctx.data() + dh, ld, dh,
                      rows, len);
      EXPECT_FALSE(upper_dirty(bits))
          << "attend_head d_head=" << dh << " rows=" << rows << " past=" << past;
    }
  }
}

}  // namespace

TEST(IsaTiers, Avx2KernelsReturnWithCleanUpperYmmState) {
  TierGuard guard;
  if (!isa::isa_supported(isa::Isa::kAvx2)) GTEST_SKIP() << "no AVX2 tier on this host";
  if (!xinuse().has_value()) GTEST_SKIP() << "CPU does not report XINUSE";
  ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx2), isa::Isa::kAvx2);
  expect_clean_upper_state_after_every_kernel(kXinuseYmm);
}

TEST(IsaAvx512, KernelsReturnWithCleanUpperYmmAndZmmState) {
  TierGuard guard;
  if (!isa::isa_supported(isa::Isa::kAvx512)) GTEST_SKIP() << "no AVX-512 tier on this host";
  if (!xinuse().has_value()) GTEST_SKIP() << "CPU does not report XINUSE";
  ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx512), isa::Isa::kAvx512);
  // Dirty upper ZMM state costs the SSE code after a kernel as dirty upper
  // YMM state does; vzeroupper clears both.
  expect_clean_upper_state_after_every_kernel(kXinuseYmm | kXinuseZmmHi256);
}
#endif

// ---- cross-tier contract ----

TEST(IsaTiers, CrossTierF32WithinToleranceQuantBitwise) {
  TierGuard guard;
  if (isa::best_isa() == isa::Isa::kScalar) {
    GTEST_SKIP() << "no vector tier on this host";
  }
  Rng rng(0xc105);
  const std::int64_t m = 9, k = 160, n = 67;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto bt = random_vec(n * k, rng);
  const auto bm = random_vec(m * n, rng);
  const auto q = quant_operands(a, bt, m, k, n);

  ASSERT_EQ(isa::set_active_isa(isa::Isa::kScalar), isa::Isa::kScalar);
  const auto sc = run_all_kernels(a, b, bt, bm, q, m, k, n, /*threads=*/0);
  ASSERT_EQ(isa::set_active_isa(isa::best_isa()), isa::best_isa());
  const auto vec = run_all_kernels(a, b, bt, bm, q, m, k, n, /*threads=*/0);

  // Pinned cross-tier fp32 tolerance: the tiers differ only in rounding
  // (FMA fusion + partial-sum association); for N(0,1) data at k <= 160 the
  // measured gap is ~1e-6 relative — 1e-5 leaves headroom without letting a
  // real indexing bug through.
  const auto close = [](const std::vector<float>& x, const std::vector<float>& y,
                        const char* what) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(x[i], y[i], 1e-5 * (std::abs(y[i]) + 1.0)) << what << " at " << i;
    }
  };
  close(vec.c, sc.c, "matmul_accum");
  close(vec.cbt, sc.cbt, "matmul_bt_accum");
  close(vec.cat, sc.cat, "matmul_at_accum");
  // Quantized kernels: exact int dots + fixed float order => bitwise equal.
  EXPECT_TRUE(bitwise_equal(vec.c8, sc.c8)) << "q8 diverged across tiers";
  EXPECT_TRUE(bitwise_equal(vec.c4, sc.c4)) << "q4 diverged across tiers";
}

// ---- Q8 tiling seams: lane groups, row quads and chunk starts ----

namespace {

/// Q8 product of the first m activation rows and first n weight rows of
/// pre-quantized operands (rows are contiguous, so a prefix is a smaller
/// operand). threads <= 0 runs the serial entry point.
std::vector<float> q8_product(const std::vector<std::int8_t>& aq,
                              const std::vector<float>& ascales, const nq::QTensor& w,
                              std::int64_t m, std::int64_t kb, std::int64_t n, int threads) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  const auto* bq = reinterpret_cast<const std::int8_t*>(w.codes.data());
  if (threads <= 0) {
    nk::matmul_q8_accum_serial(aq.data(), ascales.data(), bq, w.scales.data(), c.data(), m, kb,
                               n);
  } else {
    nc::set_global_threads(threads);
    nk::matmul_q8_accum(aq.data(), ascales.data(), bq, w.scales.data(), c.data(), m, kb, n);
  }
  return c;
}

}  // namespace

TEST(IsaTiers, Q8TilingSeamsBitwiseAcrossTiersAndThreadCounts) {
  TierGuard guard;
  // m crosses the 4-row quad (leftover rows 0..3) and, past the 8-row grain,
  // puts parallel_for chunk starts mid-quad; n crosses the 8-column lane
  // group (tail lanes 1..7); k covers a single block, a padded tail block
  // and the 512/1280 serving widths.
  const std::vector<std::int64_t> ms = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13};
  const std::vector<std::int64_t> ns = {1, 7, 8, 9, 17, 67, 520};
  const std::int64_t max_m = 13, max_n = 520;
  Rng rng(0x5ea3);
  for (std::int64_t k : {32, 97, 512, 1280}) {
    const auto x = random_vec(max_m * k, rng);
    const auto w = random_vec(max_n * k, rng);
    const auto q = quant_operands(x, w, max_m, k, max_n);
    for (auto m : ms) {
      for (auto n : ns) {
        ASSERT_EQ(isa::set_active_isa(isa::Isa::kScalar), isa::Isa::kScalar);
        const auto want = q8_product(q.aq, q.ascales, q.w8, m, q.kb, n, /*threads=*/0);
        for (auto tier : supported_tiers()) {
          ASSERT_EQ(isa::set_active_isa(tier), tier);
          const std::string ctx = std::string(isa::isa_name(tier)) + " m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) + " k=" + std::to_string(k);
          EXPECT_TRUE(bitwise_equal(q8_product(q.aq, q.ascales, q.w8, m, q.kb, n, 0), want))
              << "serial " << ctx;
          for (int threads : {1, 2, 3, 8}) {
            EXPECT_TRUE(
                bitwise_equal(q8_product(q.aq, q.ascales, q.w8, m, q.kb, n, threads), want))
                << ctx << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(IsaTiers, Q8ExtremeCodesGiveTheExactMaximumDot) {
  TierGuard guard;
  // Code -128 on both sides of every block: each block dot is the largest
  // magnitude the format can produce, 32 * 128 * 128 = 2^19, which the i16
  // madd pairs and the int32 reduction must carry exactly.
  const std::int64_t m = 5, kb = 4, n = 9;
  std::vector<std::int8_t> aq(static_cast<std::size_t>(m * kb * nq::kBlock), -128);
  std::vector<std::int8_t> bq(static_cast<std::size_t>(n * kb * nq::kBlock), -128);
  std::vector<float> ascales(static_cast<std::size_t>(m * kb));
  std::vector<float> bscales(static_cast<std::size_t>(n * kb));
  for (std::size_t t = 0; t < ascales.size(); ++t) ascales[t] = 0.001f * static_cast<float>(t + 1);
  for (std::size_t t = 0; t < bscales.size(); ++t) bscales[t] = -0.003f * static_cast<float>(t + 2);
  // The scalar expression, per element, with the exact dot.
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t b = 0; b < kb; ++b) {
        acc += ascales[static_cast<std::size_t>(i * kb + b)] *
               bscales[static_cast<std::size_t>(j * kb + b)] * 524288.0f;
      }
      want[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    nk::matmul_q8_accum_serial(aq.data(), ascales.data(), bq.data(), bscales.data(), c.data(),
                               m, kb, n);
    EXPECT_TRUE(bitwise_equal(c, want)) << isa::isa_name(tier);
  }
}

// ---- NaN/Inf propagation through zero activations (the bugfix) ----

TEST(IsaNanPropagation, ZeroActivationTimesPoisonedWeightReachesC) {
  TierGuard guard;
  const std::int64_t k = 70;
  // n = 4 and 9 put the poisoned column in a masked tail lane of the AVX2
  // tile; m = 1, 2 and 5 run every row-tile kind (one row, a pair, a quad
  // plus one row).
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (auto [m, n] : {std::pair<std::int64_t, std::int64_t>{5, 40},
                        {1, 4}, {2, 4}, {5, 4}, {1, 9}, {2, 9}, {5, 9}}) {
      const std::int64_t col = std::min<std::int64_t>(11, n - 1);
      for (float poison : {kNaN, kInf}) {
        const std::string ctx = std::string(isa::isa_name(tier)) + " m=" + std::to_string(m) +
                                " n=" + std::to_string(n) + " poison=" + std::to_string(poison);
        // Zero activations everywhere; one poisoned weight. The product
        // 0 * NaN (and 0 * Inf) is NaN, and the kernels must not skip it.
        std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
        std::vector<float> b(static_cast<std::size_t>(k * n), 0.25f);
        b[static_cast<std::size_t>(37 * n + col)] = poison;  // row p=37
        std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
        nk::matmul_accum(a.data(), b.data(), c.data(), m, k, n);
        for (std::int64_t i = 0; i < m; ++i) {
          EXPECT_TRUE(std::isnan(c[static_cast<std::size_t>(i * n + col)]))
              << ctx << " row " << i << ": zero activation swallowed the poisoned weight";
        }
        // Every untouched column stays exactly zero.
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            if (j == col) continue;
            EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)], 0.0f) << ctx;
          }
        }

        // Same contract for the A^T kernel (it had the same skip on a[i][p]).
        const std::int64_t at_row = std::min<std::int64_t>(2, m - 1);
        std::vector<float> at_a(static_cast<std::size_t>(m * k), 0.0f);
        std::vector<float> at_b(static_cast<std::size_t>(m * n), 0.25f);
        at_b[static_cast<std::size_t>(at_row * n + col)] = poison;
        std::vector<float> at_c(static_cast<std::size_t>(k * n), 0.0f);
        nk::matmul_at_accum(at_a.data(), at_b.data(), at_c.data(), m, k, n);
        for (std::int64_t p = 0; p < k; ++p) {
          EXPECT_TRUE(std::isnan(at_c[static_cast<std::size_t>(p * n + col)]))
              << ctx << " at-kernel row " << p;
        }
      }
    }
  }
}

TEST(IsaNanPropagation, PoisonedQuantizedOperandReachesCOnEveryTier) {
  TierGuard guard;
  // Quantization must not launder a non-finite value into a finite code:
  // the poisoned block's scale is NaN, so every output reading that block
  // is NaN, for Q8 and Q4 weights alike, on every tier.
  const std::int64_t m = 6, k = 70, n = 11;
  const std::vector<float> ones(static_cast<std::size_t>(m * k), 1.0f);
  const std::vector<float> small(static_cast<std::size_t>(n * k), 0.01f);
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (float poison : {kNaN, kInf}) {
      for (auto dtype : {nq::Dtype::kQ8_0, nq::Dtype::kQ4_0}) {
        const std::string ctx = std::string(isa::isa_name(tier)) + " " + nq::dtype_name(dtype) +
                                " poison=" + std::to_string(poison);
        // Poisoned weight (column j=4, inside block 1): column 4 is NaN in
        // every row, every other column stays finite.
        auto w = small;
        w[static_cast<std::size_t>(4 * k + 40)] = poison;
        auto y = nq::qmatmul(netllm::tensor::Tensor::from(ones, {m, k}),
                             nq::quantize(dtype, w.data(), n, k));
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_EQ(std::isnan(y.at(i * n + j)), j == 4) << "weight " << ctx << " i=" << i
                                                           << " j=" << j;
          }
        }
        // Poisoned activation (row i=2, block 2): row 2 is NaN in every
        // column, every other row stays finite.
        auto x = ones;
        x[static_cast<std::size_t>(2 * k + 65)] = poison;
        y = nq::qmatmul(netllm::tensor::Tensor::from(x, {m, k}),
                        nq::quantize(dtype, small.data(), n, k));
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_EQ(std::isnan(y.at(i * n + j)), i == 2) << "activation " << ctx << " i=" << i
                                                           << " j=" << j;
          }
        }
      }
    }
  }
}

namespace {

/// A predictor whose viewports are computed THROUGH matmul_accum with an
/// all-zero activation against a NaN-poisoned weight matrix — the exact
/// shape of the swallowed-poison bug: with the old zero-skip the NaN never
/// reached the output and the guard saw a clean (but wrong) answer.
class PoisonedMatmulPredictor final : public vp::VpPredictor {
 public:
  std::string name() const override { return "poisoned-matmul"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> /*history*/,
                                    const netllm::tensor::Tensor& /*saliency*/,
                                    int horizon) override {
    const std::int64_t k = 16, n = 3;
    std::vector<float> act(static_cast<std::size_t>(k), 0.0f);   // zero activation
    std::vector<float> w(static_cast<std::size_t>(k * n), kNaN); // poisoned weights
    std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
    nk::matmul_accum(act.data(), w.data(), out.data(), 1, k, n);
    std::vector<vp::Viewport> result(static_cast<std::size_t>(horizon));
    for (auto& v : result) {
      v.roll = out[0];
      v.pitch = out[1];
      v.yaw = out[2];
    }
    return result;
  }
};

}  // namespace

TEST(IsaNanPropagation, ServeGuardCatchesPoisonThroughZeroActivation) {
  TierGuard guard;
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    ad::GuardedVpPredictor guarded(std::make_shared<PoisonedMatmulPredictor>());
    auto setting = vp::vp_default_train();
    setting.num_traces = 1;
    const auto samples = vp::build_dataset(setting, 1);
    ASSERT_FALSE(samples.empty());
    const auto pred =
        guarded.predict(samples[0].history, samples[0].saliency, /*horizon=*/4);
    // The guard must have seen the NaN, failed validation and served the
    // finite fallback instead.
    ASSERT_EQ(pred.size(), 4u) << isa::isa_name(tier);
    for (const auto& v : pred) {
      EXPECT_TRUE(std::isfinite(v.roll) && std::isfinite(v.pitch) && std::isfinite(v.yaw))
          << isa::isa_name(tier);
    }
    EXPECT_GE(guarded.counters().fail_invalid, 1) << isa::isa_name(tier);
    EXPECT_GE(guarded.counters().fallback, 1) << isa::isa_name(tier);
  }
}

// ---- whole-decode-stream determinism per tier ----

TEST(IsaDecode, DecodeStreamsDeterministicWithinEachTier) {
  TierGuard guard;
  nl::MiniGptConfig cfg;
  cfg.vocab = nl::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = 64;
  const std::vector<int> prompt = {5, 9, 2, 14, 3};
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    Rng rng(0xdec0);
    nl::MiniGpt gpt(cfg, rng);
    std::vector<std::vector<int>> streams;
    for (int threads : {1, 4}) {
      nc::set_global_threads(threads);
      const auto uncached = gpt.generate(prompt, 24, /*stop=*/-1, /*use_cache=*/false);
      const auto cached = gpt.generate(prompt, 24, /*stop=*/-1, /*use_cache=*/true);
      EXPECT_EQ(uncached, cached)
          << isa::isa_name(tier) << " threads=" << threads << ": KV cache diverged";
      streams.push_back(uncached);
    }
    ASSERT_EQ(streams.size(), 2u);
    EXPECT_EQ(streams[0], streams[1])
        << isa::isa_name(tier) << ": decode stream changed with thread count";
  }
}

// ---- row kernels: tanh, GELU and the Q8_0 quantizer ----

namespace {

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// GELU inputs whose tanh arguments reach every branch of the port: small,
/// unit and large gaussians interleaved (|x| ~ 7 saturates tanh).
std::vector<float> gelu_inputs(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  constexpr double kScales[] = {0.05, 1.5, 8.0};
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(rng.gaussian(0.0, kScales[i % 3]));
  }
  return v;
}

/// tensor::gelu_row of in[0:n) on `tier`, into a buffer of exactly n.
std::vector<float> gelu_on(isa::Isa tier, const float* in, std::int64_t n) {
  EXPECT_EQ(isa::set_active_isa(tier), tier);
  std::vector<float> out(static_cast<std::size_t>(n));
  nt::gelu_row(in, out.data(), n);
  return out;
}

struct Q8Row {
  std::vector<float> scales;
  std::vector<std::uint8_t> codes;
};

Q8Row quantize_q8_on(isa::Isa tier, const std::vector<float>& x) {
  EXPECT_EQ(isa::set_active_isa(tier), tier);
  const auto n = static_cast<std::int64_t>(x.size());
  const auto kb = nq::blocks_per_row(n);
  Q8Row r{std::vector<float>(static_cast<std::size_t>(kb)),
          std::vector<std::uint8_t>(static_cast<std::size_t>(kb * nq::kBlock))};
  nq::quantize_row(nq::Dtype::kQ8_0, x.data(), n, r.scales.data(), r.codes.data());
  return r;
}

/// Every tier's Q8_0 row is the scalar tier's, scale bits and code bytes.
void expect_q8_row_equal_across_tiers(const std::vector<float>& x, const std::string& ctx) {
  const auto want = quantize_q8_on(isa::Isa::kScalar, x);
  for (auto tier : supported_tiers()) {
    const auto got = quantize_q8_on(tier, x);
    EXPECT_TRUE(bitwise_equal(got.scales, want.scales)) << isa::isa_name(tier) << " " << ctx;
    EXPECT_EQ(got.codes, want.codes) << isa::isa_name(tier) << " " << ctx;
  }
}

// glibc 2.36 tanhf, read at the parent of the in-repo port: {x, tanhf(x)}
// bit pairs at every branch threshold of tanhf and of the expm1f it calls,
// +-2 ulps. An expm1f threshold |a| appears at x = |a| / 2, since tanhf
// calls expm1f(+-2|x|); "k = K" is the first argument whose reduction
// multiple k reaches K. tanhf is odd on all of these: tanh(-x) = -tanh(x).
constexpr std::uint32_t kTanhKnownAnswers[][2] = {
    // tanhf |x| = 2^-55
    {0x23fffffeu, 0x23fffffeu}, {0x23ffffffu, 0x23ffffffu}, {0x24000000u, 0x24000000u},
    {0x24000001u, 0x24000001u}, {0x24000002u, 0x24000002u},
    // tanhf |x| = 1
    {0x3f7ffffeu, 0x3f42f7d5u}, {0x3f7fffffu, 0x3f42f7d5u}, {0x3f800000u, 0x3f42f7d6u},
    {0x3f800001u, 0x3f42f7d6u}, {0x3f800002u, 0x3f42f7d7u},
    // tanhf |x| = 22
    {0x41affffeu, 0x3f800000u}, {0x41afffffu, 0x3f800000u}, {0x41b00000u, 0x3f800000u},
    {0x41b00001u, 0x3f800000u}, {0x41b00002u, 0x3f800000u},
    // expm1f |a| = 2^-25
    {0x327ffffeu, 0x327ffffeu}, {0x327fffffu, 0x327fffffu}, {0x32800000u, 0x32800000u},
    {0x32800001u, 0x32800001u}, {0x32800002u, 0x32800002u},
    // expm1f |a| = ln2 / 2 (k = 0 | k = -1)
    {0x3e317216u, 0x3e2fb0cbu}, {0x3e317217u, 0x3e2fb0ccu}, {0x3e317218u, 0x3e2fb0cdu},
    {0x3e317219u, 0x3e2fb0cdu}, {0x3e31721au, 0x3e2fb0cfu},
    // expm1f |a| = 1.5 ln2 (k = -1 | k = -2)
    {0x3f051590u, 0x3ef486f5u}, {0x3f051591u, 0x3ef486f8u}, {0x3f051592u, 0x3ef486f8u},
    {0x3f051593u, 0x3ef486fbu}, {0x3f051594u, 0x3ef486fcu},
    // expm1f |a| = 27 ln2
    {0x4115b842u, 0x3f800000u}, {0x4115b843u, 0x3f800000u}, {0x4115b844u, 0x3f800000u},
    {0x4115b845u, 0x3f800000u}, {0x4115b846u, 0x3f800000u},
    // expm1f k = 23 (a = 15.5958)
    {0x40f98870u, 0x3f7ffffau}, {0x40f98871u, 0x3f7ffffau}, {0x40f98872u, 0x3f7ffffau},
    {0x40f98873u, 0x3f7ffffau}, {0x40f98874u, 0x3f7ffffau},
    // expm1f k = 57, past the k <= 56 branch (a = 39.1628)
    {0x419ca6b7u, 0x3f800000u}, {0x419ca6b8u, 0x3f800000u}, {0x419ca6b9u, 0x3f800000u},
    {0x419ca6bau, 0x3f800000u}, {0x419ca6bbu, 0x3f800000u},
};

}  // namespace

TEST(IsaRowKernels, GeluEveryTierBitwiseEqualsScalarPortAtEveryLength) {
  TierGuard guard;
  Rng rng(0x6e1);
  // Every tail length, the vector seams, an ABR window's MLP (59 x 256)
  // and one 512-wide lockstep step's (4 x 1280), each at unaligned starts.
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (std::int64_t n : {31, 32, 33, 59 * 256, 4 * 1280}) lengths.push_back(n);
  for (auto n : lengths) {
    for (std::int64_t offset : {0, 1, 3, 5}) {
      const auto buf = gelu_inputs(n + offset, rng);
      const float* in = buf.data() + offset;
      const auto want = gelu_on(isa::Isa::kScalar, in, n);
      for (auto tier : supported_tiers()) {
        const std::string ctx = std::string(isa::isa_name(tier)) + " n=" + std::to_string(n) +
                                " offset=" + std::to_string(offset);
        EXPECT_TRUE(bitwise_equal(gelu_on(tier, in, n), want)) << ctx;
        std::vector<float> in_place(buf.begin() + offset, buf.end());
        nt::gelu_row(in_place.data(), in_place.data(), n);
        EXPECT_TRUE(bitwise_equal(in_place, want)) << "in place " << ctx;
      }
    }
  }
}

TEST(IsaRowKernels, GeluTensorOpBitwiseAcrossTiersAndThreadCounts) {
  TierGuard guard;
  Rng rng(0x6e2);
  // Past the elementwise grain (2^15) with odd sizes, so the pool's chunk
  // boundaries fall inside a vector.
  for (std::int64_t n : {33, 100003, 3 * 32768 + 5}) {
    const auto x = gelu_inputs(n, rng);
    const auto want = gelu_on(isa::Isa::kScalar, x.data(), n);
    std::optional<std::vector<float>> want_grad;
    for (auto tier : supported_tiers()) {
      ASSERT_EQ(isa::set_active_isa(tier), tier);
      for (int threads : {1, 3}) {
        nc::set_global_threads(threads);
        const std::string ctx = std::string(isa::isa_name(tier)) + " n=" + std::to_string(n) +
                                " threads=" + std::to_string(threads);
        const auto xt = nt::Tensor::from(x, {n}, /*requires_grad=*/true);
        const auto y = nt::gelu(xt);
        EXPECT_TRUE(bitwise_equal(std::vector<float>(y.data().begin(), y.data().end()), want))
            << ctx;
        nt::sum_all(y).backward();
        const std::vector<float> grad(xt.grad().begin(), xt.grad().end());
        if (!want_grad.has_value()) want_grad = grad;
        EXPECT_TRUE(bitwise_equal(grad, *want_grad)) << "backward " << ctx;
      }
    }
  }
}

TEST(IsaRowKernels, GeluSpecialLanesMatchScalarPort) {
  TierGuard guard;
  Rng rng(0x6e3);
  // +-3e13 overflow x^3 to Inf inside the tanh argument; 1e13 does not.
  const float specials[] = {0.0f,  -0.0f, std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f, -3e-39f, 1e13f, 3e13f, -3e13f, kNaN, -kNaN, kInf, -kInf};
  // 19 lanes: two whole vectors and a tail of three, the special value
  // visiting each.
  const auto base = gelu_inputs(19, rng);
  for (float s : specials) {
    for (std::size_t at = 0; at < base.size(); ++at) {
      auto x = base;
      x[at] = s;
      const auto want = gelu_on(isa::Isa::kScalar, x.data(), 19);
      for (auto tier : supported_tiers()) {
        EXPECT_TRUE(bitwise_equal(gelu_on(tier, x.data(), 19), want))
            << isa::isa_name(tier) << " value " << s << " (bits " << std::hex << bits_of(s)
            << std::dec << ") at lane " << at;
      }
    }
  }
  const auto one = [](float x) { return gelu_on(isa::best_isa(), &x, 1)[0]; };
  EXPECT_EQ(bits_of(one(0.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(one(-0.0f)), bits_of(-0.0f));
  EXPECT_TRUE(std::isnan(one(kNaN)));
  EXPECT_EQ(one(kInf), kInf);
}

TEST(IsaRowKernels, TanhPortReturnsGlibcBitsAtEveryBranchThreshold) {
  TierGuard guard;
  // Positive then negated inputs in one row: whole vectors plus a tail.
  std::vector<float> in;
  std::vector<std::uint32_t> want;
  for (const auto& kat : kTanhKnownAnswers) {
    in.push_back(std::bit_cast<float>(kat[0]));
    want.push_back(kat[1]);
  }
  for (const auto& kat : kTanhKnownAnswers) {
    in.push_back(-std::bit_cast<float>(kat[0]));
    want.push_back(kat[1] ^ 0x80000000u);
  }
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    std::vector<float> out(in.size());
    nk::tanh_row(in.data(), out.data(), static_cast<std::int64_t>(in.size()));
    for (std::size_t i = 0; i < in.size(); ++i) {
      float single = 0.0f;
      nk::tanh_row(&in[i], &single, 1);
      EXPECT_EQ(bits_of(out[i]), want[i])
          << isa::isa_name(tier) << " x bits " << std::hex << bits_of(in[i]);
      EXPECT_EQ(bits_of(single), want[i])
          << isa::isa_name(tier) << " alone, x bits " << std::hex << bits_of(in[i]);
    }
    // Non-finite lanes leave the vector body for the scalar one, whole
    // vector and tail alike: tanh(+-Inf) = +-1, tanh(NaN) = NaN.
    std::vector<float> special(11, 0.5f);
    special[2] = kInf;
    special[5] = -kInf;
    special[9] = kNaN;
    std::vector<float> got(special.size());
    nk::tanh_row(special.data(), got.data(), static_cast<std::int64_t>(special.size()));
    EXPECT_EQ(got[2], 1.0f) << isa::isa_name(tier);
    EXPECT_EQ(got[5], -1.0f) << isa::isa_name(tier);
    EXPECT_TRUE(std::isnan(got[9])) << isa::isa_name(tier);
    EXPECT_EQ(bits_of(got[0]), bits_of(got[10])) << isa::isa_name(tier);
  }
}

TEST(IsaRowKernels, Q8QuantizerBytesEqualScalarTier) {
  TierGuard guard;
  Rng rng(0x9a8);
  // Random blocks at magnitudes from 1e-3 to 1e3.
  {
    std::vector<float> x(8 * nq::kBlock);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double scale = std::pow(10.0, static_cast<double>(i / 32 % 7) - 3.0);
      x[i] = static_cast<float>(rng.gaussian(0.0, scale));
    }
    expect_q8_row_equal_across_tiers(x, "random blocks");
  }
  // +-m ties of the largest magnitude, both orders, within and across
  // vectors: the earliest one sets the scale's sign.
  for (auto [i, j] : {std::pair<int, int>{0, 31}, {3, 4}, {7, 8}, {12, 27}, {30, 31}}) {
    for (float first : {40.0f, -40.0f}) {  // beyond any unit gaussian
      auto x = random_vec(nq::kBlock, rng);
      x[static_cast<std::size_t>(i)] = first;
      x[static_cast<std::size_t>(j)] = -first;
      const std::string ctx = "tie " + std::to_string(first) + " at " + std::to_string(i) +
                              " then " + std::to_string(j);
      expect_q8_row_equal_across_tiers(x, ctx);
      EXPECT_EQ(quantize_q8_on(isa::best_isa(), x).scales[0], first / -128.0f) << ctx;
    }
  }
  // All-+-0 blocks, and blocks whose scale is subnormal or underflows to 0.
  {
    std::vector<float> x(nq::kBlock);
    for (std::size_t t = 0; t < x.size(); ++t) x[t] = (t % 3 == 0) ? -0.0f : 0.0f;
    expect_q8_row_equal_across_tiers(x, "all +-0");
    for (float tiny : {1e-44f, 1e-42f, 3e-40f, 2e-38f}) {
      auto y = random_vec(nq::kBlock, rng);
      for (auto& v : y) v *= tiny;
      y[5] = tiny;
      expect_q8_row_equal_across_tiers(y, "max magnitude " + std::to_string(tiny));
    }
  }
  // A non-finite value at each position: NaN scale, zero codes.
  for (float bad : {kNaN, kInf, -kInf}) {
    for (std::int64_t at = 0; at < nq::kBlock; ++at) {
      auto x = random_vec(2 * nq::kBlock, rng);
      x[static_cast<std::size_t>(nq::kBlock + at)] = bad;
      expect_q8_row_equal_across_tiers(x, "non-finite " + std::to_string(bad) + " at " +
                                              std::to_string(at));
      EXPECT_TRUE(std::isnan(quantize_q8_on(isa::best_isa(), x).scales[1]));
    }
  }
  // Tails of 1..31 after two whole blocks, plain and poisoned.
  for (std::int64_t tail = 1; tail < nq::kBlock; ++tail) {
    auto x = random_vec(2 * nq::kBlock + tail, rng);
    expect_q8_row_equal_across_tiers(x, "tail " + std::to_string(tail));
    x.back() = kNaN;
    expect_q8_row_equal_across_tiers(x, "poisoned tail " + std::to_string(tail));
  }
}

// Every float through the tanh row kernel: the scalar port against the host
// libm's tanhf (glibc 2.36 is the transcribed source, so any other libm may
// differ), and the vector tier against the port. About two minutes on one
// core; run with --gtest_also_run_disabled_tests.
TEST(IsaRowKernels, DISABLED_TanhEveryFloatMatchesHostLibmAndScalarPort) {
  TierGuard guard;
  const bool vector_tier = isa::best_isa() != isa::Isa::kScalar;
  constexpr std::uint64_t kChunk = 1u << 20;
  std::vector<float> in(kChunk), port(kChunk), vec(kChunk);
  std::uint64_t libm_mismatches = 0, vector_mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32); base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    isa::set_active_isa(isa::Isa::kScalar);
    nk::tanh_row(in.data(), port.data(), static_cast<std::int64_t>(kChunk));
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      if (bits_of(port[i]) != bits_of(std::tanh(in[i])) && libm_mismatches++ < 5) {
        ADD_FAILURE() << "port vs libm at x bits " << std::hex << bits_of(in[i]);
      }
    }
    if (!vector_tier) continue;
    isa::set_active_isa(isa::best_isa());
    nk::tanh_row(in.data(), vec.data(), static_cast<std::int64_t>(kChunk));
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      if (bits_of(vec[i]) != bits_of(port[i]) && vector_mismatches++ < 5) {
        ADD_FAILURE() << "vector tier vs port at x bits " << std::hex << bits_of(in[i]);
      }
    }
  }
  EXPECT_EQ(libm_mismatches, 0u);
  EXPECT_EQ(vector_mismatches, 0u);
}

// ---- exp and softmax row kernels ----

namespace {

// glibc 2.36 expf as the host's libm ran it (the FMA build its IFUNC picks
// on an AVX2+FMA x86-64 CPU), read before the in-repo port went in:
// {x, expf(x)} bit pairs. The first two inputs are the only ones where an
// unfused build of the same source returns another float; then +-2 ulps
// around the overflow and underflow thresholds and around |x| = 88, where
// the special path begins; subnormal and tiny results; +-0, ordinary
// values, -Inf, +Inf and NaNs (quiet ones keep their payload and sign, a
// signalling one is quieted).
constexpr std::uint32_t kExpKnownAnswers[][2] = {
    // fused vs unfused
    {0x4202422fu, 0x56fc9f1cu}, {0xc27c65d9u, 0x11fa2993u},
    // overflow threshold 0x1.62e42ep6
    {0x42b17215u, 0x7f7ffe84u}, {0x42b17216u, 0x7f7fff04u}, {0x42b17217u, 0x7f7fff84u},
    {0x42b17218u, 0x7f800000u}, {0x42b17219u, 0x7f800000u},
    // underflow threshold -0x1.9fe368p6
    {0xc2cff1b2u, 0x00000001u}, {0xc2cff1b3u, 0x00000001u}, {0xc2cff1b4u, 0x00000001u},
    {0xc2cff1b5u, 0x00000000u}, {0xc2cff1b6u, 0x00000000u},
    // |x| = 88: abstop 0x42a | 0x42b, both signs
    {0x42affffeu, 0x7ef881beu}, {0x42afffffu, 0x7ef8823bu}, {0x42b00000u, 0x7ef882b7u},
    {0x42b00001u, 0x7ef88333u}, {0x42b00002u, 0x7ef883afu},
    {0xc2affffeu, 0x0041ee06u}, {0xc2afffffu, 0x0041ede5u}, {0xc2b00000u, 0x0041edc4u},
    {0xc2b00001u, 0x0041eda3u}, {0xc2b00002u, 0x0041ed82u},
    // subnormal results
    {0xc2c80000u, 0x0000001bu}, {0xc2cf0000u, 0x00000001u}, {0xc2ce8ecfu, 0x00000001u},
    // tiny arguments, +-0 and ordinary values
    {0x8da24260u, 0x3f800000u}, {0x0da24260u, 0x3f800000u}, {0x00000000u, 0x3f800000u},
    {0x80000000u, 0x3f800000u}, {0x3f000000u, 0x3fd3094cu}, {0xbf000000u, 0x3f1b4598u},
    {0x3f800000u, 0x402df854u}, {0xbf800000u, 0x3ebc5ab2u}, {0x41200000u, 0x46ac14eeu},
    {0xc1200000u, 0x383e6bceu},
    // -Inf -> +0, +Inf, NaNs
    {0xff800000u, 0x00000000u}, {0x7f800000u, 0x7f800000u}, {0x7fc00000u, 0x7fc00000u},
    {0xffc00000u, 0xffc00000u}, {0x7fa00000u, 0x7fe00000u},
};

/// tensor::softmax_row of in[0:n) on `tier`, into a buffer of exactly n.
std::vector<float> softmax_on(isa::Isa tier, const float* in, std::int64_t n) {
  EXPECT_EQ(isa::set_active_isa(tier), tier);
  std::vector<float> out(static_cast<std::size_t>(n));
  nt::softmax_row(in, out.data(), n);
  return out;
}

}  // namespace

TEST(IsaRowKernels, ExpPortReturnsGlibcBitsAtEveryBranchThreshold) {
  TierGuard guard;
  // The table in one row (whole vectors, a tail, special lanes among fast
  // ones), then every value alone (a padded tail of one).
  std::vector<float> in;
  std::vector<std::uint32_t> want;
  for (const auto& kat : kExpKnownAnswers) {
    in.push_back(std::bit_cast<float>(kat[0]));
    want.push_back(kat[1]);
  }
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    std::vector<float> out(in.size());
    nk::exp_row(in.data(), out.data(), static_cast<std::int64_t>(in.size()));
    for (std::size_t i = 0; i < in.size(); ++i) {
      float single = 0.0f;
      nk::exp_row(&in[i], &single, 1);
      EXPECT_EQ(bits_of(out[i]), want[i])
          << isa::isa_name(tier) << " x bits " << std::hex << bits_of(in[i]);
      EXPECT_EQ(bits_of(single), want[i])
          << isa::isa_name(tier) << " alone, x bits " << std::hex << bits_of(in[i]);
    }
    // In place, over a row long enough for several whole vectors.
    std::vector<float> in_place = in;
    nk::exp_row(in_place.data(), in_place.data(), static_cast<std::int64_t>(in.size()));
    EXPECT_TRUE(bitwise_equal(in_place, out)) << isa::isa_name(tier) << " in place";
  }
}

TEST(IsaRowKernels, SoftmaxEveryTierBitwiseEqualsScalarAtEveryLength) {
  TierGuard guard;
  Rng rng(0x5f7);
  // Every tail length, the vector seams and the served row lengths, at
  // unaligned starts, with scores at attention scale and at a scale whose
  // gaps pass 88 (the exps of those lanes take expf's special path).
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (std::int64_t n : {31, 32, 33, 59, 98, 112}) lengths.push_back(n);
  for (auto n : lengths) {
    for (double scale : {1.0, 60.0}) {
      for (std::int64_t offset : {0, 3}) {
        auto buf = random_vec(n + offset, rng);
        for (auto& x : buf) x = static_cast<float>(x * scale);
        const float* in = buf.data() + offset;
        const auto want = softmax_on(isa::Isa::kScalar, in, n);
        for (auto tier : supported_tiers()) {
          const std::string ctx = std::string(isa::isa_name(tier)) + " n=" + std::to_string(n) +
                                  " scale=" + std::to_string(scale) +
                                  " offset=" + std::to_string(offset);
          EXPECT_TRUE(bitwise_equal(softmax_on(tier, in, n), want)) << ctx;
          std::vector<float> in_place(buf.begin() + offset, buf.end());
          nt::softmax_row(in_place.data(), in_place.data(), n);
          EXPECT_TRUE(bitwise_equal(in_place, want)) << "in place " << ctx;
        }
      }
    }
  }
  // Special values at each position of a 19-wide row (two vectors and a
  // tail): non-finite lanes hand the row to the scalar body, and +-0
  // maxima and ties reach the vector max.
  const float specials[] = {kNaN, kInf, -kInf, 0.0f, -0.0f, 1e30f, -1e30f, 3e38f};
  const auto base = random_vec(19, rng);
  for (float sv : specials) {
    for (std::size_t at = 0; at < base.size(); ++at) {
      auto x = base;
      x[at] = sv;
      const auto want = softmax_on(isa::Isa::kScalar, x.data(), 19);
      for (auto tier : supported_tiers()) {
        EXPECT_TRUE(bitwise_equal(softmax_on(tier, x.data(), 19), want))
            << isa::isa_name(tier) << " value " << sv << " at lane " << at;
      }
    }
  }
  std::vector<float> zeros = {0.0f, -0.0f, -0.0f, 0.0f, -1.0f, -0.0f, 0.0f, -2.0f, -0.0f};
  const auto want = softmax_on(isa::Isa::kScalar, zeros.data(), 9);
  for (auto tier : supported_tiers()) {
    EXPECT_TRUE(bitwise_equal(softmax_on(tier, zeros.data(), 9), want)) << "+-0 maxima";
  }
}

// Every float through the exp row kernel: the scalar port against the host
// libm's expf (the FMA build of glibc 2.36 is the transcribed source, so any
// other libm or a CPU without FMA may differ), and the vector tier against
// the port. About a minute on one core; run with
// --gtest_also_run_disabled_tests.
TEST(IsaRowKernels, DISABLED_ExpEveryFloatMatchesHostLibmAndScalarPort) {
  TierGuard guard;
  const bool vector_tier = isa::best_isa() != isa::Isa::kScalar;
  constexpr std::uint64_t kChunk = 1u << 20;
  std::vector<float> in(kChunk), port(kChunk), vec(kChunk);
  std::uint64_t libm_mismatches = 0, vector_mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32); base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    isa::set_active_isa(isa::Isa::kScalar);
    nk::exp_row(in.data(), port.data(), static_cast<std::int64_t>(kChunk));
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      if (bits_of(port[i]) != bits_of(std::exp(in[i])) && libm_mismatches++ < 5) {
        ADD_FAILURE() << "port vs libm at x bits " << std::hex << bits_of(in[i]);
      }
    }
    if (!vector_tier) continue;
    isa::set_active_isa(isa::best_isa());
    nk::exp_row(in.data(), vec.data(), static_cast<std::int64_t>(kChunk));
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      if (bits_of(vec[i]) != bits_of(port[i]) && vector_mismatches++ < 5) {
        ADD_FAILURE() << "vector tier vs port at x bits " << std::hex << bits_of(in[i]);
      }
    }
  }
  std::printf("exp sweep: %llu port-vs-libm and %llu vector-vs-port mismatches\n",
              static_cast<unsigned long long>(libm_mismatches),
              static_cast<unsigned long long>(vector_mismatches));
  EXPECT_EQ(libm_mismatches, 0u);
  EXPECT_EQ(vector_mismatches, 0u);
}

// ---- the fused attention head ----

namespace {

/// The gathered body one head ran before the fused kernel: gather Q_h
/// [rows, d_head], K_h^T [d_head, len] and V_h [len, d_head] from rows of
/// stride ld, scores through matmul_accum, scale, causal softmax rows by
/// absolute position, attn V_h through matmul_accum, copy into ctx.
void gathered_head(const float* q, const float* k, const float* v, float* ctx, std::int64_t ld,
                   std::int64_t dh, std::int64_t rows, std::int64_t len) {
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto past = len - rows;
  std::vector<float> qh(static_cast<std::size_t>(rows * dh));
  std::vector<float> kt(static_cast<std::size_t>(dh * len)), vh(static_cast<std::size_t>(len * dh));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t c = 0; c < dh; ++c) qh[i * dh + c] = q[i * ld + c];
  }
  for (std::int64_t r = 0; r < len; ++r) {
    for (std::int64_t c = 0; c < dh; ++c) {
      kt[c * len + r] = k[r * ld + c];
      vh[r * dh + c] = v[r * ld + c];
    }
  }
  std::vector<float> scores(static_cast<std::size_t>(rows * len), 0.0f);
  nk::matmul_accum(qh.data(), kt.data(), scores.data(), rows, dh, len);
  for (auto& sc : scores) sc = sc * inv_sqrt;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = scores.data() + i * len;
    nt::causal_softmax_row(row, row, len, past + i + 1);
  }
  std::vector<float> oh(static_cast<std::size_t>(rows * dh), 0.0f);
  nk::matmul_accum(scores.data(), vh.data(), oh.data(), rows, len, dh);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t c = 0; c < dh; ++c) ctx[i * ld + c] = oh[i * dh + c];
  }
}

/// Both bodies over every head of one segment: q [rows, d], k and v
/// [len, d]; returns {fused ctx, gathered ctx}.
std::pair<std::vector<float>, std::vector<float>> both_heads(const std::vector<float>& q,
                                                             const std::vector<float>& k,
                                                             const std::vector<float>& v,
                                                             std::int64_t d, std::int64_t dh,
                                                             std::int64_t rows, std::int64_t len) {
  std::vector<float> fused(static_cast<std::size_t>(rows * d), -1.0f);
  std::vector<float> gathered(fused.size(), -2.0f);
  for (std::int64_t col = 0; col < d; col += dh) {
    nk::attend_head(q.data() + col, k.data() + col, v.data() + col, fused.data() + col, d, dh,
                    rows, len);
    gathered_head(q.data() + col, k.data() + col, v.data() + col, gathered.data() + col, d, dh,
                  rows, len);
  }
  return {fused, gathered};
}

}  // namespace

TEST(IsaAttention, FusedHeadBitwiseEqualsGatheredMatmulsOnEveryTier) {
  TierGuard guard;
  Rng rng(0xa77);
  // Head widths with and without a masked last vector, single and multi-row
  // segments across the row grain, over 0 to 30 cached rows.
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (int threads : {1, 3}) {
      nc::set_global_threads(threads);
      for (std::int64_t dh : {8, 12, 16, 40, 64}) {
        const std::int64_t d = 2 * dh;
        for (std::int64_t rows : {1, 2, 5, 59, 98}) {
          for (std::int64_t past : {0, 1, 7, 30}) {
            const std::int64_t len = rows + past;
            const auto q = random_vec(rows * d, rng);
            const auto k = random_vec(len * d, rng);
            const auto v = random_vec(len * d, rng);
            const auto [fused, gathered] = both_heads(q, k, v, d, dh, rows, len);
            EXPECT_TRUE(bitwise_equal(fused, gathered))
                << isa::isa_name(tier) << " threads=" << threads << " d_head=" << dh
                << " rows=" << rows << " past=" << past;
          }
        }
      }
    }
  }
}

TEST(IsaAttention, NanInAMaskedValueRowAndAScoreGapPastExpFastPath) {
  TierGuard guard;
  Rng rng(0xa78);
  const std::int64_t dh = 16, d = 32, rows = 5, len = 5;
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    // The last value row is visible to the last query row only; its NaN
    // still reaches every earlier row through a masked zero weight.
    const auto q = random_vec(rows * d, rng);
    const auto k = random_vec(len * d, rng);
    auto v = random_vec(len * d, rng);
    v[static_cast<std::size_t>((len - 1) * d + 3)] = kNaN;
    const auto [fused, gathered] = both_heads(q, k, v, d, dh, rows, len);
    EXPECT_TRUE(bitwise_equal(fused, gathered)) << isa::isa_name(tier) << " NaN value row";
    for (std::int64_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(std::isnan(fused[static_cast<std::size_t>(i * d + 3)]))
          << isa::isa_name(tier) << " row " << i;
      EXPECT_FALSE(std::isnan(fused[static_cast<std::size_t>(i * d + 4)]))
          << isa::isa_name(tier) << " row " << i;
    }
    // Scores 10*10*16/4 = 400 apart from their row's maximum: those exps
    // take expf's special path, and the weight lands on the first key.
    std::vector<float> qs(static_cast<std::size_t>(rows * d), 10.0f);
    std::vector<float> ks(static_cast<std::size_t>(len * d), -10.0f);
    for (std::int64_t c = 0; c < d; ++c) ks[static_cast<std::size_t>(c)] = 10.0f;
    const auto vs = random_vec(len * d, rng);
    const auto [gap_fused, gap_gathered] = both_heads(qs, ks, vs, d, dh, rows, len);
    EXPECT_TRUE(bitwise_equal(gap_fused, gap_gathered)) << isa::isa_name(tier) << " score gap";
    for (std::int64_t c = 0; c < d; ++c) {
      EXPECT_EQ(gap_fused[static_cast<std::size_t>((rows - 1) * d + c)],
                vs[static_cast<std::size_t>(c)])
          << isa::isa_name(tier) << " column " << c;
    }
  }
}

TEST(IsaAttention, StackedSegmentsBitwiseEqualGatheredBodyWithAndWithoutCache) {
  TierGuard guard;
  const std::int64_t d = 32;
  for (std::int64_t heads : {2, 4}) {
    Rng rng(0xa79 + static_cast<std::uint64_t>(heads));
    nn::MultiHeadAttention attn(d, heads, /*causal=*/true, rng);
    const auto linears = attn.projection_linears();  // wq, wk, wv, wo
    const std::int64_t dh = d / heads;
    // Two segments over cached rows (7 and 30 of them) around one without
    // a cache, stacked into one pass of m rows.
    nn::KvCache warm_a, warm_c;
    const auto pre_a = random_vec(7 * d, rng), pre_c = random_vec(30 * d, rng);
    std::vector<float> sink(30 * d);
    attn.forward_rows(pre_a, 7, &warm_a, std::span<float>(sink).first(7 * d));
    attn.forward_rows(pre_c, 30, &warm_c, sink);
    const std::int64_t m = 3 + 4 + 1;
    const auto x = random_vec(m * d, rng);
    for (auto tier : supported_tiers()) {
      ASSERT_EQ(isa::set_active_isa(tier), tier);
      for (int threads : {1, 3}) {
        nc::set_global_threads(threads);
        auto cache_a = warm_a, cache_c = warm_c;
        const nn::KvSegment segs[] = {{3, &cache_a}, {4, nullptr}, {1, &cache_c}};
        std::vector<float> y(static_cast<std::size_t>(m * d));
        attn.forward_rows(x, segs, y);

        // The gathered restatement: projections, appends, heads, out.
        auto ref_a = warm_a, ref_c = warm_c;
        std::vector<float> q(m * d, 0.0f), k(m * d, 0.0f), v(m * d, 0.0f), ctx(m * d, 0.0f);
        linears[0]->forward_rows(x, m, q);
        linears[1]->forward_rows(x, m, k);
        linears[2]->forward_rows(x, m, v);
        std::int64_t row0 = 0;
        for (auto [rows, cache] : {std::pair<std::int64_t, nn::KvCache*>{3, &ref_a},
                                   {4, nullptr}, {1, &ref_c}}) {
          const float* kc = k.data() + row0 * d;
          const float* vc = v.data() + row0 * d;
          std::int64_t len = rows;
          if (cache) {
            for (std::int64_t i = row0; i < row0 + rows; ++i) {
              cache->append(std::span<const float>(k).subspan(i * d, d),
                            std::span<const float>(v).subspan(i * d, d));
            }
            kc = cache->k().data();
            vc = cache->v().data();
            len = cache->len;
          }
          for (std::int64_t col = 0; col < d; col += dh) {
            gathered_head(q.data() + row0 * d + col, kc + col, vc + col,
                          ctx.data() + row0 * d + col, d, dh, rows, len);
          }
          row0 += rows;
        }
        std::vector<float> want(static_cast<std::size_t>(m * d), 0.0f);
        linears[3]->forward_rows(ctx, m, want);
        const std::string tag = std::string(isa::isa_name(tier)) + " heads=" +
                                std::to_string(heads) + " threads=" + std::to_string(threads);
        EXPECT_TRUE(bitwise_equal(y, want)) << tag;
        EXPECT_TRUE(bitwise_equal(cache_a.k(), ref_a.k()) && bitwise_equal(cache_a.v(), ref_a.v()))
            << tag;
        EXPECT_TRUE(bitwise_equal(cache_c.k(), ref_c.k()) && bitwise_equal(cache_c.v(), ref_c.v()))
            << tag;
      }
    }
  }
}

TEST(IsaAttention, ForwardRowsBumpsMatmulCountersAsTheTwoProducts) {
  namespace metrics = netllm::core::metrics;
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const char* names[] = {"kernels.matmul.calls", "kernels.matmul.flops", "kernels.matmul.bytes"};
  const auto snapshot = [&] {
    std::vector<std::int64_t> c;
    for (const char* n : names) c.push_back(metrics::counter(n).value());
    return c;
  };
  // {calls, flops, bytes} of one fp32 matmul_accum of [m, k] x [k, n].
  const auto product = [](std::int64_t m, std::int64_t k, std::int64_t n) {
    return std::vector<std::int64_t>{1, 2 * m * k * n,
                                     static_cast<std::int64_t>(sizeof(float)) *
                                         (m * k + k * n + 2 * m * n)};
  };
  Rng rng(0xa7a);
  const std::int64_t d = 32, heads = 4, dh = 8;
  nn::MultiHeadAttention attn(d, heads, /*causal=*/true, rng);
  nn::KvCache cache;
  std::vector<float> pre = random_vec(6 * d, rng), sink(6 * d);
  attn.forward_rows(pre, 6, &cache, sink);
  // One pass: 3 rows after the 6 cached ones, then 2 rows without a cache.
  const std::int64_t m = 5;
  const auto x = random_vec(m * d, rng);
  std::vector<float> y(static_cast<std::size_t>(m * d));
  const nn::KvSegment segs[] = {{3, &cache}, {2, nullptr}};
  const auto before = snapshot();
  attn.forward_rows(x, segs, y);
  const auto after = snapshot();
  std::vector<std::int64_t> want(3, 0);
  const auto add = [&](const std::vector<std::int64_t>& c, std::int64_t times) {
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += c[i] * times;
  };
  add(product(m, d, d), 4);  // wq, wk, wv, wo
  for (auto [rows, len] : {std::pair<std::int64_t, std::int64_t>{3, 9}, {2, 2}}) {
    add(product(rows, dh, len), heads);  // Q_h K_h^T
    add(product(rows, len, dh), heads);  // attn V_h
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], want[i]) << names[i];
  }
  metrics::set_enabled(was_enabled);
}

// ---- the scalar tier's exp: portable body and FMA clone ----

TEST(IsaRowKernels, ScalarExpPortableAndFmaCloneReturnTheSameBits) {
  // The scalar tier picks the target("fma") clones once, when the CPU has
  // FMA; both builds must return the known answers and each other's bits.
  bool has_fma = false;
#if defined(__x86_64__)
  has_fma = __builtin_cpu_supports("fma");
#endif
  std::vector<kd::ScalarExpBodies> bodies = {kd::scalar_exp_bodies(false)};
  if (has_fma) bodies.push_back(kd::scalar_exp_bodies(true));
  const std::int64_t n = static_cast<std::int64_t>(std::size(kExpKnownAnswers));
  for (std::size_t which = 0; which < bodies.size(); ++which) {
    const char* name = which == 0 ? "portable" : "fma clone";
    std::vector<float> in, out(static_cast<std::size_t>(n));
    for (const auto& kat : kExpKnownAnswers) in.push_back(std::bit_cast<float>(kat[0]));
    bodies[which].exp_row(in.data(), out.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits_of(out[static_cast<std::size_t>(i)]), kExpKnownAnswers[i][1])
          << name << " x bits " << std::hex << kExpKnownAnswers[i][0];
    }
  }
  if (!has_fma) GTEST_SKIP() << "no FMA clone on this host (known answers checked)";
  // A sampled sweep over every 2^12-th bit pattern (all signs, exponents
  // and NaN payloads), exp and softmax rows alike.
  std::vector<float> in;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093) {
    in.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  const auto count = static_cast<std::int64_t>(in.size());
  std::vector<float> plain(in.size()), fused(in.size());
  bodies[0].exp_row(in.data(), plain.data(), count);
  bodies[1].exp_row(in.data(), fused.data(), count);
  EXPECT_TRUE(bitwise_equal(plain, fused)) << "exp_row";
  // Softmax rows of 98 finite scores at attention scale and past 88 apart.
  Rng rng(0xf3a);
  for (double scale : {1.0, 60.0}) {
    auto row = random_vec(98, rng);
    for (auto& x : row) x = static_cast<float>(x * scale);
    std::vector<float> p(row.size()), f(row.size());
    bodies[0].softmax_row(row.data(), p.data(), 98);
    bodies[1].softmax_row(row.data(), f.data(), 98);
    EXPECT_TRUE(bitwise_equal(p, f)) << "softmax_row scale " << scale;
  }
}

// ---- AVX-512 == AVX2, bitwise ----

namespace {

/// True when both tiers run here; the AVX-512 tests compare the two.
bool avx512_and_avx2() {
  return isa::isa_supported(isa::Isa::kAvx512) && isa::isa_supported(isa::Isa::kAvx2);
}

/// Row-kernel inputs: GELU's mix of small, unit and saturating values, with
/// every fifth value stretched to |x| up to a few hundred, so exps take
/// expf's special path and softmax rows have gaps past 88.
std::vector<float> row_inputs(std::int64_t n, Rng& rng) {
  auto v = gelu_inputs(n, rng);
  for (std::size_t i = 0; i < v.size(); i += 5) v[i] *= 30.0f;
  return v;
}

/// One row kernel of the active tier on in[0:n): tanh, GELU, exp, softmax,
/// or the Q8_0 quantizer (scales then code bytes, as float bit patterns).
enum class RowKernel { kTanh, kGelu, kExp, kSoftmax, kQuantQ8 };

std::vector<float> row_kernel_on(isa::Isa tier, RowKernel kernel, const float* in,
                                 std::int64_t n, bool in_place) {
  EXPECT_EQ(isa::set_active_isa(tier), tier);
  std::vector<float> out(in, in + n);
  const float* src = in_place ? out.data() : in;
  switch (kernel) {
    case RowKernel::kTanh: nk::tanh_row(src, out.data(), n); break;
    case RowKernel::kGelu: nt::gelu_row(src, out.data(), n); break;
    case RowKernel::kExp: nk::exp_row(src, out.data(), n); break;
    case RowKernel::kSoftmax: nt::softmax_row(src, out.data(), n); break;
    case RowKernel::kQuantQ8: {
      const auto kb = nq::blocks_per_row(n);
      std::vector<float> scales(static_cast<std::size_t>(kb));
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(kb * nq::kBlock));
      nq::quantize_row(nq::Dtype::kQ8_0, in, n, scales.data(), codes.data());
      out = scales;
      for (auto c : codes) out.push_back(static_cast<float>(c));
      break;
    }
  }
  return out;
}

}  // namespace

TEST(IsaAvx512, F32SeamSweepBitwiseEqualsAvx2) {
  TierGuard guard;
  if (!avx512_and_avx2()) GTEST_SKIP() << "no AVX-512 tier on this host";
  // m crosses every row tile (8 and 6 rows, then 4, 2 and 1) and, past the
  // 8-row grain, puts chunk starts mid-tile; n walks the 8-lane ymm tiles,
  // every tail of the 16-lane zmm vectors and the 64- and 128-column tiles;
  // k covers the short and the served inner widths.
  std::vector<std::int64_t> ns;
  for (std::int64_t n = 1; n <= 70; ++n) ns.push_back(n);
  for (std::int64_t n : {96, 127, 128, 129, 160, 200}) ns.push_back(n);
  Rng rng(0xa512);
  for (std::int64_t k : {1, 4, 16, 64, 97, 160}) {
    for (std::int64_t m = 1; m <= 13; ++m) {
      for (auto n : ns) {
        const auto a = random_vec(m * k, rng);
        const auto b = random_vec(k * n, rng);
        const auto c0 = random_vec(m * n, rng);
        ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx2), isa::Isa::kAvx2);
        const auto want = f32_product(a, b, c0, m, k, n, 0);
        ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx512), isa::Isa::kAvx512);
        const std::string ctx =
            "m=" + std::to_string(m) + " k=" + std::to_string(k) + " n=" + std::to_string(n);
        EXPECT_TRUE(bitwise_equal(f32_product(a, b, c0, m, k, n, 0), want)) << "serial " << ctx;
        EXPECT_TRUE(bitwise_equal(f32_product(a, b, c0, m, k, n, 3), want)) << "threads=3 " << ctx;
      }
    }
  }
}

TEST(IsaAvx512, AttendHeadAtRowStridesBitwiseEqualsAvx2) {
  TierGuard guard;
  if (!avx512_and_avx2()) GTEST_SKIP() << "no AVX-512 tier on this host";
  // The fp32 body at row strides: the score product reads Q rows at stride
  // ld, the attn·V product V rows at ld and writes ctx at ld. Head widths
  // cover every output tail (ymm up to 8 columns, zmm above), row counts
  // every score tile, and an odd ld with the head at column 3 keeps every
  // row unaligned.
  std::vector<std::int64_t> widths;
  for (std::int64_t dh = 1; dh <= 33; ++dh) widths.push_back(dh);
  for (std::int64_t dh : {40, 48, 64}) widths.push_back(dh);
  Rng rng(0xa513);
  for (auto dh : widths) {
    const std::int64_t ld = 2 * dh + 5;
    for (std::int64_t rows : {1, 2, 3, 5, 6, 7, 12, 13}) {
      for (std::int64_t past : {0, 3, 17}) {
        const std::int64_t len = rows + past;
        const auto q = random_vec(rows * ld, rng);
        const auto k = random_vec(len * ld, rng);
        const auto v = random_vec(len * ld, rng);
        const auto run = [&](isa::Isa tier, int threads) {
          EXPECT_EQ(isa::set_active_isa(tier), tier);
          nc::set_global_threads(threads);
          std::vector<float> ctx(static_cast<std::size_t>(rows * ld), -1.0f);
          nk::attend_head(q.data() + 3, k.data() + 3, v.data() + 3, ctx.data() + 3, ld, dh, rows,
                          len);
          return ctx;
        };
        const auto want = run(isa::Isa::kAvx2, 1);
        for (int threads : {1, 3}) {
          EXPECT_TRUE(bitwise_equal(run(isa::Isa::kAvx512, threads), want))
              << "d_head=" << dh << " rows=" << rows << " past=" << past
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(IsaAvx512, RowKernelsBitwiseEqualAvx2AtEveryLengthWithNonFiniteLanes) {
  TierGuard guard;
  if (!avx512_and_avx2()) GTEST_SKIP() << "no AVX-512 tier on this host";
  Rng rng(0xa514);
  const std::pair<RowKernel, const char*> kernels[] = {
      {RowKernel::kTanh, "tanh"},       {RowKernel::kGelu, "gelu"},
      {RowKernel::kExp, "exp"},         {RowKernel::kSoftmax, "softmax"},
      {RowKernel::kQuantQ8, "quant q8"}};
  // Every length 0-100 (softmax from 1: its row max needs a value), at an
  // unaligned start, plain and with a NaN, +Inf or -Inf in the middle lane
  // and in the last one (a whole vector's and a masked tail's hand-off to
  // the scalar body).
  for (std::int64_t n = 0; n <= 100; ++n) {
    for (float special : {0.0f, kNaN, kInf, -kInf}) {
      const bool plain = special == 0.0f;
      if (!plain && n == 0) continue;
      auto buf = row_inputs(n + 3, rng);
      float* in = buf.data() + 3;
      if (!plain) {
        in[n / 2] = special;
        in[n - 1] = special;
      }
      for (const auto& [kernel, name] : kernels) {
        if (kernel == RowKernel::kSoftmax && n == 0) continue;
        const std::string ctx = std::string(name) + " n=" + std::to_string(n) +
                                (plain ? "" : " special=" + std::to_string(special));
        const auto want = row_kernel_on(isa::Isa::kAvx2, kernel, in, n, false);
        EXPECT_TRUE(bitwise_equal(row_kernel_on(isa::Isa::kAvx512, kernel, in, n, false), want))
            << ctx;
        if (kernel != RowKernel::kQuantQ8) {
          EXPECT_TRUE(bitwise_equal(row_kernel_on(isa::Isa::kAvx512, kernel, in, n, true), want))
              << "in place " << ctx;
        }
      }
    }
  }
}

TEST(IsaAvx512, Q8ExtremeCodesAndTilingSeamsBitwiseEqualAvx2) {
  TierGuard guard;
  if (!avx512_and_avx2()) GTEST_SKIP() << "no AVX-512 tier on this host";
  const auto product = [](isa::Isa tier, const std::vector<std::int8_t>& aq,
                          const std::vector<float>& as, const std::vector<std::int8_t>& bq,
                          const std::vector<float>& bs, std::int64_t m, std::int64_t kb,
                          std::int64_t n, int threads) {
    EXPECT_EQ(isa::set_active_isa(tier), tier);
    nc::set_global_threads(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.5f);
    nk::matmul_q8_accum(aq.data(), as.data(), bq.data(), bs.data(), c.data(), m, kb, n);
    return c;
  };
  // Extreme codes: -128 against -128 (the largest block dot, 2^19), +127
  // against -128, and alternating signs; an odd block count leaves a lone
  // last block after the block pairs.
  for (std::int64_t kb : {1, 2, 3, 4, 5}) {
    for (std::int64_t m : {1, 2, 4, 5}) {
      for (std::int64_t n : {1, 15, 16, 17, 33}) {
        for (int pattern = 0; pattern < 3; ++pattern) {
          std::vector<std::int8_t> aq(static_cast<std::size_t>(m * kb * nq::kBlock));
          std::vector<std::int8_t> bq(static_cast<std::size_t>(n * kb * nq::kBlock), -128);
          for (std::size_t t = 0; t < aq.size(); ++t) {
            aq[t] = pattern == 0 ? -128 : pattern == 1 ? 127 : (t % 2 == 0 ? 127 : -128);
          }
          std::vector<float> as(static_cast<std::size_t>(m * kb)), bs(static_cast<std::size_t>(n * kb));
          for (std::size_t t = 0; t < as.size(); ++t) as[t] = 0.001f * static_cast<float>(t + 1);
          for (std::size_t t = 0; t < bs.size(); ++t) bs[t] = -0.003f * static_cast<float>(t + 2);
          const auto want = product(isa::Isa::kAvx2, aq, as, bq, bs, m, kb, n, 1);
          const std::string ctx = "pattern " + std::to_string(pattern) + " m=" +
                                  std::to_string(m) + " kb=" + std::to_string(kb) +
                                  " n=" + std::to_string(n);
          EXPECT_TRUE(bitwise_equal(product(isa::Isa::kAvx512, aq, as, bq, bs, m, kb, n, 1), want))
              << ctx;
          if (pattern == 0) {  // the scalar expression with the exact dot 2^19
            for (std::int64_t i = 0; i < m; ++i) {
              for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t b = 0; b < kb; ++b) {
                  acc += as[static_cast<std::size_t>(i * kb + b)] *
                         bs[static_cast<std::size_t>(j * kb + b)] * 524288.0f;
                }
                EXPECT_EQ(want[static_cast<std::size_t>(i * n + j)], 0.5f + acc) << ctx;
              }
            }
          }
        }
      }
    }
  }
  // Random codes (including -128) across the 4-row and 1-row tiles, the
  // 16-column lane groups and their tails, odd and even block counts,
  // serial and split across threads.
  Rng rng(0xa515);
  for (std::int64_t kb : {1, 2, 3, 16}) {
    for (std::int64_t m : {1, 3, 4, 5, 8, 9, 13}) {
      for (std::int64_t n : {1, 7, 8, 15, 16, 17, 31, 33, 67}) {
        std::vector<std::int8_t> aq(static_cast<std::size_t>(m * kb * nq::kBlock));
        std::vector<std::int8_t> bq(static_cast<std::size_t>(n * kb * nq::kBlock));
        for (auto& x : aq) x = static_cast<std::int8_t>(rng.randint(-128, 127));
        for (auto& x : bq) x = static_cast<std::int8_t>(rng.randint(-128, 127));
        const auto as = random_vec(m * kb, rng), bs = random_vec(n * kb, rng);
        const auto want = product(isa::Isa::kAvx2, aq, as, bq, bs, m, kb, n, 1);
        for (int threads : {1, 3}) {
          EXPECT_TRUE(
              bitwise_equal(product(isa::Isa::kAvx512, aq, as, bq, bs, m, kb, n, threads), want))
              << "m=" << m << " kb=" << kb << " n=" << n << " threads=" << threads;
        }
      }
    }
  }
}

// ---- fused LoRA projections ----
namespace {

/// Operands of one lora_projections call: x [m, k] and `count` projections,
/// each W [k, n], bias [n], A [k, r], B [r, n] and a scale.
struct LoraOperands {
  std::int64_t m = 0, k = 0, n = 0, r = 0;
  std::vector<float> x;
  std::vector<std::vector<float>> w, bias, a, b;
  std::vector<float> scale;
};

/// n uniform values in [-1, 1) (cheaper to draw than random_vec's Gaussians
/// at the 512-wide shapes).
std::vector<float> uniform_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

LoraOperands lora_operands(int count, std::int64_t m, std::int64_t k, std::int64_t n,
                           std::int64_t r, Rng& rng) {
  LoraOperands o{m, k, n, r, uniform_vec(m * k, rng), {}, {}, {}, {}, {}};
  for (int q = 0; q < count; ++q) {
    o.w.push_back(uniform_vec(k * n, rng));
    o.bias.push_back(uniform_vec(n, rng));
    o.a.push_back(uniform_vec(k * r, rng));
    o.b.push_back(uniform_vec(r * n, rng));
    o.scale.push_back(static_cast<float>(rng.uniform(0.25, 4.0)));
  }
  return o;
}

/// What LoRALinear::forward_rows computed before the slot, per projection:
/// the base Linear's rows (zero-fill, x W through matmul_accum, the bias),
/// then x A and (x A) B through matmul_accum into zeroed rows, the scale,
/// the add. With `base` false the rows start from `start` (a quantized
/// base's output) and only the delta is added.
std::vector<std::vector<float>> lora_separate(const LoraOperands& o, bool base, bool bias,
                                              const std::vector<std::vector<float>>& start) {
  std::vector<std::vector<float>> ys;
  for (std::size_t q = 0; q < o.w.size(); ++q) {
    std::vector<float> y(static_cast<std::size_t>(o.m * o.n), 0.0f);
    if (base) {
      nk::matmul_accum(o.x.data(), o.w[q].data(), y.data(), o.m, o.k, o.n);
      if (bias) {
        for (std::int64_t i = 0; i < o.m; ++i) {
          for (std::int64_t j = 0; j < o.n; ++j) y[i * o.n + j] = y[i * o.n + j] + o.bias[q][j];
        }
      }
    } else {
      y = start[q];
    }
    std::vector<float> xa(static_cast<std::size_t>(o.m * o.r), 0.0f);
    std::vector<float> delta(y.size(), 0.0f);
    nk::matmul_accum(o.x.data(), o.a[q].data(), xa.data(), o.m, o.k, o.r);
    nk::matmul_accum(xa.data(), o.b[q].data(), delta.data(), o.m, o.r, o.n);
    for (auto& v : delta) v = v * o.scale[q];
    for (std::size_t j = 0; j < y.size(); ++j) y[j] = y[j] + delta[j];
    ys.push_back(std::move(y));
  }
  return ys;
}

/// The slot over the same operands, one call for every projection.
std::vector<std::vector<float>> lora_fused(const LoraOperands& o, bool base, bool bias,
                                           const std::vector<std::vector<float>>& start) {
  std::vector<std::vector<float>> ys;
  nk::LoraProjection projs[3];
  for (std::size_t q = 0; q < o.w.size(); ++q) {
    ys.push_back(base ? std::vector<float>(static_cast<std::size_t>(o.m * o.n), -7.0f)
                      : start[q]);
  }
  for (std::size_t q = 0; q < o.w.size(); ++q) {
    projs[q] = {base ? o.w[q].data() : nullptr, base && bias ? o.bias[q].data() : nullptr,
                o.a[q].data(), o.b[q].data(), o.scale[q], ys[q].data()};
  }
  nk::lora_projections(o.x.data(), o.m, o.k, o.n, o.r, projs, static_cast<int>(o.w.size()));
  return ys;
}

/// Bitwise equal, except that any NaN equals any NaN: which operand's NaN
/// an instruction forwards (and so its sign and payload) is not part of
/// the contract, only that it stays NaN.
bool same_bits_or_both_nan(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) return false;
  }
  return true;
}

/// The widths the slot's tiles meet: every vector tail up to 33, the 64-wide
/// backbone, the 160-wide MLP and the 512-wide VP model.
std::vector<std::int64_t> lora_widths() {
  std::vector<std::int64_t> w;
  for (std::int64_t i = 1; i <= 33; ++i) w.push_back(i);
  for (std::int64_t i : {64, 160, 512}) w.push_back(i);
  return w;
}

}  // namespace

TEST(IsaLora, FusedSlotBitwiseEqualsSeparatePassesOnEveryTier) {
  TierGuard guard;
  Rng rng(0x10a);
  const auto widths = lora_widths();
  const auto nw = widths.size();
  // Every width once as k and once as n, each against a width cycling
  // through the list; ranks through the fused path's bound (16) and one
  // past it; rows below, at and past the fused path's 4 and the row grain.
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
  for (std::size_t i = 0; i < nw; ++i) {
    shapes.emplace_back(widths[i], widths[(i * 7 + 3) % nw]);
    shapes.emplace_back(widths[(i * 5 + 11) % nw], widths[i]);
  }
  const std::int64_t ranks[] = {1, 2, 4, 8, 16, 17};
  const std::int64_t ms[] = {1, 2, 3, 4, 7, 59, 98};
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    int combo = 0;
    for (int count = 1; count <= 3; ++count) {
      for (const auto& [k, n] : shapes) {
        const bool wide = k * n > 64 * 64;
        for (const auto r : ranks) {
          if (wide && r != 4 && r != 17) continue;
          for (const auto m : ms) {
            if (wide && m != 1 && m != 4 && m != 59) continue;
            if (wide && m == 59 && (count != 1 || r != 4)) continue;
            ++combo;
            const bool base = combo % 4 != 0;  // every fourth call the delta-only form
            const bool bias = combo % 2 == 0;
            const int threads = m >= 59 && combo % 3 == 0 ? 3 : 1;
            nc::set_global_threads(threads);
            const auto o = lora_operands(count, m, k, n, r, rng);
            std::vector<std::vector<float>> start;
            for (int q = 0; q < count; ++q) start.push_back(uniform_vec(m * n, rng));
            const auto want = lora_separate(o, base, bias, start);
            const auto got = lora_fused(o, base, bias, start);
            for (int q = 0; q < count; ++q) {
              ASSERT_TRUE(bitwise_equal(got[q], want[q]))
                  << isa::isa_name(tier) << " count=" << count << " projection " << q
                  << " m=" << m << " k=" << k << " n=" << n << " r=" << r
                  << (base ? "" : " delta-only") << (bias ? " bias" : "")
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(IsaLora, NonFiniteAndSignedZeroOperandsMatchSeparatePasses) {
  TierGuard guard;
  Rng rng(0x10b);
  const float specials[] = {kNaN, kInf, -kInf, -0.0f};
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (const std::int64_t m : {1, 3, 4, 7}) {
      for (const std::int64_t n : {5, 16, 37, 64}) {
        for (const std::int64_t r : {2, 16, 17}) {
          for (int count = 1; count <= 3; ++count) {
            for (int trial = 0; trial < 5; ++trial) {
              const std::int64_t k = 24;
              auto o = lora_operands(count, m, k, n, r, rng);
              std::vector<std::vector<float>> start;
              for (int q = 0; q < count; ++q) start.push_back(uniform_vec(m * n, rng));
              // Trials 0-3: a handful of specials in each of x, W, A and B,
              // and a whole -0 row of x, so -0 and 0 * Inf meet every stage.
              // Trial 4: every product underflows to -0 (tiny positive x and
              // A, tiny negative W and B) onto -0 start rows, so only the
              // 0 + acc that matmul_accum's zeroed rows give turns each
              // chain's -0 into the separate passes' +0.
              const auto plant = [&](std::vector<float>& v) {
                for (int s = 0; s < 3; ++s) {
                  v[static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(v.size()) - 1))] =
                      specials[rng.randint(0, 3)];
                }
              };
              const auto tiny = [](std::vector<float>& v, float scale) {
                for (auto& e : v) e = std::fabs(e) * scale;
              };
              if (trial == 4) {
                tiny(o.x, 1e-25f);
                for (int q = 0; q < count; ++q) {
                  tiny(o.w[q], -1e-25f);
                  tiny(o.a[q], 1.0f);
                  tiny(o.b[q], -1e-25f);
                  std::fill(start[q].begin(), start[q].end(), -0.0f);
                }
              } else {
                if (trial % 2 == 0) plant(o.x);
                if (trial == 1) std::fill(o.x.begin(), o.x.begin() + k, -0.0f);
                for (int q = 0; q < count; ++q) {
                  if (trial != 0) plant(o.w[q]);
                  plant(o.a[q]);
                  plant(o.b[q]);
                }
              }
              for (const bool base : {true, false}) {
                const bool bias = trial % 2 == 1;
                const auto want = lora_separate(o, base, bias, start);
                const auto got = lora_fused(o, base, bias, start);
                for (int q = 0; q < count; ++q) {
                  ASSERT_TRUE(same_bits_or_both_nan(got[q], want[q]))
                      << isa::isa_name(tier) << " m=" << m << " n=" << n << " r=" << r
                      << " count=" << count << " trial=" << trial
                      << (base ? "" : " delta-only");
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(IsaLora, NanInLoraBReachesEveryRowOfItsColumn) {
  TierGuard guard;
  Rng rng(0x10c);
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (const std::int64_t m : {1, 2, 5}) {
      for (const std::int64_t r : {4, 17}) {
        const std::int64_t k = 20, n = 40;
        auto o = lora_operands(3, m, k, n, r, rng);
        std::fill(o.x.begin(), o.x.end(), 0.0f);  // x A = 0: only 0 * NaN carries it
        const std::int64_t t = r - 1, col = 33;  // the last rank row, a tail-vector column
        o.b[1][static_cast<std::size_t>(t * n + col)] = kNaN;
        for (const bool base : {true, false}) {
          std::vector<std::vector<float>> start(3, std::vector<float>(m * n, 1.0f));
          const auto got = lora_fused(o, base, /*bias=*/true, start);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              const bool poisoned = j == col;
              EXPECT_EQ(std::isnan(got[1][static_cast<std::size_t>(i * n + j)]), poisoned)
                  << isa::isa_name(tier) << " m=" << m << " r=" << r << " row " << i << " col "
                  << j << (base ? "" : " delta-only");
              EXPECT_FALSE(std::isnan(got[0][static_cast<std::size_t>(i * n + j)]));
              EXPECT_FALSE(std::isnan(got[2][static_cast<std::size_t>(i * n + j)]));
            }
          }
        }
      }
    }
  }
}

TEST(IsaLora, CountersMoveOnceByTheSeparatePassesTotals) {
  namespace metrics = netllm::core::metrics;
  TierGuard guard;
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const char* names[] = {"kernels.matmul.calls", "kernels.matmul.flops", "kernels.matmul.bytes"};
  const auto snapshot = [&] {
    std::vector<std::int64_t> c;
    for (const char* n : names) c.push_back(metrics::counter(n).value());
    return c;
  };
  const auto delta = [&](auto&& pass) {
    const auto before = snapshot();
    pass();
    auto after = snapshot();
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };
  Rng rng(0x10d);
  for (auto tier : supported_tiers()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    for (const auto& [m, k, n, r] : {std::tuple<std::int64_t, std::int64_t, std::int64_t,
                                               std::int64_t>{1, 64, 64, 4},
                                    {59, 64, 160, 2},
                                    {3, 160, 64, 17}}) {
      for (int count = 1; count <= 3; ++count) {
        const auto o = lora_operands(count, m, k, n, r, rng);
        std::vector<std::vector<float>> start(static_cast<std::size_t>(count),
                                              std::vector<float>(m * n, 0.0f));
        for (const bool base : {true, false}) {
          const auto separate = delta([&] { (void)lora_separate(o, base, true, start); });
          const auto fused = delta([&] { (void)lora_fused(o, base, true, start); });
          EXPECT_EQ(fused, separate) << isa::isa_name(tier) << " m=" << m << " count=" << count
                                     << (base ? "" : " delta-only");
          EXPECT_EQ(fused[0], count * (base ? 3 : 2));
        }
      }
    }
  }
  metrics::set_enabled(was_enabled);
}

TEST(IsaLora, MixedBaseAndCountOutOfRangeThrow) {
  Rng rng(0x10e);
  const auto o = lora_operands(2, 1, 8, 8, 2, rng);
  std::vector<float> y0(8), y1(8);
  nk::LoraProjection projs[4] = {
      {o.w[0].data(), nullptr, o.a[0].data(), o.b[0].data(), 1.0f, y0.data()},
      {nullptr, nullptr, o.a[1].data(), o.b[1].data(), 1.0f, y1.data()}};
  EXPECT_THROW(nk::lora_projections(o.x.data(), 1, 8, 8, 2, projs, 2), std::invalid_argument);
  EXPECT_THROW(nk::lora_projections(o.x.data(), 1, 8, 8, 2, projs, 0), std::invalid_argument);
  EXPECT_THROW(nk::lora_projections(o.x.data(), 1, 8, 8, 2, projs, 4), std::invalid_argument);
}

TEST(IsaAvx512, LoraSlotBitwiseEqualsAvx2) {
  TierGuard guard;
  if (!avx512_and_avx2()) GTEST_SKIP() << "needs the AVX-512 and AVX2 tiers";
  Rng rng(0x10f);
  for (int count = 1; count <= 3; ++count) {
    for (const std::int64_t m : {1, 2, 3, 4, 9}) {
      for (const std::int64_t n : {3, 16, 33, 64, 100, 160}) {
        for (const std::int64_t r : {1, 4, 16, 17}) {
          const auto o = lora_operands(count, m, 48, n, r, rng);
          std::vector<std::vector<float>> start;
          for (int q = 0; q < count; ++q) start.push_back(uniform_vec(m * n, rng));
          for (const bool base : {true, false}) {
            ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx2), isa::Isa::kAvx2);
            const auto want = lora_fused(o, base, true, start);
            ASSERT_EQ(isa::set_active_isa(isa::Isa::kAvx512), isa::Isa::kAvx512);
            const auto got = lora_fused(o, base, true, start);
            for (int q = 0; q < count; ++q) {
              ASSERT_TRUE(bitwise_equal(got[q], want[q]))
                  << "count=" << count << " m=" << m << " n=" << n << " r=" << r
                  << (base ? "" : " delta-only");
            }
          }
        }
      }
    }
  }
}
