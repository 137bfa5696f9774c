#include "tensor/kernels.hpp"

#include <cmath>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "tensor/kernels_dispatch.hpp"

namespace netllm::tensor::kernels {

namespace {

/// Pre-registered handles for the public (threaded) matmul entry points:
/// call count, multiply-add FLOPs and bytes touched. The bump is lock-free
/// and the serial `_serial` references stay uncounted, so tests comparing
/// serial vs threaded numerics do not double-count.
struct MatmulMetrics {
  core::metrics::Counter& calls = core::metrics::counter("kernels.matmul.calls");
  core::metrics::Counter& flops = core::metrics::counter("kernels.matmul.flops");
  core::metrics::Counter& bytes = core::metrics::counter("kernels.matmul.bytes");

  void account(std::int64_t m, std::int64_t k, std::int64_t n) {
    calls.add();
    flops.add(flops_of(m, k, n));
    bytes.add(bytes_of(m, k, n));
  }
  static std::int64_t flops_of(std::int64_t m, std::int64_t k, std::int64_t n) {
    return 2 * m * k * n;  // one multiply + one add per (i, p, j) triple
  }
  static std::int64_t bytes_of(std::int64_t m, std::int64_t k, std::int64_t n) {
    return static_cast<std::int64_t>(sizeof(float)) * (m * k + k * n + 2 * m * n);
  }
};

MatmulMetrics& matmul_metrics() {
  static MatmulMetrics mm;
  return mm;
}

/// Same accounting for the quantized entry points. Bytes count the data a
/// quantized pass actually touches (int codes + block scales), which is
/// where the ~4x traffic cut over fp32 shows up in metrics.json.
struct QmatmulMetrics {
  core::metrics::Counter& calls = core::metrics::counter("kernels.qmatmul.calls");
  core::metrics::Counter& flops = core::metrics::counter("kernels.qmatmul.flops");
  core::metrics::Counter& bytes = core::metrics::counter("kernels.qmatmul.bytes");

  void account(std::int64_t m, std::int64_t kb, std::int64_t n, std::int64_t code_bytes) {
    calls.add();
    flops.add(2 * m * kb * 32 * n);
    const auto block_bytes = code_bytes + static_cast<std::int64_t>(sizeof(float));
    bytes.add(m * kb * (32 + static_cast<std::int64_t>(sizeof(float))) +
              n * kb * block_bytes + 2 * m * n * static_cast<std::int64_t>(sizeof(float)));
  }
};

QmatmulMetrics& qmatmul_metrics() {
  static QmatmulMetrics qm;
  return qm;
}

// Minimum output rows per parallel chunk: below this the dispatch overhead
// beats the win, and the paper-scale models (m <= 128) mostly stay inline.
constexpr std::int64_t kRowGrain = 8;

// The range kernels live in per-ISA TUs behind the runtime dispatch table
// (tensor/isa.*, DESIGN.md §16). Both the serial and the threaded entry
// points resolve the table ONCE per call and hand the same function pointer
// to every chunk, so a concurrent tier flip cannot split one matmul across
// tiers — and within a tier, serial and threaded paths still run the same
// compiled code, so they cannot diverge.

}  // namespace

void matmul_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                         std::int64_t k, std::int64_t n) {
  detail::active_table().matmul_accum(a, b, c, 0, m, k, n);
}

void matmul_bt_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
  detail::active_table().matmul_bt_accum(a, b, c, 0, m, k, n);
}

void matmul_at_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
  detail::active_table().matmul_at_accum(a, b, c, m, 0, k, k, n);
}

void matmul_accum(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  matmul_metrics().account(m, k, n);
  const auto fn = detail::active_table().matmul_accum;
  core::parallel_for(m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(a, b, c, r0, r1, k, n);
  });
}

void matmul_bt_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  matmul_metrics().account(m, k, n);
  const auto fn = detail::active_table().matmul_bt_accum;
  core::parallel_for(m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(a, b, c, r0, r1, k, n);
  });
}

void matmul_at_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  matmul_metrics().account(m, k, n);
  const auto fn = detail::active_table().matmul_at_accum;
  core::parallel_for(k, kRowGrain, [=](std::int64_t p0, std::int64_t p1) {
    fn(a, b, c, m, p0, p1, k, n);
  });
}

void matmul_q8_accum_serial(const std::int8_t* aq, const float* ascales,
                            const std::int8_t* bq, const float* bscales, float* c,
                            std::int64_t m, std::int64_t kb, std::int64_t n) {
  detail::active_table().matmul_q8(aq, ascales, bq, bscales, c, 0, m, kb, n);
}

void matmul_q4_accum_serial(const std::int8_t* aq, const float* ascales,
                            const std::uint8_t* bq, const float* bscales, float* c,
                            std::int64_t m, std::int64_t kb, std::int64_t n) {
  detail::active_table().matmul_q4(aq, ascales, bq, bscales, c, 0, m, kb, n);
}

void matmul_q8_accum(const std::int8_t* aq, const float* ascales, const std::int8_t* bq,
                     const float* bscales, float* c, std::int64_t m, std::int64_t kb,
                     std::int64_t n) {
  qmatmul_metrics().account(m, kb, n, 32);
  const auto fn = detail::active_table().matmul_q8;
  core::parallel_for(m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(aq, ascales, bq, bscales, c, r0, r1, kb, n);
  });
}

void matmul_q4_accum(const std::int8_t* aq, const float* ascales, const std::uint8_t* bq,
                     const float* bscales, float* c, std::int64_t m, std::int64_t kb,
                     std::int64_t n) {
  qmatmul_metrics().account(m, kb, n, 16);
  const auto fn = detail::active_table().matmul_q4;
  core::parallel_for(m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(aq, ascales, bq, bscales, c, r0, r1, kb, n);
  });
}

void tanh_row(const float* in, float* out, std::int64_t n) {
  detail::active_table().tanh_row(in, out, n);
}

void exp_row(const float* in, float* out, std::int64_t n) {
  detail::active_table().exp_row(in, out, n);
}

void lora_projections(const float* x, std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t r, const LoraProjection* projs, int count) {
  if (count < 1 || count > 3) {
    throw std::invalid_argument("lora_projections: 1 to 3 projections per call");
  }
  const bool base = projs[0].w != nullptr;
  for (int q = 1; q < count; ++q) {
    if ((projs[q].w != nullptr) != base) {
      throw std::invalid_argument("lora_projections: all projections with a base or none");
    }
  }
  // The matmul_accum calls of the separate passes: x W (with a base), x A
  // and (x A) B per projection, summed and counted in one bump.
  using M = MatmulMetrics;
  const std::int64_t per_flops = (base ? M::flops_of(m, k, n) : 0) + M::flops_of(m, k, r) +
                                 M::flops_of(m, r, n);
  const std::int64_t per_bytes = (base ? M::bytes_of(m, k, n) : 0) + M::bytes_of(m, k, r) +
                                 M::bytes_of(m, r, n);
  auto& mm = matmul_metrics();
  mm.calls.add(count * (base ? 3 : 2));
  mm.flops.add(count * per_flops);
  mm.bytes.add(count * per_bytes);
  const auto fn = detail::active_table().lora_projections;
  if (m < kRowGrain) return fn(x, k, n, r, projs, count, 0, m);
  core::parallel_for(m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(x, k, n, r, projs, count, r0, r1);
  });
}

void attend_head(const float* q, const float* k, const float* v, float* ctx, std::int64_t ld,
                 std::int64_t d_head, std::int64_t rows, std::int64_t len) {
  matmul_metrics().account(rows, d_head, len);  // Q_h K_h^T
  matmul_metrics().account(rows, len, d_head);  // attn V_h
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head));
  const auto past = len - rows;
  const auto fn = detail::active_table().attend_head;
  if (rows < kRowGrain) return fn(q, k, v, ctx, ld, d_head, len, past, inv_sqrt, 0, rows);
  core::parallel_for(rows, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    fn(q, k, v, ctx, ld, d_head, len, past, inv_sqrt, r0, r1);
  });
}

}  // namespace netllm::tensor::kernels
