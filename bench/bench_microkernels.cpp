// google-benchmark micro-kernels for the numeric substrate: the matmul,
// attention-softmax, layer-norm and conv kernels that dominate MiniGPT
// training/inference time, plus one end-to-end LLM forward. Useful when
// optimising the tensor library — the figure benches are too coarse for
// kernel work.
//
// The BM_IsaTier benchmarks are registered at runtime (custom main below):
// one row per (kernel case x compiled-and-supported ISA tier: scalar, avx2,
// avx512 on a host with all three), single threaded, so BENCH_kernels.json
// carries the scalar-vs-vector and avx2-vs-avx512 throughput
// (FLOP/s for the matmuls, elements/s for the row kernels) for the host
// this sweep actually ran on (DESIGN.md §16).
// Every row that lands in BENCH_kernels.json runs kLedgerRepetitions times
// and reports its aggregates (tools/check_bench_kernels.py reads the
// medians), and the file's context block carries the run's provenance.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "support/bench_common.hpp"
#include "tensor/isa.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quants.hpp"
#include "tensor/tensor.hpp"

namespace nt = netllm::tensor;
namespace nq = netllm::tensor::quant;
namespace isa = netllm::tensor::isa;
using netllm::core::Rng;

namespace {

/// Repetitions per BENCH_kernels.json row: the ledger compares medians, so
/// one noisy window on a shared host cannot decide a tier comparison.
constexpr int kLedgerRepetitions = 5;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  auto a = nt::Tensor::randn({n, n}, rng, 1.0f);
  auto b = nt::Tensor::randn({n, n}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulBackward(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  auto a = nt::Tensor::randn({n, n}, rng, 1.0f, true);
  auto b = nt::Tensor::randn({n, n}, rng, 1.0f, true);
  for (auto _ : state) {
    auto loss = nt::mean_all(nt::matmul(a, b));
    loss.backward();
    a.zero_grad();
    b.zero_grad();
  }
}
BENCHMARK(BM_MatmulBackward)->Arg(32)->Arg(64);

// Raw blocked-kernel GFLOP/s on buffers (no autograd graph), serial vs
// threaded: Args are {n, threads}. threads = 1 is the serial baseline row in
// BENCH_kernels.json; the speedup claim is threads=4 vs threads=1 at n=512.
void BM_MatmulKernel(benchmark::State& state) {
  const auto n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  netllm::core::set_global_threads(threads);
  Rng rng(8);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    nt::kernels::matmul_accum(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  // items_per_second == FLOP/s (2 flops per multiply-accumulate).
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.counters["threads"] = static_cast<double>(threads);
  netllm::core::set_global_threads(0);  // restore the NETLLM_THREADS default
}
BENCHMARK(BM_MatmulKernel)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime()
    ->Repetitions(kLedgerRepetitions)
    ->ReportAggregatesOnly(true);

void BM_CausalSoftmax(benchmark::State& state) {
  const auto t = state.range(0);
  Rng rng(3);
  auto scores = nt::Tensor::randn({t, t}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nt::causal_masked_softmax(scores));
  }
}
BENCHMARK(BM_CausalSoftmax)->Arg(64)->Arg(112);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  auto x = nt::Tensor::randn({112, 64}, rng, 1.0f);
  auto gamma = nt::Tensor::full({64}, 1.0f);
  auto beta = nt::Tensor::zeros({64});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nt::layer_norm_rows(x, gamma, beta));
  }
}
BENCHMARK(BM_LayerNorm);

void BM_Conv1d(benchmark::State& state) {
  Rng rng(5);
  auto x = nt::Tensor::randn({1, 8}, rng, 1.0f);
  auto w = nt::Tensor::randn({8, 1, 3}, rng, 1.0f);
  auto b = nt::Tensor::zeros({8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nt::conv1d(x, w, b, 1));
  }
}
BENCHMARK(BM_Conv1d);

void BM_MiniGptForward(benchmark::State& state) {
  const auto seq = state.range(0);
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.n_layers = 4;
  cfg.d_ff = 160;
  cfg.max_seq = 112;
  Rng rng(6);
  netllm::llm::MiniGpt model(cfg, rng);
  Rng data_rng(7);
  auto embeds = nt::Tensor::randn({seq, 64}, data_rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward_embeddings(embeds));
  }
}
BENCHMARK(BM_MiniGptForward)->Arg(31)->Arg(60)->Arg(100);

// ---- per-ISA-tier kernel rows (BM_IsaTier/<case>/<tier>) ----
//
// Single-core by design: the tier comparison isolates vectorization, and
// thread scaling is already covered by BM_MatmulKernel. Each run forces its
// tier via set_active_isa and restores the env-resolved default afterwards,
// so row order cannot leak a tier into other benchmarks.

/// Forces `tier` for one benchmark run; restores env resolution on exit.
struct TierScope {
  explicit TierScope(isa::Isa tier) {
    netllm::core::set_global_threads(1);
    applied = isa::set_active_isa(tier) == tier;
  }
  ~TierScope() {
    netllm::core::set_global_threads(0);
    isa::reset_active_isa();
  }
  bool applied = false;
};

void BM_IsaF32(benchmark::State& state, isa::Isa tier, std::int64_t m, std::int64_t k,
               std::int64_t n) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(18);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (auto _ : state) {
    std::memset(c.data(), 0, c.size() * sizeof(float));
    nt::kernels::matmul_accum_serial(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  // items_per_second == FLOP/s (2 flops per multiply-accumulate).
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  state.SetLabel(isa::isa_name(tier));
}

void BM_IsaQuant(benchmark::State& state, isa::Isa tier, nq::Dtype dtype, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(19);
  std::vector<float> x(static_cast<std::size_t>(m * k));
  std::vector<float> wt(static_cast<std::size_t>(n * k));
  for (auto& v : x) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (auto& v : wt) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  const auto kb = nq::blocks_per_row(k);
  const auto aq = nq::quantize(nq::Dtype::kQ8_0, x.data(), m, k);
  const auto wq = nq::quantize(dtype, wt.data(), n, k);
  const auto* acodes = reinterpret_cast<const std::int8_t*>(aq.codes.data());
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    std::memset(c.data(), 0, c.size() * sizeof(float));
    if (dtype == nq::Dtype::kQ8_0) {
      nt::kernels::matmul_q8_accum_serial(
          acodes, aq.scales.data(), reinterpret_cast<const std::int8_t*>(wq.codes.data()),
          wq.scales.data(), c.data(), m, kb, n);
    } else {
      nt::kernels::matmul_q4_accum_serial(acodes, aq.scales.data(), wq.codes.data(),
                                          wq.scales.data(), c.data(), m, kb, n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  // Effective FLOP/s of the fp32 product this replaces (k padded to blocks).
  state.SetItemsProcessed(state.iterations() * 2 * m * (kb * nq::kBlock) * n);
  state.SetLabel(isa::isa_name(tier));
}

/// Row kernels on `rows` rows of `cols` values: GELU over the whole buffer
/// in one call (as the graph-free MLP runs it), or Q8_0 quantization one
/// row at a time (as qmatmul_accum quantizes its activations).
/// items_per_second counts input elements.
void BM_IsaRow(benchmark::State& state, isa::Isa tier, bool quantize, std::int64_t rows,
               std::int64_t cols) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(20);
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  for (auto& v : x) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  std::vector<float> y(x.size());
  const auto kb = nq::blocks_per_row(cols);
  std::vector<float> scales(static_cast<std::size_t>(rows * kb));
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(rows * kb * nq::kBlock));
  for (auto _ : state) {
    if (quantize) {
      for (std::int64_t r = 0; r < rows; ++r) {
        nq::quantize_row(nq::Dtype::kQ8_0, x.data() + r * cols, cols, scales.data() + r * kb,
                         codes.data() + r * kb * nq::kBlock);
      }
      benchmark::DoNotOptimize(codes.data());
    } else {
      nt::gelu_row(x.data(), y.data(), rows * cols);
      benchmark::DoNotOptimize(y.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(isa::isa_name(tier));
}

/// The causal softmax of a rows x rows score matrix, one
/// tensor::causal_softmax_row per row as the graph-free attention runs it.
/// items_per_second counts matrix elements.
void BM_IsaSoftmax(benchmark::State& state, isa::Isa tier, std::int64_t rows) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(21);
  std::vector<float> scores(static_cast<std::size_t>(rows * rows));
  for (auto& v : scores) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  std::vector<float> out(scores.size());
  for (auto _ : state) {
    for (std::int64_t i = 0; i < rows; ++i) {
      nt::causal_softmax_row(scores.data() + i * rows, out.data() + i * rows, rows, i + 1);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * rows);
  state.SetLabel(isa::isa_name(tier));
}

/// Every head of one segment's causal attention through
/// kernels::attend_head: `rows` new rows against `len` cached K/V rows of a
/// d-wide model. items_per_second == FLOP/s of the two products it fuses.
void BM_IsaAttend(benchmark::State& state, isa::Isa tier, std::int64_t d, std::int64_t heads,
                  std::int64_t rows, std::int64_t len) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(22);
  std::vector<float> q(static_cast<std::size_t>(rows * d));
  std::vector<float> k(static_cast<std::size_t>(len * d)), v(k.size());
  for (auto* buf : {&q, &k, &v}) {
    for (auto& x : *buf) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  std::vector<float> ctx(q.size());
  const std::int64_t dh = d / heads;
  for (auto _ : state) {
    for (std::int64_t col = 0; col < d; col += dh) {
      nt::kernels::attend_head(q.data() + col, k.data() + col, v.data() + col, ctx.data() + col,
                               d, dh, rows, len);
    }
    benchmark::DoNotOptimize(ctx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * heads * 2 * (2 * rows * dh * len));
  state.SetLabel(isa::isa_name(tier));
}

/// One fused LoRA slot call (kernels::lora_projections): `count`
/// projections of m rows from k to n columns at rank r, each with a base
/// and a bias. items_per_second == FLOP/s of the three matmul_accum
/// products per projection it replaces.
void BM_IsaLora(benchmark::State& state, isa::Isa tier, int count, std::int64_t m,
                std::int64_t k, std::int64_t n, std::int64_t r) {
  TierScope scope(tier);
  if (!scope.applied) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  Rng rng(23);
  const auto filled = [&](std::int64_t size) {
    std::vector<float> v(static_cast<std::size_t>(size));
    for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
    return v;
  };
  const auto x = filled(m * k);
  std::vector<std::vector<float>> w, bias, a, b, y;
  std::vector<nt::kernels::LoraProjection> projs;
  for (int q = 0; q < count; ++q) {
    w.push_back(filled(k * n));
    bias.push_back(filled(n));
    a.push_back(filled(k * r));
    b.push_back(filled(r * n));
    y.emplace_back(static_cast<std::size_t>(m * n));
  }
  for (int q = 0; q < count; ++q) {
    projs.push_back({w[q].data(), bias[q].data(), a[q].data(), b[q].data(), 2.0f, y[q].data()});
  }
  for (auto _ : state) {
    nt::kernels::lora_projections(x.data(), m, k, n, r, projs.data(), count);
    benchmark::DoNotOptimize(y.front().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * count * 2 * m * (k * n + k * r + r * n));
  state.SetLabel(isa::isa_name(tier));
}

/// One BM_IsaTier/<case>/<tier> row per supported tier. The 512-wide GEMV
/// rows are the serving hot shape (single decode row against a 512-wide
/// projection); GEMM rows show the register-tiled multi-row path. The
/// narrow rows are served fp32 shapes: the LoRA down-projection x·A (n = r
/// = 4) of a 512-wide decode row and of a 98-row CJS window, and the
/// 64-wide step projection. The row-kernel rows are GELU over an ABR
/// window's MLP (59 rows of d_ff 256) and over one 512-wide lockstep step
/// of four VP requests (4 rows of d_ff 1280), and the Q8_0 quantization of
/// that step's four 512-wide activation rows. The attention rows are the
/// causal softmax of a 98-row CJS window, one `vp_wide_q8` decode step
/// (1 row against 30 cached ones, 512 wide, 8 heads) and an ABR window's
/// prefill (59 rows, 64 wide, 4 heads). The LoRA rows are fused slot calls
/// of a 64-wide decode step at rank 4: Q, K and V in one call, and the MLP's
/// 160 -> 64 down projection (fc2).
void register_isa_tier_benches() {
  const auto tiers = isa::supported_isas();
  constexpr std::int64_t kDim = 512;
  struct F32Case {
    const char* name;
    std::int64_t m, k, n;
  };
  const F32Case f32_cases[] = {{"f32_gemv512", 1, kDim, kDim},
                               {"f32_gemm512", 64, kDim, kDim},
                               {"f32_lora_gemv512", 1, kDim, 4},
                               {"f32_lora_gemm64", 98, 64, 4},
                               {"f32_gemv64", 1, 64, 64}};
  struct QuantCase {
    const char* name;
    nq::Dtype dtype;
    std::int64_t m;
  };
  const QuantCase quant_cases[] = {{"q8_gemv512", nq::Dtype::kQ8_0, 1},
                                   {"q8_gemm512", nq::Dtype::kQ8_0, 64},
                                   {"q4_gemv512", nq::Dtype::kQ4_0, 1},
                                   {"q4_gemm512", nq::Dtype::kQ4_0, 64}};
  struct RowCase {
    const char* name;
    bool quantize;
    std::int64_t rows, cols;
  };
  const RowCase row_cases[] = {{"gelu_ff256x59", false, 59, 256},
                               {"gelu_ff1280x4", false, 4, 1280},
                               {"q8_quant512x4", true, 4, kDim}};
  struct AttendCase {
    const char* name;
    std::int64_t d, heads, rows, len;
  };
  const AttendCase attend_cases[] = {{"attend_step_len30_d512h8", kDim, 8, 1, 30},
                                     {"attend_prefill59_d64h4", 64, 4, 59, 59}};
  struct LoraCase {
    const char* name;
    int count;
    std::int64_t m, k, n, r;
  };
  const LoraCase lora_cases[] = {{"lora_qkv_step64_r4", 3, 1, 64, 64, 4},
                                 {"lora_fc2_step160x64_r4", 1, 1, 160, 64, 4}};
  for (const auto tier : tiers) {
    const std::string suffix = std::string("/") + isa::isa_name(tier);
    for (const auto& f : f32_cases) {
      benchmark::RegisterBenchmark(("BM_IsaTier/" + std::string(f.name) + suffix).c_str(),
                                   [tier, f](benchmark::State& s) {
                                     BM_IsaF32(s, tier, f.m, f.k, f.n);
                                   })
          ->UseRealTime()
          ->Repetitions(kLedgerRepetitions)
          ->ReportAggregatesOnly(true);
    }
    for (const auto& q : quant_cases) {
      benchmark::RegisterBenchmark(("BM_IsaTier/" + std::string(q.name) + suffix).c_str(),
                                   [tier, q](benchmark::State& s) {
                                     BM_IsaQuant(s, tier, q.dtype, q.m, kDim, kDim);
                                   })
          ->UseRealTime()
          ->Repetitions(kLedgerRepetitions)
          ->ReportAggregatesOnly(true);
    }
    for (const auto& r : row_cases) {
      benchmark::RegisterBenchmark(("BM_IsaTier/" + std::string(r.name) + suffix).c_str(),
                                   [tier, r](benchmark::State& s) {
                                     BM_IsaRow(s, tier, r.quantize, r.rows, r.cols);
                                   })
          ->UseRealTime()
          ->Repetitions(kLedgerRepetitions)
          ->ReportAggregatesOnly(true);
    }
    benchmark::RegisterBenchmark(("BM_IsaTier/softmax_causal98x98" + suffix).c_str(),
                                 [tier](benchmark::State& s) { BM_IsaSoftmax(s, tier, 98); })
        ->UseRealTime()
        ->Repetitions(kLedgerRepetitions)
        ->ReportAggregatesOnly(true);
    for (const auto& a : attend_cases) {
      benchmark::RegisterBenchmark(("BM_IsaTier/" + std::string(a.name) + suffix).c_str(),
                                   [tier, a](benchmark::State& s) {
                                     BM_IsaAttend(s, tier, a.d, a.heads, a.rows, a.len);
                                   })
          ->UseRealTime()
          ->Repetitions(kLedgerRepetitions)
          ->ReportAggregatesOnly(true);
    }
    for (const auto& l : lora_cases) {
      benchmark::RegisterBenchmark(("BM_IsaTier/" + std::string(l.name) + suffix).c_str(),
                                   [tier, l](benchmark::State& s) {
                                     BM_IsaLora(s, tier, l.count, l.m, l.k, l.n, l.r);
                                   })
          ->UseRealTime()
          ->Repetitions(kLedgerRepetitions)
          ->ReportAggregatesOnly(true);
    }
  }
}

/// Provenance of the sweep in the JSON context block: which commit, build
/// and host conditions produced these numbers (check_bench_kernels.py
/// requires every key).
void add_provenance_context() {
  for (const auto& [key, value] : netllm::benchsupport::provenance(NETLLM_BUILD_TYPE)) {
    benchmark::AddCustomContext(key, value);
  }
  // The tiers this sweep has rows for: check_bench_kernels.py requires
  // every one of them and floors avx512 at avx2.
  std::string supported;
  for (const auto tier : isa::supported_isas()) {
    if (!supported.empty()) supported += ',';
    supported += isa::isa_name(tier);
  }
  benchmark::AddCustomContext("isa_supported", supported);
}

}  // namespace

int main(int argc, char** argv) {
  register_isa_tier_benches();
  add_provenance_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
