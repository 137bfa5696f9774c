// Decode throughput (DESIGN.md §10): cached vs uncached greedy generation at
// max_seq-length answers (tokens/s + p50/p99 per-answer latency), the
// cached decode at fp32/Q8_0/Q4_0 backbone weights, and VP lockstep groups
// (DESIGN.md §13): decisions/s and ms/decision for drains of B = 1, 2, 4, 8
// VP requests through InferenceEngine on the 512-wide Q8_0 backbone, at one
// thread so each drain is one group. Every row runs kReps interleaved
// repetitions and reports their median and stddev; each ratio is the median
// of its per-repetition ratios. Emits BENCH_decode.json (path
// overridable via argv[1]) with a provenance block; run_benches.sh wires it
// into the standard sweep and tools/check_bench_decode.py validates it. The
// cached row is the same computation as the uncached Fig. 2 baseline —
// test_decode pins the streams bitwise — so the ratio is pure KV-cache
// effect, not a model change; likewise every grouped answer is bitwise its
// answer alone (test_sched). Serving latency and goodput are measured by
// bench/e2e.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "envs/vp/dataset.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "support/bench_common.hpp"
#include "tensor/quants.hpp"

using netllm::core::Rng;
using netllm::core::Table;
using netllm::core::Timer;
using netllm::core::percentile;
using netllm::core::print_banner;

namespace {

constexpr int kReps = 5;  // interleaved repetitions behind every ledger row

struct Row {
  std::string label;
  double items_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

Row measure_generate(const netllm::llm::MiniGpt& gpt, const std::vector<std::vector<int>>& prompts,
                     int max_new, bool use_cache) {
  std::vector<double> per_answer_ms;
  Timer total;
  for (const auto& p : prompts) {
    Timer t;
    const auto out = gpt.generate(p, max_new, /*stop_token=*/-1, use_cache);
    per_answer_ms.push_back(t.elapsed_ms());
    if (out.size() != static_cast<std::size_t>(max_new)) {
      std::cerr << "[bench] unexpected early stop\n";
    }
  }
  Row row;
  row.label = use_cache ? "cached" : "uncached";
  row.items_per_s =
      static_cast<double>(prompts.size()) * max_new / std::max(total.elapsed_s(), 1e-9);
  row.p50_ms = percentile(per_answer_ms, 50.0);
  row.p99_ms = percentile(per_answer_ms, 99.0);
  return row;
}

/// Median and sample standard deviation of one ledger quantity.
struct Aggregate {
  double median = 0.0;
  double stddev = 0.0;
};

Aggregate aggregate(const std::vector<double>& xs) {
  return {percentile(xs, 50.0), netllm::core::stddev(xs)};
}

std::string json_aggregate(const Aggregate& a) {
  return "{\"median\": " + std::to_string(a.median) + ", \"stddev\": " +
         std::to_string(a.stddev) + "}";
}

/// A generate sweep over kReps repetitions: each field's median and stddev.
struct RowAggregate {
  std::string label;
  Aggregate items_per_s, p50_ms, p99_ms;
};

RowAggregate aggregate(const std::vector<Row>& reps) {
  const auto field = [&](double Row::*f) {
    std::vector<double> xs;
    for (const auto& r : reps) xs.push_back(r.*f);
    return aggregate(xs);
  };
  return {reps.front().label, field(&Row::items_per_s), field(&Row::p50_ms),
          field(&Row::p99_ms)};
}

/// The median over repetitions of `num[i].items_per_s / den[i].items_per_s`.
double median_ratio(const std::vector<Row>& num, const std::vector<Row>& den) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < num.size(); ++i) {
    ratios.push_back(num[i].items_per_s / std::max(den[i].items_per_s, 1e-9));
  }
  return percentile(ratios, 50.0);
}

/// A row's timing fields as JSON aggregates.
std::string json_timing(const RowAggregate& r) {
  return "\"repetitions\": " + std::to_string(kReps) +
         ", \"tokens_per_s\": " + json_aggregate(r.items_per_s) +
         ", \"p50_ms\": " + json_aggregate(r.p50_ms) + ", \"p99_ms\": " + json_aggregate(r.p99_ms);
}

/// A row's timing fields as table cells: tokens/s median and stddev, p50, p99.
std::vector<std::string> table_timing(const RowAggregate& r) {
  return {Table::num(r.items_per_s.median, 1), Table::num(r.items_per_s.stddev, 1),
          Table::num(r.p50_ms.median, 2), Table::num(r.p99_ms.median, 2)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_decode.json";
  std::cout << "Decode throughput (KV cache, quantized backbone)\n";

  // ---- cached vs uncached generation at max_seq-length answers ----
  netllm::llm::MiniGptConfig cfg;  // the default backbone (d_model 64, 4 layers)
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  Rng rng(7);
  netllm::llm::MiniGpt gpt(cfg, rng);

  constexpr int kAnswers = 10;
  constexpr std::size_t kPromptLen = 8;
  const int max_new = static_cast<int>(cfg.max_seq) - static_cast<int>(kPromptLen);
  std::vector<std::vector<int>> prompts;
  Rng prng(21);
  for (int a = 0; a < kAnswers; ++a) {
    std::vector<int> p(kPromptLen);
    for (auto& t : p) t = static_cast<int>(prng.randint(3, cfg.vocab - 1));
    prompts.push_back(std::move(p));
  }
  // Sanity: both paths must emit the same stream (pinned hard in test_decode).
  if (gpt.generate(prompts[0], max_new, -1, false) != gpt.generate(prompts[0], max_new, -1, true)) {
    std::cerr << "[bench] cached/uncached streams diverge — results invalid\n";
    return 1;
  }

  // Interleaved: each repetition times the uncached and the cached sweep
  // back to back, so a load spike on a shared box lands in one pair.
  std::vector<Row> uncached_reps, cached_reps;
  for (int rep = 0; rep < kReps; ++rep) {
    uncached_reps.push_back(measure_generate(gpt, prompts, max_new, false));
    cached_reps.push_back(measure_generate(gpt, prompts, max_new, true));
  }
  const RowAggregate decode_rows[] = {aggregate(uncached_reps), aggregate(cached_reps)};
  const double speedup = median_ratio(cached_reps, uncached_reps);

  print_banner(std::cout, "greedy generation, answers of " + std::to_string(cfg.max_seq) +
                              " total tokens (" + std::to_string(kAnswers) + " answers, " +
                              std::to_string(kReps) + " reps, median)");
  Table dec({"path", "tokens/s", "tokens/s stddev", "p50 ms/answer", "p99 ms/answer"});
  for (const auto& r : decode_rows) {
    auto cells = table_timing(r);
    cells.insert(cells.begin(), r.label);
    dec.add_row(cells);
  }
  dec.print(std::cout);
  std::cout << "cached / uncached tokens-per-s ratio: " << Table::num(speedup, 1) << "x\n";

  // ---- quantized decode: fp32 vs Q8_0 vs Q4_0 backbone (DESIGN.md §15) ----
  // Weight-only quantization pays off when streaming the projection weights
  // dominates the token loop, so this section uses a wider backbone than the
  // 64-wide default (same 4-layer shape, 4x the width). All three rows decode
  // the same prompts with the KV cache on; only the backbone weight dtype
  // changes. Requantization always restarts from the resident fp32 masters,
  // so the Q8 and Q4 rows are independent views of one model.
  struct QuantRow {
    std::string dtype;
    std::vector<Row> reps;
    long long backbone_bytes = 0;
  };
  netllm::llm::MiniGptConfig qcfg;
  qcfg.vocab = cfg.vocab;
  qcfg.d_model = 512;
  qcfg.n_heads = 8;
  qcfg.d_ff = 1280;
  qcfg.max_seq = 64;
  Rng qrng(7);
  netllm::llm::MiniGpt qgpt(qcfg, qrng);
  constexpr int kQuantAnswers = 6;
  const int q_max_new = static_cast<int>(qcfg.max_seq) - static_cast<int>(kPromptLen);
  std::vector<std::vector<int>> qprompts;
  Rng qprng(23);
  for (int a = 0; a < kQuantAnswers; ++a) {
    std::vector<int> p(kPromptLen);
    for (auto& t : p) t = static_cast<int>(qprng.randint(3, qcfg.vocab - 1));
    qprompts.push_back(std::move(p));
  }
  // Interleaved: each repetition measures every dtype back to back, so a
  // transient load spike on a shared box hurts one pass of one dtype, not a
  // whole dtype's only sample.
  const std::vector<netllm::tensor::quant::Dtype> dtypes = {
      netllm::tensor::quant::Dtype::kF32, netllm::tensor::quant::Dtype::kQ8_0,
      netllm::tensor::quant::Dtype::kQ4_0};
  std::vector<QuantRow> quant_rows(dtypes.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t d = 0; d < dtypes.size(); ++d) {
      qgpt.quantize_backbone(dtypes[d]);  // kF32 restores plain matmul + fp32 bytes
      auto& qr = quant_rows[d];
      qr.reps.push_back(measure_generate(qgpt, qprompts, q_max_new, /*use_cache=*/true));
      qr.dtype = netllm::tensor::quant::dtype_name(dtypes[d]);
      qr.backbone_bytes = qgpt.backbone_weight_bytes();
    }
  }
  const double q8_speedup = median_ratio(quant_rows[1].reps, quant_rows[0].reps);
  const double q8_mem_ratio = static_cast<double>(quant_rows[0].backbone_bytes) /
                              std::max<double>(static_cast<double>(quant_rows[1].backbone_bytes), 1.0);
  print_banner(std::cout, "quantized decode, d_model " + std::to_string(qcfg.d_model) +
                              " backbone (" + std::to_string(kQuantAnswers) + " cached answers, " +
                              std::to_string(kReps) + " reps, median)");
  Table qt({"dtype", "tokens/s", "tokens/s stddev", "p50 ms/answer", "p99 ms/answer",
            "backbone bytes"});
  for (const auto& qr : quant_rows) {
    auto cells = table_timing(aggregate(qr.reps));
    cells.insert(cells.begin(), qr.dtype);
    cells.push_back(std::to_string(qr.backbone_bytes));
    qt.add_row(cells);
  }
  qt.print(std::cout);
  std::cout << "q8_0 / f32 tokens-per-s ratio: " << Table::num(q8_speedup, 2)
            << "x, backbone memory ratio: " << Table::num(q8_mem_ratio, 2) << "x\n";

  // ---- VP lockstep groups: B requests per drain (DESIGN.md §13) ----
  // The vp_wide_q8 serving shape: a 512-wide, 4-layer Q8_0 backbone with
  // LoRA, 20-step rollouts. One thread, so a drain of B requests is one
  // lockstep group; no warm prefixes, so every request prefills cold. Each
  // interleaved repetition times every B back to back over the same number
  // of decisions.
  netllm::core::set_global_threads(1);
  constexpr int kVpHorizon = 20, kGroupDecisions = 16;
  const std::vector<std::size_t> group_sizes = {1, 2, 4, 8};
  netllm::llm::MiniGptConfig vcfg = qcfg;
  vcfg.max_seq = 96;
  Rng vrng(11);
  auto vp_adapter = std::make_shared<netllm::adapt::VpAdapter>(
      std::make_shared<netllm::llm::MiniGpt>(vcfg, vrng), netllm::adapt::VpAdapterConfig{}, vrng);
  netllm::serve::EngineConfig ecfg;
  ecfg.backbone_dtype = netllm::tensor::quant::Dtype::kQ8_0;
  ecfg.arena_prefix_entries = 0;
  netllm::serve::InferenceEngine engine(vp_adapter, nullptr, nullptr, ecfg);
  auto vp_setting = netllm::vp::vp_default_train();
  vp_setting.num_traces = 1;
  const auto vp_samples = netllm::vp::build_dataset(vp_setting, kGroupDecisions);
  const auto drain = [&](std::size_t b) {
    for (std::size_t i = 0; i < b; ++i) {
      const auto& s = vp_samples[i];
      engine.submit(netllm::serve::VpRequest{s.history, s.saliency, kVpHorizon});
    }
    return engine.run().llm;
  };
  (void)drain(group_sizes.back());  // warm the per-thread rows and the lease pool
  std::vector<std::vector<double>> group_ms(group_sizes.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t g = 0; g < group_sizes.size(); ++g) {
      const auto b = group_sizes[g];
      std::size_t served = 0;
      Timer t;
      for (std::size_t d = 0; d < kGroupDecisions / b; ++d) served += drain(b);
      if (served != static_cast<std::size_t>(kGroupDecisions)) {
        std::cerr << "[bench] a grouped VP request fell back — results invalid\n";
        return 1;
      }
      group_ms[g].push_back(t.elapsed_ms() / kGroupDecisions);
    }
  }
  netllm::core::set_global_threads(0);
  std::vector<Aggregate> ms_per_decision, decisions_per_s;
  for (const auto& ms : group_ms) {
    std::vector<double> rate;
    for (const double x : ms) rate.push_back(1e3 / x);
    ms_per_decision.push_back(aggregate(ms));
    decisions_per_s.push_back(aggregate(rate));
  }
  print_banner(std::cout, "VP lockstep groups, d_model " + std::to_string(vcfg.d_model) +
                              " Q8_0 backbone, horizon " + std::to_string(kVpHorizon) + " (" +
                              std::to_string(kReps) + " reps, median)");
  Table gt({"requests per drain", "decisions/s", "ms/decision", "ms/decision stddev"});
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    gt.add_row({std::to_string(group_sizes[g]), Table::num(decisions_per_s[g].median, 1),
                Table::num(ms_per_decision[g].median, 2),
                Table::num(ms_per_decision[g].stddev, 2)});
  }
  gt.print(std::cout);

  // ---- JSON export ----
  // Provenance before the file is opened: truncating a tracked output file
  // would make the tree read as dirty.
  const auto context = netllm::benchsupport::provenance(NETLLM_BUILD_TYPE);
  std::ofstream json(out_path);
  json << "{\n  \"decode\": [\n";
  for (const auto& r : decode_rows) {
    json << "    {\"mode\": \"" << r.label << "\", \"answers\": " << kAnswers
         << ", \"tokens_per_answer\": " << max_new << ", " << json_timing(r) << "}"
         << (&r == &decode_rows[1] ? "\n" : ",\n");
  }
  json << "  ],\n  \"speedup_tokens_per_s\": " << speedup << ",\n  \"quant_decode\": [\n";
  for (std::size_t i = 0; i < quant_rows.size(); ++i) {
    const auto& qr = quant_rows[i];
    json << "    {\"dtype\": \"" << qr.dtype << "\", \"answers\": " << kQuantAnswers
         << ", \"tokens_per_answer\": " << q_max_new << ", " << json_timing(aggregate(qr.reps))
         << ", \"backbone_bytes\": " << qr.backbone_bytes << "}"
         << (i + 1 == quant_rows.size() ? "\n" : ",\n");
  }
  json << "  ],\n  \"quant_q8_speedup_tokens_per_s\": " << q8_speedup
       << ",\n  \"quant_q8_memory_ratio\": " << q8_mem_ratio << ",\n  \"vp_group\": [\n";
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    json << "    {\"requests\": " << group_sizes[g] << ", \"d_model\": " << vcfg.d_model
         << ", \"dtype\": \"q8_0\", \"horizon\": " << kVpHorizon
         << ", \"decisions\": " << kGroupDecisions << ", \"repetitions\": " << kReps
         << ", \"decisions_per_s\": " << json_aggregate(decisions_per_s[g])
         << ", \"ms_per_decision\": " << json_aggregate(ms_per_decision[g]) << "}"
         << (g + 1 == group_sizes.size() ? "\n" : ",\n");
  }
  json << "  ],\n  \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << context[i].first << "\": \"" << context[i].second
         << "\"";
  }
  json << "}\n}\n";
  std::cout << "wrote " << out_path << "\n";
  if (speedup < 3.0) {
    std::cerr << "[bench] WARNING: cached speedup " << speedup << "x below the 3x floor\n";
  }
  return 0;
}
