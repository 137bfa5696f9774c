// google-benchmark rows for the durable-session layer (DESIGN.md §9):
// checkpoint save/restore latency as the checkpointed parameter set grows,
// and the steps/s tax a VP adaptation pays at several checkpoint cadences.
// run_benches.sh exports these as BENCH_session.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"
#include "netllm/session.hpp"

namespace ad = netllm::adapt;
namespace vp = netllm::vp;
namespace fs = std::filesystem;
using netllm::core::Rng;

namespace {

// Size ladder for the latency benches: the checkpoint cost is dominated by
// the serialized byte volume, so we sweep the backbone width/depth.
struct SizeSpec {
  int d_model, n_heads, n_layers, d_ff;
};
constexpr SizeSpec kSizes[] = {
    {16, 2, 1, 32},
    {32, 4, 2, 96},
    {64, 4, 4, 160},
};

std::shared_ptr<netllm::llm::MiniGpt> make_llm(const SizeSpec& s) {
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.d_model = s.d_model;
  cfg.n_heads = s.n_heads;
  cfg.n_layers = s.n_layers;
  cfg.d_ff = s.d_ff;
  cfg.max_seq = 112;
  Rng rng(7);
  return std::make_shared<netllm::llm::MiniGpt>(cfg, rng);
}

std::unique_ptr<ad::VpAdapter> make_adapter(const SizeSpec& s) {
  Rng rng(11);
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  return std::make_unique<ad::VpAdapter>(make_llm(s), cfg, rng);
}

fs::path bench_dir(const std::string& name) {
  const auto p = fs::temp_directory_path() / ("netllm_bench_sess_" + name);
  fs::remove_all(p);
  return p;
}

std::size_t param_scalars(const netllm::tensor::NamedParams& params) {
  std::size_t n = 0;
  for (const auto& [name, t] : params) n += t.numel();
  return n;
}

// One durable checkpoint end to end: build the five session sections,
// serialize + CRC, write to tmp, fsync, rename, run retention GC.
void BM_CheckpointSave(benchmark::State& state) {
  const auto& size = kSizes[state.range(0)];
  auto adapter = make_adapter(size);
  netllm::tensor::Adam opt(adapter->adapt_parameters(), 1e-3f);
  ad::TrainGuard guard(opt.params());
  auto params = ad::session_params(*adapter, nullptr);
  ad::SessionOptions opts;
  opts.dir = bench_dir("save_" + std::to_string(state.range(0))).string();
  opts.checkpoint_every = 1;  // every after_step() writes
  opts.keep_last = 2;
  opts.handle_signals = false;
  ad::TrainSession sess(opts, {"vp", "minigpt", 21, 1e-3f, 1 << 20}, params, opt, guard);
  Rng rng(3);
  ad::AdaptStats stats;
  sess.resume(rng, stats);  // adapt() always resumes first; creates the dir
  const auto fails_before = netllm::core::metrics::counter("session.checkpoint_failures").value();
  int step = 0;
  for (auto _ : state) {
    sess.after_step(step++, rng, stats);
  }
  if (netllm::core::metrics::counter("session.checkpoint_failures").value() != fails_before) {
    state.SkipWithError("checkpoint writes failed");
  }
  state.counters["params"] = static_cast<double>(param_scalars(params));
  fs::remove_all(opts.dir);
}
BENCHMARK(BM_CheckpointSave)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

// One resume load: scan the dir, CRC-verify, fingerprint-check, strict
// tensor load, restore optimizer/guard/rng/loop state.
void BM_CheckpointRestore(benchmark::State& state) {
  const auto& size = kSizes[state.range(0)];
  auto adapter = make_adapter(size);
  netllm::tensor::Adam opt(adapter->adapt_parameters(), 1e-3f);
  ad::TrainGuard guard(opt.params());
  auto params = ad::session_params(*adapter, nullptr);
  ad::SessionOptions opts;
  opts.dir = bench_dir("restore_" + std::to_string(state.range(0))).string();
  opts.checkpoint_every = 1;
  opts.keep_last = 2;
  opts.handle_signals = false;
  ad::TrainSession sess(opts, {"vp", "minigpt", 21, 1e-3f, 1 << 20}, params, opt, guard);
  Rng rng(3);
  ad::AdaptStats stats;
  sess.resume(rng, stats);         // adapt() always resumes first; creates the dir
  sess.after_step(0, rng, stats);  // seed the dir with one checkpoint
  int resumed = -1;
  for (auto _ : state) {
    ad::AdaptStats st;
    Rng r(0);
    resumed = sess.resume(r, st);
    benchmark::DoNotOptimize(resumed);
  }
  if (resumed != 1) state.SkipWithError("resume did not load the checkpoint");
  state.counters["params"] = static_cast<double>(param_scalars(params));
  fs::remove_all(opts.dir);
}
BENCHMARK(BM_CheckpointRestore)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

// Adaptation throughput (steps/s) at each checkpoint cadence. Arg is
// checkpoint_every; 0 disables the session layer — that row is the
// no-durability baseline the others are compared against.
void BM_AdaptWithCheckpoints(benchmark::State& state) {
  const int every = static_cast<int>(state.range(0));
  constexpr int kSteps = 512;  // > 256 so every cadence fires periodically
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  const auto dataset = vp::build_dataset(setting, 8);
  auto adapter = make_adapter(kSizes[0]);
  const auto dir = bench_dir("adapt_" + std::to_string(every));
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);  // fresh session: resume must start at step 0
    state.ResumeTiming();
    ad::SessionOptions opts;
    if (every > 0) {
      opts.dir = dir.string();
      opts.checkpoint_every = every;
      opts.keep_last = 2;
      opts.handle_signals = false;
    }
    adapter->adapt(dataset, kSteps, 1e-3f, 21, opts);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);  // items == steps
  state.counters["checkpoint_every"] = static_cast<double>(every);
  fs::remove_all(dir);
}
BENCHMARK(BM_AdaptWithCheckpoints)->Arg(0)->Arg(16)->Arg(64)->Arg(256)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
