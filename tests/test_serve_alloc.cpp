// Heap allocations and tape nodes per warm served decision (ctest -L inference),
// DESIGN.md §10.
//
// Pinned claims, through serve::InferenceEngine at one thread:
//   - a warm served decision builds no autograd node: VP (warm-prefix hit
//     and cold miss), ABR and CJS run their encoders, backbone and heads on
//     the graph-free row forwards, so tensor::tape_nodes_built() does not
//     move;
//   - the heap allocations of one warm decision stay under pinned bounds.
//     What is left is the engine's per-request bookkeeping, the returned
//     rollouts, the adapters' rolling-context steps and, on a VP miss, the
//     warm-prefix entry it publishes. EXPERIMENTS.md "Graph-free encoders
//     and heads" records these counts next to the tape-path ones, which
//     are 9-33x higher and fail every bound.
//
// This binary replaces the global operator new to count, as test_parallel
// does; keep it to tests that count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "envs/abr/simulator.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"
#include "tensor/tensor.hpp"

namespace {

/// Every operator new of this test binary, on any thread.
std::atomic<std::int64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler pairs each delete with a new rather than
// seeing free() on a pointer it knows came from malloc.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (a std::stable_sort or std::get_temporary_buffer
// takes its buffer from them), so every block this binary frees came from
// one of these.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ad = netllm::adapt;
namespace llm = netllm::llm;
namespace nc = netllm::core;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

constexpr int kWarm = 3, kCounted = 10;

struct PerDecision {
  double allocations = 0.0;
  std::int64_t tape_nodes = 0;  // over all counted decisions
};

/// Allocations per decision and tape nodes built over kCounted decisions,
/// after kWarm decisions size every workspace. `decide(i)` serves decision i.
template <typename Fn>
PerDecision count(Fn&& decide) {
  for (int i = 0; i < kWarm; ++i) decide(i);
  const auto allocs = g_allocations.load();
  const auto nodes = netllm::tensor::tape_nodes_built();
  for (int i = kWarm; i < kWarm + kCounted; ++i) decide(i);
  return {static_cast<double>(g_allocations.load() - allocs) / kCounted,
          netllm::tensor::tape_nodes_built() - nodes};
}

std::shared_ptr<llm::MiniGpt> tiny_llm(std::uint64_t seed) {
  llm::MiniGptConfig cfg;
  cfg.vocab = llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = 112;
  Rng rng(seed);
  return std::make_shared<llm::MiniGpt>(cfg, rng);
}

struct Engine {
  std::shared_ptr<serve::InferenceEngine> engine;

  Engine() {
    Rng rng(7);
    ad::VpAdapterConfig vcfg;
    vcfg.lora_rank = 2;
    ad::AbrAdapterConfig acfg;
    acfg.lora_rank = 2;
    ad::CjsAdapterConfig ccfg;
    ccfg.lora_rank = 2;
    auto vp_adapter = std::make_shared<ad::VpAdapter>(tiny_llm(11), vcfg, rng);
    auto abr_adapter = std::make_shared<ad::AbrAdapter>(tiny_llm(13), acfg, rng);
    auto cjs_adapter = std::make_shared<ad::CjsAdapter>(tiny_llm(17), ccfg, rng);
    engine = std::make_shared<serve::InferenceEngine>(vp_adapter, abr_adapter, cjs_adapter);
    engine->begin_abr_session();
    engine->begin_cjs_episode();
  }
};

std::vector<vp::VpSample> vp_samples(int n) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, n);
}

serve::VpRequest vp_request(const vp::VpSample& s) {
  return {s.history, s.saliency, 4};
}

netllm::abr::Observation abr_observation(int i) {
  netllm::abr::Observation obs;
  obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0 + 0.1 * i);
  obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
  obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
  obs.buffer_s = 10.0;
  obs.chunks_remaining = 10;
  obs.num_levels = 4;
  return obs;
}

/// A five-stage DAG: stages with zero, one and two children.
netllm::cjs::SchedObservation cjs_observation(int i) {
  netllm::cjs::SchedObservation obs;
  const int n = 5;
  std::vector<float> features(static_cast<std::size_t>(n * obs.kNodeFeatures));
  for (std::size_t j = 0; j < features.size(); ++j) {
    features[j] = 0.05f * static_cast<float>((j * 7 + static_cast<std::size_t>(i)) % 13);
  }
  obs.node_features = Tensor::from(std::move(features), {n, obs.kNodeFeatures});
  obs.topology.num_nodes = n;
  obs.topology.children = {{}, {0}, {0, 1}, {}, {3}};
  obs.runnable_rows = {0, 3};
  obs.job_of_row = {0, 0, 0, 1, 1};
  obs.job_arrival_of_row = {0.0, 0.0, 0.0, 1.0, 1.0};
  obs.idle_executors = 4;
  obs.total_executors = 8;
  obs.jobs_in_system = 2;
  return obs;
}

}  // namespace

TEST(ServeAlloc, WarmDecisionsBuildNoTapeNodeAndStayUnderAllocationBounds) {
  nc::set_global_threads(1);
  Engine e;
  auto& engine = *e.engine;
  constexpr int kDecisions = kWarm + kCounted;

  // VP warm-prefix hit: the same raw request every time, so each drain
  // adopts the prefix the first one published.
  const auto samples = vp_samples(kDecisions + 1);
  std::vector<serve::VpRequest> hits, misses;
  for (int i = 0; i < kDecisions; ++i) {
    hits.push_back(vp_request(samples[0]));
    misses.push_back(vp_request(samples[static_cast<std::size_t>(i) + 1]));
  }
  engine.submit(vp_request(samples[0]));
  engine.run();  // publishes the prefix the hits adopt
  const auto hits_before = engine.kv_arena()->prefix_hits();
  const auto vp_hit = count([&](int i) {
    engine.submit(std::move(hits[static_cast<std::size_t>(i)]));
    engine.run();
    ASSERT_EQ(engine.vp_responses().front().meta.source, serve::Source::kLlm);
  });
  EXPECT_EQ(engine.kv_arena()->prefix_hits() - hits_before, std::uint64_t{kDecisions});
  // VP miss: a new saliency and history every time (cold prompt + prefill).
  const auto vp_miss = count([&](int i) {
    engine.submit(std::move(misses[static_cast<std::size_t>(i)]));
    engine.run();
    ASSERT_EQ(engine.vp_responses().front().meta.source, serve::Source::kLlm);
  });
  EXPECT_EQ(engine.kv_arena()->prefix_hits() - hits_before, std::uint64_t{kDecisions});
  std::vector<serve::AbrRequest> abr;
  std::vector<serve::CjsRequest> cjs;
  for (int i = 0; i < kDecisions; ++i) {
    abr.push_back({abr_observation(i)});
    cjs.push_back({cjs_observation(i)});
  }
  const auto abr_decision = count([&](int i) {
    engine.submit(std::move(abr[static_cast<std::size_t>(i)]));
    engine.run();
    ASSERT_EQ(engine.abr_responses().front().meta.source, serve::Source::kLlm);
  });
  const auto cjs_decision = count([&](int i) {
    engine.submit(std::move(cjs[static_cast<std::size_t>(i)]));
    engine.run();
    ASSERT_EQ(engine.cjs_responses().front().meta.source, serve::Source::kLlm);
  });

  EXPECT_EQ(vp_hit.tape_nodes, 0);
  EXPECT_EQ(vp_miss.tape_nodes, 0);
  EXPECT_EQ(abr_decision.tape_nodes, 0);
  EXPECT_EQ(cjs_decision.tape_nodes, 0);
  RecordProperty("vp_hit_allocations", std::to_string(vp_hit.allocations));
  RecordProperty("vp_miss_allocations", std::to_string(vp_miss.allocations));
  RecordProperty("abr_allocations", std::to_string(abr_decision.allocations));
  RecordProperty("cjs_allocations", std::to_string(cjs_decision.allocations));
  std::printf("allocations per decision: vp hit %.1f, vp miss %.1f, abr %.1f, cjs %.1f\n",
              vp_hit.allocations, vp_miss.allocations, abr_decision.allocations,
              cjs_decision.allocations);
  // Measured 19.0 / 27.2 / 22.2 / 25.5; the tape path made 209 / 932 / 242 / 606.
  // The ABR/CJS rolling context reuses a dropped step's slot storage, so its
  // cost falls once the window is full (the last 3 counted decisions here).
  EXPECT_LE(vp_hit.allocations, 24.0);
  EXPECT_LE(vp_miss.allocations, 36.0);
  EXPECT_LE(abr_decision.allocations, 23.0);
  EXPECT_LE(cjs_decision.allocations, 26.0);
}
