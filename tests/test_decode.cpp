// KV-cached decode + batched serving suite (ctest -L inference).
//
// The load-bearing claim of DESIGN.md §10 is that the cached decode path is
// the *same computation* as the uncached Fig. 2 baseline, not an
// approximation: prefill + decode_step reuse the row-wise tensor kernels
// whose accumulation order is position-independent, so logits — and
// therefore greedy token streams — must match bitwise, at any thread count.
// These tests pin that equality, the sliding-window clamp for prompts at or
// past `max_seq`, the serving engine's per-request fault isolation, and the
// graph-free m-row forward: the decode step (m = 1) is bitwise the last row
// of the Tensor-op forward and a prefill (m = T) is bitwise the whole
// forward for every dtype, LoRA setting, head width, ISA tier and thread
// count, with the same kernel counters and no intermediate nodes; NaNs still
// reach it, it builds no autograd history, and the served ABR/CJS decisions
// match digests recorded on the tape path and, under a seeded forward Throw
// storm, digests recorded with adapters that re-encoded every window.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"
#include "nn/transformer.hpp"
#include "tensor/isa.hpp"
#include "tensor/quants.hpp"

namespace ad = netllm::adapt;
namespace llm = netllm::llm;
namespace nc = netllm::core;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
namespace fault = netllm::core::fault;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

/// Restores the default global pool size when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { nc::set_global_threads(0); }
};

llm::MiniGptConfig tiny_config(std::int64_t max_seq = 48) {
  llm::MiniGptConfig cfg;
  cfg.vocab = llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = max_seq;
  return cfg;
}

std::shared_ptr<llm::MiniGpt> tiny_llm(std::uint64_t seed, std::int64_t max_seq = 48) {
  Rng rng(seed);
  return std::make_shared<llm::MiniGpt>(tiny_config(max_seq), rng);
}

std::vector<int> random_prompt(std::size_t len, Rng& rng, std::int64_t vocab) {
  std::vector<int> p(len);
  for (auto& t : p) t = static_cast<int>(rng.randint(3, vocab - 1));
  return p;
}

std::vector<float> to_vec(const Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

class Decode : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

}  // namespace

// ---------- cached vs uncached equivalence ----------

TEST_F(Decode, CachedMatchesUncachedOverRandomizedPromptsAndSeeds) {
  for (std::uint64_t seed : {1u, 9u, 33u}) {
    auto gpt = tiny_llm(seed);
    Rng rng(seed * 101 + 5);
    for (std::size_t prompt_len : {1u, 2u, 7u, 19u}) {
      const auto prompt = random_prompt(prompt_len, rng, gpt->config().vocab);
      const int max_new = static_cast<int>(rng.randint(2, 12));
      const auto uncached = gpt->generate(prompt, max_new, /*stop_token=*/-1);
      const auto cached = gpt->generate(prompt, max_new, /*stop_token=*/-1, /*use_cache=*/true);
      ASSERT_EQ(uncached, cached) << "seed=" << seed << " prompt_len=" << prompt_len;
      ASSERT_EQ(uncached.size(), static_cast<std::size_t>(max_new));
    }
  }
}

TEST_F(Decode, CachedMatchesUncachedWithStopToken) {
  auto gpt = tiny_llm(4);
  Rng rng(77);
  const auto prompt = random_prompt(5, rng, gpt->config().vocab);
  // Use the first greedily generated token as the stop token: both paths
  // must agree on the (empty) stream and on a later stop mid-stream.
  const auto ref = gpt->generate(prompt, 8, -1);
  ASSERT_FALSE(ref.empty());
  for (int stop : {ref.front(), ref.back()}) {
    EXPECT_EQ(gpt->generate(prompt, 8, stop), gpt->generate(prompt, 8, stop, true));
  }
}

TEST_F(Decode, StepLogitsBitwiseEqualFullForward) {
  auto gpt = tiny_llm(12);
  Rng rng(3);
  const auto tokens = random_prompt(10, rng, gpt->config().vocab);

  auto st = gpt->make_decode_state();
  const std::size_t prefill_len = 4;
  Tensor logits = gpt->prefill(std::span<const int>(tokens.data(), prefill_len), st);
  // Last prefill row vs full forward over the same prefix: bitwise equal.
  const auto v = static_cast<std::size_t>(gpt->config().vocab);
  {
    const auto full = gpt->forward_tokens(std::span<const int>(tokens.data(), prefill_len));
    const auto a = to_vec(logits);
    const auto b = to_vec(full);
    ASSERT_EQ(a, b);  // prefill returns the full [T, vocab] logits
  }
  // Each decode_step row vs the last row of the uncached forward over the
  // grown prefix — element-for-element float equality, no tolerance.
  for (std::size_t t = prefill_len; t < tokens.size(); ++t) {
    logits = gpt->decode_step(tokens[t], st);
    const auto full = gpt->forward_tokens(std::span<const int>(tokens.data(), t + 1));
    const auto step_row = to_vec(logits);
    const auto full_data = to_vec(full);
    ASSERT_EQ(step_row.size(), v);
    for (std::size_t j = 0; j < v; ++j) {
      ASSERT_EQ(step_row[j], full_data[t * v + j]) << "t=" << t << " j=" << j;
    }
  }
}

TEST_F(Decode, PrefillCacheEqualsTokenByTokenCache) {
  auto gpt = tiny_llm(21);
  Rng rng(13);
  const auto tokens = random_prompt(9, rng, gpt->config().vocab);

  auto st_prefill = gpt->make_decode_state();
  gpt->prefill(tokens, st_prefill);

  auto st_steps = gpt->make_decode_state();
  for (std::size_t t = 0; t < tokens.size(); ++t) gpt->decode_step(tokens[t], st_steps);

  ASSERT_EQ(st_prefill.layers.size(), st_steps.layers.size());
  ASSERT_EQ(st_prefill.len(), static_cast<std::int64_t>(tokens.size()));
  for (std::size_t l = 0; l < st_prefill.layers.size(); ++l) {
    const auto& a = st_prefill.layers[l];
    const auto& b = st_steps.layers[l];
    ASSERT_EQ(a.len, b.len);
    ASSERT_EQ(a.k(), b.k()) << "layer " << l;  // bitwise: vector<float> equality
    ASSERT_EQ(a.v(), b.v()) << "layer " << l;
  }
}

TEST_F(Decode, BitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto gpt = tiny_llm(8);
  Rng rng(91);
  const auto prompt = random_prompt(6, rng, gpt->config().vocab);

  nc::set_global_threads(1);
  const auto uncached_1 = gpt->generate(prompt, 10, -1, false);
  const auto cached_1 = gpt->generate(prompt, 10, -1, true);
  auto st1 = gpt->make_decode_state();
  const auto logits_1 = to_vec(gpt->prefill(prompt, st1));

  nc::set_global_threads(4);
  const auto uncached_4 = gpt->generate(prompt, 10, -1, false);
  const auto cached_4 = gpt->generate(prompt, 10, -1, true);
  auto st4 = gpt->make_decode_state();
  const auto logits_4 = to_vec(gpt->prefill(prompt, st4));

  EXPECT_EQ(uncached_1, cached_1);
  EXPECT_EQ(uncached_1, uncached_4);
  EXPECT_EQ(cached_1, cached_4);
  EXPECT_EQ(logits_1, logits_4);  // float-exact across pool sizes
  for (std::size_t l = 0; l < st1.layers.size(); ++l) {
    EXPECT_EQ(st1.layers[l].k(), st4.layers[l].k());
    EXPECT_EQ(st1.layers[l].v(), st4.layers[l].v());
  }
}

// ---------- sliding window (prompts at or past max_seq) ----------

TEST_F(Decode, LongPromptClampsToSlidingWindow) {
  auto gpt = tiny_llm(5, /*max_seq=*/16);
  Rng rng(55);
  const auto long_prompt = random_prompt(40, rng, gpt->config().vocab);  // >> max_seq
  const std::vector<int> tail(long_prompt.end() - 16, long_prompt.end());

  // Used to walk past pos_embed_ (or return {}); now both paths serve the
  // window of the last max_seq tokens and agree with the explicit tail.
  const auto uncached = gpt->generate(long_prompt, 5, -1, false);
  const auto cached = gpt->generate(long_prompt, 5, -1, true);
  ASSERT_EQ(uncached.size(), 5u);
  EXPECT_EQ(uncached, cached);
  EXPECT_EQ(uncached, gpt->generate(tail, 5, -1, false));
}

TEST_F(Decode, GenerationSlidesAcrossTheContextBoundary) {
  auto gpt = tiny_llm(6, /*max_seq=*/12);
  Rng rng(19);
  // Prompt nearly fills the context; generation must cross max_seq and keep
  // going (the pre-fix code stopped dead at the boundary).
  const auto prompt = random_prompt(10, rng, gpt->config().vocab);
  const int max_new = 8;  // crosses 12 two tokens in
  const auto uncached = gpt->generate(prompt, max_new, -1, false);
  const auto cached = gpt->generate(prompt, max_new, -1, true);
  ASSERT_EQ(uncached.size(), static_cast<std::size_t>(max_new));
  EXPECT_EQ(uncached, cached);
}

TEST_F(Decode, DecodeStepThrowsWhenCacheFull) {
  auto gpt = tiny_llm(2, /*max_seq=*/8);
  Rng rng(1);
  const auto tokens = random_prompt(8, rng, gpt->config().vocab);
  auto st = gpt->make_decode_state();
  gpt->prefill(tokens, st);
  EXPECT_THROW(gpt->decode_step(3, st), std::invalid_argument);
  // generate() handles the same boundary internally via the sliding window.
  EXPECT_EQ(gpt->generate(tokens, 3, -1, true).size(), 3u);
}

// ---------- batched serving engine ----------

namespace {

serve::VpRequest vp_request(const vp::VpSample& sample, int horizon = 4) {
  return {sample.history, sample.saliency, horizon};
}

std::vector<vp::VpSample> vp_samples(int n) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, n);
}

std::shared_ptr<ad::VpAdapter> vp_adapter(std::uint64_t seed = 1) {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  Rng rng(seed);
  return std::make_shared<ad::VpAdapter>(tiny_llm(seed, 112), cfg, rng);
}

}  // namespace

TEST_F(Decode, EngineBatchMatchesIndividualPredictions) {
  auto adapter = vp_adapter();
  auto engine = ad::api::Serve(adapter);
  const auto samples = vp_samples(6);
  for (const auto& s : samples) engine->submit(vp_request(s));
  EXPECT_EQ(engine->pending(), samples.size());

  const auto report = engine->run();
  EXPECT_EQ(engine->pending(), 0u);
  EXPECT_EQ(report.requests, samples.size());
  EXPECT_EQ(report.llm, samples.size());
  EXPECT_EQ(report.fallback, 0u);
  EXPECT_GE(report.p99_ms, report.p50_ms);

  ASSERT_EQ(engine->vp_responses().size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& resp = engine->vp_responses()[i];
    EXPECT_EQ(resp.meta.source, serve::Source::kLlm);
    const auto direct = adapter->predict(samples[i].history, samples[i].saliency, 4);
    ASSERT_EQ(resp.viewports.size(), direct.size());
    for (std::size_t j = 0; j < direct.size(); ++j) {
      // Bitwise: the batched request ran the identical serial computation.
      EXPECT_EQ(resp.viewports[j].roll, direct[j].roll);
      EXPECT_EQ(resp.viewports[j].pitch, direct[j].pitch);
      EXPECT_EQ(resp.viewports[j].yaw, direct[j].yaw);
    }
  }
}

TEST_F(Decode, EngineBatchBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto samples = vp_samples(5);
  auto run_at = [&](int threads) {
    nc::set_global_threads(threads);
    auto engine = ad::api::Serve(vp_adapter(3));
    for (const auto& s : samples) engine->submit(vp_request(s));
    engine->run();
    return engine->vp_responses();
  };
  const auto serial = run_at(1);
  const auto threaded = run_at(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].viewports.size(), threaded[i].viewports.size());
    for (std::size_t j = 0; j < serial[i].viewports.size(); ++j) {
      EXPECT_EQ(serial[i].viewports[j].roll, threaded[i].viewports[j].roll);
      EXPECT_EQ(serial[i].viewports[j].pitch, threaded[i].viewports[j].pitch);
      EXPECT_EQ(serial[i].viewports[j].yaw, threaded[i].viewports[j].yaw);
    }
  }
}

TEST_F(Decode, EngineRoutesMixedBatchAcrossAllThreeTasks) {
  auto engine = ad::api::Serve(std::make_shared<netllm::baselines::LinearRegressionVp>(),
                               std::make_shared<netllm::baselines::Bba>(),
                               std::make_shared<netllm::baselines::FifoScheduler>());
  const auto samples = vp_samples(2);
  engine->submit(vp_request(samples[0]));
  engine->submit(vp_request(samples[1]));

  netllm::abr::Observation obs;
  obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0);
  obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
  obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
  obs.buffer_s = 10.0;
  obs.chunks_remaining = 10;
  obs.num_levels = 4;
  engine->submit(serve::AbrRequest{obs});

  netllm::cjs::SchedObservation sobs;
  sobs.node_features = Tensor::zeros({2, netllm::cjs::SchedObservation::kNodeFeatures});
  sobs.topology.num_nodes = 2;
  sobs.topology.children = {{}, {}};
  sobs.runnable_rows = {0, 1};
  sobs.job_of_row = {0, 1};
  sobs.job_arrival_of_row = {0.0, 1.0};
  sobs.idle_executors = 4;
  sobs.total_executors = 8;
  engine->submit(serve::CjsRequest{sobs});

  const auto report = engine->run();
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.llm, 4u);
  ASSERT_EQ(engine->abr_responses().size(), 1u);
  const int level = engine->abr_responses()[0].level;
  EXPECT_GE(level, 0);
  EXPECT_LT(level, 4);
  ASSERT_EQ(engine->cjs_responses().size(), 1u);
  EXPECT_EQ(engine->cjs_responses()[0].action.runnable_index, 0);  // FIFO: earliest arrival
}

TEST_F(Decode, MidBatchFaultDegradesOneRequestWithoutPoisoningTheRest) {
  ThreadGuard guard;
  nc::set_global_threads(1);  // deterministic order: jobs run in submit order
  netllm::core::metrics::reset();
  auto adapter = vp_adapter(7);
  auto engine = ad::api::Serve(adapter);
  const auto samples = vp_samples(4);
  for (const auto& s : samples) engine->submit(vp_request(s));

  // Fire exactly on the second request's guarded region.
  fault::arm("serve.batch", {.kind = fault::FaultKind::Throw, .after = 1, .times = 1});
  const auto report = engine->run();

  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.llm, 3u);
  EXPECT_EQ(report.fallback, 1u);
  const auto counters = engine->counters();
  EXPECT_EQ(counters.fail_exception, 1);
  EXPECT_EQ(counters.llm_ok, 3);
  EXPECT_EQ(counters.fallback, 1);
  EXPECT_EQ(netllm::core::metrics::counter("serve.vp.fallback").value(), 1);

  ASSERT_EQ(engine->vp_responses().size(), 4u);
  EXPECT_EQ(engine->vp_responses()[1].meta.source, serve::Source::kFallback);
  for (std::size_t i : {0u, 2u, 3u}) {
    const auto& resp = engine->vp_responses()[i];
    EXPECT_EQ(resp.meta.source, serve::Source::kLlm) << "request " << i;
    // Untouched requests still serve the exact LLM-path answer.
    const auto direct = adapter->predict(samples[i].history, samples[i].saliency, 4);
    ASSERT_EQ(resp.viewports.size(), direct.size());
    for (std::size_t j = 0; j < direct.size(); ++j) {
      EXPECT_EQ(resp.viewports[j].yaw, direct[j].yaw);
    }
  }
  // The degraded request still got a *valid* answer (the LR baseline).
  ASSERT_EQ(engine->vp_responses()[1].viewports.size(), 4u);
}

TEST_F(Decode, EngineBreakerOpensUnderSustainedFaults) {
  ThreadGuard guard;
  nc::set_global_threads(1);
  auto engine = ad::api::Serve(vp_adapter(11));
  const auto samples = vp_samples(1);

  fault::arm("serve.batch", {.kind = fault::FaultKind::Throw, .times = -1});
  // breaker_threshold=3 consecutive exceptions open the breaker; the
  // following requests are served by the fallback without touching the LLM.
  for (int i = 0; i < 5; ++i) engine->submit(vp_request(samples[0]));
  const auto report = engine->run();
  EXPECT_EQ(report.fallback, 5u);
  EXPECT_EQ(report.llm, 0u);
  const auto counters = engine->counters();
  EXPECT_EQ(counters.breaker_trips, 1);
  EXPECT_EQ(counters.fail_exception, 3);  // 3 probes, then the breaker served
}

TEST_F(Decode, EngineRejectsRequestsForMissingModels) {
  auto engine = ad::api::Serve(std::make_shared<netllm::baselines::LinearRegressionVp>());
  EXPECT_THROW(engine->submit(serve::AbrRequest{}), std::invalid_argument);
  EXPECT_THROW(engine->submit(serve::CjsRequest{}), std::invalid_argument);
  EXPECT_THROW(ad::api::Serve(nullptr), std::invalid_argument);
}

// ---------- graph-free m-row forward ----------

namespace {

namespace nn = netllm::nn;
namespace nq = netllm::tensor::quant;
namespace isa = netllm::tensor::isa;

/// Restores the environment-resolved ISA tier when a test exits.
struct IsaGuard {
  ~IsaGuard() { isa::reset_active_isa(); }
};

std::vector<std::uint32_t> bits(std::span<const float> xs) {
  std::vector<std::uint32_t> out;
  out.reserve(xs.size());
  for (float x : xs) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

std::vector<std::uint32_t> row_bits(const Tensor& t, std::int64_t row) {
  const auto d = static_cast<std::size_t>(t.dim(1));
  return bits(t.data().subspan(static_cast<std::size_t>(row) * d, d));
}

Tensor random_rows(std::int64_t rows, std::int64_t d, Rng& rng) {
  std::vector<float> data(static_cast<std::size_t>(rows * d));
  for (auto& x : data) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return Tensor::from(std::move(data), {rows, d});
}

/// Random nonzero values in every low-rank matrix, so B != 0 and the LoRA
/// delta actually reaches the output.
void randomize(const std::vector<Tensor>& lora, Rng& rng) {
  for (auto t : lora) {
    for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-0.3, 0.3));
  }
}

const nq::Dtype kDtypes[] = {nq::Dtype::kF32, nq::Dtype::kQ8_0, nq::Dtype::kQ4_0};

/// A causal two-head block with d_head-wide heads, optionally LoRA-wrapped
/// and quantized like a served backbone.
nn::TransformerBlock make_block(std::int64_t d_head, nq::Dtype dtype, bool lora, Rng& rng) {
  const auto d = 2 * d_head;
  nn::TransformerBlock block(d, 2, 2 * d, /*causal=*/true, rng);
  if (lora) randomize(block.enable_lora(2, 4.0f, rng), rng);
  if (dtype != nq::Dtype::kF32) {
    for (const auto& l : block.projection_linears()) l->set_weight_dtype(dtype);
  }
  return block;
}

}  // namespace

TEST_F(Decode, GraphFreeStepBitwiseEqualsFullForwardAcrossDtypesLoraHeadsTiersAndThreads) {
  ThreadGuard threads;
  IsaGuard tier;
  const std::int64_t positions = 12, prefill_len = 5;
  for (const auto t : {isa::Isa::kScalar, isa::best_isa()}) {
    isa::set_active_isa(t);
    for (const int n_threads : {1, 3}) {
      nc::set_global_threads(n_threads);
      for (const std::int64_t d_head : {8, 16, 64}) {
        for (const auto dtype : kDtypes) {
          for (const bool lora : {false, true}) {
            const auto where = std::string(isa::isa_name(t)) + " threads=" +
                               std::to_string(n_threads) + " d_head=" + std::to_string(d_head) +
                               " " + nq::dtype_name(dtype) + (lora ? " lora" : "");
            Rng rng(static_cast<std::uint64_t>(d_head) * 7 + (lora ? 1 : 0));
            const auto block = make_block(d_head, dtype, lora, rng);
            const auto x = random_rows(positions, 2 * d_head, rng);
            // Cache A is built by steps alone, cache B by an m-row prefill of
            // the first rows then steps (the VP rollout's shape), cache C by
            // that prefill then one m-row pass over the remaining rows.
            nn::KvCache by_steps, by_prefill, by_chunks;
            const auto d = 2 * d_head;
            const auto head = x.data().subspan(0, static_cast<std::size_t>(prefill_len * d));
            const auto tail = x.data().subspan(head.size());
            std::vector<float> out(static_cast<std::size_t>(positions * d));
            const auto out_head = std::span<float>(out).subspan(0, head.size());
            const auto out_tail = std::span<float>(out).subspan(head.size());
            block.forward_rows(head, prefill_len, &by_prefill, out_head);
            block.forward_rows(head, prefill_len, &by_chunks, out_head);
            block.forward_rows(tail, positions - prefill_len, &by_chunks, out_tail);
            ASSERT_EQ(bits(out), bits(block.forward(x).data())) << where << " m-row chunks";
            for (std::int64_t p = 0; p < positions; ++p) {
              const auto row = netllm::tensor::slice_rows(x, p, 1);
              const auto full = block.forward(netllm::tensor::slice_rows(x, 0, p + 1));
              const auto want = row_bits(full, p);
              ASSERT_EQ(bits(block.forward_step(row, by_steps).data()), want)
                  << where << " p=" << p;
              if (p >= prefill_len) {
                ASSERT_EQ(bits(block.forward_step(row, by_prefill).data()), want)
                    << where << " p=" << p << " after prefill";
              }
            }
            ASSERT_EQ(bits(by_steps.k()), bits(by_prefill.k())) << where;
            ASSERT_EQ(bits(by_steps.v()), bits(by_prefill.v())) << where;
            ASSERT_EQ(bits(by_steps.k()), bits(by_chunks.k())) << where;
            ASSERT_EQ(bits(by_steps.v()), bits(by_chunks.v())) << where;
          }
        }
      }
    }
  }
}

TEST_F(Decode, EmbeddingsStepBitwiseEqualsFullForwardAtEveryPositionUpToMaxSeq) {
  ThreadGuard threads;
  IsaGuard tier;
  const std::int64_t max_seq = 24;
  for (const auto t : {isa::Isa::kScalar, isa::best_isa()}) {
    isa::set_active_isa(t);
    for (const int n_threads : {1, 3}) {
      nc::set_global_threads(n_threads);
      for (const auto dtype : kDtypes) {
        auto gpt = tiny_llm(31, max_seq);
        Rng rng(57);
        randomize(gpt->enable_lora(2, 4.0f, rng), rng);
        gpt->quantize_backbone(dtype);
        const auto d = gpt->config().d_model;
        const auto x = random_rows(max_seq, d, rng);
        const auto full = gpt->forward_embeddings(x);  // causal: row p sees rows 0..p
        std::vector<nn::KvCache> layers(static_cast<std::size_t>(gpt->config().n_layers));
        const auto first = gpt->prefill_embeddings(netllm::tensor::slice_rows(x, 0, 1), layers);
        ASSERT_EQ(row_bits(first, 0), row_bits(full, 0));
        for (std::int64_t p = 1; p < max_seq; ++p) {
          const auto step = gpt->embeddings_step(netllm::tensor::slice_rows(x, p, 1), layers);
          ASSERT_EQ(bits(step.data()), row_bits(full, p))
              << isa::isa_name(t) << " threads=" << n_threads << " " << nq::dtype_name(dtype)
              << " p=" << p;
        }
        EXPECT_THROW(gpt->embeddings_step(netllm::tensor::slice_rows(x, 0, 1), layers),
                     std::invalid_argument);  // the cache is full at max_seq
      }
    }
  }
}

namespace {

/// A two-head backbone with d_head-wide heads and max_seq 98 (the longest
/// CJS window), LoRA off or on with nonzero B, quantized to `dtype`.
std::shared_ptr<llm::MiniGpt> mrow_llm(std::int64_t d_head, nq::Dtype dtype, bool lora,
                                       Rng& rng) {
  auto cfg = tiny_config(/*max_seq=*/98);
  cfg.d_model = 2 * d_head;
  cfg.d_ff = 4 * d_head;
  auto gpt = std::make_shared<llm::MiniGpt>(cfg, rng);
  if (lora) randomize(gpt->enable_lora(2, 4.0f, rng), rng);
  gpt->quantize_backbone(dtype);
  return gpt;
}

std::vector<nn::KvCache> caches_for(const llm::MiniGpt& gpt) {
  return std::vector<nn::KvCache>(static_cast<std::size_t>(gpt.config().n_layers));
}

}  // namespace

TEST_F(Decode, GraphFreePrefillBitwiseEqualsForwardEmbeddingsAcrossShapesAndCaches) {
  ThreadGuard threads;
  IsaGuard tier;
  for (const auto t : {isa::Isa::kScalar, isa::best_isa()}) {
    isa::set_active_isa(t);
    for (const int n_threads : {1, 3}) {
      nc::set_global_threads(n_threads);
      for (const std::int64_t d_head : {8, 16, 64}) {
        for (const auto dtype : kDtypes) {
          for (const bool lora : {false, true}) {
            Rng rng(static_cast<std::uint64_t>(d_head) * 11 + (lora ? 1 : 0));
            const auto gpt = mrow_llm(d_head, dtype, lora, rng);
            const auto max_seq = gpt->config().max_seq;
            const auto x = random_rows(max_seq, gpt->config().d_model, rng);
            for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{2}, std::int64_t{11},
                                            std::int64_t{59}, max_seq}) {
              const auto where = std::string(isa::isa_name(t)) + " threads=" +
                                 std::to_string(n_threads) + " d_head=" +
                                 std::to_string(d_head) + " " + nq::dtype_name(dtype) +
                                 (lora ? " lora" : "") + " T=" + std::to_string(rows);
              const auto seq = netllm::tensor::slice_rows(x, 0, rows);
              const auto want = bits(gpt->forward_embeddings(seq).data());
              ASSERT_EQ(bits(gpt->prefill_embeddings(seq, {}).data()), want) << where;
              auto captured = caches_for(*gpt);
              ASSERT_EQ(bits(gpt->prefill_embeddings(seq, captured).data()), want) << where;
              // The captured K/V rows are the rows step-by-step decoding appends.
              auto stepped = caches_for(*gpt);
              (void)gpt->prefill_embeddings(netllm::tensor::slice_rows(x, 0, 1), stepped);
              for (std::int64_t p = 1; p < rows; ++p) {
                (void)gpt->embeddings_step(netllm::tensor::slice_rows(x, p, 1), stepped);
              }
              for (std::size_t l = 0; l < captured.size(); ++l) {
                ASSERT_EQ(captured[l].len, rows) << where;
                ASSERT_EQ(bits(captured[l].k()), bits(stepped[l].k())) << where << " layer " << l;
                ASSERT_EQ(bits(captured[l].v()), bits(stepped[l].v())) << where << " layer " << l;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(Decode, GraphFreePrefillMatchesTapeKernelCounters) {
  namespace metrics = netllm::core::metrics;
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const char* names[] = {"kernels.matmul.calls",  "kernels.matmul.flops",
                         "kernels.matmul.bytes",  "kernels.qmatmul.calls",
                         "kernels.qmatmul.flops", "kernels.qmatmul.bytes"};
  const auto snapshot = [&] {
    std::vector<std::int64_t> v;
    for (const char* n : names) v.push_back(metrics::counter(n).value());
    return v;
  };
  const auto delta = [&](auto&& pass) {
    const auto before = snapshot();
    pass();
    auto after = snapshot();
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };
  for (const auto dtype : kDtypes) {
    Rng rng(19);
    const auto gpt = mrow_llm(16, dtype, /*lora=*/true, rng);
    const auto x = random_rows(59, gpt->config().d_model, rng);
    const auto tape = delta([&] { (void)gpt->forward_embeddings(x); });
    const auto graph_free = delta([&] { (void)gpt->prefill_embeddings(x, {}); });
    EXPECT_EQ(tape, graph_free) << nq::dtype_name(dtype);
    EXPECT_GT(tape[0], 0) << nq::dtype_name(dtype);
    if (dtype != nq::Dtype::kF32) {
      EXPECT_GT(tape[3], 0) << nq::dtype_name(dtype);
    }
  }
  metrics::set_enabled(was_enabled);
}

TEST_F(Decode, GraphFreePrefillHoldsOnlyItsReturnedTensor) {
  Rng rng(23);
  const auto gpt = mrow_llm(8, nq::Dtype::kF32, /*lora=*/true, rng);
  const auto rows = gpt->config().max_seq, d = gpt->config().d_model;
  const auto x = random_rows(rows, d, rng);
  (void)gpt->prefill_embeddings(x, {});  // warm the per-thread rows
  const auto live = netllm::tensor::live_float_count();
  netllm::tensor::reset_peak_float_count();
  (void)gpt->prefill_embeddings(x, {});
  EXPECT_LE(netllm::tensor::peak_float_count() - live, rows * d);
  // The tape forward holds every intermediate node until it returns.
  netllm::tensor::reset_peak_float_count();
  (void)gpt->forward_embeddings(x);
  EXPECT_GT(netllm::tensor::peak_float_count() - live, 10 * rows * d);
}

TEST_F(Decode, NanInALoraWeightReachesAnAbrDecisionAndFallsBack) {
  Rng rng(29);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto gpt = tiny_llm(17, 112);
  auto adapter = std::make_shared<ad::AbrAdapter>(gpt, cfg, rng);
  auto lora = gpt->lora_parameters();
  ASSERT_FALSE(lora.empty());
  lora.front().mutable_data()[0] = std::numeric_limits<float>::quiet_NaN();  // B is still zero
  auto guarded = ad::api::Guard(std::static_pointer_cast<netllm::abr::AbrPolicy>(adapter));
  auto setting = netllm::abr::abr_default_test();
  setting.num_traces = 1;
  const auto qoe = netllm::abr::evaluate_qoe(*guarded, netllm::abr::video_for(setting),
                                             netllm::abr::traces_for(setting));
  EXPECT_EQ(qoe.size(), 1u);  // the session finished on valid levels
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, c.decisions());
  EXPECT_GE(c.fail_exception, 1);
}

TEST_F(Decode, GraphFreeStepPropagatesNanFromLoraWeightsAndCachedRows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto any_nan = [](const Tensor& y) {
    for (float v : y.data()) {
      if (std::isnan(v)) return true;
    }
    return false;
  };
  for (const auto dtype : kDtypes) {
    Rng rng(5);
    auto block = make_block(8, dtype, /*lora=*/false, rng);
    auto lora = block.enable_lora(2, 4.0f, rng);
    const auto x = random_rows(4, 16, rng);

    // A cached K row poisoned after the prefill: the step's scores read it.
    nn::KvCache clean;
    (void)block.forward(netllm::tensor::slice_rows(x, 0, 3), &clean);
    nn::KvCache poisoned;
    for (std::int64_t r = 0; r < clean.len; ++r) {
      std::vector<float> k(clean.k().begin() + r * 16, clean.k().begin() + (r + 1) * 16);
      const std::vector<float> v(clean.v().begin() + r * 16, clean.v().begin() + (r + 1) * 16);
      if (r == 1) k[3] = nan;
      poisoned.append(k, v);
    }
    const auto row = netllm::tensor::slice_rows(x, 3, 1);
    EXPECT_FALSE(any_nan(block.forward_step(row, clean))) << nq::dtype_name(dtype);
    EXPECT_TRUE(any_nan(block.forward_step(row, poisoned))) << nq::dtype_name(dtype);

    // One NaN in a LoRA matrix (B starts at zero, and 0 * NaN is NaN).
    lora.front().mutable_data()[0] = nan;
    nn::KvCache cache;
    EXPECT_TRUE(any_nan(block.forward_step(row, cache))) << nq::dtype_name(dtype);
  }
}

TEST_F(Decode, PoisonedLoraWeightFallsBackThroughTheServeGuard) {
  const auto samples = vp_samples(3);
  auto adapter = vp_adapter(5);
  auto lora = adapter->llm().lora_parameters();
  ASSERT_FALSE(lora.empty());
  lora.back().mutable_data()[0] = std::numeric_limits<float>::quiet_NaN();
  auto engine = ad::api::Serve(adapter);
  for (const auto& s : samples) engine->submit(vp_request(s));
  const auto report = engine->run();
  EXPECT_EQ(report.llm + report.retried, 0u);
  EXPECT_EQ(report.fallback, samples.size());
  for (const auto& r : engine->vp_responses()) {
    EXPECT_EQ(r.meta.source, serve::Source::kFallback);
    for (const auto& v : r.viewports) {
      EXPECT_TRUE(std::isfinite(v.roll) && std::isfinite(v.pitch) && std::isfinite(v.yaw));
    }
  }
}

TEST_F(Decode, GraphFreeStepReturnsALeafWithoutHistory) {
  Rng rng(3);
  const auto block = make_block(8, nq::Dtype::kF32, /*lora=*/true, rng);
  nn::MultiHeadAttention attn(16, 2, /*causal=*/true, rng);
  randomize(attn.enable_lora(2, 4.0f, rng), rng);
  // Even with a grad-requiring input and trainable LoRA matrices, the step
  // returns a bare row: no parents, no backward closure, no gradient.
  auto row = random_rows(1, 16, rng);
  row = Tensor::from({row.data().begin(), row.data().end()}, {1, 16}, /*requires_grad=*/true);
  nn::KvCache block_cache, attn_cache;
  for (int p = 0; p < 3; ++p) {
    for (const auto& y : {block.forward_step(row, block_cache), attn.forward_step(row, attn_cache)}) {
      EXPECT_EQ(y.shape(), (netllm::tensor::Shape{1, 16}));
      EXPECT_TRUE(y.node()->parents.empty());
      EXPECT_FALSE(y.node()->backward);
      EXPECT_FALSE(y.requires_grad());
    }
  }
  EXPECT_EQ(block_cache.len, 3);
  EXPECT_EQ(attn_cache.len, 3);
  EXPECT_THROW(block.forward_step(random_rows(2, 16, rng), block_cache), std::invalid_argument);
  EXPECT_THROW(attn.forward_step(random_rows(1, 8, rng), attn_cache), std::invalid_argument);
}

// ---------- served ABR/CJS decisions ----------

namespace {

namespace abr = netllm::abr;
namespace cjs = netllm::cjs;

/// FNV-1a over a stream of decisions.
struct Digest {
  std::uint64_t hash = 14695981039346656037ull;
  int count = 0;
  std::vector<int> seen;
  void add(int v) {
    hash = (hash ^ static_cast<std::uint32_t>(v)) * 1099511628211ull;
    ++count;
    seen.push_back(v);
  }
  std::size_t distinct() const {
    std::vector<int> s = seen;
    std::sort(s.begin(), s.end());
    return static_cast<std::size_t>(std::unique(s.begin(), s.end()) - s.begin());
  }
};

/// Forwards every call to the wrapped policy and digests its decisions.
class RecordingAbr final : public abr::AbrPolicy {
 public:
  RecordingAbr(abr::AbrPolicy& inner, Digest& digest) : inner_(inner), digest_(digest) {}
  std::string name() const override { return inner_.name(); }
  void begin_session() override { inner_.begin_session(); }
  int choose_level(const abr::Observation& obs) override {
    const int level = inner_.choose_level(obs);
    digest_.add(level);
    return level;
  }
  void observe_result(const abr::ChunkResult& r, double qoe) override {
    inner_.observe_result(r, qoe);
  }

 private:
  abr::AbrPolicy& inner_;
  Digest& digest_;
};

class RecordingCjs final : public cjs::SchedPolicy {
 public:
  RecordingCjs(cjs::SchedPolicy& inner, Digest& digest) : inner_(inner), digest_(digest) {}
  std::string name() const override { return inner_.name(); }
  void begin_episode() override { inner_.begin_episode(); }
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override {
    const auto action = inner_.choose(obs);
    digest_.add(action.runnable_index * 16 + action.cap_choice);
    return action;
  }
  void observe_reward(double reward) override { inner_.observe_reward(reward); }

 private:
  cjs::SchedPolicy& inner_;
  Digest& digest_;
};

/// Every trainable adapter parameter (encoders, LoRA, heads) uniform in
/// [-2, 2]: wide enough that the decisions spread over several levels and
/// actions and depend on the backbone's output.
void spread(const std::vector<Tensor>& params, Rng& rng) {
  for (auto t : params) {
    for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

/// What a served run adds to the pinned one: more ABR sessions and CJS job
/// requests, and each adapter behind a guard whose breaker never opens, so a
/// decision that throws falls back and the next one still reaches the
/// adapter, whose context keeps the thrown step with its default action.
struct ServedRun {
  int abr_traces = 3;
  int cjs_jobs = 8;
  bool guarded = false;
};

/// ABR levels over seeded test sessions and CJS actions over one seeded
/// episode, served by adapters with spread parameters.
std::pair<Digest, Digest> served_decisions(nq::Dtype dtype, const ServedRun& run = {}) {
  Digest abr_digest, cjs_digest;
  ad::GuardConfig guard;
  guard.breaker_threshold = std::numeric_limits<int>::max();
  {
    Rng rng(41);
    ad::AbrAdapterConfig cfg;
    cfg.lora_rank = 2;
    auto gpt = tiny_llm(43, 112);
    auto adapter = std::make_shared<ad::AbrAdapter>(gpt, cfg, rng);
    spread(adapter->trainable_parameters(), rng);
    gpt->quantize_backbone(dtype);
    auto setting = abr::abr_default_test();
    setting.num_traces = run.abr_traces;
    std::shared_ptr<abr::AbrPolicy> policy = adapter;
    if (run.guarded) policy = ad::api::Guard(policy, guard);
    RecordingAbr recording(*policy, abr_digest);
    (void)abr::evaluate_qoe(recording, abr::video_for(setting), abr::traces_for(setting));
  }
  {
    Rng rng(47);
    ad::CjsAdapterConfig cfg;
    cfg.lora_rank = 2;
    auto gpt = tiny_llm(53, 112);
    auto adapter = std::make_shared<ad::CjsAdapter>(gpt, cfg, rng);
    spread(adapter->trainable_parameters(), rng);
    gpt->quantize_backbone(dtype);
    cjs::WorkloadConfig wl;
    wl.num_job_requests = run.cjs_jobs;
    wl.executor_units_k = 6;
    wl.scale = 1.0;
    wl.seed = 5;
    std::shared_ptr<cjs::SchedPolicy> policy = adapter;
    if (run.guarded) policy = ad::api::Guard(policy, guard);
    RecordingCjs recording(*policy, cjs_digest);
    (void)cjs::run_workload(wl, recording);
  }
  return {abr_digest, cjs_digest};
}

}  // namespace

// The ABR and CJS adapters serve through the graph-free prefill_embeddings;
// they used to serve through the tape's forward_embeddings. These digests
// were recorded on the tape path and must not move. The scalar tier pins
// them: fp32 kernels at other tiers agree only within a tolerance.
TEST_F(Decode, ServedAbrAndCjsDecisionsMatchPinnedDigests) {
  ThreadGuard threads;
  IsaGuard tier;
  isa::set_active_isa(isa::Isa::kScalar);
  struct Pinned {
    nq::Dtype dtype;
    int abr_count;
    std::uint64_t abr_hash;
    int cjs_count;
    std::uint64_t cjs_hash;
  };
  const Pinned pinned[] = {
      {nq::Dtype::kF32, 144, 0xd85b2e7d128650dfull, 86, 0x0ddd2e4bbcdca087ull},
      {nq::Dtype::kQ8_0, 144, 0x50f538ce990b6e95ull, 89, 0x4f12327a376de0baull},
  };
  for (const int n_threads : {1, 3}) {
    nc::set_global_threads(n_threads);
    for (const auto& p : pinned) {
      const auto [abr_d, cjs_d] = served_decisions(p.dtype);
      const auto where = std::string(nq::dtype_name(p.dtype)) + " threads=" +
                         std::to_string(n_threads);
      EXPECT_EQ(abr_d.count, p.abr_count) << where;
      EXPECT_EQ(abr_d.hash, p.abr_hash) << where;
      EXPECT_EQ(cjs_d.count, p.cjs_count) << where;
      EXPECT_EQ(cjs_d.hash, p.cjs_hash) << where;
      EXPECT_GE(abr_d.distinct(), 3u) << where;
      EXPECT_GE(cjs_d.distinct(), 3u) << where;
    }
  }
}

// A seeded llm.forward Throw storm over the guarded adapters: a decision
// that throws leaves its step in the rolling context with the default
// action, which every later decision in the window encodes. The adapters
// keep each step's encoded token rows between decisions; these digests were
// recorded with adapters that re-encode the whole window every decision, so
// the cached rows must reproduce them, including the thrown steps' actions.
TEST_F(Decode, ServedDecisionsUnderAForwardThrowStormMatchPinnedDigests) {
  ThreadGuard threads;
  IsaGuard tier;
  isa::set_active_isa(isa::Isa::kScalar);
  struct Pinned {
    nq::Dtype dtype;
    int abr_count;
    std::uint64_t abr_hash;
    int cjs_count;
    std::uint64_t cjs_hash;
    int throws;
  };
  // Unstormed, the two dtypes part on a few borderline ABR steps; under this
  // storm they happen to agree.
  const Pinned pinned[] = {
      {nq::Dtype::kF32, 432, 0xefe3e1bc0f4cfbefull, 252, 0x9f51211c9ecbbc59ull, 67},
      {nq::Dtype::kQ8_0, 432, 0xefe3e1bc0f4cfbefull, 252, 0x9f51211c9ecbbc59ull, 67},
  };
  ServedRun run;
  run.abr_traces = 9;
  run.cjs_jobs = 20;
  run.guarded = true;
  for (const int n_threads : {1, 3}) {
    nc::set_global_threads(n_threads);
    for (const auto& p : pinned) {
      fault::Scope scope;
      fault::StormPlan storm;
      storm.seed = 2027;
      storm.sites.push_back({"llm.forward", fault::FaultKind::Throw, 0.1, 1, 0.0});
      fault::arm_storm(storm);
      const auto [abr_d, cjs_d] = served_decisions(p.dtype, run);
      const auto where = std::string(nq::dtype_name(p.dtype)) + " threads=" +
                         std::to_string(n_threads);
      EXPECT_EQ(fault::fired("llm.forward"), p.throws) << where;
      EXPECT_EQ(abr_d.count, p.abr_count) << where;
      EXPECT_EQ(abr_d.hash, p.abr_hash) << where;
      EXPECT_EQ(cjs_d.count, p.cjs_count) << where;
      EXPECT_EQ(cjs_d.hash, p.cjs_hash) << where;
      EXPECT_GE(abr_d.count, 400) << where;
      EXPECT_GE(cjs_d.count, 200) << where;
      EXPECT_GE(abr_d.distinct(), 3u) << where;
      EXPECT_GE(cjs_d.distinct(), 3u) << where;
    }
  }
}
