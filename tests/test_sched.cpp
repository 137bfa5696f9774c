// Continuous-batching scheduler + pooled KV arena suite (ctest -L sched),
// DESIGN.md §13.
//
// Pinned claims:
//   - the KV-cached VpAdapter rollout is bitwise the legacy re-forward loop
//     (predict_uncached), at any NETLLM_THREADS,
//   - MiniGpt's embedding-path prefill/step pair reproduces the full forward
//     row-for-row, float-exact,
//   - the run-loop scheduler (bounded in-flight slots pulling jobs in
//     priority-then-admission order) serves every request bitwise identical
//     to the sequential drain, at any thread count,
//   - arena exhaustion is a deterministic shed-to-fallback, never an escaped
//     exception, and leases recycle so a serial drain fits a one-lease budget,
//   - a warm prefix hit serves the same floats as a cold prefill,
//   - tickets resolve continuously: a finished request's response is readable
//     while the batch is still draining, and unfinished/stale tickets throw,
//   - the KvCache bugfix sweep: clear() forgets the width, reserve() pins the
//     allocation, and Block admission wakes by notification, not by polling,
//   - a lease or publish that cannot fit even with the warm set empty leaves
//     the warm set intact,
//   - step-level batching: every member of a lockstep VP group is bitwise
//     predict_uncached across group sizes, history lengths, horizons, warm
//     hits, cold misses, intra-group duplicates, dtypes, LoRA, ISA tiers
//     and thread counts; a fault on one member degrades that member only; a
//     breaker trip mid-group matches serving one drain each; the arena
//     budget and the latency budget bound the group; and a group of B cold
//     requests makes the kernel calls of one request and B times its flops,
//   - encode once: after a mid-session ABR adapt() or a mid-episode CJS
//     set_return_scale(), the next decisions equal those of a fresh adapter
//     replaying the same raw steps; a warm VP prefix keyed on the raw
//     request serves bitwise the uncached answer, one flipped history bit
//     misses, adapt() empties the warm set and a NaN saliency never
//     publishes.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/threadpool.hpp"
#include "envs/abr/policy.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"
#include "nn/transformer.hpp"
#include "tensor/isa.hpp"
#include "tensor/quants.hpp"

namespace ad = netllm::adapt;
namespace llm = netllm::llm;
namespace nc = netllm::core;
namespace nm = netllm::core::metrics;
namespace nn = netllm::nn;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

class Sched : public ::testing::Test {
 protected:
  void SetUp() override {
    nm::set_enabled(true);
    nm::reset();
    netllm::core::fault::disarm_all();
    nc::clear_stop();
  }
  void TearDown() override {
    netllm::core::fault::disarm_all();
    nc::clear_stop();
    nm::reset();
    nc::set_global_threads(0);
  }
};

llm::MiniGptConfig tiny_config(std::int64_t max_seq = 112) {
  llm::MiniGptConfig cfg;
  cfg.vocab = llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = max_seq;
  return cfg;
}

std::shared_ptr<llm::MiniGpt> tiny_llm(std::uint64_t seed, std::int64_t max_seq = 112) {
  Rng rng(seed);
  return std::make_shared<llm::MiniGpt>(tiny_config(max_seq), rng);
}

std::shared_ptr<ad::VpAdapter> vp_adapter(std::uint64_t seed = 1) {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  Rng rng(seed);
  return std::make_shared<ad::VpAdapter>(tiny_llm(seed), cfg, rng);
}

std::vector<vp::VpSample> vp_samples(int n) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, n);
}

void expect_same_rollout(const std::vector<vp::Viewport>& a, const std::vector<vp::Viewport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].roll, b[j].roll) << "step " << j;
    EXPECT_EQ(a[j].pitch, b[j].pitch) << "step " << j;
    EXPECT_EQ(a[j].yaw, b[j].yaw) << "step " << j;
  }
}

std::vector<float> to_vec(const Tensor& t) { return {t.data().begin(), t.data().end()}; }

}  // namespace

// ---------- cached rollout == legacy re-forward loop ----------

TEST_F(Sched, CachedPredictBitwiseMatchesUncachedAcrossThreadCounts) {
  const auto samples = vp_samples(3);
  auto adapter = vp_adapter(5);  // no arena attached: private reserved caches
  for (int threads : {1, 4}) {
    nc::set_global_threads(threads);
    for (const auto& s : samples) {
      const auto cached = adapter->predict(s.history, s.saliency, 4);
      const auto legacy = adapter->predict_uncached(s.history, s.saliency, 4);
      expect_same_rollout(cached, legacy);
    }
  }
}

TEST_F(Sched, PrefillAndStepEmbeddingsBitwiseMatchFullForward) {
  auto gpt = tiny_llm(17);
  const auto d = gpt->config().d_model;
  Rng rng(23);
  const std::int64_t total = 7, prefill_len = 4;
  std::vector<float> rows(static_cast<std::size_t>(total * d));
  for (auto& x : rows) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  auto first_rows = [&](std::int64_t t) {
    return Tensor::from({rows.begin(), rows.begin() + t * d}, {t, d});
  };

  std::vector<nn::KvCache> layers(static_cast<std::size_t>(gpt->config().n_layers));
  const auto prefill = gpt->prefill_embeddings(first_rows(prefill_len), layers);
  ASSERT_EQ(to_vec(prefill), to_vec(gpt->forward_embeddings(first_rows(prefill_len))));
  for (std::int64_t t = prefill_len; t < total; ++t) {
    const auto row =
        Tensor::from({rows.begin() + t * d, rows.begin() + (t + 1) * d}, {1, d});
    const auto step = to_vec(gpt->embeddings_step(row, layers));
    const auto full = to_vec(gpt->forward_embeddings(first_rows(t + 1)));
    ASSERT_EQ(step.size(), static_cast<std::size_t>(d));
    for (std::int64_t j = 0; j < d; ++j) {
      // Each incremental step is float-exact the last row of the uncached
      // forward over the grown sequence — no tolerance.
      ASSERT_EQ(step[static_cast<std::size_t>(j)],
                full[static_cast<std::size_t>((t * d) + j)])
          << "t=" << t << " j=" << j;
    }
  }
}

// ---------- scheduler: slots + priorities, bitwise vs sequential ----------

TEST_F(Sched, SlottedDrainBitwiseMatchesSequentialAcrossThreadCounts) {
  const auto samples = vp_samples(6);
  // The reference: the legacy uncached loop on a twin adapter (same seed).
  auto reference = vp_adapter(3);
  std::vector<std::vector<vp::Viewport>> expected;
  for (const auto& s : samples) {
    expected.push_back(reference->predict_uncached(s.history, s.saliency, 4));
  }
  for (int threads : {1, 4}) {
    nc::set_global_threads(threads);
    serve::EngineConfig cfg;
    cfg.max_slots = 2;  // fewer slots than requests: slots must pull new work
    auto engine =
        std::make_shared<serve::InferenceEngine>(vp_adapter(3), nullptr, nullptr, cfg);
    ASSERT_NE(engine->kv_arena(), nullptr);  // arena is on by default for adapters
    for (const auto& s : samples) {
      engine->submit(serve::VpRequest{s.history, s.saliency, 4});
    }
    const auto report = engine->run();
    EXPECT_EQ(report.requests, samples.size());
    EXPECT_EQ(report.llm, samples.size());
    ASSERT_EQ(engine->vp_responses().size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      expect_same_rollout(engine->vp_responses()[i].viewports, expected[i]);
    }
  }
}

namespace {

/// Records execution order (threads=1 makes the order the schedule).
class RecordingVp : public vp::VpPredictor {
 public:
  RecordingVp(std::vector<std::string>* log, std::mutex* mu) : log_(log), mu_(mu) {}
  std::string name() const override { return "recording"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back("vp" + std::to_string(horizon));
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }

 private:
  std::vector<std::string>* log_;
  std::mutex* mu_;
};

class RecordingAbr : public netllm::abr::AbrPolicy {
 public:
  RecordingAbr(std::vector<std::string>* log, std::mutex* mu) : log_(log), mu_(mu) {}
  std::string name() const override { return "recording"; }
  int choose_level(const netllm::abr::Observation&) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back("abr");
    return 0;
  }

 private:
  std::vector<std::string>* log_;
  std::mutex* mu_;
};

netllm::abr::Observation abr_observation() {
  netllm::abr::Observation obs;
  obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0);
  obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
  obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
  obs.buffer_s = 10.0;
  obs.chunks_remaining = 10;
  obs.num_levels = 4;
  return obs;
}

serve::VpRequest small_vp_request(int horizon) {
  vp::Viewport a, b;
  a.roll = 0.0, a.pitch = 0.0, a.yaw = 5.0;
  b.roll = 1.0, b.pitch = 2.0, b.yaw = 7.0;
  return serve::VpRequest{{a, b}, Tensor::zeros({4, 4}), horizon};
}

}  // namespace

TEST_F(Sched, PriorityOrdersTasksAdmissionOrderBreaksTies) {
  nc::set_global_threads(1);  // the pull order IS the execution order
  std::vector<std::string> log;
  std::mutex mu;
  serve::EngineConfig cfg;
  cfg.abr_priority = 1;  // ABR outranks VP (both default 0 otherwise)
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<RecordingVp>(&log, &mu), std::make_shared<RecordingAbr>(&log, &mu),
      nullptr, cfg);
  engine->submit(small_vp_request(2));
  engine->submit(small_vp_request(3));
  engine->submit(serve::AbrRequest{abr_observation()});
  engine->run();
  // The late-submitted ABR request jumps the queue; the VP pair keeps its
  // admission order (stable sort on equal priorities).
  ASSERT_EQ(log, (std::vector<std::string>{"abr", "vp2", "vp3"}));
}

// ---------- arena: exhaustion sheds, leases recycle ----------

TEST_F(Sched, ArenaExhaustionShedsDeterministicallyAndLeasesRecycle) {
  const auto samples = vp_samples(4);
  const int horizon = 4;
  auto probe = vp_adapter(9);
  const auto& lcfg = probe->llm().config();
  const std::int64_t page_rows = 16;
  const auto rows = static_cast<std::int64_t>(1 + samples[0].history.size()) + horizon - 1;
  const std::int64_t pages_per_lease =
      lcfg.n_layers * 2 * std::max<std::int64_t>((rows + page_rows - 1) / page_rows, 1);

  // Budget one page short of a single lease: every request is shed — a
  // deterministic fallback answer, never an escaped Exhausted.
  nc::set_global_threads(1);
  serve::EngineConfig starved;
  starved.arena_pages = pages_per_lease - 1;
  starved.arena_page_rows = page_rows;
  auto engine =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, starved);
  for (const auto& s : samples) engine->submit(serve::VpRequest{s.history, s.saliency, horizon});
  serve::BatchReport report;
  ASSERT_NO_THROW(report = engine->run());
  EXPECT_EQ(report.requests, samples.size());
  EXPECT_EQ(report.shed, samples.size());
  EXPECT_EQ(report.llm, 0u);
  for (const auto& r : engine->vp_responses()) {
    EXPECT_EQ(r.meta.source, serve::Source::kShed);
    EXPECT_EQ(r.viewports.size(), static_cast<std::size_t>(horizon));
  }
  // Shedding on pool pressure is load, not model failure.
  EXPECT_EQ(engine->vp_health(), ad::Health::kHealthy);
  EXPECT_EQ(nm::counter("serve.vp.shed").value(), static_cast<std::int64_t>(samples.size()));

  // Budget exactly one lease + one serial slot: every request is served —
  // returning a lease funds (and recycles buffers for) the next one.
  serve::EngineConfig serial;
  serial.arena_pages = pages_per_lease;
  serial.arena_page_rows = page_rows;
  serial.arena_prefix_entries = 0;  // no warm set: the budget fits leases only
  serial.max_slots = 1;
  auto engine2 =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, serial);
  for (const auto& s : samples) engine2->submit(serve::VpRequest{s.history, s.saliency, horizon});
  const auto report2 = engine2->run();
  EXPECT_EQ(report2.llm, samples.size());
  EXPECT_EQ(engine2->kv_arena()->pages_in_use(), 0);  // all leases returned

  // Oversubscribed slots at 4 threads racing one lease of budget: requests
  // may shed, but all of them resolve and nothing escapes run().
  nc::set_global_threads(4);
  auto engine3 =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, serial);
  for (const auto& s : samples) engine3->submit(serve::VpRequest{s.history, s.saliency, horizon});
  serve::BatchReport report3;
  ASSERT_NO_THROW(report3 = engine3->run());
  EXPECT_EQ(report3.requests, samples.size());
  EXPECT_EQ(report3.llm + report3.retried + report3.fallback + report3.shed, report3.requests);
}

TEST_F(Sched, PrefixHitServesBitwiseTheColdPrefillAnswer) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(1);
  auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(13), nullptr, nullptr);
  const auto arena = engine->kv_arena();
  ASSERT_NE(arena, nullptr);
  // Same prompt skeleton twice in one batch: the first request publishes its
  // prefill, the second adopts it.
  engine->submit(serve::VpRequest{samples[0].history, samples[0].saliency, 4});
  engine->submit(serve::VpRequest{samples[0].history, samples[0].saliency, 4});
  const auto report = engine->run();
  EXPECT_EQ(report.llm, 2u);
  EXPECT_EQ(report.prefix_hits, 1u);
  EXPECT_EQ(arena->prefix_hits(), 1u);
  EXPECT_EQ(arena->prefix_misses(), 1u);
  EXPECT_EQ(nm::counter("kv.prefix.hits").value(), 1);
  // The adopted rows are the published request's own floats: the warm answer
  // is bitwise the cold one.
  ASSERT_EQ(engine->vp_responses().size(), 2u);
  expect_same_rollout(engine->vp_responses()[1].viewports, engine->vp_responses()[0].viewports);
  // The whole batch done, every lease is back; only the warm entry holds pages.
  EXPECT_EQ(arena->pages_in_use(), nm::gauge("kv.arena.pages_in_use").value());
  EXPECT_GT(arena->pages_in_use(), 0);  // the published prefix stays warm
}

// ---------- continuous ticket resolution ----------

namespace {

/// On its second call, resolves the batch's first ticket (already finished
/// at threads=1) and probes its own (must still be stale).
class ResolvingVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "resolving"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    if (++calls == 2 && engine) {
      try {
        first_resolved_mid_drain = engine->vp_response(first).viewports.size() == 2;
      } catch (const serve::StaleTicket&) {
        first_resolved_mid_drain = false;
      }
      try {
        serve::Ticket own = first;
        own.index = 1;
        engine->vp_response(own);
        own_was_stale = false;
      } catch (const serve::StaleTicket&) {
        own_was_stale = true;  // this request's own slot is not done yet
      }
    }
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }

  serve::InferenceEngine* engine = nullptr;
  serve::Ticket first;
  int calls = 0;
  bool first_resolved_mid_drain = false;
  bool own_was_stale = false;
};

}  // namespace

TEST_F(Sched, TicketsResolveContinuouslyWhileTheBatchDrains) {
  nc::set_global_threads(1);
  auto primary = std::make_shared<ResolvingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr);
  primary->engine = engine.get();
  primary->first = engine->submit(small_vp_request(2));
  engine->submit(small_vp_request(2));
  // Before any drain, the ticket is stale-by-definition.
  EXPECT_THROW(engine->vp_response(primary->first), serve::StaleTicket);
  engine->run();
  EXPECT_EQ(primary->calls, 2);
  EXPECT_TRUE(primary->first_resolved_mid_drain);
  EXPECT_TRUE(primary->own_was_stale);
  // After the drain both resolve; after a later run() the generation is gone.
  EXPECT_NO_THROW(engine->vp_response(primary->first));
  engine->submit(small_vp_request(2));
  engine->run();
  EXPECT_THROW(engine->vp_response(primary->first), serve::StaleTicket);
}

// ---------- KvCache bugfix sweep ----------

TEST_F(Sched, KvCacheClearForgetsTheWidthForReuse) {
  nn::KvCache c;
  const std::vector<float> w4(4, 1.0f), w6(6, 2.0f);
  c.append(w4, w4);
  ASSERT_EQ(c.d_model, 4);
  ASSERT_EQ(c.len, 1);
  c.clear();
  // A cleared cache is indistinguishable from a fresh one: the width resets
  // with the rows (it used to stay sticky, poisoning cross-model reuse).
  EXPECT_EQ(c.d_model, 0);
  EXPECT_EQ(c.len, 0);
  c.append(w6, w6);
  EXPECT_EQ(c.d_model, 6);
  EXPECT_EQ(c.len, 1);
  EXPECT_EQ(c.k().size(), 6u);
  // The buffers hold rows of the new width: a second row lands at 6..11.
  c.append(w6, w6);
  EXPECT_EQ(c.k().size(), 12u);
  EXPECT_EQ(c.v().size(), 12u);
}

TEST_F(Sched, KvCacheReservePinsTheAllocation) {
  nn::KvCache c;
  c.d_model = 8;
  const std::int64_t rows = 32;
  c.reserve(rows);
  const auto capacity = c.capacity_rows();
  ASSERT_GE(capacity, rows);
  std::vector<float> row(8, 0.5f);
  for (std::int64_t i = 0; i < rows; ++i) c.append(row, row);
  EXPECT_EQ(c.len, rows);
  // Every append landed inside the reservation: zero reallocations (the bare
  // insert used to grow geometrically, reallocating mid-decode).
  EXPECT_EQ(c.capacity_rows(), capacity);
  EXPECT_EQ(c.k().size(), static_cast<std::size_t>(rows * 8));
}

TEST_F(Sched, ArenaRequestThatCannotFitLeavesTheWarmSetIntact) {
  // 1 layer, page_rows 4: a lease or entry of r rows costs 2 * ceil(r / 4)
  // pages. Budget 8: one warm 4-row entry (2 pages) plus one 12-row lease
  // (6 pages) fill it exactly.
  nn::KvArenaConfig cfg;
  cfg.page_rows = 4;
  cfg.page_budget = 8;
  nn::KvArena arena(1, 2, cfg);
  const std::vector<float> prompt = {1.0f, 2.0f, 3.0f};
  const auto key = nn::KvArena::prefix_key(prompt);
  {
    auto warm = arena.lease(4);
    const std::vector<float> row = {0.5f, -0.5f};
    for (int r = 0; r < 4; ++r) warm.layers()[0].append(row, row);
    const std::vector<float> features = {7.0f, 8.0f};
    arena.publish(key, prompt, warm.layers(), 4, features);
  }
  ASSERT_EQ(arena.pages_in_use(), 2);

  // A lease larger than the whole budget can never fit: it throws before
  // evicting anything (it used to flush the warm set first).
  EXPECT_THROW(arena.lease(20), nn::KvArena::Exhausted);
  EXPECT_EQ(arena.evictions(), 0u);
  EXPECT_EQ(arena.pages_in_use(), 2);

  // With the leases holding the rest of the budget, an 8-row entry (4 pages)
  // cannot fit even with the warm set empty: the publish is skipped and
  // leaves the warm entry in place.
  auto held = arena.lease(12);
  ASSERT_EQ(arena.pages_in_use(), 8);
  const std::vector<float> row = {0.25f, 0.75f};
  for (int r = 0; r < 8; ++r) held.layers()[0].append(row, row);
  const std::vector<float> other = {4.0f, 5.0f, 6.0f};
  arena.publish(nn::KvArena::prefix_key(other), other, held.layers(), 8, row);
  EXPECT_EQ(arena.evictions(), 0u);
  EXPECT_EQ(arena.pages_in_use(), 8);

  // A later request with the warm prompt still hits.
  held = nn::KvArena::Lease();
  auto fresh = arena.lease(4);
  std::vector<float> features;
  EXPECT_TRUE(arena.adopt(key, prompt, fresh, &features));
  EXPECT_EQ(fresh.layers()[0].len, 4);
  EXPECT_EQ(features, (std::vector<float>{7.0f, 8.0f}));
  EXPECT_EQ(arena.prefix_hits(), 1u);
  EXPECT_EQ(arena.evictions(), 0u);
}

TEST_F(Sched, BlockAdmissionWakesByNotificationNotPolling) {
  serve::EngineConfig cfg;
  cfg.max_queue = 1;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<ResolvingVp>(), nullptr, nullptr, cfg);
  engine->submit(small_vp_request(2));
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    engine->submit(small_vp_request(3));  // blocks on the full queue
    admitted.store(true);
  });
  // Hold the producer blocked long enough that a 5 ms poll loop would rack
  // up ~30 wakeups, then drain. The predicate wait wakes once, on notify.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  engine->run();
  producer.join();
  EXPECT_TRUE(admitted.load());
  const auto wakeups = nm::counter("serve.admission.wakeups").value();
  EXPECT_GE(wakeups, 1);  // the instrumented predicate wait actually ran
  EXPECT_LE(wakeups, 4);  // and it did not poll the 150 ms away in slices
}

// ---------- encode once: cached context rows and the raw VP key ----------

namespace {

namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace fault = netllm::core::fault;

/// Every trainable adapter parameter uniform in [-2, 2], so the decisions
/// spread over several actions and follow the weights.
void spread(const std::vector<Tensor>& params, Rng& rng) {
  for (auto t : params) {
    for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

std::shared_ptr<ad::AbrAdapter> abr_adapter() {
  Rng rng(61);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 6;
  auto adapter = std::make_shared<ad::AbrAdapter>(tiny_llm(67), cfg, rng);
  spread(adapter->trainable_parameters(), rng);
  return adapter;
}

std::shared_ptr<ad::CjsAdapter> cjs_adapter() {
  Rng rng(73);  // a seed whose decisions follow the rtg tokens of older steps
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 6;
  auto adapter = std::make_shared<ad::CjsAdapter>(tiny_llm(73), cfg, rng);
  spread(adapter->trainable_parameters(), rng);
  return adapter;
}

/// `n` decisions whose backbone pass throws: each step stays in the rolling
/// context with the default action, whatever the weights would choose, so
/// two adapters with different weights hold the same raw steps after it.
template <typename Decide>
void throwing_decisions(int n, Decide&& decide) {
  fault::FaultPlan plan;
  plan.times = n;
  fault::arm("llm.forward", plan);
  for (int i = 0; i < n; ++i) EXPECT_THROW(decide(i), fault::FaultInjected);
  fault::disarm("llm.forward");
}

}  // namespace

TEST_F(Sched, AbrDecisionsAfterAMidSessionAdaptEqualAFreshAdapterReplayingTheSteps) {
  nc::set_global_threads(1);
  auto setting = abr::abr_default_test();
  setting.num_traces = 1;
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  netllm::baselines::Bba bba;
  const auto pool = ad::collect_abr_experience(bba, video, traces, 1, 0.0, 3);
  std::vector<abr::Observation> obs;
  abr::StreamingSession session(video, traces.front());
  bba.begin_session();
  while (!session.done()) {
    obs.push_back(session.observe());
    (void)session.step(bba.choose_level(obs.back()));
  }
  ASSERT_GE(obs.size(), 20u);

  auto live = abr_adapter();
  auto fresh = abr_adapter();
  const float target = live->target_return();
  // The fresh adapter gets the adapted weights up front (adapt is
  // deterministic) and the live one's session target.
  fresh->adapt(pool, 2, 0.5f, 9);
  fresh->set_target_return(target);

  constexpr int kWarm = 5;  // fills most of the 6-step window
  live->begin_session();
  throwing_decisions(kWarm, [&](int i) { return live->choose_level(obs[i]); });
  live->adapt(pool, 2, 0.5f, 9);  // the cached rows of those steps are stale now
  fresh->begin_session();
  throwing_decisions(kWarm, [&](int i) { return fresh->choose_level(obs[i]); });
  std::vector<int> live_levels, fresh_levels;
  for (std::size_t i = kWarm; i < 20; ++i) {
    live_levels.push_back(live->choose_level(obs[i]));
    fresh_levels.push_back(fresh->choose_level(obs[i]));
  }
  EXPECT_EQ(live_levels, fresh_levels);
}

TEST_F(Sched, CjsDecisionsAfterAMidEpisodeReturnRescaleEqualAFreshAdapterReplayingTheSteps) {
  nc::set_global_threads(1);
  cjs::WorkloadConfig wl;
  wl.num_job_requests = 6;
  wl.executor_units_k = 6;
  wl.scale = 1.0;
  wl.seed = 5;
  netllm::baselines::FifoScheduler fifo;
  const auto pool = ad::collect_cjs_experience(fifo, wl, 1, 7);
  ASSERT_GE(pool.front().size(), 20u);
  const auto obs = [&](std::size_t i) -> const cjs::SchedObservation& {
    return pool.front()[i].obs;
  };

  auto live = cjs_adapter();
  auto fresh = cjs_adapter();
  constexpr float kRescaled = 0.01f;  // rtg tokens from bias-led to weight-led
  for (auto* a : {live.get(), fresh.get()}) a->set_target_return(-300.0f);  // rtg tokens read it
  fresh->set_return_scale(kRescaled);

  constexpr int kWarm = 5;
  live->begin_episode();
  throwing_decisions(kWarm, [&](int i) { return live->choose(obs(i)); });
  live->set_return_scale(kRescaled);  // the cached rtg rows of those steps are stale now
  fresh->begin_episode();
  throwing_decisions(kWarm, [&](int i) { return fresh->choose(obs(i)); });
  for (std::size_t i = kWarm; i < 20; ++i) {
    const auto a = live->choose(obs(i));
    const auto b = fresh->choose(obs(i));
    EXPECT_EQ(a.runnable_index, b.runnable_index) << "decision " << i;
    EXPECT_EQ(a.cap_choice, b.cap_choice) << "decision " << i;
  }
}

TEST_F(Sched, RawKeyHitIsBitwiseUncachedAndOneFlippedHistoryBitMisses) {
  nc::set_global_threads(1);
  const auto s = vp_samples(1).front();
  auto adapter = vp_adapter(21);
  const auto& cfg = adapter->llm().config();
  auto arena = std::make_shared<nn::KvArena>(cfg.n_layers, cfg.d_model);
  adapter->set_kv_arena(arena);
  const auto legacy = adapter->predict_uncached(s.history, s.saliency, 4);
  expect_same_rollout(adapter->predict(s.history, s.saliency, 4), legacy);  // publishes
  expect_same_rollout(adapter->predict(s.history, s.saliency, 4), legacy);  // adopts
  EXPECT_EQ(arena->prefix_hits(), 1u);
  EXPECT_EQ(arena->prefix_misses(), 1u);

  // One bit of one history coordinate, away from the last viewport the
  // rollout starts from: a different raw request, so it must miss.
  auto flipped = s.history;
  ASSERT_GE(flipped.size(), 2u);
  flipped[1].yaw = std::bit_cast<double>(std::bit_cast<std::uint64_t>(flipped[1].yaw) ^ 1u);
  expect_same_rollout(adapter->predict(flipped, s.saliency, 4),
                      adapter->predict_uncached(flipped, s.saliency, 4));
  EXPECT_EQ(arena->prefix_hits(), 1u);
  EXPECT_EQ(arena->prefix_misses(), 2u);
}

TEST_F(Sched, VpAdaptEmptiesTheWarmSetSoNoPreAdaptPrefixIsAdopted) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(2);
  auto adapter = vp_adapter(23);
  const auto& cfg = adapter->llm().config();
  auto arena = std::make_shared<nn::KvArena>(cfg.n_layers, cfg.d_model);
  adapter->set_kv_arena(arena);
  for (const auto& s : samples) (void)adapter->predict(s.history, s.saliency, 4);
  EXPECT_GT(arena->pages_in_use(), 0);  // two warm prefixes

  (void)adapter->adapt(samples, 2, 0.5f, 3);
  EXPECT_EQ(arena->pages_in_use(), 0);
  EXPECT_EQ(nm::gauge("kv.arena.pages_in_use").value(), 0);
  for (const auto& s : samples) {
    expect_same_rollout(adapter->predict(s.history, s.saliency, 4),
                        adapter->predict_uncached(s.history, s.saliency, 4));
  }
  EXPECT_EQ(arena->prefix_hits(), 0u);
  EXPECT_EQ(arena->prefix_misses(), 4u);
}

TEST_F(Sched, NanSaliencyNeverPublishes) {
  nc::set_global_threads(1);
  const auto s = vp_samples(1).front();
  auto adapter = vp_adapter(25);
  const auto& cfg = adapter->llm().config();
  auto arena = std::make_shared<nn::KvArena>(cfg.n_layers, cfg.d_model);
  adapter->set_kv_arena(arena);
  auto pixels = to_vec(s.saliency);
  pixels[17] = std::numeric_limits<float>::quiet_NaN();
  const auto saliency = Tensor::from(pixels, s.saliency.shape());
  for (int i = 0; i < 2; ++i) {
    const auto out = adapter->predict(s.history, saliency, 2);
    EXPECT_TRUE(std::isnan(out.front().yaw));
    EXPECT_EQ(arena->pages_in_use(), 0);  // the lease is back and nothing is warm
  }
  EXPECT_EQ(arena->prefix_hits(), 0u);
  EXPECT_EQ(arena->prefix_misses(), 2u);
}

// ---------- step-level batching: lockstep VP groups ----------

namespace {

namespace isa = netllm::tensor::isa;
namespace nq = netllm::tensor::quant;

/// Restores the environment-resolved ISA tier when a test exits.
struct IsaGuard {
  ~IsaGuard() { isa::reset_active_isa(); }
};

/// A VP adapter whose LoRA B matrices are nonzero, so the low-rank delta
/// reaches every backbone pass.
std::shared_ptr<ad::VpAdapter> lora_vp_adapter(std::uint64_t seed) {
  auto adapter = vp_adapter(seed);
  Rng rng(seed + 1000);
  for (auto t : adapter->llm().lora_parameters()) {
    for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-0.3, 0.3));
  }
  return adapter;
}

/// Request i of the sweep: a history tail of varied length and a varied
/// horizon; with three or more requests, the last repeats request 0's raw
/// prompt (with its own horizon).
serve::VpRequest sweep_request(const std::vector<vp::VpSample>& samples, std::size_t i,
                               std::size_t b) {
  const auto& s = samples[(b >= 3 && i + 1 == b) ? 0 : i];
  const auto keep = (b >= 3 && i + 1 == b) ? s.history.size()
                                           : s.history.size() - (i * 3) % s.history.size();
  return serve::VpRequest{{s.history.end() - static_cast<std::ptrdiff_t>(keep), s.history.end()},
                          s.saliency, 1 + static_cast<int>((i * 2) % 5)};
}

std::int64_t counter_value(const char* name) { return nm::counter(name).value(); }

}  // namespace

TEST_F(Sched, LockstepGroupsServeEveryMemberBitwiseTheUncachedRollout) {
  IsaGuard tier;
  const auto samples = vp_samples(8);
  for (const auto dtype : {nq::Dtype::kF32, nq::Dtype::kQ8_0}) {
    for (const auto t : isa::supported_isas()) {
      isa::set_active_isa(t);
      nc::set_global_threads(1);
      auto adapter = lora_vp_adapter(31);
      serve::EngineConfig cfg;
      cfg.backbone_dtype = dtype;
      for (const int threads : {1, 3}) {
        for (const std::size_t b : {1u, 2u, 3u, 4u, 5u, 8u}) {
          const auto where = std::string(isa::isa_name(t)) + " " + nq::dtype_name(dtype) +
                             " threads=" + std::to_string(threads) + " B=" + std::to_string(b);
          nc::set_global_threads(threads);
          // A fresh engine per drain: its own arena, the adapter quantized
          // in place for Q8_0.
          auto engine = std::make_shared<serve::InferenceEngine>(adapter, nullptr, nullptr, cfg);
          // Warm request 1's prompt first, so the drain mixes a warm hit, cold
          // misses and (B >= 3) a duplicate of request 0 inside one group.
          if (b >= 2) {
            engine->submit(sweep_request(samples, 1, b));
            engine->run();
          }
          for (std::size_t i = 0; i < b; ++i) engine->submit(sweep_request(samples, i, b));
          const auto report = engine->run();
          ASSERT_EQ(report.llm, b) << where;
          if (threads == 1 && b >= 3) {
            EXPECT_EQ(report.prefix_hits, 2u) << where;
          }
          nc::set_global_threads(1);
          for (std::size_t i = 0; i < b; ++i) {
            const auto req = sweep_request(samples, i, b);
            SCOPED_TRACE(where + " request " + std::to_string(i));
            expect_same_rollout(engine->vp_responses()[i].viewports,
                                adapter->predict_uncached(req.history, req.saliency,
                                                          req.horizon));
          }
        }
      }
    }
  }
}

TEST_F(Sched, GroupedPredictMatchesPredictPerMemberWithoutAnArena) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(5);
  auto adapter = lora_vp_adapter(33);  // no arena: private caches, no sharing
  std::vector<serve::VpRequest> reqs;
  std::vector<ad::VpQuery> group;
  for (std::size_t i = 0; i < samples.size(); ++i) reqs.push_back(sweep_request(samples, i, 5));
  for (const auto& r : reqs) group.push_back({r.history, &r.saliency, r.horizon});
  const auto out = adapter->predict_group(group);
  ASSERT_EQ(out.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_FALSE(out[i].error) << "request " << i;
    expect_same_rollout(out[i].viewports,
                        adapter->predict(reqs[i].history, reqs[i].saliency, reqs[i].horizon));
  }
  // Bad inputs are that member's error, not the group's.
  group[2].horizon = 0;
  const auto bad = adapter->predict_group(group);
  EXPECT_TRUE(bad[2].error);
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    ASSERT_FALSE(bad[i].error) << "request " << i;
    expect_same_rollout(bad[i].viewports, out[i].viewports);
  }
}

TEST_F(Sched, AFaultOnOneLockstepMemberDegradesThatMemberOnly) {
  nc::set_global_threads(1);  // one lane: the drain is one group of four
  const auto samples = vp_samples(4);
  auto adapter = vp_adapter(37);
  std::vector<std::vector<vp::Viewport>> expected;
  for (const auto& s : samples) expected.push_back(adapter->predict_uncached(s.history, s.saliency, 4));
  // serve.batch draws once per member before the group computes; the
  // grouped llm.forward draws once per segment, in member order: the
  // prefill draws 1-4, then each step's draws for the live members.
  struct Case {
    const char* site;
    fault::FaultPlan plan;
    std::size_t victim;
  };
  const Case cases[] = {
      {"serve.batch", {.kind = fault::FaultKind::Throw, .after = 2, .times = 1, .message = ""}, 2},
      {"llm.forward", {.kind = fault::FaultKind::Throw, .after = 1, .times = 1, .message = ""}, 1},
      {"llm.forward",
       {.kind = fault::FaultKind::CorruptNan, .after = 7, .times = 1, .message = ""}, 3},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.site) + " victim " + std::to_string(c.victim));
    auto engine = std::make_shared<serve::InferenceEngine>(adapter, nullptr, nullptr);
    for (const auto& s : samples) engine->submit(serve::VpRequest{s.history, s.saliency, 4});
    fault::arm(c.site, c.plan);
    const auto report = engine->run();
    EXPECT_EQ(fault::fired(c.site), 1);
    fault::disarm_all();
    EXPECT_EQ(report.llm, 3u);
    EXPECT_EQ(report.fallback, 1u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& resp = engine->vp_responses()[i];
      if (i == c.victim) {
        EXPECT_EQ(resp.meta.source, serve::Source::kFallback);
        EXPECT_TRUE(ad::is_valid(resp.viewports, 4));
      } else {
        EXPECT_EQ(resp.meta.source, serve::Source::kLlm) << "request " << i;
        expect_same_rollout(resp.viewports, expected[i]);
      }
    }
  }
}

TEST_F(Sched, BreakerTripMidGroupMatchesServingOneDrainEach) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(7);
  // Requests 0 and 1 carry a NaN saliency pixel: their rollouts are invalid,
  // which trips a threshold-2 breaker; its 3-decision cooldown covers
  // requests 2-4, whose grouped answers are computed and discarded; request
  // 5 probes and closes it, request 6 is served as usual.
  std::vector<serve::VpRequest> reqs;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto pixels = to_vec(samples[i].saliency);
    if (i < 2) pixels[5] = std::numeric_limits<float>::quiet_NaN();
    reqs.push_back({samples[i].history, Tensor::from(pixels, samples[i].saliency.shape()), 4});
  }
  serve::EngineConfig cfg;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 3;
  const auto serve_all = [&](bool one_drain_each) {
    auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(39), nullptr, nullptr, cfg);
    std::vector<serve::Source> sources;
    for (const auto& r : reqs) {
      engine->submit(r);
      if (one_drain_each) {
        engine->run();
        sources.push_back(engine->vp_responses()[0].meta.source);
      }
    }
    if (!one_drain_each) {
      engine->run();
      for (const auto& resp : engine->vp_responses()) sources.push_back(resp.meta.source);
    }
    return std::tuple{sources, engine->counters(), engine->vp_health()};
  };
  const auto [grouped, grouped_counters, grouped_health] = serve_all(false);
  const auto [alone, alone_counters, alone_health] = serve_all(true);
  EXPECT_EQ(grouped, alone);
  EXPECT_EQ(grouped_counters, alone_counters);
  EXPECT_EQ(grouped_health, alone_health);
  EXPECT_EQ(grouped_counters.breaker_trips, 1);
  EXPECT_EQ(grouped_counters.fail_invalid, 2);
  EXPECT_EQ(grouped[5], serve::Source::kLlm);
  EXPECT_EQ(grouped_health, ad::Health::kHealthy);
}

TEST_F(Sched, ArenaBudgetForTwoLeasesSplitsADrainIntoGroupsOfTwo) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(4);
  const int horizon = 4;
  const auto probe = vp_adapter(41);
  const auto& lcfg = probe->llm().config();
  const std::int64_t page_rows = 16;
  const auto rows = static_cast<std::int64_t>(samples[0].history.size()) + horizon;
  const std::int64_t pages_per_lease =
      lcfg.n_layers * 2 * std::max<std::int64_t>((rows + page_rows - 1) / page_rows, 1);
  const auto drain = [&](std::size_t n, std::int64_t budget) {
    serve::EngineConfig cfg;
    cfg.backbone_dtype = nq::Dtype::kQ8_0;  // qmatmul counts the backbone passes alone
    cfg.arena_pages = budget;
    cfg.arena_page_rows = page_rows;
    auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(41), nullptr, nullptr, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      engine->submit(serve::VpRequest{samples[i].history, samples[i].saliency, horizon});
    }
    nm::reset();
    const auto report = engine->run();
    EXPECT_EQ(report.llm, n);
    // The leases fill a two-lease budget, so nothing was published either.
    if (budget == 2 * pages_per_lease) {
      EXPECT_EQ(engine->kv_arena()->pages_in_use(), 0);
    }
    return counter_value("kernels.qmatmul.calls");
  };
  const auto one_group = drain(2, 2 * pages_per_lease);
  EXPECT_EQ(drain(4, 2 * pages_per_lease), 2 * one_group);  // groups {0, 1} and {2, 3}
  EXPECT_EQ(drain(4, 4096), one_group);                     // room for all four
}

TEST_F(Sched, LatencyBudgetServesEveryVpRequestAlone) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(4);
  const auto drain = [&](std::size_t n) {
    serve::EngineConfig cfg;
    cfg.backbone_dtype = nq::Dtype::kQ8_0;
    cfg.latency_budget_ms = 1e9;  // set, never blown
    auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(43), nullptr, nullptr, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      engine->submit(serve::VpRequest{samples[i].history, samples[i].saliency, 4});
    }
    nm::reset();
    EXPECT_EQ(engine->run().llm, n);
    return counter_value("kernels.qmatmul.calls");
  };
  EXPECT_EQ(drain(4), 4 * drain(1));
}

TEST_F(Sched, GroupOfColdQ8RequestsMakesTheKernelCallsOfOneAndBTimesItsFlops) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(8);
  const auto drain = [&](std::size_t n) {
    serve::EngineConfig cfg;
    cfg.backbone_dtype = nq::Dtype::kQ8_0;
    auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(45), nullptr, nullptr, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      engine->submit(serve::VpRequest{samples[i].history, samples[i].saliency, 4});
    }
    nm::reset();
    const auto report = engine->run();
    EXPECT_EQ(report.llm, n);
    EXPECT_EQ(report.prefix_hits, 0u);  // all cold
    return std::pair{counter_value("kernels.qmatmul.calls"),
                     counter_value("kernels.qmatmul.flops")};
  };
  const auto [calls1, flops1] = drain(1);
  ASSERT_GT(calls1, 0);
  for (const std::size_t b : {2u, 4u, 8u}) {
    const auto [calls, flops] = drain(b);
    EXPECT_EQ(calls, calls1) << "B=" << b;
    EXPECT_EQ(flops, static_cast<std::int64_t>(b) * flops1) << "B=" << b;
  }
}

// ---------- the AVX-512 tier serves a lockstep group as the AVX2 tier does ----------

class IsaAvx512 : public Sched {};

TEST_F(IsaAvx512, FourMemberLockstepGroupServesTheAvx2RolloutsBitwise) {
  IsaGuard tier;
  if (!isa::isa_supported(isa::Isa::kAvx512) || !isa::isa_supported(isa::Isa::kAvx2)) {
    GTEST_SKIP() << "no AVX-512 tier on this host";
  }
  nc::set_global_threads(1);  // one drain, one lockstep group
  const auto samples = vp_samples(4);
  // A 64-wide backbone with 16-wide heads and nonzero LoRA, so the group's
  // stacked passes run the 16-lane tiles, the 8-lane LoRA tiles and the
  // fused attention at model strides.
  const auto wide_adapter = [] {
    auto cfg = tiny_config();
    cfg.d_model = 64;
    cfg.n_heads = 4;
    cfg.d_ff = 128;
    Rng rng(61);
    auto gpt = std::make_shared<llm::MiniGpt>(cfg, rng);
    ad::VpAdapterConfig acfg;
    acfg.lora_rank = 2;
    acfg.lora_alpha = 4.0f;
    auto adapter = std::make_shared<ad::VpAdapter>(gpt, acfg, rng);
    for (auto t : adapter->llm().lora_parameters()) {
      for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-0.3, 0.3));
    }
    return adapter;
  };
  for (const auto dtype : {nq::Dtype::kF32, nq::Dtype::kQ8_0}) {
    const auto drain = [&](isa::Isa t, std::size_t n) {
      EXPECT_EQ(isa::set_active_isa(t), t);
      serve::EngineConfig cfg;
      cfg.backbone_dtype = dtype;
      auto engine = std::make_shared<serve::InferenceEngine>(wide_adapter(), nullptr, nullptr, cfg);
      for (std::size_t i = 0; i < n; ++i) {
        engine->submit(serve::VpRequest{samples[i].history, samples[i].saliency, 4});
      }
      nm::reset();
      EXPECT_EQ(engine->run().llm, n);
      std::vector<std::vector<vp::Viewport>> out;
      for (std::size_t i = 0; i < n; ++i) out.push_back(engine->vp_responses()[i].viewports);
      return std::pair{out, counter_value("kernels.qmatmul.calls")};
    };
    const auto [want, want_calls] = drain(isa::Isa::kAvx2, 4);
    const auto [got, got_calls] = drain(isa::Isa::kAvx512, 4);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(std::string(nq::dtype_name(dtype)) + " request " + std::to_string(i));
      expect_same_rollout(got[i], want[i]);
    }
    if (dtype == nq::Dtype::kQ8_0) {
      // The four members stepped as one group: the kernel calls of one.
      EXPECT_EQ(got_calls, drain(isa::Isa::kAvx512, 1).second);
      EXPECT_EQ(got_calls, want_calls);
    }
  }
}
