// Observability suite (ctest -L observability): the DESIGN.md §11 metrics /
// trace layer and the serve-path ticket & locking fixes that ride with it.
//
// Pinned claims:
//   - counter bumps are exact under concurrency (sharded slots lose nothing),
//   - histogram percentiles track `core::percentile` within the documented
//     bucket error, and count/sum/min/max are exact,
//   - disabled mode records nothing and perturbs nothing — adapt()/generate()
//     are bitwise identical with metrics on and off,
//   - submit() tickets are generation-stamped: a ticket can never silently
//     alias into a different batch's response slot,
//   - the guard's fallback runs outside the guard mutex (cooldown AND
//     failure paths), and non-std exceptions degrade one request instead of
//     poisoning the batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"
#include "netllm/serve.hpp"

namespace ad = netllm::adapt;
namespace llm = netllm::llm;
namespace nc = netllm::core;
namespace nm = netllm::core::metrics;
namespace nt = netllm::core::trace;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

/// Restores the default global pool size when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { nc::set_global_threads(0); }
};

/// Every test starts from a clean, enabled registry and leaves it that way.
class Observability : public ::testing::Test {
 protected:
  void SetUp() override {
    nm::set_enabled(true);
    nm::reset();
  }
  void TearDown() override {
    nm::set_enabled(true);
    nm::reset();
    nc::set_global_threads(0);
  }
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

vp::Viewport make_viewport(double roll, double pitch, double yaw) {
  vp::Viewport v;
  v.roll = roll;
  v.pitch = pitch;
  v.yaw = yaw;
  return v;
}

serve::VpRequest trivial_vp_request(int horizon = 2) {
  serve::VpRequest req;
  req.history = {make_viewport(0.0, 0.0, 10.0), make_viewport(1.0, 2.0, 12.0)};
  req.saliency = Tensor::zeros({4, 4});
  req.horizon = horizon;
  return req;
}

/// Always answers with `horizon` copies of the last history viewport.
class TrivialVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "trivial"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
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

}  // namespace

// ---------- counters & histograms ----------

TEST_F(Observability, CounterBumpsAreExactAcrossThreads) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  auto& c = nm::counter("obs.test.parallel_bumps");
  auto& h = nm::histogram("obs.test.parallel_hist");
  constexpr std::int64_t kN = 100000;
  nc::parallel_for(kN, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      c.add();
      h.record(1.0);
    }
  });
  EXPECT_EQ(c.value(), kN);  // sharded slots lose no bump
  EXPECT_EQ(h.count(), kN);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 1.0);
  EXPECT_NEAR(snap.sum, static_cast<double>(kN), 1e-6);
}

TEST_F(Observability, HistogramTracksExactAggregatesAndPercentiles) {
  auto& h = nm::histogram("obs.test.percentiles");
  Rng rng(42);
  std::vector<double> samples;
  samples.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over [1e-3, 1e2] ms: spans ~17 octaves of the bucket range.
    samples.push_back(1e-3 * std::pow(10.0, rng.uniform() * 5.0));
    h.record(samples.back());
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.count, 10000);
  EXPECT_EQ(snap.min, sorted.front());  // min/max/count are exact, not bucketed
  EXPECT_EQ(snap.max, sorted.back());
  double exact_sum = 0.0;
  for (double s : samples) exact_sum += s;
  EXPECT_NEAR(snap.sum, exact_sum, std::abs(exact_sum) * 1e-9);
  // Bucket-midpoint percentiles vs the exact sample percentiles: within the
  // documented ~6% bucket error (factor 2^(1/6) buckets), asserted at 8%.
  for (auto [p, est] : {std::pair{50.0, snap.p50}, {90.0, snap.p90}, {99.0, snap.p99}}) {
    const double exact = nc::percentile(sorted, p);
    EXPECT_NEAR(est, exact, exact * 0.08) << "p" << p;
    EXPECT_NEAR(h.percentile(p), exact, exact * 0.08) << "p" << p;
  }
}

TEST_F(Observability, DisabledModeRecordsNothingAndSnapshotsZero) {
  auto& c = nm::counter("obs.test.disabled_counter");
  auto& g = nm::gauge("obs.test.disabled_gauge");
  auto& h = nm::histogram("obs.test.disabled_hist");
  nm::set_enabled(false);
  EXPECT_FALSE(nm::enabled());
  c.add(7);
  g.set(3.5);
  h.record(12.0);
  {
    nt::Span span(nt::Phase::kEncode);  // no clock read, no record
  }
  nm::set_enabled(true);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
}

TEST_F(Observability, RegistryReturnsStableHandlesAndJsonParsesShape) {
  auto& a = nm::counter("obs.test.stable");
  auto& b = nm::counter("obs.test.stable");
  EXPECT_EQ(&a, &b);  // same name, same handle
  a.add(3);
  nm::histogram("obs.test.json_hist").record(1.5);
  const auto json = nm::to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.test.stable\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"obs.test.json_hist\""), std::string::npos);
}

// ---------- trace spans ----------

TEST_F(Observability, GeneratePathsAttributePrefillAndDecodeSpans) {
  auto gpt = tiny_llm(3);
  Rng rng(5);
  const auto prompt = random_prompt(6, rng, gpt->config().vocab);
  auto& prefill = nt::phase_histogram(nt::Phase::kPrefill);
  auto& decode = nt::phase_histogram(nt::Phase::kDecodeStep);

  nm::reset();
  auto uncached = gpt->generate(prompt, 4, /*stop_token=*/-1, /*use_cache=*/false);
  ASSERT_EQ(uncached.size(), 4u);
  // Uncached Fig. 2 loop: first forward is the prompt prefill, the three
  // re-forwards are decode steps — that attribution is the whole point.
  EXPECT_EQ(prefill.count(), 1);
  EXPECT_EQ(decode.count(), 3);

  nm::reset();
  auto cached = gpt->generate(prompt, 4, -1, /*use_cache=*/true);
  ASSERT_EQ(cached, uncached);
  EXPECT_EQ(prefill.count(), 1);  // prefill() once
  EXPECT_EQ(decode.count(), 3);   // decode_step per kept token except the last
}

TEST_F(Observability, ServePathRecordsEncodeHeadGuardAndTaskHistograms) {
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<TrivialVp>(), std::make_shared<netllm::baselines::Bba>(), nullptr);
  for (int i = 0; i < 3; ++i) {
    engine->submit(trivial_vp_request());
    engine->submit(serve::AbrRequest{abr_observation()});
  }
  const auto report = engine->run();
  EXPECT_EQ(report.requests, 6u);
  // Guard bookkeeping spans fired for every request (twice each: cooldown
  // check + outcome transition).
  EXPECT_GE(nt::phase_histogram(nt::Phase::kGuard).count(), 6);
  // Per-task latency split histograms saw every request of their task.
  EXPECT_EQ(nm::histogram("serve.vp.compute_ms").count(), 3);
  EXPECT_EQ(nm::histogram("serve.vp.queue_wait_ms").count(), 3);
  EXPECT_EQ(nm::histogram("serve.abr.compute_ms").count(), 3);
  EXPECT_EQ(nm::histogram("serve.abr.queue_wait_ms").count(), 3);
  EXPECT_EQ(nm::counter("serve.vp.llm_ok").value(), 3);
  EXPECT_EQ(nm::counter("serve.abr.llm_ok").value(), 3);
}

// ---------- determinism: instrumentation must not perturb results ----------

TEST_F(Observability, GenerateBitwiseIdenticalWithMetricsOnAndOff) {
  Rng prompt_rng(17);
  const auto prompt = random_prompt(7, prompt_rng, tiny_config().vocab);
  nm::set_enabled(true);
  const auto on_uncached = tiny_llm(9)->generate(prompt, 8, -1, false);
  const auto on_cached = tiny_llm(9)->generate(prompt, 8, -1, true);
  nm::set_enabled(false);
  const auto off_uncached = tiny_llm(9)->generate(prompt, 8, -1, false);
  const auto off_cached = tiny_llm(9)->generate(prompt, 8, -1, true);
  nm::set_enabled(true);
  EXPECT_EQ(on_uncached, off_uncached);
  EXPECT_EQ(on_cached, off_cached);
}

TEST_F(Observability, AdaptBitwiseIdenticalWithMetricsOnAndOff) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  const auto dataset = vp::build_dataset(setting, 4);
  auto run_once = [&] {
    ad::VpAdapterConfig cfg;
    cfg.lora_rank = 2;
    cfg.lora_alpha = 4.0f;
    Rng rng(21);
    ad::VpAdapter adapter(tiny_llm(21, 112), cfg, rng);
    auto stats = adapter.adapt(dataset, /*steps=*/3, /*lr=*/1e-3f, /*seed=*/77);
    auto rollout = adapter.predict(dataset[0].history, dataset[0].saliency, 3);
    return std::pair{stats.final_loss, rollout};
  };
  nm::set_enabled(true);
  const auto on = run_once();
  EXPECT_EQ(nm::counter("adapt.vp.steps").value(), 3);
  EXPECT_EQ(nm::histogram("adapt.vp.step_ms").count(), 3);
  nm::set_enabled(false);
  const auto off = run_once();
  nm::set_enabled(true);
  EXPECT_EQ(on.first, off.first);  // bitwise: loss float equality
  ASSERT_EQ(on.second.size(), off.second.size());
  for (std::size_t i = 0; i < on.second.size(); ++i) {
    EXPECT_EQ(on.second[i].roll, off.second[i].roll);
    EXPECT_EQ(on.second[i].pitch, off.second[i].pitch);
    EXPECT_EQ(on.second[i].yaw, off.second[i].yaw);
  }
}

// ---------- ticket epochs (submit/run aliasing fix) ----------

TEST_F(Observability, TicketsRejectLookupsAgainstTheWrongBatch) {
  auto engine =
      std::make_shared<serve::InferenceEngine>(std::make_shared<TrivialVp>(), nullptr, nullptr);
  const auto t1 = engine->submit(trivial_vp_request());
  EXPECT_EQ(t1.index, 0u);
  // Not drained yet: the generation has not run.
  EXPECT_THROW(engine->vp_response(t1), serve::StaleTicket);
  engine->run();
  EXPECT_EQ(engine->vp_response(t1).viewports.size(), 2u);

  // Pre-fix bug: submit() returned a bare index, so this second batch's
  // ticket 0 silently aliased the first batch's slot 0. Epoch stamping makes
  // the old ticket a named error instead.
  const auto t2 = engine->submit(trivial_vp_request(3));
  EXPECT_EQ(t2.index, 0u);
  EXPECT_NE(t2.epoch, t1.epoch);
  engine->run();
  EXPECT_THROW(engine->vp_response(t1), serve::StaleTicket);
  EXPECT_EQ(engine->vp_response(t2).viewports.size(), 3u);
  // A ticket for the wrong task's queue is an index error, not an alias.
  EXPECT_THROW(engine->abr_response(t2), std::out_of_range);

  // The same holds when the batch also holds a request of the other task:
  // a VP ticket and an ABR ticket share {epoch, index 0}, and each resolves
  // only through its own task's lookup.
  auto mixed = std::make_shared<serve::InferenceEngine>(
      std::make_shared<TrivialVp>(), std::make_shared<netllm::baselines::Bba>(), nullptr);
  const auto vp_t = mixed->submit(trivial_vp_request());
  const auto abr_t = mixed->submit(serve::AbrRequest{abr_observation()});
  EXPECT_EQ(vp_t.epoch, abr_t.epoch);
  EXPECT_EQ(vp_t.index, abr_t.index);
  mixed->run();
  EXPECT_EQ(mixed->vp_response(vp_t).viewports.size(), 2u);
  EXPECT_EQ(mixed->abr_response(abr_t).meta.source, serve::Source::kLlm);
  EXPECT_THROW(mixed->abr_response(vp_t), std::out_of_range);
  EXPECT_THROW(mixed->vp_response(abr_t), std::out_of_range);
  EXPECT_THROW(mixed->cjs_response(abr_t), std::out_of_range);
}

TEST_F(Observability, StaleTicketMessageNamesPresentedEpochIndexAndCurrentEpoch) {
  auto engine =
      std::make_shared<serve::InferenceEngine>(std::make_shared<TrivialVp>(), nullptr, nullptr);
  engine->submit(trivial_vp_request());
  engine->run();  // completed epoch is now 1
  const auto stale = engine->submit(trivial_vp_request());  // epoch 2, index 0
  try {
    engine->vp_response(stale);
    FAIL() << "expected StaleTicket";
  } catch (const serve::StaleTicket& e) {
    const std::string msg = e.what();
    // The operator debugging an aliasing report needs the full identity of
    // what was presented and what the engine holds, not just "stale".
    EXPECT_NE(msg.find("{epoch 2, index 0}"), std::string::npos) << msg;
    EXPECT_NE(msg.find("completed batch 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not drained yet"), std::string::npos) << msg;
  }
  engine->run();
  engine->run();  // replace the generation: the other arm of the message
  try {
    engine->vp_response(stale);
    FAIL() << "expected StaleTicket";
  } catch (const serve::StaleTicket& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("{epoch 2, index 0}"), std::string::npos) << msg;
    EXPECT_NE(msg.find("replaced these responses"), std::string::npos) << msg;
  }
}

namespace {

/// Re-entrantly submits one more request from inside predict(), like a
/// client enqueueing follow-up work while a drain is in flight.
class ResubmittingVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "resubmitting"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    if (engine && !resubmitted.exchange(true)) {
      inner_ticket = engine->submit(trivial_vp_request());
    }
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
  serve::InferenceEngine* engine = nullptr;
  std::atomic<bool> resubmitted{false};
  std::optional<serve::Ticket> inner_ticket;
};

}  // namespace

TEST_F(Observability, SubmitDuringRunLandsInTheNextGeneration) {
  auto model = std::make_shared<ResubmittingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(model, nullptr, nullptr);
  model->engine = engine.get();
  const auto outer = engine->submit(trivial_vp_request());
  engine->run();
  EXPECT_EQ(engine->vp_response(outer).meta.source, serve::Source::kLlm);

  // The mid-run submit was stamped for the NEXT generation: it cannot read
  // the batch it raced with, and resolves only after its own drain.
  ASSERT_TRUE(model->inner_ticket.has_value());
  const auto inner = *model->inner_ticket;
  EXPECT_EQ(inner.epoch, outer.epoch + 1);
  EXPECT_EQ(engine->pending(), 1u);
  EXPECT_THROW(engine->vp_response(inner), serve::StaleTicket);
  engine->run();
  EXPECT_EQ(engine->vp_response(inner).viewports.size(), 2u);
  EXPECT_THROW(engine->vp_response(outer), serve::StaleTicket);
}

// ---------- fallback locking fixes ----------

namespace {

class AlwaysThrowVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "always-throw"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport>, const Tensor&, int) override {
    throw std::runtime_error("primary down");
  }
};

/// Throws a non-std::exception payload, like a plugged-in model written
/// against a foreign error discipline.
class IntThrowVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "int-throw"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport>, const Tensor&, int) override {
    throw 42;
  }
};

/// Fallback whose calls after the first rendezvous with each other: two
/// callers must be inside predict() at the same time before either returns.
/// Possible only if decide() runs the fallback outside the guard mutex.
class RendezvousFallbackVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "rendezvous-fallback"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    if (++calls > 1) {
      std::unique_lock<std::mutex> lk(mu);
      ++inside;
      ++arrived;  // monotonic, so late wakers still see the rendezvous
      max_inside = std::max(max_inside, inside);
      cv.notify_all();
      // Bounded wait so a regression shows up as a failed expectation, not a
      // hung test binary.
      cv.wait_for(lk, std::chrono::milliseconds(500), [&] { return arrived >= 2; });
      max_inside = std::max(max_inside, inside);
      --inside;
    }
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
  std::atomic<int> calls{0};
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  int arrived = 0;
  int max_inside = 0;
};

}  // namespace

TEST_F(Observability, CooldownFallbacksRunConcurrentlyOutsideTheGuardMutex) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  serve::EngineConfig cfg;
  cfg.breaker_threshold = 1;  // one failure opens the breaker
  cfg.breaker_cooldown = 8;
  auto fallback = std::make_shared<RendezvousFallbackVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<AlwaysThrowVp>(), nullptr, nullptr, cfg, fallback);

  // Batch 1: the single failure trips the breaker (fallback call #1 does not
  // block).
  engine->submit(trivial_vp_request());
  engine->run();
  EXPECT_EQ(engine->counters().breaker_trips, 1);

  // Batch 2: both requests take the cooldown branch. Pre-fix, decide() held
  // g.mu while calling the fallback, serializing them — the rendezvous would
  // time out with max_inside == 1. Post-fix both sit in the fallback at once.
  engine->submit(trivial_vp_request());
  engine->submit(trivial_vp_request());
  const auto report = engine->run();
  EXPECT_EQ(report.fallback, 2u);
  EXPECT_EQ(fallback->max_inside, 2);
}

TEST_F(Observability, FailurePathFallbacksAlsoRunOutsideTheGuardMutex) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  serve::EngineConfig cfg;
  cfg.breaker_threshold = 100;  // never trip: every request takes the failure path
  auto fallback = std::make_shared<RendezvousFallbackVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<AlwaysThrowVp>(), nullptr, nullptr, cfg, fallback);
  engine->submit(trivial_vp_request());
  engine->run();  // call #1, no block
  engine->submit(trivial_vp_request());
  engine->submit(trivial_vp_request());
  const auto report = engine->run();
  EXPECT_EQ(report.fallback, 2u);
  EXPECT_EQ(fallback->max_inside, 2);
  EXPECT_EQ(engine->counters().fail_exception, 3);
}

TEST_F(Observability, NonStdExceptionDegradesOneRequestInsteadOfPoisoningTheBatch) {
  ThreadGuard guard;
  nc::set_global_threads(2);
  auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<IntThrowVp>(), nullptr,
                                                         nullptr);
  engine->submit(trivial_vp_request());
  engine->submit(trivial_vp_request());
  serve::BatchReport report;
  // Pre-fix, `throw 42` escaped decide(), unwound through parallel_for and
  // re-threw out of run() — the whole batch died. Now it is one fallback.
  ASSERT_NO_THROW(report = engine->run());
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.fallback, 2u);
  EXPECT_EQ(engine->counters().fail_exception, 2);
  for (const auto& resp : engine->vp_responses()) {
    EXPECT_EQ(resp.meta.source, serve::Source::kFallback);
    EXPECT_EQ(resp.viewports.size(), 2u);  // fallback still answered
  }
}

// ---------- latency split (queue wait vs compute) ----------

TEST_F(Observability, ResponseMetaSplitsQueueWaitFromCompute) {
  ThreadGuard guard;
  nc::set_global_threads(4);
  auto engine = std::make_shared<serve::InferenceEngine>(
      nullptr, std::make_shared<netllm::baselines::Bba>(), nullptr);
  constexpr int kReqs = 6;
  for (int i = 0; i < kReqs; ++i) engine->submit(serve::AbrRequest{abr_observation()});
  const auto report = engine->run();
  ASSERT_EQ(report.requests, static_cast<std::size_t>(kReqs));
  for (const auto& resp : engine->abr_responses()) {
    // latency = wait-for-the-policy-mutex + guarded decision. The budget
    // applies to compute only, so the split must reconstruct the total.
    EXPECT_GE(resp.meta.queue_wait_ms, 0.0);
    EXPECT_GE(resp.meta.compute_ms, 0.0);
    EXPECT_GE(resp.meta.latency_ms, resp.meta.compute_ms);
    EXPECT_GE(resp.meta.latency_ms + 1e-6,
              resp.meta.queue_wait_ms);  // total covers the wait share
  }
  // Element-wise latency >= compute implies the same for the percentiles.
  EXPECT_GE(report.p50_ms, report.compute_p50_ms);
  EXPECT_GE(report.p99_ms, report.compute_p99_ms);
  EXPECT_GE(report.wait_p99_ms, report.wait_p50_ms);
  EXPECT_EQ(nm::histogram("serve.abr.queue_wait_ms").count(), kReqs);
  EXPECT_EQ(nm::histogram("serve.abr.compute_ms").count(), kReqs);
}
