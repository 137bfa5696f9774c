// Chaos suite (ctest -L chaos): the DESIGN.md §12 overload/fault-storm
// layer around the serve engine.
//
// Pinned claims:
//   - the bounded admission queue enforces its policy: Reject throws the
//     named Overloaded error, ShedOldest serves the victim via the fallback
//     without primary compute, Block waits for a drain,
//   - a request whose admission deadline already passed is shed before any
//     primary compute is spent, and SLO accounting judges admission wait
//     PLUS serve time,
//   - transient primary failures retry with deterministic seeded backoff —
//     identical responses and counts at any NETLLM_THREADS,
//   - the per-task health machine walks Healthy -> Degraded -> Open and is
//     exported as the serve.<task>.health gauge,
//   - a seeded fault storm replays deterministically, and at 10x
//     oversubscription zero unhandled exceptions escape run(): every request
//     resolves with a named source,
//   - a shutdown request closes admission (named Overloaded) and drains the
//     queue via the fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/threadpool.hpp"
#include "netllm/serve.hpp"

namespace fault = netllm::core::fault;
namespace nc = netllm::core;
namespace nm = netllm::core::metrics;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
using netllm::adapt::Health;
using netllm::adapt::retry_backoff_ms;
using netllm::tensor::Tensor;

namespace {

/// Clean metrics/fault/stop/pool state on both sides of every test.
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override {
    nm::set_enabled(true);
    nm::reset();
    fault::disarm_all();
    nc::clear_stop();
  }
  void TearDown() override {
    fault::disarm_all();
    nc::clear_stop();
    nm::set_enabled(true);
    nm::reset();
    nc::set_global_threads(0);
  }
};

vp::Viewport make_viewport(double roll, double pitch, double yaw) {
  vp::Viewport v;
  v.roll = roll;
  v.pitch = pitch;
  v.yaw = yaw;
  return v;
}

serve::VpRequest vp_request(int horizon = 2, double yaw = 10.0) {
  serve::VpRequest req;
  req.history = {make_viewport(0.0, 0.0, yaw), make_viewport(1.0, 2.0, yaw + 2.0)};
  req.saliency = Tensor::zeros({4, 4});
  req.horizon = horizon;
  return req;
}

/// Deterministic primary: `horizon` copies of the last history viewport.
/// Counts calls so tests can assert "no primary compute was spent".
class CountingVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "counting"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    ++calls;
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
  std::atomic<int> calls{0};
};

/// Fails the first `fail_first` attempts of each request, keyed by the
/// request's content (horizon), NOT by call order — so which attempts fail
/// is identical at any thread count, mirroring a deterministic transient
/// fault (a flaky downstream that recovers on retry).
class FlakyVp : public vp::VpPredictor {
 public:
  explicit FlakyVp(int fail_first) : fail_first_(fail_first) {}
  std::string name() const override { return "flaky"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    ++calls;
    int seen = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen = attempts_by_key_[horizon]++;
    }
    if (seen < fail_first_) throw std::runtime_error("flaky primary: transient failure");
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
  std::atomic<int> calls{0};

 private:
  int fail_first_;
  std::mutex mu_;
  std::map<int, int> attempts_by_key_;
};

/// Primary whose behavior flips at runtime (healthy <-> down).
class SwitchableVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "switchable"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    if (fail.load()) throw std::runtime_error("primary down");
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }
  std::atomic<bool> fail{false};
};

}  // namespace

// ---------- admission policies ----------

TEST_F(Chaos, RejectPolicyThrowsNamedOverloadedAtCapacity) {
  serve::EngineConfig cfg;
  cfg.max_queue = 2;
  cfg.admission = serve::AdmissionPolicy::kReject;
  auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<CountingVp>(), nullptr,
                                                         nullptr, cfg);
  engine->submit(vp_request());
  engine->submit(vp_request());
  try {
    engine->submit(vp_request());
    FAIL() << "expected Overloaded";
  } catch (const serve::Overloaded& e) {
    // Named error with the capacity in the message: the caller can tell an
    // overload rejection from any other runtime_error without string-parsing
    // guesswork (catch by type) and the log still says what the limit was.
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  EXPECT_EQ(nm::counter("serve.vp.rejected").value(), 1);
  // Nothing was queued for the rejected request, and a drain reopens space.
  EXPECT_EQ(engine->pending(), 2u);
  const auto report = engine->run();
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.llm, 2u);
  EXPECT_NO_THROW(engine->submit(vp_request()));
}

TEST_F(Chaos, ShedOldestServesVictimViaFallbackWithoutPrimaryCompute) {
  serve::EngineConfig cfg;
  cfg.max_queue = 2;
  cfg.admission = serve::AdmissionPolicy::kShedOldest;
  auto primary = std::make_shared<CountingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr, cfg);
  const auto victim = engine->submit(vp_request(2));
  engine->submit(vp_request(3));
  const auto admitted = engine->submit(vp_request(4));  // sheds the oldest (victim)
  EXPECT_EQ(admitted.index, 2u);  // the victim kept its slot; no ticket aliasing
  const auto report = engine->run();
  EXPECT_EQ(report.requests, 3u);
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(report.llm, 2u);
  EXPECT_EQ(primary->calls.load(), 2);  // zero primary compute for the victim
  // The victim's ticket still resolves — to a fallback-served answer.
  const auto& resp = engine->vp_response(victim);
  EXPECT_EQ(resp.meta.source, serve::Source::kShed);
  EXPECT_EQ(resp.viewports.size(), 2u);  // the LR fallback still answered
  EXPECT_EQ(engine->counters().shed, 1);
  EXPECT_EQ(nm::counter("serve.vp.shed").value(), 1);
  // Shedding is load, not model failure: health stays Healthy.
  EXPECT_EQ(engine->vp_health(), Health::kHealthy);
}

namespace {

/// Level 0 on every call; counts calls.
class CountingAbr : public netllm::abr::AbrPolicy {
 public:
  std::string name() const override { return "counting-abr"; }
  int choose_level(const netllm::abr::Observation&) override {
    ++calls;
    return 0;
  }
  std::atomic<int> calls{0};
};

/// The first runnable stage at the smallest cap; counts calls.
class CountingCjs : public netllm::cjs::SchedPolicy {
 public:
  std::string name() const override { return "counting-cjs"; }
  netllm::cjs::SchedAction choose(const netllm::cjs::SchedObservation&) override {
    ++calls;
    return {0, 0};
  }
  std::atomic<int> calls{0};
};

serve::AbrRequest abr_request() {
  serve::AbrRequest req;
  req.obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0);
  req.obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
  req.obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  req.obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
  req.obs.buffer_s = 10.0;
  req.obs.chunks_remaining = 10;
  req.obs.num_levels = 4;
  return req;
}

serve::CjsRequest cjs_request() {
  serve::CjsRequest req;
  req.obs.node_features = Tensor::zeros({2, netllm::cjs::SchedObservation::kNodeFeatures});
  req.obs.topology.num_nodes = 2;
  req.obs.topology.children = {{}, {}};
  req.obs.runnable_rows = {0, 1};
  req.obs.job_of_row = {0, 1};
  req.obs.job_arrival_of_row = {0.0, 1.0};
  req.obs.idle_executors = 4;
  req.obs.total_executors = 8;
  return req;
}

}  // namespace

TEST_F(Chaos, ShedOldestPicksTheGloballyOldestRequestAcrossTasks) {
  serve::EngineConfig cfg;
  cfg.max_queue = 2;
  cfg.admission = serve::AdmissionPolicy::kShedOldest;
  auto vp_primary = std::make_shared<CountingVp>();
  auto abr_primary = std::make_shared<CountingAbr>();
  auto cjs_primary = std::make_shared<CountingCjs>();
  auto engine =
      std::make_shared<serve::InferenceEngine>(vp_primary, abr_primary, cjs_primary, cfg);
  // ABR, CJS, VP, CJS, ABR, VP: from the third submit on, each one sheds the
  // oldest unshed request, which is never the VP queue's head by lane order
  // alone: the ABR request, then the first CJS, then the first VP, then the
  // second CJS.
  const auto abr_old = engine->submit(abr_request());
  const auto cjs_old = engine->submit(cjs_request());
  const auto vp_old = engine->submit(vp_request(2));   // sheds abr_old
  const auto cjs_mid = engine->submit(cjs_request());  // sheds cjs_old
  const auto abr_new = engine->submit(abr_request());  // sheds vp_old
  const auto vp_new = engine->submit(vp_request(3));   // sheds cjs_mid
  EXPECT_EQ(engine->pending(), 6u);
  const auto report = engine->run();
  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.shed, 4u);
  EXPECT_EQ(report.llm, 2u);
  // Every victim's ticket resolves to a fallback answer, with no primary call.
  EXPECT_EQ(engine->abr_response(abr_old).meta.source, serve::Source::kShed);
  EXPECT_EQ(engine->cjs_response(cjs_old).meta.source, serve::Source::kShed);
  EXPECT_EQ(engine->vp_response(vp_old).meta.source, serve::Source::kShed);
  EXPECT_EQ(engine->cjs_response(cjs_mid).meta.source, serve::Source::kShed);
  EXPECT_EQ(engine->abr_response(abr_new).meta.source, serve::Source::kLlm);
  EXPECT_EQ(engine->vp_response(vp_new).meta.source, serve::Source::kLlm);
  EXPECT_EQ(engine->vp_response(vp_old).viewports.size(), 2u);  // LR still answered
  EXPECT_EQ(vp_primary->calls.load(), 1);
  EXPECT_EQ(abr_primary->calls.load(), 1);
  EXPECT_EQ(cjs_primary->calls.load(), 0);
  // The shed counts land on each victim's own task.
  EXPECT_EQ(nm::counter("serve.vp.shed").value(), 1);
  EXPECT_EQ(nm::counter("serve.abr.shed").value(), 1);
  EXPECT_EQ(nm::counter("serve.cjs.shed").value(), 2);
  EXPECT_EQ(engine->counters().shed, 4);
}

TEST_F(Chaos, BlockPolicyWaitsForADrainToFreeSpace) {
  serve::EngineConfig cfg;
  cfg.max_queue = 1;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<CountingVp>(), nullptr,
                                                         nullptr, cfg);
  engine->submit(vp_request(2));
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    engine->submit(vp_request(3));  // blocks until run() swaps the queue out
    admitted.store(true);
  });
  // The producer cannot be admitted before the drain frees the single slot.
  // (No sleep-based assertion on "still blocked" — that would be timing
  // flaky; the pinned claim is that it IS admitted once space appears.)
  const auto first = engine->run();
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(first.requests, 1u);
  const auto second = engine->run();
  EXPECT_EQ(second.requests, 1u);
  EXPECT_EQ(second.llm, 1u);
}

// ---------- deadlines ----------

TEST_F(Chaos, DeadlineAlreadyMissedShedsWithoutPrimaryCompute) {
  serve::EngineConfig cfg;
  cfg.deadline_ms = 1.0;
  auto primary = std::make_shared<CountingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr, cfg);
  const auto t = engine->submit(vp_request());
  // Let the admission deadline expire while the request sits queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto report = engine->run();
  EXPECT_EQ(primary->calls.load(), 0);  // SLO unmeetable: no compute burned
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(report.slo_miss, 1u);
  EXPECT_DOUBLE_EQ(report.slo_attainment(), 0.0);
  const auto& resp = engine->vp_response(t);
  EXPECT_EQ(resp.meta.source, serve::Source::kShed);
  EXPECT_TRUE(resp.meta.slo_miss);
  EXPECT_GE(resp.meta.admission_wait_ms, 1.0);
  EXPECT_EQ(nm::counter("serve.vp.slo_miss").value(), 1);
  // e2e percentiles cover admission wait; serve-side p50 does not.
  EXPECT_GE(report.e2e_p50_ms, 1.0);
}

TEST_F(Chaos, SloJudgesAdmissionWaitPlusServeTimeNeverComputeAlone) {
  serve::EngineConfig cfg;
  cfg.deadline_ms = 1000.0;  // generous: nothing sheds, nothing misses
  auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<CountingVp>(), nullptr,
                                                         nullptr, cfg);
  engine->submit(vp_request());
  engine->submit(vp_request());
  const auto report = engine->run();
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.llm, 2u);
  EXPECT_EQ(report.slo_miss, 0u);
  EXPECT_DOUBLE_EQ(report.slo_attainment(), 1.0);
  for (const auto& resp : engine->vp_responses()) {
    EXPECT_FALSE(resp.meta.slo_miss);
    EXPECT_GE(resp.meta.admission_wait_ms, 0.0);
  }
  EXPECT_GE(report.e2e_p99_ms, report.p99_ms);  // e2e includes the wait share
}

// ---------- deterministic retry ----------

TEST_F(Chaos, TransientFailuresRetryAndCountsMatchAcrossThreadCounts) {
  constexpr int kReqs = 8;
  auto run_once = [&](int threads) {
    nc::set_global_threads(threads);
    nm::reset();
    serve::EngineConfig cfg;
    cfg.retry_budget = 2;
    cfg.retry_backoff_ms = 0.0;  // keep the suite fast; jitter covered below
    auto primary = std::make_shared<FlakyVp>(/*fail_first=*/1);
    auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr, cfg);
    for (int i = 0; i < kReqs; ++i) engine->submit(vp_request(2 + i, 10.0 * i));
    const auto report = engine->run();
    std::vector<std::vector<vp::Viewport>> outs;
    for (const auto& r : engine->vp_responses()) {
      EXPECT_EQ(r.meta.source, serve::Source::kRetried);
      EXPECT_EQ(r.meta.retries, 1);
      outs.push_back(r.viewports);
    }
    return std::tuple{report.retried, engine->counters().retries, primary->calls.load(), outs};
  };
  const auto [retried1, retries1, calls1, outs1] = run_once(1);
  const auto [retried4, retries4, calls4, outs4] = run_once(4);
  EXPECT_EQ(retried1, static_cast<std::size_t>(kReqs));
  EXPECT_EQ(retried4, retried1);
  EXPECT_EQ(retries1, kReqs);  // one retry per request, at both thread counts
  EXPECT_EQ(retries4, retries1);
  EXPECT_EQ(calls1, 2 * kReqs);
  EXPECT_EQ(calls4, calls1);
  // Responses are bitwise identical across thread counts (the determinism
  // contract extends through the retry path).
  ASSERT_EQ(outs1.size(), outs4.size());
  for (std::size_t i = 0; i < outs1.size(); ++i) {
    ASSERT_EQ(outs1[i].size(), outs4[i].size());
    for (std::size_t j = 0; j < outs1[i].size(); ++j) {
      EXPECT_EQ(outs1[i][j].roll, outs4[i][j].roll);
      EXPECT_EQ(outs1[i][j].pitch, outs4[i][j].pitch);
      EXPECT_EQ(outs1[i][j].yaw, outs4[i][j].yaw);
    }
  }
}

TEST_F(Chaos, RetryBackoffIsSeededDoublingWithBoundedJitter) {
  serve::EngineConfig cfg;
  cfg.retry_backoff_ms = 4.0;
  cfg.retry_seed = 99;
  const std::uint64_t key = 0xabcdefULL;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double b = retry_backoff_ms(cfg.retry_backoff_ms, cfg.retry_seed ^ key, attempt);
    const double base = 4.0 * static_cast<double>(1 << (attempt - 1));
    EXPECT_GE(b, base * 0.5) << "attempt " << attempt;
    EXPECT_LT(b, base * 1.5) << "attempt " << attempt;
    // Re-evaluating the schedule gives the same delay: it is a pure function
    // of (config, request key, attempt) — replayable from a log line.
    EXPECT_EQ(b, retry_backoff_ms(cfg.retry_backoff_ms, cfg.retry_seed ^ key, attempt));
  }
  // Different requests draw from different jitter streams.
  EXPECT_NE(retry_backoff_ms(cfg.retry_backoff_ms, cfg.retry_seed ^ 1, 1),
            retry_backoff_ms(cfg.retry_backoff_ms, cfg.retry_seed ^ 2, 1));
}

TEST_F(Chaos, LatencyOverrunsNeverRetry) {
  serve::EngineConfig cfg;
  cfg.latency_budget_ms = 0.5;
  cfg.retry_budget = 3;
  auto primary = std::make_shared<CountingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr, cfg);
  fault::arm("serve.batch",
             {.kind = fault::FaultKind::Delay, .times = -1, .delay_ms = 2.0, .message = ""});
  engine->submit(vp_request());
  const auto report = engine->run();
  // Retrying a slow primary under load would amplify the overload the budget
  // exists to contain: exactly one attempt, then the fallback.
  EXPECT_EQ(primary->calls.load(), 1);
  EXPECT_EQ(report.fallback, 1u);
  EXPECT_EQ(report.retried, 0u);
  EXPECT_EQ(engine->counters().fail_latency, 1);
  EXPECT_EQ(engine->counters().retries, 0);
}

// ---------- health state machine ----------

TEST_F(Chaos, HealthWalksHealthyDegradedOpenAndBack) {
  serve::EngineConfig cfg;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 1;
  auto primary = std::make_shared<SwitchableVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr, cfg);
  auto drive = [&] {
    engine->submit(vp_request());
    engine->run();
  };
  EXPECT_EQ(engine->vp_health(), Health::kHealthy);

  primary->fail.store(true);
  drive();  // failure 1 of 2: degraded, breaker still closed
  EXPECT_EQ(engine->vp_health(), Health::kDegraded);
  EXPECT_EQ(nm::gauge("serve.vp.health").value(), 1.0);

  drive();  // failure 2 trips the breaker
  EXPECT_EQ(engine->vp_health(), Health::kOpen);
  EXPECT_EQ(nm::gauge("serve.vp.health").value(), 2.0);
  EXPECT_EQ(engine->counters().breaker_trips, 1);

  primary->fail.store(false);
  drive();  // cooldown decision: served by fallback, breaker still open
  EXPECT_EQ(engine->vp_health(), Health::kOpen);

  drive();  // probe succeeds first try: healthy again
  EXPECT_EQ(engine->vp_health(), Health::kHealthy);
  EXPECT_EQ(nm::gauge("serve.vp.health").value(), 0.0);
}

// ---------- fault storms ----------

TEST_F(Chaos, ArmStormValidatesSitesAndParameters) {
  fault::StormPlan plan;
  plan.sites.push_back({.site = "serve.btach", .kind = fault::FaultKind::Throw});  // typo
  EXPECT_THROW(fault::arm_storm(plan), std::invalid_argument);
  plan.sites[0].site = "serve.batch";
  plan.sites[0].burst = 0;
  EXPECT_THROW(fault::arm_storm(plan), std::invalid_argument);
  plan.sites[0].burst = 1;
  plan.horizon = 0;
  EXPECT_THROW(fault::arm_storm(plan), std::invalid_argument);
  plan.horizon = 64;
  EXPECT_NO_THROW(fault::arm_storm(plan));
}

TEST_F(Chaos, FaultSiteActivityExportsToMetrics) {
  fault::arm("serve.batch",
             {.kind = fault::FaultKind::Throw, .after = 1, .times = 1, .message = ""});
  auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<CountingVp>(), nullptr,
                                                         nullptr);
  for (int i = 0; i < 3; ++i) engine->submit(vp_request());
  engine->run();
  // The registry counters mirror the site's own hit/fired accounting, so a
  // storm run shows up in the same metrics.json as the serve counters.
  EXPECT_EQ(nm::counter("fault.serve.batch.hits").value(), fault::hits("serve.batch"));
  EXPECT_EQ(nm::counter("fault.serve.batch.hits").value(), 3);
  EXPECT_EQ(nm::counter("fault.serve.batch.fired").value(), fault::fired("serve.batch"));
  EXPECT_EQ(nm::counter("fault.serve.batch.fired").value(), 1);
}

TEST_F(Chaos, StormReplaysDeterministicallyFromItsSeed) {
  nc::set_global_threads(1);  // per-site hit order is part of the replay contract
  constexpr int kReqs = 40;
  fault::StormPlan plan;
  plan.seed = 2024;
  plan.horizon = 256;
  plan.sites.push_back(
      {.site = "serve.batch", .kind = fault::FaultKind::Throw, .p = 0.25, .burst = 2});
  auto run_storm = [&] {
    fault::disarm_all();
    nm::reset();
    fault::arm_storm(plan);
    serve::EngineConfig cfg;
    cfg.breaker_threshold = 1000000;  // isolate the schedule from breaker dynamics
    auto engine = std::make_shared<serve::InferenceEngine>(std::make_shared<CountingVp>(),
                                                           nullptr, nullptr, cfg);
    for (int i = 0; i < kReqs; ++i) engine->submit(vp_request());
    const auto report = engine->run();
    return std::tuple{fault::fired("serve.batch"), report.llm, report.fallback};
  };
  const auto [fired1, llm1, fb1] = run_storm();
  const auto [fired2, llm2, fb2] = run_storm();
  EXPECT_EQ(fired1, fired2);  // same seed -> identical firing pattern
  EXPECT_EQ(llm1, llm2);
  EXPECT_EQ(fb1, fb2);
  // With p=0.25, burst=2 over 40 hits the storm neither fires always nor
  // never (probability of either < 1e-4): the schedule is a real mixture.
  EXPECT_GT(fired1, 0);
  EXPECT_LT(fired1, kReqs);
  EXPECT_EQ(static_cast<std::size_t>(fired1), fb1);  // every firing hit fell back
}

TEST_F(Chaos, StormSweepAt10xOversubscriptionLeavesNoRequestUnresolved) {
  serve::EngineConfig cfg;
  cfg.max_queue = 8;
  cfg.admission = serve::AdmissionPolicy::kShedOldest;
  cfg.deadline_ms = 250.0;
  cfg.retry_budget = 1;
  cfg.retry_backoff_ms = 0.0;
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<FlakyVp>(/*fail_first=*/0), std::make_shared<netllm::baselines::Bba>(),
      nullptr, cfg);
  fault::StormPlan plan;
  plan.seed = 7;
  plan.horizon = 512;
  plan.sites.push_back(
      {.site = "serve.batch", .kind = fault::FaultKind::Throw, .p = 0.2, .burst = 3});
  fault::arm_storm(plan);

  // 10x the queue bound, in waves of submits + drains so shedding, retries
  // and storms all overlap. Zero unhandled exceptions may escape run().
  const std::size_t target = cfg.max_queue * 10;
  std::size_t submitted = 0;
  serve::BatchReport total;
  while (submitted < target) {
    for (std::size_t i = 0; i < cfg.max_queue + 3 && submitted < target; ++i, ++submitted) {
      if (submitted % 3 == 0) {
        netllm::abr::Observation obs;
        obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0);
        obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
        obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
        obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
        obs.buffer_s = 10.0;
        obs.chunks_remaining = 10;
        obs.num_levels = 4;
        engine->submit(serve::AbrRequest{obs});
      } else {
        engine->submit(vp_request(2, static_cast<double>(submitted)));
      }
    }
    serve::BatchReport report;
    ASSERT_NO_THROW(report = engine->run());
    // Every request resolved with a named source — nothing vanished.
    EXPECT_EQ(report.llm + report.retried + report.fallback + report.shed, report.requests);
    total.requests += report.requests;
    total.llm += report.llm;
    total.retried += report.retried;
    total.fallback += report.fallback;
    total.shed += report.shed;
  }
  EXPECT_EQ(total.requests, target);
  EXPECT_GT(total.fallback + total.retried + total.shed, 0u);  // the storm bit
  // Responses are well-formed even for degraded sources.
  for (const auto& r : engine->vp_responses()) EXPECT_EQ(r.viewports.size(), 2u);
}

// ---------- graceful shutdown ----------

TEST_F(Chaos, StopRequestClosesAdmissionAndDrainsQueueViaFallback) {
  auto primary = std::make_shared<CountingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr);
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(engine->submit(vp_request()));
  nc::request_stop();
  // Admission is closed: a late submit is a named overload, not a hang.
  EXPECT_THROW(engine->submit(vp_request()), serve::Overloaded);
  // The queued requests still resolve — via the fallback, without burning
  // primary compute on a process that is going away.
  serve::BatchReport report;
  ASSERT_NO_THROW(report = engine->run());
  EXPECT_TRUE(report.drained_on_stop);
  EXPECT_EQ(report.requests, 3u);
  EXPECT_EQ(report.shed, 3u);
  EXPECT_EQ(primary->calls.load(), 0);
  for (const auto& t : tickets) {
    EXPECT_EQ(engine->vp_response(t).meta.source, serve::Source::kShed);
    EXPECT_EQ(engine->vp_response(t).viewports.size(), 2u);
  }
  nc::clear_stop();
  // After the supervisor clears the flag, the engine serves normally again.
  engine->submit(vp_request());
  const auto after = engine->run();
  EXPECT_EQ(after.llm, 1u);
  EXPECT_FALSE(after.drained_on_stop);
}
