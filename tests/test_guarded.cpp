// Guarded-inference and training-resilience tests: injected NaNs, latency
// overruns and thrown exceptions must never escape a guarded policy — the
// fallback serves a valid action on 100% of decisions — and the circuit
// breaker opens after consecutive failures and closes after its cooldown.
// Training-side: poisoned losses/gradients are skipped and corrupted
// parameters are restored from the last-good snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"
#include "netllm/serve.hpp"

namespace ad = netllm::adapt;
namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace vp = netllm::vp;
namespace fault = netllm::core::fault;
namespace metrics = netllm::core::metrics;
using netllm::core::Rng;

namespace {

std::shared_ptr<netllm::llm::MiniGpt> tiny_llm(std::uint64_t seed = 1) {
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.max_seq = 112;
  Rng rng(seed);
  return std::make_shared<netllm::llm::MiniGpt>(cfg, rng);
}

ad::VpAdapterConfig tiny_vp_cfg() {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  return cfg;
}

std::vector<vp::VpSample> tiny_vp_data(int max_samples = 10) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, max_samples);
}

class Guarded : public ::testing::Test {
 protected:
  void SetUp() override { metrics::reset(); }
  void TearDown() override { fault::disarm_all(); }
};

}  // namespace

// ---------- GuardCore semantics ----------

TEST_F(Guarded, EngineFallsBackOnInvalidOutput) {
  ad::GuardCore engine({.breaker_threshold = 100});
  const int got = engine.decide<int>([] { return 42; }, [](int v) { return v < 10; },
                                     [] { return 7; });
  EXPECT_EQ(got, 7);
  EXPECT_EQ(engine.counters().fail_invalid, 1);
  EXPECT_EQ(engine.counters().fallback, 1);
  EXPECT_EQ(engine.counters().llm_ok, 0);

  const int ok = engine.decide<int>([] { return 3; }, [](int v) { return v < 10; },
                                    [] { return 7; });
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(engine.counters().llm_ok, 1);
}

TEST_F(Guarded, EngineEnforcesLatencyBudget) {
  ad::GuardCore engine({.latency_budget_ms = 1.0, .breaker_threshold = 100});
  const int got = engine.decide<int>(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 1;
      },
      [](int) { return true; }, [] { return 2; });
  EXPECT_EQ(got, 2);  // correct answer arrived too late: fallback serves
  EXPECT_EQ(engine.counters().fail_latency, 1);
  EXPECT_EQ(engine.counters().fallback, 1);
}

TEST_F(Guarded, EngineBreakerOpensAndCloses) {
  ad::GuardCore engine({.breaker_threshold = 2, .breaker_cooldown = 3});
  int primary_calls = 0;
  auto decide = [&](bool fail) {
    return engine.decide<int>(
        [&]() -> int {
          ++primary_calls;
          if (fail) throw std::runtime_error("boom");
          return 1;
        },
        [](int) { return true; }, [] { return 0; });
  };

  EXPECT_EQ(decide(true), 0);
  EXPECT_FALSE(engine.breaker_open());
  EXPECT_EQ(decide(true), 0);  // second consecutive failure: breaker opens
  EXPECT_TRUE(engine.breaker_open());
  EXPECT_EQ(engine.counters().breaker_trips, 1);

  // During the cooldown the primary is never consulted.
  const int calls_at_open = primary_calls;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decide(true), 0);
  EXPECT_EQ(primary_calls, calls_at_open);
  EXPECT_FALSE(engine.breaker_open());  // cooldown exhausted

  // The next decision probes the primary again; a success closes the loop.
  EXPECT_EQ(decide(false), 1);
  EXPECT_EQ(engine.counters().llm_ok, 1);
  EXPECT_EQ(engine.counters().fail_exception, 2);
  EXPECT_EQ(engine.counters().fallback, 5);
}

// A primary that throws something not derived from std::exception (an int
// here) must still be caught by every wrapper: fallback served, counted as
// fail_exception, nothing escapes to the caller.
TEST_F(Guarded, NonStdExceptionServesFallbackInEveryWrapper) {
  struct ThrowingVp final : vp::VpPredictor {
    std::string name() const override { return "throws-int"; }
    std::vector<vp::Viewport> predict(std::span<const vp::Viewport>,
                                      const netllm::tensor::Tensor&, int) override {
      throw 42;
    }
  };
  struct ThrowingAbr final : abr::AbrPolicy {
    std::string name() const override { return "throws-int"; }
    int choose_level(const abr::Observation&) override { throw 42; }
  };
  struct ThrowingCjs final : cjs::SchedPolicy {
    std::string name() const override { return "throws-int"; }
    cjs::SchedAction choose(const cjs::SchedObservation&) override { throw 42; }
  };
  ad::GuardConfig cfg;
  cfg.breaker_threshold = 1000;  // keep the primary consulted on every decision

  auto data = tiny_vp_data(1);
  ad::GuardedVpPredictor vp_guarded(std::make_shared<ThrowingVp>(), nullptr, cfg);
  std::vector<vp::Viewport> pred;
  ASSERT_NO_THROW(pred = vp_guarded.predict(data[0].history, data[0].saliency, 4));
  EXPECT_EQ(pred.size(), 4u);
  EXPECT_EQ(vp_guarded.counters().fail_exception, 1);
  EXPECT_EQ(vp_guarded.counters().fallback, 1);

  auto setting = abr::abr_default_test();
  setting.num_traces = 1;
  ad::GuardedAbrPolicy abr_guarded(std::make_shared<ThrowingAbr>(), nullptr, cfg);
  ASSERT_NO_THROW(abr::evaluate_qoe(abr_guarded, abr::video_for(setting),
                                    abr::traces_for(setting)));
  EXPECT_GE(abr_guarded.counters().fail_exception, 1);
  EXPECT_EQ(abr_guarded.counters().fail_exception, abr_guarded.counters().decisions());
  EXPECT_EQ(abr_guarded.counters().fallback, abr_guarded.counters().decisions());

  cjs::WorkloadConfig wl;
  wl.num_job_requests = 3;
  wl.executor_units_k = 6;
  wl.scale = 1.0;
  wl.seed = 3;
  ad::GuardedSchedPolicy cjs_guarded(std::make_shared<ThrowingCjs>(), nullptr, cfg);
  cjs::EpisodeResult result;
  ASSERT_NO_THROW(result = cjs::run_workload(wl, cjs_guarded));
  EXPECT_EQ(result.jct_s.size(), 3u);
  EXPECT_GE(cjs_guarded.counters().fail_exception, 1);
  EXPECT_EQ(cjs_guarded.counters().fail_exception, cjs_guarded.counters().decisions());
  EXPECT_EQ(cjs_guarded.counters().fallback, cjs_guarded.counters().decisions());
}

// ---------- wrapper / engine parity ----------

namespace {

enum class Outcome { kOk, kThrow, kNan, kSlow };
// Wide enough that a scheduling hiccup on an "ok" step never reads as an overrun.
constexpr double kParityBudgetMs = 100.0;
constexpr double kMarkerYaw = 123.0;  // the scripted primary's answer

// Plays one scripted outcome per primary call.
struct ScriptedVp final : vp::VpPredictor {
  explicit ScriptedVp(std::vector<Outcome> s) : script(std::move(s)) {}
  std::string name() const override { return "scripted"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport>,
                                    const netllm::tensor::Tensor&, int horizon) override {
    const Outcome o = script.at(calls++);
    if (o == Outcome::kThrow) throw std::runtime_error("scripted failure");
    if (o == Outcome::kSlow) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(2.5 * kParityBudgetMs));
    }
    const double yaw = o == Outcome::kNan ? std::nan("") : kMarkerYaw;
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), {0.0, 0.0, yaw});
  }
  std::vector<Outcome> script;
  std::size_t calls = 0;
};

struct ThreadsOne {
  ThreadsOne() { netllm::core::set_global_threads(1); }
  ~ThreadsOne() { netllm::core::set_global_threads(0); }
};

}  // namespace

// One guard core serves both paths, so an engine with retry_budget = 0 and
// one request per run() must reproduce the wrapper decision for decision:
// ok, throw, NaN output, latency overrun, a throw past the breaker threshold,
// the cooldown, then a probe success.
TEST_F(Guarded, WrapperAndEngineWithoutRetriesMakeIdenticalDecisions) {
  ThreadsOne threads;
  const std::vector<Outcome> script = {Outcome::kOk,   Outcome::kThrow, Outcome::kNan,
                                       Outcome::kSlow, Outcome::kThrow, Outcome::kOk};
  ad::GuardConfig gcfg;
  gcfg.latency_budget_ms = kParityBudgetMs;
  gcfg.breaker_threshold = 4;
  gcfg.breaker_cooldown = 2;
  auto wrapped_primary = std::make_shared<ScriptedVp>(script);
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(wrapped_primary), gcfg);

  netllm::serve::EngineConfig ecfg;
  ecfg.latency_budget_ms = gcfg.latency_budget_ms;
  ecfg.breaker_threshold = gcfg.breaker_threshold;
  ecfg.breaker_cooldown = gcfg.breaker_cooldown;
  ecfg.retry_budget = 0;
  ecfg.max_slots = 1;
  auto served_primary = std::make_shared<ScriptedVp>(script);
  netllm::serve::InferenceEngine engine(served_primary, nullptr, nullptr, ecfg);

  const auto data = tiny_vp_data(1);
  constexpr int kHorizon = 2;
  // Expected per decision: served by the LLM, health afterwards, primary calls so far.
  struct Expect {
    bool llm;
    ad::Health health;
    std::size_t calls;
  };
  const Expect expect[] = {
      {true, ad::Health::kHealthy, 1},   {false, ad::Health::kDegraded, 2},
      {false, ad::Health::kDegraded, 3}, {false, ad::Health::kDegraded, 4},
      {false, ad::Health::kOpen, 5},     {false, ad::Health::kOpen, 5},
      {false, ad::Health::kOpen, 5},     {true, ad::Health::kHealthy, 6},
  };
  const char* shared[] = {"llm_ok",       "fallback", "fail.exception", "fail.invalid",
                          "fail.latency", "breaker.trips", "retry",     "shed"};
  for (std::size_t step = 0; step < std::size(expect); ++step) {
    SCOPED_TRACE("decision " + std::to_string(step));
    const auto wrapped = guarded->predict(data[0].history, data[0].saliency, kHorizon);
    engine.submit(netllm::serve::VpRequest{data[0].history, data[0].saliency, kHorizon});
    engine.run();
    ASSERT_EQ(engine.vp_responses().size(), 1u);
    const auto& served = engine.vp_responses()[0];

    const bool wrapped_llm = wrapped.at(0).yaw == kMarkerYaw;
    EXPECT_EQ(wrapped_llm, expect[step].llm);
    EXPECT_EQ(served.meta.source, expect[step].llm ? netllm::serve::Source::kLlm
                                                   : netllm::serve::Source::kFallback);
    ASSERT_EQ(served.viewports.size(), wrapped.size());
    for (std::size_t i = 0; i < wrapped.size(); ++i) {
      EXPECT_EQ(served.viewports[i].yaw, wrapped[i].yaw);
    }
    EXPECT_EQ(engine.counters(), guarded->counters());
    EXPECT_EQ(guarded->health(), expect[step].health);
    EXPECT_EQ(engine.vp_health(), guarded->health());
    EXPECT_EQ(wrapped_primary->calls, expect[step].calls);
    EXPECT_EQ(served_primary->calls, expect[step].calls);
    for (const char* name : shared) {
      EXPECT_EQ(metrics::counter(std::string("serve.vp.") + name).value(),
                metrics::counter(std::string("guard.vp.") + name).value())
          << name;
    }
    EXPECT_EQ(metrics::gauge("serve.vp.health").value(),
              metrics::gauge("guard.vp.health").value());
  }
  const auto c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 2);
  EXPECT_EQ(c.fallback, 6);
  EXPECT_EQ(c.fail_exception, 2);
  EXPECT_EQ(c.fail_invalid, 1);
  EXPECT_EQ(c.fail_latency, 1);
  EXPECT_EQ(c.breaker_trips, 1);
  EXPECT_EQ(c.retries + c.shed, 0);
}

// ---------- guarded policies under fault injection ----------

TEST_F(Guarded, VpFallsBackToFiniteViewportsUnderNanFeatures) {
  Rng rng(21);
  auto data = tiny_vp_data();
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter));
  EXPECT_NE(guarded->name().find("Guarded("), std::string::npos);

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  for (int i = 0; i < 5; ++i) {
    auto pred = guarded->predict(data[0].history, data[0].saliency, 4);
    ASSERT_EQ(pred.size(), 4u);  // valid answer on 100% of decisions
    for (const auto& v : pred) {
      EXPECT_TRUE(std::isfinite(v.roll) && std::isfinite(v.pitch) && std::isfinite(v.yaw));
    }
  }
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, 5);
  EXPECT_GE(c.fail_invalid, 1);  // NaN coordinates failed validation
  // Counters are mirrored into the core::metrics registry for bench reports.
  EXPECT_EQ(metrics::counter("guard.vp.fallback").value(), c.fallback);
}

TEST_F(Guarded, VpLatencyOverrunTriggersFallback) {
  Rng rng(22);
  auto data = tiny_vp_data();
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  ad::GuardConfig cfg;
  cfg.latency_budget_ms = 2.0;
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter), cfg);

  fault::arm("llm.forward",
             {.kind = fault::FaultKind::Delay, .times = -1, .delay_ms = 20.0});
  auto pred = guarded->predict(data[0].history, data[0].saliency, 1);
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_TRUE(std::isfinite(pred[0].yaw));
  EXPECT_EQ(guarded->counters().fail_latency, 1);
  EXPECT_EQ(guarded->counters().fallback, 1);
}

TEST_F(Guarded, VpBreakerRecoversOnceFaultClears) {
  Rng rng(23);
  auto data = tiny_vp_data();
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  ad::GuardConfig cfg;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown = 2;
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter), cfg);

  // horizon=1 → exactly one "llm.forward" hit per decision, so three firings
  // are three consecutive failed decisions: the breaker opens on the third.
  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = 3});
  for (int i = 0; i < 3; ++i) guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_TRUE(guarded->breaker_open());
  EXPECT_EQ(guarded->counters().breaker_trips, 1);

  // Two cooldown decisions served by the fallback, then a probe that
  // succeeds (the plan is exhausted) puts the LLM back in charge.
  for (int i = 0; i < 2; ++i) guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_FALSE(guarded->breaker_open());
  guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_EQ(guarded->counters().llm_ok, 1);
  EXPECT_EQ(guarded->counters().fallback, 5);
}

TEST_F(Guarded, AbrServesValidLevelsForWholeSessionsUnderNanLogits) {
  Rng rng(24);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto adapter = std::make_shared<ad::AbrAdapter>(tiny_llm(), cfg, rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<abr::AbrPolicy>(adapter));

  auto setting = abr::abr_default_test();
  setting.num_traces = 2;
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  // The simulator rejects invalid levels, so completing both sessions means
  // every one of the 2x48 decisions was valid — all served by BBA.
  const auto qoe = abr::evaluate_qoe(*guarded, video, traces);
  EXPECT_EQ(qoe.size(), 2u);
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, c.decisions());
  EXPECT_GE(c.fail_exception, 1);  // heads refuse non-finite logits
  EXPECT_GE(c.breaker_trips, 1);
  EXPECT_EQ(metrics::counter("guard.abr.fallback").value(), c.fallback);
}

TEST_F(Guarded, CjsCompletesWorkloadUnderNanLogits) {
  Rng rng(25);
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto adapter = std::make_shared<ad::CjsAdapter>(tiny_llm(), cfg, rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<cjs::SchedPolicy>(adapter));

  cjs::WorkloadConfig wl;
  wl.num_job_requests = 6;
  wl.executor_units_k = 6;
  wl.scale = 1.0;
  wl.seed = 3;

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  const auto result = cjs::run_workload(wl, *guarded);
  EXPECT_EQ(result.jct_s.size(), 6u);  // every job finished on valid actions
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, c.decisions());
  EXPECT_GE(c.fail_exception, 1);
  EXPECT_EQ(metrics::counter("guard.cjs.fallback").value(), c.fallback);
}

// ---------- training resilience ----------

TEST_F(Guarded, AdaptSkipsPoisonedLossSteps) {
  Rng rng(26);
  auto data = tiny_vp_data();
  ad::VpAdapter adapter(tiny_llm(), tiny_vp_cfg(), rng);
  // Poison the loss on exactly the 4th and 5th steps.
  fault::arm("adapter.step", {.kind = fault::FaultKind::CorruptNan, .after = 3, .times = 2});
  const auto stats_out = adapter.adapt(data, 20, 1e-3f, 1);
  EXPECT_EQ(fault::fired("adapter.step"), 2);
  EXPECT_EQ(stats_out.skipped_steps, 2);
  EXPECT_EQ(stats_out.restores, 0);
  EXPECT_TRUE(std::isfinite(stats_out.final_loss));
  EXPECT_EQ(metrics::counter("adapt.skipped_steps").value(), 2);
}

TEST_F(Guarded, AdaptRestoresCorruptedParameters) {
  Rng rng(27);
  auto data = tiny_vp_data();
  ad::VpAdapter adapter(tiny_llm(), tiny_vp_cfg(), rng);
  // Corrupt the optimised parameters after the 3rd applied step: the guard
  // must restore its last-good snapshot and finish the adaptation.
  fault::arm("adapter.params", {.kind = fault::FaultKind::CorruptNan, .after = 2, .times = 1});
  const auto stats_out = adapter.adapt(data, 20, 1e-3f, 2);
  EXPECT_EQ(stats_out.restores, 1);
  EXPECT_TRUE(std::isfinite(stats_out.final_loss));
  for (const auto& p : adapter.adapt_parameters()) {
    for (float v : p.data()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(metrics::counter("adapt.restores").value(), 1);
}
