// Guarded inference (serving hardening): wrap the NetLLM adapters with a
// per-decision latency budget, output-validity checks and a rule-based
// fallback — the paper's "always a valid answer in one forward pass" promise
// enforced even when the LLM path throws, emits non-finite values or blows
// its deadline. A small circuit breaker stops hammering a failing LLM: after
// `breaker_threshold` consecutive failures every decision is served by the
// fallback for `breaker_cooldown` decisions, then the LLM is probed again.
//
// Failure/fallback counters are mirrored into the `core::stats` named
// counters (prefix + {llm_ok, fallback, fail.exception, fail.invalid,
// fail.latency, breaker.trips}) so benches can report fallback rates.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "core/timer.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"

namespace netllm::adapt {

struct GuardConfig {
  double latency_budget_ms = 0.0;  // 0 = no deadline
  int breaker_threshold = 3;       // consecutive failures that open the breaker
  int breaker_cooldown = 8;        // decisions served by fallback while open
  std::string counter_prefix;      // core::stats namespace, e.g. "guard.abr."
};

/// Coarse task health, exported as a metrics gauge by the serving engine
/// (serve.<task>.health) and derived from the guard state: Healthy while the
/// LLM path answers first try, Degraded once failures or retries appear but
/// the breaker is still closed, Open while the breaker serves the fallback.
enum class Health : int { kHealthy = 0, kDegraded = 1, kOpen = 2 };

/// Stable lowercase name ("healthy" / "degraded" / "open").
inline const char* health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    default: return "open";
  }
}

struct GuardCounters {
  std::int64_t llm_ok = 0;          // decisions served by the LLM path
  std::int64_t fallback = 0;        // decisions served by the fallback
  std::int64_t fail_exception = 0;  // LLM path threw
  std::int64_t fail_invalid = 0;    // LLM output failed validation
  std::int64_t fail_latency = 0;    // LLM answer arrived past the budget
  std::int64_t breaker_trips = 0;   // times the breaker opened
  std::int64_t retries = 0;         // extra primary attempts after transient failures
  std::int64_t shed = 0;            // decisions shed straight to the fallback
                                    // (overload / deadline / shutdown drain)

  std::int64_t decisions() const { return llm_ok + fallback + shed; }
  std::int64_t failures() const { return fail_exception + fail_invalid + fail_latency; }
};

/// Shared budget/validity/breaker engine behind the three guarded wrappers.
class GuardEngine {
 public:
  explicit GuardEngine(GuardConfig cfg) : cfg_(std::move(cfg)) {}

  /// Runs one guarded decision: `primary` produces an action, `valid` vets
  /// it, `fallback` serves it when the LLM path fails or the breaker is open.
  /// The fallback itself is trusted — rule-based baselines are total.
  template <typename Action, typename Primary, typename Validate, typename Fallback>
  Action decide(Primary&& primary, Validate&& valid, Fallback&& fallback) {
    if (breaker_open()) {
      --cooldown_left_;
      serve_fallback();
      return fallback();
    }
    core::Timer timer;
    try {
      Action action = primary();
      if (cfg_.latency_budget_ms > 0.0 && timer.elapsed_ms() > cfg_.latency_budget_ms) {
        record_failure(counters_.fail_latency, "fail.latency");
      } else if (!valid(action)) {
        record_failure(counters_.fail_invalid, "fail.invalid");
      } else {
        record_success();
        return action;
      }
    } catch (...) {
      // Any throw, std::exception or not, is the LLM path failing this one
      // decision; it must never escape past the fallback.
      record_failure(counters_.fail_exception, "fail.exception");
    }
    serve_fallback();
    return fallback();
  }

  const GuardCounters& counters() const { return counters_; }
  bool breaker_open() const { return cooldown_left_ > 0; }
  /// Healthy after a first-try success, Degraded while failures accumulate
  /// below the breaker threshold, Open while the breaker cools down.
  Health health() const { return health_; }
  const GuardConfig& config() const { return cfg_; }

 private:
  void bump(const char* name) {
    if (!cfg_.counter_prefix.empty()) core::counter_add(cfg_.counter_prefix + name);
  }
  void record_success() {
    consecutive_failures_ = 0;
    health_ = Health::kHealthy;
    ++counters_.llm_ok;
    bump("llm_ok");
  }
  void record_failure(std::int64_t& counter, const char* name) {
    ++counter;
    bump(name);
    health_ = Health::kDegraded;
    if (++consecutive_failures_ >= cfg_.breaker_threshold) {
      consecutive_failures_ = 0;
      cooldown_left_ = cfg_.breaker_cooldown;
      health_ = Health::kOpen;
      ++counters_.breaker_trips;
      bump("breaker.trips");
    }
  }
  void serve_fallback() {
    ++counters_.fallback;
    bump("fallback");
  }

  GuardConfig cfg_;
  GuardCounters counters_;
  int consecutive_failures_ = 0;
  int cooldown_left_ = 0;
  Health health_ = Health::kHealthy;
};

/// VP: falls back to the LR baseline (paper §A.3) by default. A prediction
/// is valid when it has `horizon` entries, all coordinates finite.
class GuardedVpPredictor final : public vp::VpPredictor {
 public:
  explicit GuardedVpPredictor(std::shared_ptr<vp::VpPredictor> primary,
                              std::shared_ptr<vp::VpPredictor> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history,
                                    const tensor::Tensor& saliency, int horizon) override;

  const GuardCounters& counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }

 private:
  std::shared_ptr<vp::VpPredictor> primary_, fallback_;
  GuardEngine engine_;
};

/// ABR: falls back to the BBA baseline by default. A decision is valid when
/// the level indexes the observation's bitrate ladder.
class GuardedAbrPolicy final : public abr::AbrPolicy {
 public:
  explicit GuardedAbrPolicy(std::shared_ptr<abr::AbrPolicy> primary,
                            std::shared_ptr<abr::AbrPolicy> fallback = nullptr,
                            GuardConfig cfg = {});

  std::string name() const override;
  void begin_session() override;
  int choose_level(const abr::Observation& obs) override;
  void observe_result(const abr::ChunkResult& result, double chunk_qoe) override;

  const GuardCounters& counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }

 private:
  std::shared_ptr<abr::AbrPolicy> primary_, fallback_;
  GuardEngine engine_;
};

/// CJS: falls back to the FIFO scheduler by default. A decision is valid
/// when it indexes the runnable-stage list and the executor-cap menu.
class GuardedSchedPolicy final : public cjs::SchedPolicy {
 public:
  explicit GuardedSchedPolicy(std::shared_ptr<cjs::SchedPolicy> primary,
                              std::shared_ptr<cjs::SchedPolicy> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  void begin_episode() override;
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override;
  void observe_reward(double reward) override;

  const GuardCounters& counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }

 private:
  std::shared_ptr<cjs::SchedPolicy> primary_, fallback_;
  GuardEngine engine_;
};

}  // namespace netllm::adapt
