// Guarded inference (DESIGN.md §6, §12): one thread-safe guard core behind
// the three Guarded* wrappers and every `serve::InferenceEngine` request. It
// gives each decision a latency budget, an output-validity check and a
// rule-based fallback (LR / BBA / FIFO) — the paper's "always a valid answer
// in one forward pass" promise enforced even when the LLM path throws, emits
// non-finite values or blows its deadline. A small circuit breaker stops
// hammering a failing LLM: after `breaker_threshold` consecutive failures
// every decision is served by the fallback for `breaker_cooldown` decisions,
// then the LLM is probed again. Overload shedding and deterministic
// retry/backoff are per-call inputs (`GuardCall`) the engine fills in; the
// wrappers call with the defaults (no retry, not shed).
//
// Counters are registered `core::metrics` handles named prefix + {llm_ok,
// fallback, fail.exception, fail.invalid, fail.latency, breaker.trips, retry,
// shed}, plus the prefix + "health" gauge, so benches can report fallback
// rates.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"

namespace netllm::core::metrics {
class Counter;
class Gauge;
}  // namespace netllm::core::metrics

namespace netllm::adapt {

struct GuardConfig {
  double latency_budget_ms = 0.0;  // 0 = no deadline
  int breaker_threshold = 3;       // consecutive failures that open the breaker
  int breaker_cooldown = 8;        // decisions served by fallback while open
  std::string counter_prefix;      // metrics namespace, e.g. "guard.abr."; empty = none
                                   // (the wrappers substitute "guard.<task>.")
};

/// Coarse task health, exported as the prefix + "health" gauge and derived
/// from the guard state: Healthy while the LLM path answers first try,
/// Degraded once failures or retries appear but the breaker is still closed,
/// Open while the breaker serves the fallback.
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
                                    // (overload / deadline / shutdown drain / KV budget)

  std::int64_t decisions() const { return llm_ok + fallback + shed; }
  std::int64_t failures() const { return fail_exception + fail_invalid + fail_latency; }
  GuardCounters& operator+=(const GuardCounters& o);
  bool operator==(const GuardCounters&) const = default;
};

/// Which path produced a guarded answer.
enum class Source {
  kLlm,       // primary model, first attempt
  kFallback,  // rule-based fallback after failure or while the breaker is open
  kRetried,   // primary model, after >= 1 transient-failure retry
  kShed,      // fallback without a primary answer: queue overflow victim,
              // admission deadline already missed, shutdown drain, or the
              // KV page budget could not fund the request
};

/// Stable lowercase name ("llm" / "fallback" / "retried" / "shed").
const char* source_name(Source s);

/// Per-call inputs of one guarded decision. The defaults (no retry, not
/// shed, no deadline) are the Guarded* wrappers'; the engine fills them from
/// its EngineConfig and the request's admission stamp.
struct GuardCall {
  bool shed = false;              // straight to the fallback; breaker and health untouched
  int retry_budget = 0;           // extra primary attempts after a transient failure
  double retry_backoff_ms = 0.0;  // base backoff; doubles per attempt, jittered
  std::uint64_t retry_seed = 0;   // seeds this call's private jitter stream
  std::chrono::steady_clock::time_point admitted{};  // start of the end-to-end deadline
  double deadline_ms = 0.0;       // 0 = none; no retry once it has passed
};

/// What one guarded decision did.
struct GuardOutcome {
  Source source = Source::kFallback;
  int retries = 0;  // transient-failure retries actually spent
};

/// Backoff before retry `attempt` (1-based) on the jitter stream seeded by
/// `seed`: base_ms * 2^(attempt-1), jittered to [0.5x, 1.5x) by core::Rng —
/// the same seed retries with the same delays in every run.
double retry_backoff_ms(double base_ms, std::uint64_t seed, int attempt);

/// The budget/validity/breaker state machine. Counters, the breaker and the
/// health share one mutex; the primary and the fallback run outside it.
class GuardCore {
 public:
  explicit GuardCore(GuardConfig cfg);

  /// Runs one guarded decision: `primary` produces an action, `valid` vets
  /// it, `fallback` serves it when the LLM path fails, the breaker is open
  /// or the call is shed. The fallback itself is trusted — rule-based
  /// baselines are total.
  template <typename Action, typename Primary, typename Validate, typename Fallback>
  Action decide(Primary&& primary, Validate&& valid, Fallback&& fallback,
                const GuardCall& call = {}, GuardOutcome* outcome = nullptr) {
    Action action{};
    auto attempt = [&] {
      action = primary();
      return true;
    };
    auto check = [&] { return static_cast<bool>(valid(std::as_const(action))); };
    const GuardOutcome out = run(call, Step(attempt), Step(check));
    if (outcome) *outcome = out;
    if (out.source == Source::kLlm || out.source == Source::kRetried) return action;
    return fallback();
  }

  GuardCounters counters() const;
  Health health() const;
  bool breaker_open() const;

 private:
  /// Non-owning reference to a `bool()` callable, so the state machine is
  /// compiled once in guarded.cpp rather than once per lambda type.
  class Step {
   public:
    template <typename F>
    explicit Step(F& f)
        : obj_(&f), fn_([](void* o) { return (*static_cast<F*>(o))(); }) {}
    bool operator()() const { return fn_(obj_); }

   private:
    void* obj_;
    bool (*fn_)(void*);
  };
  enum class Fail { kNone, kException, kInvalid, kLatency, kArena };

  GuardOutcome run(const GuardCall& call, Step attempt, Step valid);
  // The helpers below run with mu_ held.
  void count_failure(Fail f);
  void set_health(Health h);

  GuardConfig cfg_;
  // Resolved once at construction; all null when counter_prefix is empty.
  struct Metrics {
    core::metrics::Counter* llm_ok = nullptr;
    core::metrics::Counter* fallback = nullptr;
    core::metrics::Counter* fail_exception = nullptr;
    core::metrics::Counter* fail_invalid = nullptr;
    core::metrics::Counter* fail_latency = nullptr;
    core::metrics::Counter* breaker_trips = nullptr;
    core::metrics::Counter* retries = nullptr;
    core::metrics::Counter* shed = nullptr;
    core::metrics::Gauge* health = nullptr;
  } m_;

  mutable std::mutex mu_;
  GuardCounters counters_;
  int consecutive_failures_ = 0;
  int cooldown_left_ = 0;
  Health health_ = Health::kHealthy;
};

// One validity rule per task, shared by the wrappers and the engine.
/// VP: `horizon` viewports, every coordinate finite.
bool is_valid(const std::vector<vp::Viewport>& out, int horizon);
/// ABR: the level indexes the observation's bitrate ladder.
bool is_valid(int level, const abr::Observation& obs);
/// CJS: the action indexes the runnable-stage list and the executor-cap menu.
bool is_valid(const cjs::SchedAction& a, const cjs::SchedObservation& obs);

// One default fallback per task: `fb` itself, or LR / BBA / FIFO when null.
std::shared_ptr<vp::VpPredictor> fallback_or_default(std::shared_ptr<vp::VpPredictor> fb);
std::shared_ptr<abr::AbrPolicy> fallback_or_default(std::shared_ptr<abr::AbrPolicy> fb);
std::shared_ptr<cjs::SchedPolicy> fallback_or_default(std::shared_ptr<cjs::SchedPolicy> fb);

/// VP: falls back to the LR baseline (paper §A.3) by default.
class GuardedVpPredictor final : public vp::VpPredictor {
 public:
  explicit GuardedVpPredictor(std::shared_ptr<vp::VpPredictor> primary,
                              std::shared_ptr<vp::VpPredictor> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history,
                                    const tensor::Tensor& saliency, int horizon) override;

  GuardCounters counters() const { return guard_.counters(); }
  bool breaker_open() const { return guard_.breaker_open(); }
  Health health() const { return guard_.health(); }

 private:
  std::shared_ptr<vp::VpPredictor> primary_, fallback_;
  GuardCore guard_;
};

/// ABR: falls back to the BBA baseline by default.
class GuardedAbrPolicy final : public abr::AbrPolicy {
 public:
  explicit GuardedAbrPolicy(std::shared_ptr<abr::AbrPolicy> primary,
                            std::shared_ptr<abr::AbrPolicy> fallback = nullptr,
                            GuardConfig cfg = {});

  std::string name() const override;
  void begin_session() override;
  int choose_level(const abr::Observation& obs) override;
  void observe_result(const abr::ChunkResult& result, double chunk_qoe) override;

  GuardCounters counters() const { return guard_.counters(); }
  bool breaker_open() const { return guard_.breaker_open(); }
  Health health() const { return guard_.health(); }

 private:
  std::shared_ptr<abr::AbrPolicy> primary_, fallback_;
  GuardCore guard_;
};

/// CJS: falls back to the FIFO scheduler by default.
class GuardedSchedPolicy final : public cjs::SchedPolicy {
 public:
  explicit GuardedSchedPolicy(std::shared_ptr<cjs::SchedPolicy> primary,
                              std::shared_ptr<cjs::SchedPolicy> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  void begin_episode() override;
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override;
  void observe_reward(double reward) override;

  GuardCounters counters() const { return guard_.counters(); }
  bool breaker_open() const { return guard_.breaker_open(); }
  Health health() const { return guard_.health(); }

 private:
  std::shared_ptr<cjs::SchedPolicy> primary_, fallback_;
  GuardCore guard_;
};

}  // namespace netllm::adapt
