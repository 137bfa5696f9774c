#include "netllm/guarded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "nn/kv_arena.hpp"

namespace netllm::adapt {

GuardCounters& GuardCounters::operator+=(const GuardCounters& o) {
  llm_ok += o.llm_ok;
  fallback += o.fallback;
  fail_exception += o.fail_exception;
  fail_invalid += o.fail_invalid;
  fail_latency += o.fail_latency;
  breaker_trips += o.breaker_trips;
  retries += o.retries;
  shed += o.shed;
  return *this;
}

const char* source_name(Source s) {
  switch (s) {
    case Source::kLlm: return "llm";
    case Source::kFallback: return "fallback";
    case Source::kRetried: return "retried";
    default: return "shed";
  }
}

namespace {

/// One backoff draw: base * 2^(attempt-1), jittered to [0.5x, 1.5x). The rng
/// is the call's private stream — one draw per retry, in attempt order.
double next_backoff_ms(double base_ms, core::Rng& rng, int attempt) {
  const double jitter = 0.5 + rng.uniform();
  const int doublings = std::min(attempt - 1, 62);
  return base_ms * static_cast<double>(std::int64_t{1} << doublings) * jitter;
}

void bump(std::int64_t& count, core::metrics::Counter* metric) {
  ++count;
  if (metric) metric->add();
}

}  // namespace

double retry_backoff_ms(double base_ms, std::uint64_t seed, int attempt) {
  core::Rng rng(seed);
  double backoff = 0.0;
  for (int a = 1; a <= attempt; ++a) backoff = next_backoff_ms(base_ms, rng, a);
  return backoff;
}

// ---- the guard core ----

GuardCore::GuardCore(GuardConfig cfg) : cfg_(std::move(cfg)) {
  const std::string& p = cfg_.counter_prefix;
  if (p.empty()) return;  // metrics opted out
  m_.llm_ok = &core::metrics::counter(p + "llm_ok");
  m_.fallback = &core::metrics::counter(p + "fallback");
  m_.fail_exception = &core::metrics::counter(p + "fail.exception");
  m_.fail_invalid = &core::metrics::counter(p + "fail.invalid");
  m_.fail_latency = &core::metrics::counter(p + "fail.latency");
  m_.breaker_trips = &core::metrics::counter(p + "breaker.trips");
  m_.retries = &core::metrics::counter(p + "retry");
  m_.shed = &core::metrics::counter(p + "shed");
  m_.health = &core::metrics::gauge(p + "health");
}

GuardCounters GuardCore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

Health GuardCore::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

bool GuardCore::breaker_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cooldown_left_ > 0;
}

void GuardCore::count_failure(Fail f) {
  switch (f) {
    case Fail::kException: bump(counters_.fail_exception, m_.fail_exception); break;
    case Fail::kInvalid: bump(counters_.fail_invalid, m_.fail_invalid); break;
    default: bump(counters_.fail_latency, m_.fail_latency); break;
  }
}

void GuardCore::set_health(Health h) {
  if (health_ == h) return;
  health_ = h;
  if (m_.health) m_.health->set(static_cast<double>(static_cast<int>(h)));
}

GuardOutcome GuardCore::run(const GuardCall& call, Step attempt, Step valid) {
  GuardOutcome out;
  if (call.shed) {
    // Overload shedding (queue overflow victim, admission deadline already
    // missed, or shutdown drain): straight to the fallback, zero primary
    // compute. Shedding is load-induced, not a model failure — it leaves the
    // breaker and health state untouched.
    core::trace::Span span(core::trace::Phase::kGuard);
    std::lock_guard<std::mutex> lock(mu_);
    bump(counters_.shed, m_.shed);
    out.source = Source::kShed;
    return out;
  }
  {
    core::trace::Span span(core::trace::Phase::kGuard);
    std::lock_guard<std::mutex> lock(mu_);
    if (cooldown_left_ > 0) {
      // The fallback executes OUTSIDE mu_ (in decide): a slow, stateful or
      // throwing fallback must not serialize every other call's bookkeeping.
      --cooldown_left_;
      bump(counters_.fallback, m_.fallback);
      return out;
    }
  }
  Fail fail = Fail::kNone;
  const int max_attempts = 1 + std::max(0, call.retry_budget);
  // Private deterministic jitter stream: the caller seeds it from the
  // request's identity, so the backoff sequence is the same in every run.
  core::Rng retry_rng(call.retry_seed);
  for (;;) {
    fail = Fail::kNone;
    // The latency budget is enforced on the primary call alone — never on
    // time the caller spent waiting for a policy mutex. A contended-but-fast
    // request must not trip the breaker.
    core::Timer timer;
    try {
      attempt();
      if (cfg_.latency_budget_ms > 0.0 && timer.elapsed_ms() > cfg_.latency_budget_ms) {
        fail = Fail::kLatency;
      } else if (!valid()) {
        fail = Fail::kInvalid;
      }
    } catch (const nn::KvArena::Exhausted&) {
      // The KV page budget cannot fund this request right now. That is load,
      // not a model failure: shed to the fallback below without feeding the
      // breaker or the health state, exactly like an admission shed.
      fail = Fail::kArena;
    } catch (...) {
      // Any other throw — including one not derived from std::exception (an
      // int, a bespoke error type from a plugged-in model) — degrades this
      // one decision and never escapes past the fallback.
      fail = Fail::kException;
    }
    if (fail == Fail::kNone || fail == Fail::kArena) break;
    // Only transient classes retry (throws — FaultInjected, I/O errors — and
    // invalid output). A latency overrun never does: re-running a slow
    // primary under load amplifies exactly the overload the budget contains.
    if (fail == Fail::kLatency || out.retries + 1 >= max_attempts) break;
    // Deadline-aware: when the end-to-end SLO is already blown there is no
    // point burning another attempt — degrade to the fallback now.
    if (call.deadline_ms > 0.0 &&
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  call.admitted)
                .count() >= call.deadline_ms) {
      break;
    }
    ++out.retries;
    {
      core::trace::Span span(core::trace::Phase::kGuard);
      std::lock_guard<std::mutex> lock(mu_);
      count_failure(fail);  // the attempt's failure is real telemetry either way
      bump(counters_.retries, m_.retries);
      // A retry in flight means the task is not clean: Degraded until a
      // first-try success, Open only via the breaker below.
      set_health(Health::kDegraded);
    }
    const double backoff = next_backoff_ms(call.retry_backoff_ms, retry_rng, out.retries);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
    }
  }
  core::trace::Span span(core::trace::Phase::kGuard);
  std::lock_guard<std::mutex> lock(mu_);
  if (fail == Fail::kArena) {
    bump(counters_.shed, m_.shed);
    out.source = Source::kShed;
  } else if (fail == Fail::kNone) {
    consecutive_failures_ = 0;
    bump(counters_.llm_ok, m_.llm_ok);
    // A retried success proves the primary answers, but not cleanly.
    set_health(out.retries > 0 ? Health::kDegraded : Health::kHealthy);
    out.source = out.retries > 0 ? Source::kRetried : Source::kLlm;
  } else {
    // Only the final outcome feeds the breaker.
    count_failure(fail);
    if (++consecutive_failures_ >= cfg_.breaker_threshold) {
      consecutive_failures_ = 0;
      cooldown_left_ = cfg_.breaker_cooldown;
      bump(counters_.breaker_trips, m_.breaker_trips);
      set_health(Health::kOpen);
    } else {
      set_health(Health::kDegraded);
    }
    bump(counters_.fallback, m_.fallback);
  }
  return out;
}

// ---- validity rules and default fallbacks ----

bool is_valid(const std::vector<vp::Viewport>& out, int horizon) {
  if (out.size() != static_cast<std::size_t>(horizon)) return false;
  for (const auto& v : out) {
    if (!std::isfinite(v.roll) || !std::isfinite(v.pitch) || !std::isfinite(v.yaw)) return false;
  }
  return true;
}

bool is_valid(int level, const abr::Observation& obs) {
  return level >= 0 && level < obs.num_levels;
}

bool is_valid(const cjs::SchedAction& a, const cjs::SchedObservation& obs) {
  return a.runnable_index >= 0 && a.runnable_index < static_cast<int>(obs.runnable_rows.size()) &&
         a.cap_choice >= 0 && a.cap_choice < cjs::kNumCapChoices;
}

std::shared_ptr<vp::VpPredictor> fallback_or_default(std::shared_ptr<vp::VpPredictor> fb) {
  return fb ? fb : std::make_shared<baselines::LinearRegressionVp>();
}

std::shared_ptr<abr::AbrPolicy> fallback_or_default(std::shared_ptr<abr::AbrPolicy> fb) {
  return fb ? fb : std::make_shared<baselines::Bba>();
}

std::shared_ptr<cjs::SchedPolicy> fallback_or_default(std::shared_ptr<cjs::SchedPolicy> fb) {
  return fb ? fb : std::make_shared<baselines::FifoScheduler>();
}

// ---- the three wrappers ----

namespace {

GuardConfig with_default_prefix(GuardConfig cfg, const char* prefix) {
  if (cfg.counter_prefix.empty()) cfg.counter_prefix = prefix;
  return cfg;
}

}  // namespace

GuardedVpPredictor::GuardedVpPredictor(std::shared_ptr<vp::VpPredictor> primary,
                                       std::shared_ptr<vp::VpPredictor> fallback,
                                       GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      guard_(with_default_prefix(std::move(cfg), "guard.vp.")) {
  if (!primary_) throw std::invalid_argument("GuardedVpPredictor: null primary");
}

std::string GuardedVpPredictor::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

std::vector<vp::Viewport> GuardedVpPredictor::predict(std::span<const vp::Viewport> history,
                                                      const tensor::Tensor& saliency,
                                                      int horizon) {
  return guard_.decide<std::vector<vp::Viewport>>(
      [&] { return primary_->predict(history, saliency, horizon); },
      [&](const std::vector<vp::Viewport>& out) { return is_valid(out, horizon); },
      [&] { return fallback_->predict(history, saliency, horizon); });
}

GuardedAbrPolicy::GuardedAbrPolicy(std::shared_ptr<abr::AbrPolicy> primary,
                                   std::shared_ptr<abr::AbrPolicy> fallback, GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      guard_(with_default_prefix(std::move(cfg), "guard.abr.")) {
  if (!primary_) throw std::invalid_argument("GuardedAbrPolicy: null primary");
}

std::string GuardedAbrPolicy::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

void GuardedAbrPolicy::begin_session() {
  primary_->begin_session();
  fallback_->begin_session();
}

int GuardedAbrPolicy::choose_level(const abr::Observation& obs) {
  return guard_.decide<int>([&] { return primary_->choose_level(obs); },
                            [&](int level) { return is_valid(level, obs); },
                            [&] { return fallback_->choose_level(obs); });
}

void GuardedAbrPolicy::observe_result(const abr::ChunkResult& result, double chunk_qoe) {
  // Both paths observe real outcomes so the return-conditioned primary and a
  // stateful fallback (e.g. MPC) stay consistent with the actual session.
  primary_->observe_result(result, chunk_qoe);
  fallback_->observe_result(result, chunk_qoe);
}

GuardedSchedPolicy::GuardedSchedPolicy(std::shared_ptr<cjs::SchedPolicy> primary,
                                       std::shared_ptr<cjs::SchedPolicy> fallback,
                                       GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      guard_(with_default_prefix(std::move(cfg), "guard.cjs.")) {
  if (!primary_) throw std::invalid_argument("GuardedSchedPolicy: null primary");
}

std::string GuardedSchedPolicy::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

void GuardedSchedPolicy::begin_episode() {
  primary_->begin_episode();
  fallback_->begin_episode();
}

cjs::SchedAction GuardedSchedPolicy::choose(const cjs::SchedObservation& obs) {
  return guard_.decide<cjs::SchedAction>(
      [&] { return primary_->choose(obs); },
      [&](const cjs::SchedAction& a) { return is_valid(a, obs); },
      [&] { return fallback_->choose(obs); });
}

void GuardedSchedPolicy::observe_reward(double reward) {
  primary_->observe_reward(reward);
  fallback_->observe_reward(reward);
}

}  // namespace netllm::adapt
