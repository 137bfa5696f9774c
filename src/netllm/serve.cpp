#include "netllm/serve.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "core/fault.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/stats.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"

namespace netllm::serve {

const char* source_name(Source s) {
  switch (s) {
    case Source::kLlm: return "llm";
    case Source::kFallback: return "fallback";
    case Source::kRetried: return "retried";
    default: return "shed";
  }
}

namespace {

/// Milliseconds between two steady-clock points.
double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Deterministic per-request stream selector: mixes (task, epoch, index) so
/// nearby requests get far-apart retry-jitter seeds. splitmix64 finalizer.
std::uint64_t request_key(std::uint64_t task, std::uint64_t epoch, std::uint64_t index) {
  std::uint64_t x = (task << 62) ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (index + 0xbf58476d1ce4e5b9ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One backoff draw: base * 2^(attempt-1), jittered to [0.5x, 1.5x). The rng
/// is the request's private stream — one draw per retry, in attempt order.
double next_backoff_ms(const EngineConfig& cfg, core::Rng& rng, int attempt) {
  const double jitter = 0.5 + rng.uniform();
  const int doublings = std::min(attempt - 1, 62);
  return cfg.retry_backoff_ms * static_cast<double>(std::int64_t{1} << doublings) * jitter;
}

}  // namespace

double retry_backoff_ms(const EngineConfig& cfg, std::uint64_t request_key, int attempt) {
  core::Rng rng(cfg.retry_seed ^ request_key);
  double backoff = 0.0;
  for (int a = 1; a <= attempt; ++a) backoff = next_backoff_ms(cfg, rng, a);
  return backoff;
}

InferenceEngine::InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                                 std::shared_ptr<abr::AbrPolicy> abr_policy,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg,
                                 std::shared_ptr<vp::VpPredictor> vp_fallback,
                                 std::shared_ptr<abr::AbrPolicy> abr_fallback,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_fallback)
    : cfg_(std::move(cfg)),
      vp_model_(std::move(vp_model)),
      vp_fallback_(vp_fallback ? std::move(vp_fallback)
                               : std::make_shared<baselines::LinearRegressionVp>()),
      abr_policy_(std::move(abr_policy)),
      abr_fallback_(abr_fallback ? std::move(abr_fallback) : std::make_shared<baselines::Bba>()),
      cjs_policy_(std::move(cjs_policy)),
      cjs_fallback_(cjs_fallback ? std::move(cjs_fallback)
                                 : std::make_shared<baselines::FifoScheduler>()) {
  if (!vp_model_ && !abr_policy_ && !cjs_policy_) {
    throw std::invalid_argument("InferenceEngine: need at least one model");
  }
  // Resolve all metric handles once; the serve path never assembles a name.
  vp_metrics_ = make_task_metrics("vp");
  abr_metrics_ = make_task_metrics("abr");
  cjs_metrics_ = make_task_metrics("cjs");
  if (!cfg_.counter_prefix.empty()) {
    queue_depth_ = &core::metrics::gauge(cfg_.counter_prefix + "queue_depth");
    admission_wakeups_ = &core::metrics::counter(cfg_.counter_prefix + "admission.wakeups");
  }
  // Pooled KV arena (DESIGN.md §13): when the VP primary is a VpAdapter,
  // its rollouts lease pages from this engine's budget and share warm
  // prompt prefixes across requests. Other predictors are opaque — they
  // keep their own caching strategy.
  if (cfg_.arena_pages > 0) {
    if (auto adapter = std::dynamic_pointer_cast<adapt::VpAdapter>(vp_model_)) {
      const auto& llm_cfg = adapter->llm().config();
      nn::KvArenaConfig acfg;
      acfg.page_rows = cfg_.arena_page_rows;
      acfg.page_budget = cfg_.arena_pages;
      acfg.prefix_entries = cfg_.arena_prefix_entries;
      arena_ = std::make_shared<nn::KvArena>(llm_cfg.n_layers, llm_cfg.d_model, acfg);
      adapter->set_kv_arena(arena_);
    }
  }
  // Block-quantized backbone (DESIGN.md §15): quantize every adapter
  // primary's projection weights at the configured dtype. Non-adapter
  // predictors are opaque and stay untouched.
  if (cfg_.backbone_dtype != tensor::quant::Dtype::kF32) {
    if (auto adapter = std::dynamic_pointer_cast<adapt::VpAdapter>(vp_model_)) {
      adapter->llm_shared()->quantize_backbone(cfg_.backbone_dtype);
    }
    if (auto adapter = std::dynamic_pointer_cast<adapt::AbrAdapter>(abr_policy_)) {
      adapter->llm_shared()->quantize_backbone(cfg_.backbone_dtype);
    }
    if (auto adapter = std::dynamic_pointer_cast<adapt::CjsAdapter>(cjs_policy_)) {
      adapter->llm_shared()->quantize_backbone(cfg_.backbone_dtype);
    }
  }
}

InferenceEngine::TaskMetrics InferenceEngine::make_task_metrics(const char* task) const {
  TaskMetrics m;
  if (cfg_.counter_prefix.empty()) return m;  // metrics opted out for this engine
  const std::string base = cfg_.counter_prefix + task + ".";
  m.llm_ok = &core::metrics::counter(base + "llm_ok");
  m.fallback = &core::metrics::counter(base + "fallback");
  m.fail_exception = &core::metrics::counter(base + "fail.exception");
  m.fail_invalid = &core::metrics::counter(base + "fail.invalid");
  m.fail_latency = &core::metrics::counter(base + "fail.latency");
  m.breaker_trips = &core::metrics::counter(base + "breaker.trips");
  m.retries = &core::metrics::counter(base + "retry");
  m.shed = &core::metrics::counter(base + "shed");
  m.slo_miss = &core::metrics::counter(base + "slo_miss");
  m.rejected = &core::metrics::counter(base + "rejected");
  m.health = &core::metrics::gauge(base + "health");
  m.queue_wait_ms = &core::metrics::histogram(base + "queue_wait_ms");
  m.compute_ms = &core::metrics::histogram(base + "compute_ms");
  return m;
}

void InferenceEngine::set_health(Guard& g, TaskMetrics& m, adapt::Health h) {
  if (g.health == h) return;
  g.health = h;
  if (m.health) m.health->set(static_cast<double>(static_cast<int>(h)));
}

template <typename Action, typename Primary, typename Validate, typename Fallback>
Action InferenceEngine::decide(Guard& g, TaskMetrics& m, Primary&& primary, Validate&& valid,
                               Fallback&& fallback, ResponseMeta& meta, const DecideCtx& ctx) {
  if (ctx.shed) {
    // Overload shedding (queue overflow victim, admission deadline already
    // missed, or shutdown drain): straight to the fallback, zero primary
    // compute. Shedding is load-induced, not a model failure — it leaves the
    // breaker and health state untouched.
    {
      core::trace::Span span(core::trace::Phase::kGuard);
      std::lock_guard<std::mutex> lock(g.mu);
      ++g.counters.shed;
    }
    if (m.shed) m.shed->add();
    meta.source = Source::kShed;
    return fallback();
  }
  bool cooling = false;
  {
    core::trace::Span span(core::trace::Phase::kGuard);
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.cooldown_left > 0) {
      --g.cooldown_left;
      ++g.counters.fallback;
      if (m.fallback) m.fallback->add();
      cooling = true;
    }
  }
  if (cooling) {
    // The fallback executes OUTSIDE g.mu: a slow (or stateful, or throwing)
    // fallback must not serialize every other request's guard bookkeeping.
    meta.source = Source::kFallback;
    return fallback();
  }
  enum class Fail { kNone, kException, kInvalid, kLatency, kArena };
  // Caller holds g.mu. Attributes one failed attempt to its failure class.
  auto bump_fail = [&](Fail f) {
    switch (f) {
      case Fail::kException:
        ++g.counters.fail_exception;
        if (m.fail_exception) m.fail_exception->add();
        break;
      case Fail::kInvalid:
        ++g.counters.fail_invalid;
        if (m.fail_invalid) m.fail_invalid->add();
        break;
      default:
        ++g.counters.fail_latency;
        if (m.fail_latency) m.fail_latency->add();
        break;
    }
  };
  Fail fail = Fail::kNone;
  Action action{};
  const int max_attempts = 1 + std::max(0, cfg_.retry_budget);
  // Private deterministic jitter stream: seeded from the request's identity,
  // so the backoff sequence is the same in every run at any NETLLM_THREADS.
  core::Rng retry_rng(cfg_.retry_seed ^ ctx.retry_key);
  int retries = 0;
  for (;;) {
    fail = Fail::kNone;
    // The latency budget is enforced on the primary model call below — never
    // on time spent waiting for a policy mutex (reported as queue_wait_ms by
    // the caller). A contended-but-fast request must not trip the breaker.
    core::Timer timer;
    try {
      // The injection site fires inside the guarded region: an armed
      // `serve.batch` plan (throw / delay past the budget) is handled exactly
      // like an organic LLM-path failure — this one request falls back.
      core::fault::check("serve.batch");
      action = primary();
      if (cfg_.latency_budget_ms > 0.0 && timer.elapsed_ms() > cfg_.latency_budget_ms) {
        fail = Fail::kLatency;
      } else if (!valid(action)) {
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
      // one request, never escaping into parallel_for to poison the batch.
      fail = Fail::kException;
    }
    if (fail == Fail::kNone || fail == Fail::kArena) break;
    // Only transient classes retry (throws — FaultInjected, I/O errors — and
    // invalid output). A latency overrun never does: re-running a slow
    // primary under load amplifies exactly the overload the budget contains.
    if (fail == Fail::kLatency || retries + 1 >= max_attempts) break;
    // Deadline-aware: when the end-to-end SLO is already blown there is no
    // point burning another attempt — degrade to the fallback now.
    if (cfg_.deadline_ms > 0.0 && ms_between(ctx.admitted, Clock::now()) >= cfg_.deadline_ms) {
      break;
    }
    ++retries;
    {
      core::trace::Span span(core::trace::Phase::kGuard);
      std::lock_guard<std::mutex> lock(g.mu);
      bump_fail(fail);  // the attempt's failure is real telemetry either way
      ++g.counters.retries;
      if (m.retries) m.retries->add();
      // A retry in flight means the task is not clean: Degraded until a
      // first-try success, Open only via the breaker below.
      set_health(g, m, adapt::Health::kDegraded);
    }
    const double backoff = next_backoff_ms(cfg_, retry_rng, retries);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
    }
  }
  meta.retries = retries;
  if (fail == Fail::kArena) {
    {
      core::trace::Span span(core::trace::Phase::kGuard);
      std::lock_guard<std::mutex> lock(g.mu);
      ++g.counters.shed;
    }
    if (m.shed) m.shed->add();
    meta.source = Source::kShed;
    return fallback();
  }
  {
    core::trace::Span span(core::trace::Phase::kGuard);
    std::lock_guard<std::mutex> lock(g.mu);
    if (fail == Fail::kNone) {
      g.consecutive_failures = 0;
      ++g.counters.llm_ok;
      if (m.llm_ok) m.llm_ok->add();
      // A retried success proves the primary answers, but not cleanly.
      set_health(g, m, retries > 0 ? adapt::Health::kDegraded : adapt::Health::kHealthy);
      meta.source = retries > 0 ? Source::kRetried : Source::kLlm;
      return action;
    }
    bump_fail(fail);
    if (++g.consecutive_failures >= cfg_.breaker_threshold) {
      g.consecutive_failures = 0;
      g.cooldown_left = cfg_.breaker_cooldown;
      ++g.counters.breaker_trips;
      if (m.breaker_trips) m.breaker_trips->add();
      set_health(g, m, adapt::Health::kOpen);
    } else {
      set_health(g, m, adapt::Health::kDegraded);
    }
    ++g.counters.fallback;
    if (m.fallback) m.fallback->add();
  }
  // As above: the failure-path fallback also runs outside g.mu.
  meta.source = Source::kFallback;
  return fallback();
}

std::size_t InferenceEngine::unshed_pending_locked() const {
  auto count = [](const auto& queue) {
    std::size_t n = 0;
    for (const auto& q : queue) {
      if (!q.shed) ++n;
    }
    return n;
  };
  return count(vp_queue_) + count(abr_queue_) + count(cjs_queue_);
}

void InferenceEngine::shed_oldest_locked() {
  // The victim keeps its queue slot and its ticket stays valid — the drain
  // serves it via the fallback (Source::kShed) without primary compute. Only
  // the shed flag flips, so concurrent tickets never alias.
  Queued<VpRequest>* vp = nullptr;
  Queued<AbrRequest>* abr = nullptr;
  Queued<CjsRequest>* cjs = nullptr;
  auto first_unshed = [](auto& queue) -> decltype(&queue.front()) {
    for (auto& q : queue) {
      if (!q.shed) return &q;
    }
    return nullptr;
  };
  vp = first_unshed(vp_queue_);
  abr = first_unshed(abr_queue_);
  cjs = first_unshed(cjs_queue_);
  // Oldest admission stamp across the three queues (each queue is
  // admission-ordered, so its first unshed entry is its oldest).
  const auto stamp = [](const auto* q) {
    return q ? q->admitted : Clock::time_point::max();
  };
  const auto vp_t = stamp(vp), abr_t = stamp(abr), cjs_t = stamp(cjs);
  if (vp && vp_t <= abr_t && vp_t <= cjs_t) {
    vp->shed = true;
  } else if (abr && abr_t <= cjs_t) {
    abr->shed = true;
  } else if (cjs) {
    cjs->shed = true;
  }
}

void InferenceEngine::admit_locked(std::unique_lock<std::mutex>& lk,
                                   core::metrics::Counter* rejected) {
  if (core::stop_requested()) {
    if (rejected) rejected->add();
    throw Overloaded(
        "InferenceEngine: admission closed (shutdown requested; queued "
        "requests drain via the fallback)");
  }
  if (cfg_.max_queue == 0) return;
  while (unshed_pending_locked() >= cfg_.max_queue) {
    switch (cfg_.admission) {
      case AdmissionPolicy::kReject:
        if (rejected) rejected->add();
        throw Overloaded("InferenceEngine: queue full (" + std::to_string(cfg_.max_queue) +
                         " pending) under the Reject admission policy");
      case AdmissionPolicy::kShedOldest:
        shed_oldest_locked();
        break;
      case AdmissionPolicy::kBlock:
        // Predicate wait: the producer sleeps until run() frees space (it
        // notifies queue_cv_ after the swap) or a stop closes admission —
        // one wakeup per freed batch instead of the old 5 ms poll that
        // charged every admitted request up to a slice of idle latency.
        // The slice is only a backstop for a stop flagged from a signal
        // handler, which cannot notify a cv; stops requested from normal
        // code are caught by the predicate on the next notification.
        // serve.admission.wakeups counts wait returns — the §13 regression
        // test bounds it where the poll loop would rack up dozens.
        queue_cv_.wait_for(lk, std::chrono::milliseconds(200), [&] {
          return core::stop_requested() || unshed_pending_locked() < cfg_.max_queue;
        });
        if (admission_wakeups_) admission_wakeups_->add();
        if (core::stop_requested()) {
          if (rejected) rejected->add();
          throw Overloaded(
              "InferenceEngine: admission closed while blocked on a full "
              "queue (shutdown requested)");
        }
        break;
    }
  }
}

Ticket InferenceEngine::submit(VpRequest req) {
  if (!vp_model_) throw std::invalid_argument("InferenceEngine: no VP model");
  std::unique_lock<std::mutex> lock(queue_mu_);
  admit_locked(lock, vp_metrics_.rejected);
  vp_queue_.push_back({std::move(req), Clock::now(), false});
  if (queue_depth_) queue_depth_->set(static_cast<double>(unshed_pending_locked()));
  return Ticket{submit_epoch_, vp_queue_.size() - 1};
}

Ticket InferenceEngine::submit(AbrRequest req) {
  if (!abr_policy_) throw std::invalid_argument("InferenceEngine: no ABR policy");
  std::unique_lock<std::mutex> lock(queue_mu_);
  admit_locked(lock, abr_metrics_.rejected);
  abr_queue_.push_back({std::move(req), Clock::now(), false});
  if (queue_depth_) queue_depth_->set(static_cast<double>(unshed_pending_locked()));
  return Ticket{submit_epoch_, abr_queue_.size() - 1};
}

Ticket InferenceEngine::submit(CjsRequest req) {
  if (!cjs_policy_) throw std::invalid_argument("InferenceEngine: no CJS policy");
  std::unique_lock<std::mutex> lock(queue_mu_);
  admit_locked(lock, cjs_metrics_.rejected);
  cjs_queue_.push_back({std::move(req), Clock::now(), false});
  if (queue_depth_) queue_depth_->set(static_cast<double>(unshed_pending_locked()));
  return Ticket{submit_epoch_, cjs_queue_.size() - 1};
}

std::size_t InferenceEngine::pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return vp_queue_.size() + abr_queue_.size() + cjs_queue_.size();
}

namespace {

[[noreturn]] void throw_stale(const char* task, const Ticket& t, std::uint64_t completed) {
  throw StaleTicket(std::string("InferenceEngine: stale ") + task + " ticket {epoch " +
                    std::to_string(t.epoch) + ", index " + std::to_string(t.index) +
                    "} vs completed batch " + std::to_string(completed) +
                    (t.epoch > completed ? " (batch not drained yet — call run())"
                                         : " (a later run() replaced these responses)"));
}

}  // namespace

const VpResponse& InferenceEngine::vp_response(const Ticket& t) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  // Continuous resolution: a ticket from the generation currently draining
  // resolves as soon as its own slot finished — no epoch-wide barrier.
  if (t.epoch == draining_epoch_ && t.index < vp_done_.size() && vp_done_[t.index]) {
    return vp_responses_.at(t.index);
  }
  if (t.epoch != completed_epoch_ || !responses_valid_) throw_stale("vp", t, completed_epoch_);
  return vp_responses_.at(t.index);
}

const AbrResponse& InferenceEngine::abr_response(const Ticket& t) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (t.epoch == draining_epoch_ && t.index < abr_done_.size() && abr_done_[t.index]) {
    return abr_responses_.at(t.index);
  }
  if (t.epoch != completed_epoch_ || !responses_valid_) throw_stale("abr", t, completed_epoch_);
  return abr_responses_.at(t.index);
}

const CjsResponse& InferenceEngine::cjs_response(const Ticket& t) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (t.epoch == draining_epoch_ && t.index < cjs_done_.size() && cjs_done_[t.index]) {
    return cjs_responses_.at(t.index);
  }
  if (t.epoch != completed_epoch_ || !responses_valid_) throw_stale("cjs", t, completed_epoch_);
  return cjs_responses_.at(t.index);
}

InferenceEngine::DecideCtx InferenceEngine::start_request(const Clock::time_point admitted,
                                                          bool already_shed,
                                                          std::uint64_t task_id,
                                                          std::uint64_t epoch, std::size_t index,
                                                          ResponseMeta& meta) const {
  DecideCtx ctx;
  ctx.admitted = admitted;
  ctx.retry_key = request_key(task_id, epoch, index);
  meta.admission_wait_ms = ms_between(admitted, Clock::now());
  // Shed when: a ShedOldest victim, a shutdown drain, or the admission
  // deadline is already blown before any compute was spent — the SLO cannot
  // be met, so the primary is not called at all.
  ctx.shed = already_shed || core::stop_requested() ||
             (cfg_.deadline_ms > 0.0 && meta.admission_wait_ms >= cfg_.deadline_ms);
  return ctx;
}

void InferenceEngine::finish_request(TaskMetrics& m, ResponseMeta& meta) const {
  // The end-to-end SLO judges admission wait PLUS serve time — a request that
  // computed fast after queueing for ages still missed its deadline.
  meta.slo_miss = cfg_.deadline_ms > 0.0 &&
                  meta.admission_wait_ms + meta.latency_ms > cfg_.deadline_ms;
  if (meta.slo_miss && m.slo_miss) m.slo_miss->add();
  if (m.queue_wait_ms) m.queue_wait_ms->record(meta.queue_wait_ms);
  if (m.compute_ms) m.compute_ms->record(meta.compute_ms);
}

VpResponse InferenceEngine::serve_vp(const Queued<VpRequest>& q, std::uint64_t epoch,
                                     std::size_t index) {
  const VpRequest& req = q.req;
  VpResponse resp;
  const DecideCtx ctx = start_request(q.admitted, q.shed, 0, epoch, index, resp.meta);
  core::Timer timer;
  resp.viewports = decide<std::vector<vp::Viewport>>(
      vp_guard_, vp_metrics_,
      [&] { return vp_model_->predict(req.history, req.saliency, req.horizon); },
      [&](const std::vector<vp::Viewport>& out) {
        if (out.size() != static_cast<std::size_t>(req.horizon)) return false;
        for (const auto& v : out) {
          if (!std::isfinite(v.roll) || !std::isfinite(v.pitch) || !std::isfinite(v.yaw)) {
            return false;
          }
        }
        return true;
      },
      [&] { return vp_fallback_->predict(req.history, req.saliency, req.horizon); }, resp.meta,
      ctx);
  // VP predictors are stateless — no policy mutex, so the whole request is
  // compute.
  resp.meta.compute_ms = timer.elapsed_ms();
  resp.meta.latency_ms = resp.meta.compute_ms;
  finish_request(vp_metrics_, resp.meta);
  return resp;
}

AbrResponse InferenceEngine::serve_abr(const Queued<AbrRequest>& q, std::uint64_t epoch,
                                       std::size_t index) {
  const AbrRequest& req = q.req;
  AbrResponse resp;
  const DecideCtx ctx = start_request(q.admitted, q.shed, 1, epoch, index, resp.meta);
  core::Timer timer;
  std::lock_guard<std::mutex> lock(abr_mu_);
  // Rolling-context policies serialize: everything up to here is queueing
  // behind other ABR requests, not this request's own work.
  resp.meta.queue_wait_ms = timer.elapsed_ms();
  core::Timer compute;
  resp.level = decide<int>(
      abr_guard_, abr_metrics_, [&] { return abr_policy_->choose_level(req.obs); },
      [&](int level) { return level >= 0 && level < req.obs.num_levels; },
      [&] { return abr_fallback_->choose_level(req.obs); }, resp.meta, ctx);
  resp.meta.compute_ms = compute.elapsed_ms();
  resp.meta.latency_ms = timer.elapsed_ms();
  finish_request(abr_metrics_, resp.meta);
  return resp;
}

CjsResponse InferenceEngine::serve_cjs(const Queued<CjsRequest>& q, std::uint64_t epoch,
                                       std::size_t index) {
  const CjsRequest& req = q.req;
  CjsResponse resp;
  const DecideCtx ctx = start_request(q.admitted, q.shed, 2, epoch, index, resp.meta);
  core::Timer timer;
  std::lock_guard<std::mutex> lock(cjs_mu_);
  resp.meta.queue_wait_ms = timer.elapsed_ms();
  core::Timer compute;
  resp.action = decide<cjs::SchedAction>(
      cjs_guard_, cjs_metrics_, [&] { return cjs_policy_->choose(req.obs); },
      [&](const cjs::SchedAction& a) {
        return a.runnable_index >= 0 &&
               a.runnable_index < static_cast<int>(req.obs.runnable_rows.size()) &&
               a.cap_choice >= 0 && a.cap_choice < cjs::kNumCapChoices;
      },
      [&] { return cjs_fallback_->choose(req.obs); }, resp.meta, ctx);
  resp.meta.compute_ms = compute.elapsed_ms();
  resp.meta.latency_ms = timer.elapsed_ms();
  finish_request(cjs_metrics_, resp.meta);
  return resp;
}

BatchReport InferenceEngine::run() {
  std::vector<Queued<VpRequest>> vp_jobs;
  std::vector<Queued<AbrRequest>> abr_jobs;
  std::vector<Queued<CjsRequest>> cjs_jobs;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    vp_jobs.swap(vp_queue_);
    abr_jobs.swap(abr_queue_);
    cjs_jobs.swap(cjs_queue_);
    // Close this generation: tickets issued from now on belong to the next
    // drain, so a submit racing with run() can never alias into this batch.
    epoch = submit_epoch_;
    ++submit_epoch_;
    if (queue_depth_) queue_depth_->set(0.0);
    // The previous generation's responses are being replaced; tickets for
    // them are stale from here on. Tickets for THIS generation resolve
    // continuously through the done flags as their slots finish.
    responses_valid_ = false;
    draining_epoch_ = epoch;
    vp_responses_.assign(vp_jobs.size(), {});
    abr_responses_.assign(abr_jobs.size(), {});
    cjs_responses_.assign(cjs_jobs.size(), {});
    vp_done_.assign(vp_jobs.size(), 0);
    abr_done_.assign(abr_jobs.size(), 0);
    cjs_done_.assign(cjs_jobs.size(), 0);
  }
  // The swap freed every queue slot: wake producers blocked in admit_locked.
  queue_cv_.notify_all();

  // Deterministic schedule over the three queues: task priority first
  // (higher wins), then admission order — an EDF-flavoured FIFO, since every
  // request shares its task's deadline offset. The order depends only on the
  // submission sequence, never on thread timing.
  struct Job {
    int task;  // 0 = vp, 1 = abr, 2 = cjs
    std::size_t index;
  };
  std::vector<Job> order;
  order.reserve(vp_jobs.size() + abr_jobs.size() + cjs_jobs.size());
  for (std::size_t i = 0; i < vp_jobs.size(); ++i) order.push_back({0, i});
  for (std::size_t i = 0; i < abr_jobs.size(); ++i) order.push_back({1, i});
  for (std::size_t i = 0; i < cjs_jobs.size(); ++i) order.push_back({2, i});
  const auto priority = [&](int task) {
    return task == 0 ? cfg_.vp_priority : task == 1 ? cfg_.abr_priority : cfg_.cjs_priority;
  };
  const auto admitted = [&](const Job& j) {
    return j.task == 0   ? vp_jobs[j.index].admitted
           : j.task == 1 ? abr_jobs[j.index].admitted
                         : cjs_jobs[j.index].admitted;
  };
  std::stable_sort(order.begin(), order.end(), [&](const Job& a, const Job& b) {
    if (priority(a.task) != priority(b.task)) return priority(a.task) > priority(b.task);
    return admitted(a) < admitted(b);
  });

  const std::size_t n_total = order.size();
  const std::uint64_t hits_before = arena_ ? arena_->prefix_hits() : 0;
  // Continuous batching: `slots` workers each pull the next scheduled job
  // the moment their current one finishes — no slot idles while work is
  // queued, and a single slow request delays only itself. Each request's
  // tensor ops run inline inside its slot (no nested parallelism), so every
  // response is bitwise the single-request answer at any NETLLM_THREADS; at
  // one thread the pulls happen in exact schedule order.
  const std::size_t slots =
      cfg_.max_slots == 0 ? n_total : std::min(cfg_.max_slots, n_total);
  std::atomic<std::size_t> next{0};
  core::parallel_for(static_cast<std::int64_t>(slots), 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n_total) break;
        const Job job = order[i];
        core::trace::Span span(core::trace::Phase::kSchedStep);
        if (job.task == 0) {
          auto resp = serve_vp(vp_jobs[job.index], epoch, job.index);
          std::lock_guard<std::mutex> lock(queue_mu_);
          vp_responses_[job.index] = std::move(resp);
          vp_done_[job.index] = 1;
        } else if (job.task == 1) {
          auto resp = serve_abr(abr_jobs[job.index], epoch, job.index);
          std::lock_guard<std::mutex> lock(queue_mu_);
          abr_responses_[job.index] = std::move(resp);
          abr_done_[job.index] = 1;
        } else {
          auto resp = serve_cjs(cjs_jobs[job.index], epoch, job.index);
          std::lock_guard<std::mutex> lock(queue_mu_);
          cjs_responses_[job.index] = std::move(resp);
          cjs_done_[job.index] = 1;
        }
      }
    }
  });
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    completed_epoch_ = epoch;  // tickets from this generation resolve now
    draining_epoch_ = 0;
    responses_valid_ = true;
  }

  BatchReport report;
  report.requests = static_cast<std::size_t>(n_total);
  report.drained_on_stop = core::stop_requested();
  report.prefix_hits =
      arena_ ? static_cast<std::size_t>(arena_->prefix_hits() - hits_before) : 0;
  std::vector<double> latencies, waits, computes, e2e;
  latencies.reserve(report.requests);
  waits.reserve(report.requests);
  computes.reserve(report.requests);
  e2e.reserve(report.requests);
  auto account = [&](const ResponseMeta& meta) {
    switch (meta.source) {
      case Source::kLlm: ++report.llm; break;
      case Source::kRetried: ++report.retried; break;
      case Source::kFallback: ++report.fallback; break;
      case Source::kShed: ++report.shed; break;
    }
    if (meta.slo_miss) ++report.slo_miss;
    latencies.push_back(meta.latency_ms);
    waits.push_back(meta.queue_wait_ms);
    computes.push_back(meta.compute_ms);
    e2e.push_back(meta.admission_wait_ms + meta.latency_ms);
  };
  for (const auto& r : vp_responses_) account(r.meta);
  for (const auto& r : abr_responses_) account(r.meta);
  for (const auto& r : cjs_responses_) account(r.meta);
  if (!latencies.empty()) {
    report.p50_ms = core::percentile(latencies, 50.0);
    report.p99_ms = core::percentile(latencies, 99.0);
    report.wait_p50_ms = core::percentile(waits, 50.0);
    report.wait_p99_ms = core::percentile(waits, 99.0);
    report.compute_p50_ms = core::percentile(computes, 50.0);
    report.compute_p99_ms = core::percentile(computes, 99.0);
    report.e2e_p50_ms = core::percentile(e2e, 50.0);
    report.e2e_p99_ms = core::percentile(e2e, 99.0);
  }
  return report;
}

void InferenceEngine::begin_abr_session() {
  std::lock_guard<std::mutex> lock(abr_mu_);
  if (abr_policy_) abr_policy_->begin_session();
  abr_fallback_->begin_session();
}

void InferenceEngine::observe_abr_result(const abr::ChunkResult& result, double chunk_qoe) {
  std::lock_guard<std::mutex> lock(abr_mu_);
  if (abr_policy_) abr_policy_->observe_result(result, chunk_qoe);
  abr_fallback_->observe_result(result, chunk_qoe);
}

void InferenceEngine::begin_cjs_episode() {
  std::lock_guard<std::mutex> lock(cjs_mu_);
  if (cjs_policy_) cjs_policy_->begin_episode();
  cjs_fallback_->begin_episode();
}

void InferenceEngine::observe_cjs_reward(double reward) {
  std::lock_guard<std::mutex> lock(cjs_mu_);
  if (cjs_policy_) cjs_policy_->observe_reward(reward);
  cjs_fallback_->observe_reward(reward);
}

adapt::GuardCounters InferenceEngine::counters() const {
  adapt::GuardCounters total;
  for (const Guard* g : {&vp_guard_, &abr_guard_, &cjs_guard_}) {
    std::lock_guard<std::mutex> lock(g->mu);
    total.llm_ok += g->counters.llm_ok;
    total.fallback += g->counters.fallback;
    total.fail_exception += g->counters.fail_exception;
    total.fail_invalid += g->counters.fail_invalid;
    total.fail_latency += g->counters.fail_latency;
    total.breaker_trips += g->counters.breaker_trips;
    total.retries += g->counters.retries;
    total.shed += g->counters.shed;
  }
  return total;
}

adapt::Health InferenceEngine::vp_health() const {
  std::lock_guard<std::mutex> lock(vp_guard_.mu);
  return vp_guard_.health;
}

adapt::Health InferenceEngine::abr_health() const {
  std::lock_guard<std::mutex> lock(abr_guard_.mu);
  return abr_guard_.health;
}

adapt::Health InferenceEngine::cjs_health() const {
  std::lock_guard<std::mutex> lock(cjs_guard_.mu);
  return cjs_guard_.health;
}

}  // namespace netllm::serve
