#include "netllm/serve.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "core/fault.hpp"
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

/// The engine's guard settings for one task: EngineConfig's budget and
/// breaker, metrics under counter_prefix + task (none when it is empty).
adapt::GuardConfig task_guard_config(const EngineConfig& cfg, const char* task) {
  return {cfg.latency_budget_ms, cfg.breaker_threshold, cfg.breaker_cooldown,
          cfg.counter_prefix.empty() ? std::string() : cfg.counter_prefix + task + "."};
}

}  // namespace

double retry_backoff_ms(const EngineConfig& cfg, std::uint64_t request_key, int attempt) {
  return adapt::retry_backoff_ms(cfg.retry_backoff_ms, cfg.retry_seed ^ request_key, attempt);
}

InferenceEngine::InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                                 std::shared_ptr<abr::AbrPolicy> abr_policy,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg,
                                 std::shared_ptr<vp::VpPredictor> vp_fallback,
                                 std::shared_ptr<abr::AbrPolicy> abr_fallback,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_fallback)
    : cfg_(std::move(cfg)),
      vp_model_(std::move(vp_model)),
      vp_fallback_(adapt::fallback_or_default(std::move(vp_fallback))),
      abr_policy_(std::move(abr_policy)),
      abr_fallback_(adapt::fallback_or_default(std::move(abr_fallback))),
      cjs_policy_(std::move(cjs_policy)),
      cjs_fallback_(adapt::fallback_or_default(std::move(cjs_fallback))),
      vp_guard_(task_guard_config(cfg_, "vp")),
      abr_guard_(task_guard_config(cfg_, "abr")),
      cjs_guard_(task_guard_config(cfg_, "cjs")) {
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
  m.slo_miss = &core::metrics::counter(base + "slo_miss");
  m.rejected = &core::metrics::counter(base + "rejected");
  m.queue_wait_ms = &core::metrics::histogram(base + "queue_wait_ms");
  m.compute_ms = &core::metrics::histogram(base + "compute_ms");
  return m;
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

adapt::GuardCall InferenceEngine::start_request(const Clock::time_point admitted,
                                                bool already_shed, std::uint64_t task_id,
                                                std::uint64_t epoch, std::size_t index,
                                                ResponseMeta& meta) const {
  meta.admission_wait_ms = ms_between(admitted, Clock::now());
  // Shed when: a ShedOldest victim, a shutdown drain, or the admission
  // deadline is already blown before any compute was spent — the SLO cannot
  // be met, so the primary is not called at all.
  return {.shed = already_shed || core::stop_requested() ||
                  (cfg_.deadline_ms > 0.0 && meta.admission_wait_ms >= cfg_.deadline_ms),
          .retry_budget = cfg_.retry_budget,
          .retry_backoff_ms = cfg_.retry_backoff_ms,
          .retry_seed = cfg_.retry_seed ^ request_key(task_id, epoch, index),
          .admitted = admitted,
          .deadline_ms = cfg_.deadline_ms};
}

void InferenceEngine::finish_request(TaskMetrics& m, const adapt::GuardOutcome& out,
                                     ResponseMeta& meta) const {
  meta.source = out.source;
  meta.retries = out.retries;
  // The end-to-end SLO judges admission wait PLUS serve time — a request that
  // computed fast after queueing for ages still missed its deadline.
  meta.slo_miss = cfg_.deadline_ms > 0.0 &&
                  meta.admission_wait_ms + meta.latency_ms > cfg_.deadline_ms;
  if (meta.slo_miss && m.slo_miss) m.slo_miss->add();
  if (m.queue_wait_ms) m.queue_wait_ms->record(meta.queue_wait_ms);
  if (m.compute_ms) m.compute_ms->record(meta.compute_ms);
}

// Each primary lambda fires the `serve.batch` injection site inside the
// guarded region, just before the model call: an armed plan (throw / delay
// past the budget) is handled exactly like an organic LLM-path failure —
// this one request falls back.

VpResponse InferenceEngine::serve_vp(const Queued<VpRequest>& q, std::uint64_t epoch,
                                     std::size_t index) {
  const VpRequest& req = q.req;
  VpResponse resp;
  const adapt::GuardCall call = start_request(q.admitted, q.shed, 0, epoch, index, resp.meta);
  adapt::GuardOutcome out;
  core::Timer timer;
  resp.viewports = vp_guard_.decide<std::vector<vp::Viewport>>(
      [&] {
        core::fault::check("serve.batch");
        return vp_model_->predict(req.history, req.saliency, req.horizon);
      },
      [&](const std::vector<vp::Viewport>& v) { return adapt::is_valid(v, req.horizon); },
      [&] { return vp_fallback_->predict(req.history, req.saliency, req.horizon); }, call, &out);
  // VP predictors are stateless — no policy mutex, so the whole request is
  // compute.
  resp.meta.compute_ms = timer.elapsed_ms();
  resp.meta.latency_ms = resp.meta.compute_ms;
  finish_request(vp_metrics_, out, resp.meta);
  return resp;
}

AbrResponse InferenceEngine::serve_abr(const Queued<AbrRequest>& q, std::uint64_t epoch,
                                       std::size_t index) {
  const AbrRequest& req = q.req;
  AbrResponse resp;
  const adapt::GuardCall call = start_request(q.admitted, q.shed, 1, epoch, index, resp.meta);
  adapt::GuardOutcome out;
  core::Timer timer;
  std::lock_guard<std::mutex> lock(abr_mu_);
  // Rolling-context policies serialize: everything up to here is queueing
  // behind other ABR requests, not this request's own work.
  resp.meta.queue_wait_ms = timer.elapsed_ms();
  core::Timer compute;
  resp.level = abr_guard_.decide<int>(
      [&] {
        core::fault::check("serve.batch");
        return abr_policy_->choose_level(req.obs);
      },
      [&](int level) { return adapt::is_valid(level, req.obs); },
      [&] { return abr_fallback_->choose_level(req.obs); }, call, &out);
  resp.meta.compute_ms = compute.elapsed_ms();
  resp.meta.latency_ms = timer.elapsed_ms();
  finish_request(abr_metrics_, out, resp.meta);
  return resp;
}

CjsResponse InferenceEngine::serve_cjs(const Queued<CjsRequest>& q, std::uint64_t epoch,
                                       std::size_t index) {
  const CjsRequest& req = q.req;
  CjsResponse resp;
  const adapt::GuardCall call = start_request(q.admitted, q.shed, 2, epoch, index, resp.meta);
  adapt::GuardOutcome out;
  core::Timer timer;
  std::lock_guard<std::mutex> lock(cjs_mu_);
  resp.meta.queue_wait_ms = timer.elapsed_ms();
  core::Timer compute;
  resp.action = cjs_guard_.decide<cjs::SchedAction>(
      [&] {
        core::fault::check("serve.batch");
        return cjs_policy_->choose(req.obs);
      },
      [&](const cjs::SchedAction& a) { return adapt::is_valid(a, req.obs); },
      [&] { return cjs_fallback_->choose(req.obs); }, call, &out);
  resp.meta.compute_ms = compute.elapsed_ms();
  resp.meta.latency_ms = timer.elapsed_ms();
  finish_request(cjs_metrics_, out, resp.meta);
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
  for (const adapt::GuardCore* g : {&vp_guard_, &abr_guard_, &cjs_guard_}) total += g->counters();
  return total;
}

}  // namespace netllm::serve
