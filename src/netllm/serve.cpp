#include "netllm/serve.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/fault.hpp"
#include "core/signal.hpp"
#include "core/stats.hpp"
#include "core/threadpool.hpp"
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
std::uint64_t request_key(Task task, std::uint64_t epoch, std::uint64_t index) {
  std::uint64_t x = (static_cast<std::uint64_t>(task) << 62) ^ (epoch * 0x9e3779b97f4a7c15ULL) ^
                    (index + 0xbf58476d1ce4e5b9ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

const char* task_name(Task task) {
  constexpr const char* kNames[] = {"vp", "abr", "cjs"};
  const auto i = static_cast<std::size_t>(task);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

/// A lane's metric namespace: counter_prefix + task + ".", or empty when
/// the engine opted out of metrics.
std::string task_prefix(const EngineConfig& cfg, Task task) {
  return cfg.counter_prefix.empty() ? std::string() : cfg.counter_prefix + task_name(task) + ".";
}

// Per task, the model call (the primary's and the fallback's alike) and the
// validity rule.
std::vector<vp::Viewport> ask(vp::VpPredictor& m, const VpRequest& r) {
  return m.predict(r.history, r.saliency, r.horizon);
}
int ask(abr::AbrPolicy& m, const AbrRequest& r) { return m.choose_level(r.obs); }
cjs::SchedAction ask(cjs::SchedPolicy& m, const CjsRequest& r) { return m.choose(r.obs); }
bool valid(const std::vector<vp::Viewport>& v, const VpRequest& r) {
  return adapt::is_valid(v, r.horizon);
}
bool valid(int level, const AbrRequest& r) { return adapt::is_valid(level, r.obs); }
bool valid(const cjs::SchedAction& a, const CjsRequest& r) { return adapt::is_valid(a, r.obs); }

[[noreturn]] void throw_stale(const char* task, const Ticket& t, std::uint64_t completed) {
  throw StaleTicket(std::string("InferenceEngine: stale ") + task + " ticket {epoch " +
                    std::to_string(t.epoch) + ", index " + std::to_string(t.index) +
                    "} vs completed batch " + std::to_string(completed) +
                    (t.epoch > completed ? " (batch not drained yet — call run())"
                                         : " (a later run() replaced these responses)"));
}

}  // namespace

template <typename Spec>
InferenceEngine::Lane<Spec>::Lane(const EngineConfig& cfg, std::shared_ptr<Model> primary_model,
                                  std::shared_ptr<Model> fallback_model, int drain_priority)
    : primary(std::move(primary_model)),
      fallback(adapt::fallback_or_default(std::move(fallback_model))),
      adapter(std::dynamic_pointer_cast<typename Spec::Adapter>(primary)),
      guard({cfg.latency_budget_ms, cfg.breaker_threshold, cfg.breaker_cooldown,
             task_prefix(cfg, task)}),
      priority(drain_priority) {
  // Resolve the handles once; the serve path never assembles a name.
  const std::string base = task_prefix(cfg, task);
  if (base.empty()) return;
  metrics = {&core::metrics::counter(base + "slo_miss"), &core::metrics::counter(base + "rejected"),
             &core::metrics::histogram(base + "queue_wait_ms"),
             &core::metrics::histogram(base + "compute_ms")};
}

InferenceEngine::InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                                 std::shared_ptr<abr::AbrPolicy> abr_policy,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg,
                                 std::shared_ptr<vp::VpPredictor> vp_fallback,
                                 std::shared_ptr<abr::AbrPolicy> abr_fallback,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_fallback)
    : cfg_(std::move(cfg)),
      vp_(cfg_, std::move(vp_model), std::move(vp_fallback), cfg_.vp_priority),
      abr_(cfg_, std::move(abr_policy), std::move(abr_fallback), cfg_.abr_priority),
      cjs_(cfg_, std::move(cjs_policy), std::move(cjs_fallback), cfg_.cjs_priority) {
  if (!vp_.primary && !abr_.primary && !cjs_.primary) {
    throw std::invalid_argument("InferenceEngine: need at least one model");
  }
  if (!cfg_.counter_prefix.empty()) {
    queue_depth_ = &core::metrics::gauge(cfg_.counter_prefix + "queue_depth");
    admission_wakeups_ = &core::metrics::counter(cfg_.counter_prefix + "admission.wakeups");
  }
  // Pooled KV arena (DESIGN.md §13): when the VP primary is a VpAdapter,
  // its rollouts lease pages from this engine's budget and share warm
  // prompt prefixes across requests. Other predictors are opaque — they
  // keep their own caching strategy.
  if (cfg_.arena_pages > 0 && vp_.adapter) {
    const auto& llm_cfg = vp_.adapter->llm().config();
    nn::KvArenaConfig acfg;
    acfg.page_rows = cfg_.arena_page_rows;
    acfg.page_budget = cfg_.arena_pages;
    acfg.prefix_entries = cfg_.arena_prefix_entries;
    arena_ = std::make_shared<nn::KvArena>(llm_cfg.n_layers, llm_cfg.d_model, acfg);
    vp_.adapter->set_kv_arena(arena_);
  }
  // Lockstep VP groups (DESIGN.md §13) under the same rule, unless a
  // latency budget is set: a per-request budget cannot be charged fairly
  // inside a group whose members share every pass, so with one set every VP
  // request is served alone.
  vp_.lockstep = vp_.adapter && cfg_.latency_budget_ms == 0.0;
  // Block-quantized backbone (DESIGN.md §15): quantize every adapter
  // primary's projection weights at the configured dtype. Non-adapter
  // predictors are opaque and stay untouched.
  if (cfg_.backbone_dtype != tensor::quant::Dtype::kF32) {
    for_each_lane(*this, [&](auto& lane) {
      if (lane.adapter) lane.adapter->llm_shared()->quantize_backbone(cfg_.backbone_dtype);
    });
  }
}

std::size_t InferenceEngine::unshed_pending_locked() const {
  std::size_t n = 0;
  for_each_lane(*this, [&](const auto& lane) {
    for (const auto& q : lane.queue) n += q.shed ? 0 : 1;
  });
  return n;
}

void InferenceEngine::shed_oldest_locked() {
  // The victim keeps its queue slot and its ticket stays valid — the drain
  // serves it via the fallback (Source::kShed) without primary compute. Only
  // the shed flag flips, so concurrent tickets never alias. Each queue is
  // admission-ordered, so its first unshed entry is its oldest; across lanes
  // the oldest stamp wins, a tie going to the earlier lane.
  bool* victim = nullptr;
  Clock::time_point oldest{};
  for_each_lane(*this, [&](auto& lane) {
    for (auto& q : lane.queue) {
      if (q.shed) continue;
      if (!victim || q.admitted < oldest) {
        victim = &q.shed;
        oldest = q.admitted;
      }
      break;
    }
  });
  if (victim) *victim = true;
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

template <typename Spec>
Ticket InferenceEngine::enqueue(Lane<Spec>& lane, typename Spec::Request req) {
  if (!lane.primary) {
    throw std::invalid_argument(std::string("InferenceEngine: no ") + task_name(lane.task) +
                                " model");
  }
  std::unique_lock<std::mutex> lock(queue_mu_);
  admit_locked(lock, lane.metrics.rejected);
  lane.queue.push_back({std::move(req), Clock::now(), false});
  if (queue_depth_) queue_depth_->set(static_cast<double>(unshed_pending_locked()));
  return Ticket{submit_epoch_, lane.queue.size() - 1, lane.task};
}

Ticket InferenceEngine::submit(VpRequest req) { return enqueue(vp_, std::move(req)); }
Ticket InferenceEngine::submit(AbrRequest req) { return enqueue(abr_, std::move(req)); }
Ticket InferenceEngine::submit(CjsRequest req) { return enqueue(cjs_, std::move(req)); }

std::size_t InferenceEngine::pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  std::size_t n = 0;
  for_each_lane(*this, [&](const auto& lane) { n += lane.queue.size(); });
  return n;
}

template <typename Spec>
const typename Spec::Response& InferenceEngine::response(const Lane<Spec>& lane,
                                                         const Ticket& t) const {
  if (t.task != lane.task) {
    throw std::out_of_range(std::string("InferenceEngine: ") + task_name(t.task) +
                            " ticket {epoch " + std::to_string(t.epoch) + ", index " +
                            std::to_string(t.index) + "} looked up as a " +
                            task_name(lane.task) + " response");
  }
  std::lock_guard<std::mutex> lock(queue_mu_);
  // Continuous resolution: a ticket from the generation currently draining
  // resolves as soon as its own slot finished — no epoch-wide barrier.
  if (t.epoch == draining_epoch_ && t.index < lane.done.size() && lane.done[t.index]) {
    return lane.responses.at(t.index);
  }
  if (t.epoch != completed_epoch_ || !responses_valid_) {
    throw_stale(task_name(lane.task), t, completed_epoch_);
  }
  return lane.responses.at(t.index);
}

const VpResponse& InferenceEngine::vp_response(const Ticket& t) const { return response(vp_, t); }
const AbrResponse& InferenceEngine::abr_response(const Ticket& t) const {
  return response(abr_, t);
}
const CjsResponse& InferenceEngine::cjs_response(const Ticket& t) const {
  return response(cjs_, t);
}

adapt::GuardCall InferenceEngine::start_request(const Clock::time_point admitted,
                                                bool already_shed, Task task,
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
          .retry_seed = cfg_.retry_seed ^ request_key(task, epoch, index),
          .admitted = admitted,
          .deadline_ms = cfg_.deadline_ms};
}

template <typename Spec, typename Primary>
void InferenceEngine::decide_and_publish(Lane<Spec>& lane, std::size_t index,
                                         const adapt::GuardCall& call, Primary&& primary,
                                         typename Spec::Response&& resp, Clock::time_point start) {
  const auto& req = lane.jobs[index].req;
  using Answer = std::remove_reference_t<decltype(resp.*Spec::kAnswer)>;
  adapt::GuardOutcome out;
  {
    // Rolling-context policies serialize: the wait is queueing behind the
    // lane's other requests, not this request's own work. Stateless VP
    // predictors take no lock, so their whole request is compute.
    std::unique_lock<std::mutex> lock(lane.policy_mu, std::defer_lock);
    if constexpr (Spec::kSerialized) {
      lock.lock();
      resp.meta.queue_wait_ms = ms_between(start, Clock::now());
    }
    resp.*Spec::kAnswer = lane.guard.template decide<Answer>(
        std::forward<Primary>(primary), [&](const Answer& a) { return valid(a, req); },
        [&] { return ask(*lane.fallback, req); }, call, &out);
    resp.meta.latency_ms = ms_between(start, Clock::now());
  }
  ResponseMeta& meta = resp.meta;
  meta.compute_ms = meta.latency_ms - meta.queue_wait_ms;
  meta.source = out.source;
  meta.retries = out.retries;
  // The end-to-end SLO judges admission wait PLUS serve time — a request that
  // computed fast after queueing for ages still missed its deadline.
  meta.slo_miss = cfg_.deadline_ms > 0.0 &&
                  meta.admission_wait_ms + meta.latency_ms > cfg_.deadline_ms;
  if (meta.slo_miss && lane.metrics.slo_miss) lane.metrics.slo_miss->add();
  if (lane.metrics.queue_wait_ms) lane.metrics.queue_wait_ms->record(meta.queue_wait_ms);
  if (lane.metrics.compute_ms) lane.metrics.compute_ms->record(meta.compute_ms);
  std::lock_guard<std::mutex> lock(queue_mu_);
  lane.responses[index] = std::move(resp);
  lane.done[index] = 1;
}

// Each primary call fires the `serve.batch` injection site inside the
// guarded region, just before the model call: an armed plan (throw / delay
// past the budget) is handled exactly like an organic LLM-path failure —
// this one request falls back.

template <typename Spec>
void InferenceEngine::serve(Lane<Spec>& lane, std::span<const std::size_t> indices,
                            std::uint64_t epoch) {
  if constexpr (std::is_same_v<Spec, VpSpec>) {
    if (lane.lockstep) return serve_vp_group(indices, epoch);
  }
  for (const std::size_t index : indices) {
    const auto& q = lane.jobs[index];
    typename Spec::Response resp;
    const adapt::GuardCall call =
        start_request(q.admitted, q.shed, lane.task, epoch, index, resp.meta);
    decide_and_publish(lane, index, call, [&] {
      core::fault::check("serve.batch");
      return ask(*lane.primary, q.req);
    }, std::move(resp), Clock::now());
  }
}

void InferenceEngine::serve_vp_group(std::span<const std::size_t> indices, std::uint64_t epoch) {
  // One member's serve state between its start_request and its decision.
  struct Member {
    std::size_t index = 0;
    VpResponse resp;
    adapt::GuardCall call;
    Clock::time_point start = Clock::now();  // compute_ms runs from the group's start
    std::exception_ptr hook;                 // the serve.batch draw threw
    std::ptrdiff_t slot = -1;  // place in the computed group; -1 = shed or hook threw
  };
  for (std::size_t begin = 0; begin < indices.size();) {
    std::vector<Member> group;
    std::vector<adapt::VpQuery> queries;
    std::int64_t pages = 0;
    std::size_t end = begin;
    for (; end < indices.size(); ++end) {
      const Queued<VpRequest>& q = vp_.jobs[indices[end]];
      Member mb;
      mb.index = indices[end];
      mb.call = start_request(q.admitted, q.shed, Task::kVp, epoch, mb.index, mb.resp.meta);
      if (!mb.call.shed) {
        const auto rows = static_cast<std::int64_t>(q.req.history.size()) + q.req.horizon;
        const std::int64_t need = arena_ ? arena_->pages_for(rows) : 0;
        if (arena_ && !queries.empty() && !arena_->fits_without_eviction(pages + need)) break;
        // The member's own serve.batch hook, before the group computes.
        try {
          core::fault::check("serve.batch");
          mb.slot = static_cast<std::ptrdiff_t>(queries.size());
          queries.push_back({q.req.history, &q.req.saliency, q.req.horizon});
          pages += need;
        } catch (...) {
          mb.hook = std::current_exception();
        }
      }
      group.push_back(std::move(mb));
    }
    std::vector<adapt::VpRollout> results;
    if (!queries.empty()) {
      try {
        results = vp_.adapter->predict_group(queries);
      } catch (...) {
        results.assign(queries.size(), {{}, std::current_exception()});
      }
    }
    // Each member's guarded decision, in schedule order: the first attempt
    // takes the member's grouped answer (or rethrows its error — an
    // Exhausted lease is still a shed), a retry runs the member alone.
    for (auto& mb : group) {
      bool first = true;
      decide_and_publish(vp_, mb.index, mb.call, [&] {
        if (std::exchange(first, false)) {
          if (mb.hook) std::rethrow_exception(mb.hook);
          auto& r = results[static_cast<std::size_t>(mb.slot)];
          if (r.error) std::rethrow_exception(r.error);
          return std::move(r.viewports);
        }
        core::fault::check("serve.batch");
        return ask(*vp_.primary, vp_.jobs[mb.index].req);
      }, std::move(mb.resp), mb.start);
    }
    begin = end;
  }
}

BatchReport InferenceEngine::run() {
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Close this generation: tickets issued from now on belong to the next
    // drain, so a submit racing with run() can never alias into this batch.
    // The previous generation's responses are being replaced; tickets for
    // them are stale from here on. Tickets for THIS generation resolve
    // continuously through the done flags as their slots finish.
    for_each_lane(*this, [](auto& lane) {
      lane.jobs.swap(lane.queue);
      lane.responses.assign(lane.jobs.size(), {});
      lane.done.assign(lane.jobs.size(), 0);
    });
    epoch = submit_epoch_;
    ++submit_epoch_;
    if (queue_depth_) queue_depth_->set(0.0);
    responses_valid_ = false;
    draining_epoch_ = epoch;
  }
  // The swap freed every queue slot: wake producers blocked in admit_locked.
  queue_cv_.notify_all();

  // Deterministic schedule over the lanes: task priority first (higher
  // wins), then admission order, then lane order and queue position — an
  // EDF-flavoured FIFO, since every request shares its task's deadline
  // offset. The key is total, so std::sort needs no stable-sort buffer, and
  // the order depends only on the submission sequence, never on thread
  // timing.
  struct Job {
    Task task;
    std::size_t index;
    int priority;
    Clock::time_point admitted;
    bool lockstep;
  };
  std::vector<Job> order;
  for_each_lane(*this, [&](const auto& lane) {
    for (std::size_t i = 0; i < lane.jobs.size(); ++i) {
      order.push_back({lane.task, i, lane.priority, lane.jobs[i].admitted, lane.lockstep});
    }
  });
  std::sort(order.begin(), order.end(), [](const Job& a, const Job& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.admitted != b.admitted) return a.admitted < b.admitted;
    if (a.task != b.task) return a.task < b.task;
    return a.index < b.index;
  });

  const std::size_t n_total = order.size();
  const std::uint64_t hits_before = arena_ ? arena_->prefix_hits() : 0;
  const std::size_t slots =
      cfg_.max_slots == 0 ? n_total : std::min(cfg_.max_slots, n_total);
  // Work items, each one slot's pull: a single job, or a lockstep group of
  // one lane's jobs. Each maximal run of consecutive jobs of a lockstep lane
  // splits into min(slots, NETLLM_THREADS) contiguous groups as even as they
  // come, so one lane steps the whole run in lockstep and four lanes over
  // four requests serve one each, as before grouping.
  struct Work {
    std::size_t first, count;  // a span of `order`
  };
  std::vector<Work> work;
  const auto lanes = std::min<std::size_t>(
      slots, static_cast<std::size_t>(std::max(1, core::global_threads())));
  for (std::size_t i = 0; i < n_total;) {
    std::size_t run = 1;
    if (order[i].lockstep) {
      while (i + run < n_total && order[i + run].task == order[i].task) ++run;
    }
    const std::size_t groups = std::min(run, lanes);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t size = run / groups + (g < run % groups ? 1 : 0);
      work.push_back({i, size});
      i += size;
    }
  }
  std::vector<std::size_t> job_index(n_total);
  for (std::size_t i = 0; i < n_total; ++i) job_index[i] = order[i].index;
  // Continuous batching: `slots` workers each pull the next work item the
  // moment their current one finishes — no slot idles while work is queued,
  // and a single slow request delays only its own item. Each item's tensor
  // ops run inline inside its slot (no nested parallelism), so every
  // response is bitwise the single-request answer at any NETLLM_THREADS; at
  // one thread the pulls happen in exact schedule order.
  const std::size_t n_work = work.size();
  std::atomic<std::size_t> next{0};
  core::parallel_for(static_cast<std::int64_t>(std::min(slots, n_work)), 1,
                     [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      for (;;) {
        const std::size_t w = next.fetch_add(1);
        if (w >= n_work) break;
        const Work item = work[w];
        core::trace::Span span(core::trace::Phase::kSchedStep);
        with_lane(order[item.first].task, [&](auto& lane) {
          serve(lane, {job_index.data() + item.first, item.count}, epoch);
        });
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
  // Accounts every response in lane order and frees the drained requests.
  for_each_lane(*this, [&](auto& lane) {
    for (const auto& r : lane.responses) {
      const ResponseMeta& meta = r.meta;
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
    }
    lane.jobs.clear();
  });
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
  std::lock_guard<std::mutex> lock(abr_.policy_mu);
  if (abr_.primary) abr_.primary->begin_session();
  abr_.fallback->begin_session();
}

void InferenceEngine::observe_abr_result(const abr::ChunkResult& result, double chunk_qoe) {
  std::lock_guard<std::mutex> lock(abr_.policy_mu);
  if (abr_.primary) abr_.primary->observe_result(result, chunk_qoe);
  abr_.fallback->observe_result(result, chunk_qoe);
}

void InferenceEngine::begin_cjs_episode() {
  std::lock_guard<std::mutex> lock(cjs_.policy_mu);
  if (cjs_.primary) cjs_.primary->begin_episode();
  cjs_.fallback->begin_episode();
}

void InferenceEngine::observe_cjs_reward(double reward) {
  std::lock_guard<std::mutex> lock(cjs_.policy_mu);
  if (cjs_.primary) cjs_.primary->observe_reward(reward);
  cjs_.fallback->observe_reward(reward);
}

adapt::GuardCounters InferenceEngine::counters() const {
  adapt::GuardCounters total;
  for_each_lane(*this, [&](const auto& lane) { total += lane.guard.counters(); });
  return total;
}

}  // namespace netllm::serve
