// Batched inference front end (DESIGN.md §10, §12): queue VP/ABR/CJS
// embedding-path requests, drain them concurrently over the shared
// `core::ThreadPool`, and guard every request individually through the same
// `adapt::GuardCore` the Guarded* wrappers use (latency budget, validity,
// circuit breaker, per-task Healthy → Degraded → Open health, rule-based
// LR / BBA / FIFO fallback) — one poisoned or faulted request degrades to its
// fallback without touching the rest of the batch.
//
// The engine-level overload layer (DESIGN.md §12) sits in front of that
// per-request guard: a bounded admission queue with a configurable full-queue
// policy (block / reject with the named `Overloaded` error / shed-oldest to
// the fallback), an admission deadline judged on queue wait PLUS compute,
// deterministic seeded retry/backoff for transient primary failures (handed
// to the guard core as per-call inputs), and a graceful drain that honors
// the `core/signal` stop flag.
//
// Determinism: each request's tensor work runs inside a `parallel_for`
// worker, where nested parallel ops execute inline (DESIGN.md §8), so every
// response is bitwise identical to serving that request alone, at any
// `NETLLM_THREADS`. Only the interleaving of the shared counters varies.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"
#include "netllm/guarded.hpp"
#include "tensor/quants.hpp"

namespace netllm::nn {
class KvArena;
}

namespace netllm::serve {

/// Which path produced a response (defined next to the guard core).
using adapt::Source;
using adapt::source_name;

struct ResponseMeta {
  Source source = Source::kFallback;
  double latency_ms = 0.0;     // serve wall time: queue_wait + compute
  double queue_wait_ms = 0.0;  // time blocked on the per-task policy mutex
  // Time inside the guarded decision itself. The engine's latency budget is
  // enforced against the primary model call in here — a request that waits
  // long on a contended policy mutex but computes fast does NOT trip the
  // budget; `queue_wait_ms` makes that contention visible separately.
  double compute_ms = 0.0;
  // Time from submit() to a drain worker picking the request up. The
  // admission deadline (EngineConfig::deadline_ms) is judged end-to-end:
  // admission_wait_ms + latency_ms, never compute alone.
  double admission_wait_ms = 0.0;
  int retries = 0;        // transient-failure retries actually spent
  bool slo_miss = false;  // deadline_ms > 0 and the end-to-end time blew it
};

struct VpRequest {
  std::vector<vp::Viewport> history;
  tensor::Tensor saliency;
  int horizon = 0;
};
struct VpResponse {
  std::vector<vp::Viewport> viewports;
  ResponseMeta meta;
};

struct AbrRequest {
  abr::Observation obs;
};
struct AbrResponse {
  int level = 0;
  ResponseMeta meta;
};

struct CjsRequest {
  cjs::SchedObservation obs;
};
struct CjsResponse {
  cjs::SchedAction action;
  ResponseMeta meta;
};

/// Handle returned by `submit`: identifies one response slot in the batch
/// generation (`epoch`) that will serve it. Tickets from a previous
/// generation do not alias into the current one — looking them up throws
/// `StaleTicket` instead of silently returning another request's answer.
struct Ticket {
  std::uint64_t epoch = 0;  // run() generation that serves this request
  std::size_t index = 0;    // slot in that generation's response vector
};

/// A ticket was presented to the wrong batch generation: either its batch
/// has not been drained by `run()` yet, or a later `run()` already replaced
/// those responses. The message names the presented {epoch, index} and the
/// engine's current completed epoch.
class StaleTicket : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Admission was refused: the bounded queue is full under the Reject policy,
/// or the engine stopped admitting because a shutdown was requested. The
/// caller holds no ticket — nothing was queued.
class Overloaded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What `submit` does when the admission queue is at `max_queue`.
enum class AdmissionPolicy {
  kBlock,       // wait for a run() drain to free space (concurrent producers)
  kReject,      // throw the named Overloaded error; nothing is queued
  kShedOldest,  // mark the oldest queued request shed-to-fallback, admit the new one
};

/// Aggregate result of one `run()` drain.
struct BatchReport {
  std::size_t requests = 0;
  std::size_t llm = 0;       // served by the LLM path first try
  std::size_t retried = 0;   // served by the LLM path after >= 1 retry
  std::size_t fallback = 0;  // served by the rule-based fallback
  std::size_t shed = 0;      // shed straight to the fallback (no primary call)
  std::size_t slo_miss = 0;  // end-to-end time past deadline_ms (0 when unset)
  double p50_ms = 0.0;       // serve-side decision latency percentiles
  double p99_ms = 0.0;
  double wait_p50_ms = 0.0;  // mutex-wait share (queue_wait_ms percentiles)
  double wait_p99_ms = 0.0;
  double compute_p50_ms = 0.0;  // guarded-decision share (compute_ms)
  double compute_p99_ms = 0.0;
  double e2e_p50_ms = 0.0;  // admission_wait + latency (what deadline_ms judges)
  double e2e_p99_ms = 0.0;
  bool drained_on_stop = false;  // a shutdown request shed (part of) this drain
  std::size_t prefix_hits = 0;   // KV-arena warm-prefix adoptions in this drain

  /// Fraction of requests inside deadline_ms; 1.0 when no deadline is set.
  double slo_attainment() const {
    return requests == 0 ? 1.0
                         : 1.0 - static_cast<double>(slo_miss) / static_cast<double>(requests);
  }
};

struct EngineConfig {
  // Each task's GuardCore takes these three as its GuardConfig.
  double latency_budget_ms = 0.0;       // 0 = no deadline
  int breaker_threshold = 3;            // consecutive failures opening the breaker
  int breaker_cooldown = 8;             // requests served by fallback while open
  std::string counter_prefix = "serve.";  // metrics under prefix + task + "."; empty disables

  // ---- admission control (DESIGN.md §12) ----
  std::size_t max_queue = 0;  // bound on queued-unshed requests; 0 = unbounded
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  // End-to-end SLO per request: admission wait + policy-mutex wait + compute.
  // A request whose deadline already passed when a worker picks it up is shed
  // straight to the fallback without burning primary compute. 0 = none.
  double deadline_ms = 0.0;

  // ---- transient-failure retry ----
  int retry_budget = 0;           // extra primary attempts per request
  double retry_backoff_ms = 0.0;  // base backoff; doubles per attempt, jittered
  std::uint64_t retry_seed = 0x5eedb0ffULL;  // seeds the deterministic jitter

  // ---- scheduler & pooled KV arena (DESIGN.md §13) ----
  // run() drains through `max_slots` in-flight slots that pull the next
  // queued request the moment one finishes (continuous batching); 0 means
  // one slot per request, the pre-§13 behavior. The drain order is
  // deterministic: task priority (higher first), then admission order.
  std::size_t max_slots = 0;
  int vp_priority = 0;
  int abr_priority = 0;
  int cjs_priority = 0;
  // KV arena attached to a VpAdapter primary: page budget in pages of
  // `arena_page_rows` positions (0 disables pooling/prefix sharing; see
  // nn/kv_arena.hpp for the page math and DESIGN.md §13 for sizing it from
  // the kv.appended_bytes counter).
  std::int64_t arena_pages = 4096;
  std::int64_t arena_page_rows = 16;
  std::size_t arena_prefix_entries = 32;  // warm prompt-skeleton slots; 0 = no sharing

  // ---- block-quantized backbone (DESIGN.md §15) ----
  // Weight dtype for every adapter primary's backbone projections: kQ8_0 /
  // kQ4_0 cut the resident weight bytes ~4x / ~7x and serve decode through
  // the integer-dot kernels; LoRA deltas, heads and checkpoints stay fp32.
  tensor::quant::Dtype backbone_dtype = tensor::quant::Dtype::kF32;
};

/// Deterministic backoff before retry number `attempt` (1-based) of the
/// request identified by `request_key`: `adapt::retry_backoff_ms` on the
/// stream seeded from retry_seed ^ request_key — the same request retries
/// with the same delays in every run and at every NETLLM_THREADS.
double retry_backoff_ms(const EngineConfig& cfg, std::uint64_t request_key, int attempt);

/// KV-cache-era serving substrate: one engine owns up to three adapted
/// models (any subset), a per-task guard core and a per-task fallback.
/// `submit` enqueues (thread-safe, subject to admission control) and returns
/// a `Ticket` for the matching response slot; `run()` drains the queue and
/// fills `*_responses()`. Once `core::stop_requested()` is set, `submit`
/// throws `Overloaded` and `run()` drains what is queued via the fallback
/// (Source::kShed), returning the final BatchReport.
class InferenceEngine {
 public:
  /// Any model may be null — submitting a request for a missing model
  /// throws. Null fallbacks default to LinearRegressionVp / Bba /
  /// FifoScheduler, matching the guarded wrappers.
  InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                  std::shared_ptr<abr::AbrPolicy> abr_policy,
                  std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg = {},
                  std::shared_ptr<vp::VpPredictor> vp_fallback = nullptr,
                  std::shared_ptr<abr::AbrPolicy> abr_fallback = nullptr,
                  std::shared_ptr<cjs::SchedPolicy> cjs_fallback = nullptr);

  /// Thread-safe enqueue under the admission policy: with `max_queue` set
  /// and the queue full, kBlock waits for a drain, kReject throws the named
  /// `Overloaded` error, kShedOldest marks the oldest queued request
  /// shed-to-fallback and admits this one. Throws `Overloaded` once a
  /// shutdown was requested (admission is closed during the drain).
  Ticket submit(VpRequest req);
  Ticket submit(AbrRequest req);
  Ticket submit(CjsRequest req);
  std::size_t pending() const;

  /// Drain every queued request through the run-loop scheduler: jobs are
  /// ordered deterministically (task priority, then admission order) and
  /// `max_slots` in-flight slots pull the next job the moment one finishes —
  /// continuous batching instead of an epoch-wide barrier. Each request's
  /// tensor work still runs inline inside its slot, so every response stays
  /// bitwise identical to serving that request alone at any NETLLM_THREADS.
  /// ABR/CJS decisions serialize on their policy's mutex because those
  /// policies keep rolling context — `ResponseMeta::queue_wait_ms` carries
  /// the wait.
  BatchReport run();

  /// Resolve a ticket. A ticket resolves against the most recently completed
  /// batch, and — continuous resolution — against the batch `run()` is
  /// currently draining as soon as its own request finished (no waiting for
  /// the epoch barrier). Throws `StaleTicket` if the ticket's request has no
  /// response yet or a later `run()` already replaced its generation, and
  /// `std::out_of_range` if the ticket was issued for a different task's
  /// queue.
  const VpResponse& vp_response(const Ticket& t) const;
  const AbrResponse& abr_response(const Ticket& t) const;
  const CjsResponse& cjs_response(const Ticket& t) const;

  const std::vector<VpResponse>& vp_responses() const { return vp_responses_; }
  const std::vector<AbrResponse>& abr_responses() const { return abr_responses_; }
  const std::vector<CjsResponse>& cjs_responses() const { return cjs_responses_; }

  // Session lifecycle passthroughs: both the primary and its fallback see
  // real outcomes, mirroring the guarded wrappers, so a stateful policy pair
  // stays consistent with the actual session between batches.
  void begin_abr_session();
  void observe_abr_result(const abr::ChunkResult& result, double chunk_qoe);
  void begin_cjs_episode();
  void observe_cjs_reward(double reward);

  /// Summed guard counters across the three tasks.
  adapt::GuardCounters counters() const;
  /// Per-task health (DESIGN.md §12): Healthy on first-try successes,
  /// Degraded once failures/retries appear, Open while the breaker cools.
  /// Also exported as the serve.<task>.health gauge (0 / 1 / 2).
  adapt::Health vp_health() const { return vp_guard_.health(); }
  adapt::Health abr_health() const { return abr_guard_.health(); }
  adapt::Health cjs_health() const { return cjs_guard_.health(); }
  const EngineConfig& config() const { return cfg_; }
  /// The pooled KV arena injected into a VpAdapter primary (DESIGN.md §13);
  /// null when `arena_pages` is 0 or the VP model is not a VpAdapter.
  const std::shared_ptr<nn::KvArena>& kv_arena() const { return arena_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued request plus its admission stamp. `shed` marks a ShedOldest
  /// victim: its slot (and ticket) stay valid, but the drain serves it via
  /// the fallback without burning primary compute.
  template <typename Req>
  struct Queued {
    Req req;
    Clock::time_point admitted{};
    bool shed = false;
  };

  /// Engine-only metric handles for one task (DESIGN.md §11), resolved
  /// once — the guard core holds the decision counters and the health
  /// gauge. All null when `counter_prefix` is empty.
  struct TaskMetrics {
    core::metrics::Counter* slo_miss = nullptr;
    core::metrics::Counter* rejected = nullptr;
    core::metrics::Histogram* queue_wait_ms = nullptr;
    core::metrics::Histogram* compute_ms = nullptr;
  };
  TaskMetrics make_task_metrics(const char* task) const;

  /// Stamps the admission wait into `meta` and builds the guard call: the
  /// retry settings, the deadline, and shed when the request was a
  /// ShedOldest victim, a shutdown drain is in progress, or its deadline
  /// already passed before any compute was spent.
  adapt::GuardCall start_request(Clock::time_point admitted, bool already_shed,
                                 std::uint64_t task_id, std::uint64_t epoch, std::size_t index,
                                 ResponseMeta& meta) const;
  /// Copies the guard outcome into `meta`, then end-of-request SLO
  /// accounting (admission wait + serve time vs deadline_ms) plus the
  /// latency histograms.
  void finish_request(TaskMetrics& m, const adapt::GuardOutcome& out, ResponseMeta& meta) const;

  VpResponse serve_vp(const Queued<VpRequest>& q, std::uint64_t epoch, std::size_t index);
  AbrResponse serve_abr(const Queued<AbrRequest>& q, std::uint64_t epoch, std::size_t index);
  CjsResponse serve_cjs(const Queued<CjsRequest>& q, std::uint64_t epoch, std::size_t index);

  /// Admission gate shared by the three submits; runs under queue_mu_ (the
  /// lock is `lk`). Applies the configured policy when the queue is full and
  /// throws Overloaded when admission is closed. `rejected` is the task's
  /// rejection counter (may be null).
  void admit_locked(std::unique_lock<std::mutex>& lk, core::metrics::Counter* rejected);
  /// Unshed queued requests across the three queues. Caller holds queue_mu_.
  std::size_t unshed_pending_locked() const;
  /// Marks the oldest unshed queued request as shed. Caller holds queue_mu_.
  void shed_oldest_locked();

  EngineConfig cfg_;
  std::shared_ptr<vp::VpPredictor> vp_model_, vp_fallback_;
  std::shared_ptr<abr::AbrPolicy> abr_policy_, abr_fallback_;
  std::shared_ptr<cjs::SchedPolicy> cjs_policy_, cjs_fallback_;

  adapt::GuardCore vp_guard_, abr_guard_, cjs_guard_;
  TaskMetrics vp_metrics_, abr_metrics_, cjs_metrics_;
  core::metrics::Gauge* queue_depth_ = nullptr;  // serve.queue_depth
  core::metrics::Counter* admission_wakeups_ = nullptr;  // serve.admission.wakeups
  std::mutex abr_mu_, cjs_mu_;  // serialize stateful policy calls
  std::shared_ptr<nn::KvArena> arena_;  // pooled KV pages + warm prefixes (VP)

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // signaled when run() frees queue space
  std::uint64_t submit_epoch_ = 1;     // generation stamped onto new tickets
  std::uint64_t completed_epoch_ = 0;  // generation the response vectors hold
  std::uint64_t draining_epoch_ = 0;   // generation run() is draining (0 = idle)
  // False while a drain is rebuilding the response vectors: tickets from the
  // completed generation are already "replaced by a later run()" then.
  bool responses_valid_ = false;
  std::vector<Queued<VpRequest>> vp_queue_;
  std::vector<Queued<AbrRequest>> abr_queue_;
  std::vector<Queued<CjsRequest>> cjs_queue_;

  std::vector<VpResponse> vp_responses_;
  std::vector<AbrResponse> abr_responses_;
  std::vector<CjsResponse> cjs_responses_;
  // Continuous-resolution flags for the draining generation: a slot flips
  // its request's entry (under queue_mu_) the moment the response is ready.
  std::vector<char> vp_done_, abr_done_, cjs_done_;
};

}  // namespace netllm::serve
