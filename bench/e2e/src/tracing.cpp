// Traced run of the end-to-end benchmark. Spans come from the benchmark's own
// code: around each run() and each request (workloads.cpp), and around every
// call into an adapter or fallback (the decorators below). The encoder, LLM,
// head, nn, KV-arena and tensor layers sit inside the adapters, so their
// costs come from replays of those layers' public calls at the shapes and
// call counts the run produced.
#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "e2e.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"
#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quants.hpp"

namespace netllm::e2e {

using tensor::Tensor;

// ---- Tracer ----

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

double Tracer::now_us() const { return to_us(Clock::now()); }

std::int64_t Tracer::record(const char* name, double start_us, double end_us,
                            std::uint64_t request, std::int64_t parent) {
  const std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_us, end_us, request, tid, parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::bind(const void* key, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  keys_[key] = request;
}

void Tracer::unbind(const void* key, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  // A freed payload's address can already name a newer request.
  const auto it = keys_.find(key);
  if (it != keys_.end() && it->second == request) keys_.erase(it);
}

std::uint64_t Tracer::request_of(const void* key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = keys_.find(key);
  return it == keys_.end() ? 0 : it->second;
}

void Tracer::note_abr_window(int steps, const abr::Observation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (abr_windows_.size() <= static_cast<std::size_t>(steps)) abr_windows_.resize(steps + 1, 0);
  ++abr_windows_[static_cast<std::size_t>(steps)];
  if (abr_obs_.size() < 16) abr_obs_.push_back(obs);  // a window's worth and more
}

void Tracer::note_cjs_window(const std::vector<cjs::SchedObservation>& window) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cjs_calls_++ % 16 == 0) cjs_windows_.push_back(window);  // a sample is enough for shapes
}

void Tracer::note_kv_pages(std::int64_t pages) {
  std::lock_guard<std::mutex> lock(mu_);
  kv_pages_peak_ = std::max(kv_pages_peak_, pages);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int> Tracer::abr_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abr_windows_;
}

std::vector<abr::Observation> Tracer::abr_obs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abr_obs_;
}

std::vector<std::vector<cjs::SchedObservation>> Tracer::cjs_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cjs_windows_;
}

std::int64_t Tracer::kv_pages_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kv_pages_peak_;
}

// ---- decorators ----

namespace {

/// Records one span on every exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const void* key)
      : tracer_(tracer), name_(name), key_(key), start_us_(tracer.now_us()) {}
  ~ScopedSpan() { tracer_.record(name_, start_us_, tracer_.now_us(), tracer_.request_of(key_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  const void* key_;
  double start_us_;
};

class TracedVp final : public vp::VpPredictor {
 public:
  TracedVp(std::shared_ptr<vp::VpPredictor> inner, Tracer& tracer, const char* span,
           std::shared_ptr<nn::KvArena> arena)
      : inner_(std::move(inner)), tracer_(tracer), span_(span), arena_(std::move(arena)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history,
                                    const tensor::Tensor& saliency, int horizon) override {
    if (arena_) tracer_.note_kv_pages(arena_->pages_in_use());
    ScopedSpan span(tracer_, span_, history.data());
    return inner_->predict(history, saliency, horizon);
  }

 private:
  std::shared_ptr<vp::VpPredictor> inner_;
  Tracer& tracer_;
  const char* span_;
  std::shared_ptr<nn::KvArena> arena_;
};

/// ABR and CJS calls are serialized by the engine's policy mutex, so the
/// rolling-window bookkeeping needs no lock of its own.
class TracedAbr final : public abr::AbrPolicy {
 public:
  TracedAbr(std::shared_ptr<abr::AbrPolicy> inner, Tracer& tracer, const char* span, int window)
      : inner_(std::move(inner)), tracer_(tracer), span_(span), window_(window) {}
  std::string name() const override { return inner_->name(); }
  void begin_session() override {
    steps_ = 0;
    inner_->begin_session();
  }
  int choose_level(const abr::Observation& obs) override {
    if (window_ > 0) {
      steps_ = std::min(steps_ + 1, window_);
      tracer_.note_abr_window(steps_, obs);
    }
    ScopedSpan span(tracer_, span_, obs.past_throughput_mbps.data());
    return inner_->choose_level(obs);
  }
  void observe_result(const abr::ChunkResult& result, double chunk_qoe) override {
    inner_->observe_result(result, chunk_qoe);
  }

 private:
  std::shared_ptr<abr::AbrPolicy> inner_;
  Tracer& tracer_;
  const char* span_;
  int window_;
  int steps_ = 0;
};

class TracedCjs final : public cjs::SchedPolicy {
 public:
  TracedCjs(std::shared_ptr<cjs::SchedPolicy> inner, Tracer& tracer, const char* span, int window)
      : inner_(std::move(inner)), tracer_(tracer), span_(span), window_(window) {}
  std::string name() const override { return inner_->name(); }
  void begin_episode() override {
    context_.clear();
    inner_->begin_episode();
  }
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override {
    if (window_ > 0) {
      context_.push_back(obs);
      if (static_cast<int>(context_.size()) > window_) context_.erase(context_.begin());
      tracer_.note_cjs_window(context_);
    }
    ScopedSpan span(tracer_, span_, obs.runnable_rows.data());
    return inner_->choose(obs);
  }
  void observe_reward(double reward) override { inner_->observe_reward(reward); }

 private:
  std::shared_ptr<cjs::SchedPolicy> inner_;
  Tracer& tracer_;
  const char* span_;
  int window_;
  std::vector<cjs::SchedObservation> context_;
};

}  // namespace

std::shared_ptr<vp::VpPredictor> traced(std::shared_ptr<vp::VpPredictor> inner, Tracer& tracer,
                                        const char* span, std::shared_ptr<nn::KvArena> arena) {
  return std::make_shared<TracedVp>(std::move(inner), tracer, span, std::move(arena));
}

std::shared_ptr<abr::AbrPolicy> traced(std::shared_ptr<abr::AbrPolicy> inner, Tracer& tracer,
                                       const char* span, int context_window) {
  return std::make_shared<TracedAbr>(std::move(inner), tracer, span, context_window);
}

std::shared_ptr<cjs::SchedPolicy> traced(std::shared_ptr<cjs::SchedPolicy> inner, Tracer& tracer,
                                         const char* span, int context_window) {
  return std::make_shared<TracedCjs>(std::move(inner), tracer, span, context_window);
}

// ---- replays ----

namespace {

constexpr int kVpPrompt = 11;  // image token + 10 history viewports
constexpr std::int64_t kVpRows = kVpPrompt + kVpHorizon - 1;

double ms_since(Clock::time_point t) { return seconds_between(t, Clock::now()) * 1e3; }

/// Times calls as the run made them: as many threads as the workload serves
/// requests at once call concurrently, each call inline as in an engine slot.
/// Each timing is scaled to the reference speed by a calibration taken on its
/// thread at most kHostSampleEveryS before it, so replays made seconds apart
/// compare although the host's speed moved in between.
class Replayer {
 public:
  explicit Replayer(int threads) : threads_(threads) {}
  /// Median of `fn`'s own timings (reference ms) over `reps` calls per thread.
  double operator()(int reps, const std::function<double()>& fn) const;
  /// The calling replay thread's index, in [0, threads): a stateful adapter
  /// is never shared between threads.
  static std::size_t thread_index() { return thread_index_; }

 private:
  int threads_;
  static thread_local std::size_t thread_index_;
};

thread_local std::size_t Replayer::thread_index_ = 0;

double Replayer::operator()(int reps, const std::function<double()>& fn) const {
  const auto n = static_cast<std::size_t>(threads_);
  std::vector<std::vector<double>> times(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      thread_index_ = t;
      try {
        // A one-chunk parallel_for marks the thread as inside the pool, so
        // the kernels run inline instead of fanning out.
        core::parallel_for(1, 1, [&](std::int64_t, std::int64_t) {
          fn();
          ready.fetch_add(1);
          while (ready.load() < threads_) std::this_thread::yield();
          auto sampled = Clock::now();
          double host_ms = calibration_ms();
          for (int r = 0; r < reps; ++r) {
            const double ms = fn();
            times[t].push_back(ms * reference_scale(host_ms));
            if (seconds_between(sampled, Clock::now()) >= kHostSampleEveryS) {
              host_ms = calibration_ms();
              sampled = Clock::now();
            }
          }
        });
      } catch (...) {
        errors[t] = std::current_exception();
        ready.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<double> all;
  for (const auto& v : times) all.insert(all.end(), v.begin(), v.end());
  return percentile(all, 50.0);
}

/// This thread's per-layer caches, emptied, as a fresh lease hands them out.
std::vector<nn::KvCache>& empty_caches(std::int64_t layers) {
  thread_local std::vector<nn::KvCache> caches;
  caches.resize(static_cast<std::size_t>(layers));
  for (auto& c : caches) c.clear();
  return caches;
}

/// `prefill_embeddings` of an 11-row VP prompt (ms).
double replay_prefill(const Replayer& replay, const llm::MiniGpt& llm) {
  const auto prompt = Tensor::full({kVpPrompt, llm.config().d_model}, 0.1f);
  return replay(100, [&] {
    auto& caches = empty_caches(llm.config().n_layers);
    const auto t = Clock::now();
    (void)llm.prefill_embeddings(prompt, caches);
    return ms_since(t);
  });
}

/// One `embeddings_step` at positions 11..29 of a VP rollout (ms per step).
double replay_step(const Replayer& replay, const llm::MiniGpt& llm) {
  const auto prompt = Tensor::full({kVpPrompt, llm.config().d_model}, 0.1f);
  const auto row = Tensor::full({1, llm.config().d_model}, 0.1f);
  return replay(50, [&] {
    auto& caches = empty_caches(llm.config().n_layers);
    (void)llm.prefill_embeddings(prompt, caches);
    const auto t = Clock::now();
    for (int k = 1; k < kVpHorizon; ++k) (void)llm.embeddings_step(row, caches);
    return ms_since(t) / (kVpHorizon - 1);
  });
}

/// Per-call replay costs of one task at the run's shapes (ms). `adapter` is
/// the adapter's own call at those shapes, timed beside its parts: this
/// host's speed moves by 10-25% within seconds, so only measurements taken
/// together compare.
struct TaskCost {
  double encode = 0, head = 0, llm = 0;
  double adapter = 0;
  double prefills = 0;       // prefill calls per decision
  double prefill_ms = 0;     // time per prefill call
  double rows = 0;           // backbone rows per decision
};

/// The adapter's call on prompts the run served (every answer the
/// correctness gate sampled): jittered, a prompt misses the warm-prefix
/// cache; repeated, it hits.
double replay_vp_adapter(const Replayer& replay, adapt::VpAdapter& adapter, double hit_ratio,
                         const std::vector<VpCheck>& prompts) {
  std::atomic<std::uint64_t> unique{0};
  const double miss_ms = hit_ratio >= 1.0 ? 0.0 : replay(30, [&] {
    const auto n = unique.fetch_add(1);
    const auto& p = prompts[n % prompts.size()];
    auto history = p.history;
    history.front().roll += 1e-3 * static_cast<double>(n + 1);
    const auto t = Clock::now();
    (void)adapter.predict(history, p.saliency, kVpHorizon);
    return ms_since(t);
  });
  const double hit_ms = hit_ratio <= 0.0 ? 0.0 : replay(30, [&] {
    const auto& p = prompts[Replayer::thread_index() % prompts.size()];
    const auto t = Clock::now();
    (void)adapter.predict(p.history, p.saliency, kVpHorizon);
    return ms_since(t);
  });
  return hit_ratio * hit_ms + (1.0 - hit_ratio) * miss_ms;
}

TaskCost replay_vp(const Replayer& replay, adapt::VpAdapter& adapter, double hit_ratio,
                   const std::vector<VpCheck>& prompts) {
  const auto& llm = adapter.llm();
  const auto d = llm.config().d_model;
  core::Rng rng(11);
  const adapt::ImageEncoder image(d, rng);
  const adapt::ScalarEncoder coords(3, d, rng);
  const adapt::RegressionHead head(d, 3, rng);
  const auto saliency = Tensor::full({vp::kSaliencySize, vp::kSaliencySize}, 0.5f);
  const float xyz[] = {0.1f, -0.2f, 0.3f};
  const auto feature = Tensor::full({1, d}, 0.1f);

  TaskCost c;
  const double prompt_ms = replay(200, [&] {
    const auto t = Clock::now();
    std::vector<Tensor> tokens{image.forward(saliency)};
    for (int i = 1; i < kVpPrompt; ++i) tokens.push_back(coords.forward(xyz));
    (void)concat_rows(tokens);
    return ms_since(t);
  });
  const double step_encode_ms = replay(2000, [&] {
    const auto t = Clock::now();
    (void)coords.forward(xyz);
    return ms_since(t);
  });
  c.head = kVpHorizon * replay(2000, [&] {
    const auto t = Clock::now();
    (void)head.forward(feature);
    return ms_since(t);
  });
  c.encode = prompt_ms + (kVpHorizon - 1) * step_encode_ms;
  c.prefill_ms = replay_prefill(replay, llm);
  c.prefills = 1.0 - hit_ratio;
  c.adapter = replay_vp_adapter(replay, adapter, hit_ratio, prompts);
  c.llm = c.prefills * c.prefill_ms + (kVpHorizon - 1) * replay_step(replay, llm);
  c.rows = c.prefills * kVpPrompt + (kVpHorizon - 1);
  return c;
}

/// One replay thread: the adapter keeps a rolling context, and the engine's
/// policy mutex lets only one ABR call run at a time anyway. `obs` are
/// observations the run's adapter saw.
TaskCost replay_abr(const Replayer& replay, adapt::AbrAdapter& adapter,
                    const std::vector<int>& windows, const std::vector<abr::Observation>& obs) {
  const auto& llm = adapter.llm();
  const auto d = llm.config().d_model;
  const auto hist = static_cast<std::int64_t>(abr::Observation::kHistory);
  const auto levels = static_cast<std::int64_t>(adapt::AbrAdapter::kLevels);
  core::Rng rng(12);
  const adapt::ScalarEncoder rtg(1, d, rng), buffer(2, d, rng);
  const adapt::TimeSeriesEncoder tp(1, hist, d, rng), delay(1, hist, d, rng);
  const adapt::TimeSeriesEncoder sizes(1, levels, d, rng);
  const adapt::ActionEncoder action(levels, d, rng);
  const adapt::CategoricalHead head(d, levels, rng);
  const auto feature = Tensor::full({1, d}, 0.1f);

  TaskCost c;
  double calls = 0;
  for (std::size_t w = 1; w < windows.size(); ++w) {
    if (windows[w] == 0) continue;
    const auto steps = static_cast<int>(w);
    const auto rows = 6 * steps - 1;  // 6 tokens per step, the last action is open
    const double encode = replay(40, [&] {
      const auto t = Clock::now();
      std::vector<Tensor> tokens;
      for (int i = 0; i < steps; ++i) {
        const float r[] = {1.0f};
        tokens.push_back(rtg.forward(r));
        const auto series = [](std::int64_t n, float v) {
          return Tensor::from(std::vector<float>(static_cast<std::size_t>(n), v), {1, n});
        };
        tokens.push_back(tp.forward(series(hist, 0.3f)));
        tokens.push_back(delay.forward(series(hist, 0.2f)));
        tokens.push_back(sizes.forward(series(levels, 0.1f)));
        const float buf[] = {0.5f, 0.5f};
        tokens.push_back(buffer.forward(buf));
        if (i + 1 < steps) tokens.push_back(action.forward(i % 6));
      }
      (void)concat_rows(tokens);
      return ms_since(t);
    });
    const auto seq = Tensor::full({rows, d}, 0.1f);
    const double prefill = replay(40, [&] {
      const auto t = Clock::now();
      (void)llm.forward_embeddings(seq);
      return ms_since(t);
    });
    // A fresh session, then the timed call sees a window of `steps` steps.
    const double adapter_ms = replay(20, [&] {
      adapter.begin_session();
      for (int i = 0; i + 1 < steps; ++i) (void)adapter.choose_level(obs[i % obs.size()]);
      const auto t = Clock::now();
      (void)adapter.choose_level(obs[static_cast<std::size_t>(steps - 1) % obs.size()]);
      return ms_since(t);
    });
    const double n = windows[w];
    calls += n;
    c.encode += n * encode;
    c.llm += n * prefill;
    c.adapter += n * adapter_ms;
    c.rows += n * rows;
  }
  if (calls > 0) {
    c.encode /= calls;
    c.llm /= calls;
    c.adapter /= calls;
    c.rows /= calls;
  }
  c.head = replay(2000, [&] {
    const auto t = Clock::now();
    (void)head.argmax(slice_rows(feature, 0, 1));
    return ms_since(t);
  });
  c.prefills = 1.0;
  c.prefill_ms = c.llm;
  return c;
}

/// One replay thread: the adapter keeps a rolling context, and the engine's
/// policy mutex lets only one CJS call run at a time anyway.
TaskCost replay_cjs(const Replayer& replay, adapt::CjsAdapter& adapter,
                    std::vector<std::vector<cjs::SchedObservation>> windows) {
  const auto& llm = adapter.llm();
  const auto d = llm.config().d_model;
  core::Rng rng(13);
  const adapt::ScalarEncoder rtg(1, d, rng), exec(2, d, rng);
  const adapt::GraphTokenEncoder graph(cjs::SchedObservation::kNodeFeatures, d, rng);
  const nn::Linear stage_proj(graph.gnn_dim(), d, rng);
  const nn::LayerNorm stage_norm(d);
  const adapt::ActionEncoder cap(cjs::kNumCapChoices, d, rng);
  const adapt::PointerHead pointer(d, graph.gnn_dim(), rng);
  const adapt::CategoricalHead cap_head(d, cjs::kNumCapChoices, rng);
  const auto feature = Tensor::full({1, d}, 0.1f);

  // At most 16 evenly spaced sampled windows keep the replay short.
  if (windows.size() > 16) {
    std::vector<std::vector<cjs::SchedObservation>> kept;
    for (std::size_t i = 0; i < 16; ++i) kept.push_back(windows[i * windows.size() / 16]);
    windows.swap(kept);
  }
  const auto runnable = [&](const adapt::GraphTokenEncoder::Output& g,
                            const cjs::SchedObservation& obs) {
    std::vector<Tensor> rows;
    for (int row : obs.runnable_rows) rows.push_back(slice_rows(g.node_embeddings, row, 1));
    return concat_rows(rows);
  };
  TaskCost c;
  for (const auto& window : windows) {
    const auto steps = window.size();
    const auto& last = window.back();
    const auto candidates = runnable(graph.forward(last.node_features, last.topology), last);
    const double encode = replay(5, [&] {
      const auto t = Clock::now();
      std::vector<Tensor> tokens;
      for (std::size_t i = 0; i < steps; ++i) {
        const auto& obs = window[i];
        const float r[] = {0.5f};
        tokens.push_back(rtg.forward(r));
        const auto g = graph.forward(obs.node_features, obs.topology);
        tokens.push_back(g.global_token);
        const float e[] = {0.5f, 0.2f};
        tokens.push_back(exec.forward(e));
        (void)runnable(g, obs);
        if (i + 1 < steps) {
          tokens.push_back(stage_norm.forward(
              stage_proj.forward(slice_rows(g.node_embeddings, obs.runnable_rows.front(), 1))));
          tokens.push_back(cap.forward(0));
        }
      }
      (void)concat_rows(tokens);
      return ms_since(t);
    });
    const auto rows = static_cast<std::int64_t>(5 * steps - 2);
    const auto seq = Tensor::full({rows, d}, 0.1f);
    c.encode += encode;
    c.llm += replay(5, [&] {
      const auto t = Clock::now();
      (void)llm.forward_embeddings(seq);
      return ms_since(t);
    });
    c.head += replay(50, [&] {
      const auto t = Clock::now();
      (void)pointer.argmax(feature, candidates);
      (void)cap_head.argmax(feature);
      return ms_since(t);
    });
    // A fresh episode fed the window, then the timed call sees all of it.
    c.adapter += replay(3, [&] {
      adapter.begin_episode();
      for (std::size_t i = 0; i + 1 < steps; ++i) (void)adapter.choose(window[i]);
      const auto t = Clock::now();
      (void)adapter.choose(last);
      return ms_since(t);
    });
    c.rows += static_cast<double>(rows);
  }
  if (!windows.empty()) {
    const auto n = static_cast<double>(windows.size());
    c.encode /= n;
    c.llm /= n;
    c.head /= n;
    c.adapter /= n;
    c.rows /= n;
  }
  c.prefills = 1.0;
  c.prefill_ms = c.llm;
  return c;
}

struct NnCost {
  double block_step_us = 0, attn_step_us = 0;
};

/// One transformer block and its attention at the backbone's shape, LoRA on
/// and quantized like the served backbone, stepping positions 11..29 as a VP
/// rollout does.
NnCost replay_nn(const Replayer& replay, const llm::MiniGptConfig& cfg,
                 tensor::quant::Dtype dtype) {
  core::Rng rng(14);
  nn::TransformerBlock block(cfg.d_model, cfg.n_heads, cfg.d_ff, /*causal=*/true, rng);
  nn::MultiHeadAttention attn(cfg.d_model, cfg.n_heads, /*causal=*/true, rng);
  const adapt::VpAdapterConfig lora;
  block.enable_lora(lora.lora_rank, lora.lora_alpha, rng);
  attn.enable_lora(lora.lora_rank, lora.lora_alpha, rng);
  if (dtype != tensor::quant::Dtype::kF32) {
    for (const auto& l : block.projection_linears()) l->set_weight_dtype(dtype);
    for (const auto& l : attn.projection_linears()) l->set_weight_dtype(dtype);
  }
  const auto prompt = Tensor::full({kVpPrompt, cfg.d_model}, 0.1f);
  const auto row = Tensor::full({1, cfg.d_model}, 0.1f);
  NnCost c;
  const auto steps = [&](auto&& prefill, auto&& step) {
    return 1e3 * replay(50, [&] {
      nn::KvCache cache;
      prefill(cache);
      const auto t = Clock::now();
      for (int k = 1; k < kVpHorizon; ++k) step(cache);
      return ms_since(t) / (kVpHorizon - 1);
    });
  };
  c.block_step_us = steps([&](nn::KvCache& kv) { (void)block.forward(prompt, &kv); },
                          [&](nn::KvCache& kv) { (void)block.forward_step(row, kv); });
  c.attn_step_us = steps([&](nn::KvCache& kv) { (void)attn.forward(prompt, &kv); },
                         [&](nn::KvCache& kv) { (void)attn.forward_step(row, kv); });
  return c;
}

struct KvCost {
  double lease_us = 0, adopt_us = 0, publish_us = 0;
};

/// Lease, publish and adopt on an arena configured like the engine's, at the
/// VP rollout's shape (11 prompt rows, 30 rows leased).
KvCost replay_kv(const Replayer& replay, const WorkloadSpec& spec,
                 const llm::MiniGptConfig& cfg) {
  const auto owned = engine_arena(spec, cfg);
  if (!owned) return {};
  nn::KvArena& arena = *owned;
  const auto d = static_cast<std::size_t>(cfg.d_model);
  const std::vector<float> row(d, 0.2f), features(d, 0.3f);
  std::atomic<int> salt{1};
  // Every publish gets a distinct prompt, as a miss in the engine does.
  const auto prompt_of = [&](int s) {
    std::vector<float> prompt(kVpPrompt * d, 0.1f);
    prompt[0] = static_cast<float>(s);
    return prompt;
  };
  const auto filled_lease = [&] {
    auto lease = arena.lease(kVpRows);
    for (auto& layer : lease.layers()) {
      for (int r = 0; r < kVpPrompt; ++r) layer.append(row, row);
    }
    return lease;
  };
  KvCost c;
  c.lease_us = 1e3 * replay(200, [&] {
    const auto t = Clock::now();
    const auto lease = arena.lease(kVpRows);
    return ms_since(t);
  });
  c.publish_us = 1e3 * replay(200, [&] {
    const auto prompt = prompt_of(salt.fetch_add(1));
    auto lease = filled_lease();
    const auto t = Clock::now();
    arena.publish(nn::KvArena::prefix_key(prompt), prompt, lease.layers(), kVpPrompt, features);
    return ms_since(t);
  });
  // Adopt one warm entry; nothing publishes meanwhile, so it cannot be evicted.
  const auto warm_prompt = prompt_of(0);
  const auto warm_key = nn::KvArena::prefix_key(warm_prompt);
  arena.publish(warm_key, warm_prompt, filled_lease().layers(), kVpPrompt, features);
  c.adopt_us = 1e3 * replay(200, [&] {
    auto lease = arena.lease(kVpRows);
    std::vector<float> warm;
    const auto t = Clock::now();
    if (!arena.adopt(warm_key, warm_prompt, lease, &warm)) {
      throw std::runtime_error("kv replay: the warm entry was not adopted");
    }
    return ms_since(t);
  });
  return c;
}

/// GFLOP/s of a [1,d] x [d,d] product at the backbone width: the fp32 GEMV
/// and the Q8_0 one the quantized backbone runs.
std::pair<double, double> replay_gemv(const Replayer& replay, std::int64_t d) {
  core::Rng rng(15);
  const auto a = Tensor::randn({1, d}, rng, 1.0f);
  const auto b = Tensor::randn({d, d}, rng, 1.0f);
  const auto qa = tensor::quant::quantize(tensor::quant::Dtype::kQ8_0, a);
  const auto qb = tensor::quant::quantize(tensor::quant::Dtype::kQ8_0, b);
  const auto kb = tensor::quant::blocks_per_row(d);
  const double flops = 2.0 * static_cast<double>(d) * static_cast<double>(d);
  const double fp32_ms = replay(2000, [&] {
    std::vector<float> c(static_cast<std::size_t>(d), 0.0f);
    const auto t = Clock::now();
    tensor::kernels::matmul_accum(a.data().data(), b.data().data(), c.data(), 1, d, d);
    return ms_since(t);
  });
  const double q8_ms = replay(2000, [&] {
    std::vector<float> c(static_cast<std::size_t>(d), 0.0f);
    const auto t = Clock::now();
    tensor::kernels::matmul_q8_accum(reinterpret_cast<const std::int8_t*>(qa.codes.data()),
                                     qa.scales.data(),
                                     reinterpret_cast<const std::int8_t*>(qb.codes.data()),
                                     qb.scales.data(), c.data(), 1, kb, d);
    return ms_since(t);
  });
  return {flops / (fp32_ms * 1e6), flops / (q8_ms * 1e6)};
}

}  // namespace

// ---- per-layer metrics ----

std::vector<Metric> per_layer(const WorkloadSpec& spec, const Ledger& ledger, const Stack& stack,
                              const Tracer& tracer, std::vector<Metric>& checks) {
  const auto spans = tracer.spans();
  // Adapter and fallback time per request, from the decorator spans.
  std::map<std::uint64_t, double> primary_ms, fallback_ms;
  // serve.run spans per thread: one thread drives one engine, one run() at a time.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> runs;
  for (const auto& s : spans) {
    const std::string_view name = s.name;
    const double ms = (s.end_us - s.start_us) / 1e3;
    if (name == "serve.run") runs[s.tid].emplace_back(s.start_us, s.end_us);
    if (s.request == 0) continue;
    if (name.starts_with("adapt.")) primary_ms[s.request] += ms;
    if (name.starts_with("fallback.")) fallback_ms[s.request] += ms;
  }
  // In-run time per request: the part of its latency that its engine's run()
  // calls cover. The rest is the benchmark's own loop (late arrivals, waking
  // the drain, collecting answers between runs).
  std::map<std::uint64_t, double> in_run_ms;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != "request" || s.parent < 0) continue;
    const auto& engine_runs = runs[spans[static_cast<std::size_t>(s.parent)].tid];
    auto it = std::lower_bound(engine_runs.begin(), engine_runs.end(), s.start_us,
                               [](const auto& run, double t) { return run.second <= t; });
    double us = 0;
    for (; it != engine_runs.end() && it->first < s.end_us; ++it) {
      us += std::min(it->second, s.end_us) - std::max(it->first, s.start_us);
    }
    in_run_ms[s.request] = us / 1e3;
  }
  const auto lookup = [](const std::map<std::uint64_t, double>& m, std::uint64_t r) {
    const auto it = m.find(r);
    return it == m.end() ? 0.0 : it->second;
  };

  // Span times go to the reference speed by the calibration sample taken when
  // the request's run() returned, as the end-to-end times do.
  std::vector<double> self, admission, adapter;
  double latency_sum = 0, policy_sum = 0, fallback_sum = 0, accounted_sum = 0;
  double attempted = 0, shed = 0, fallback = 0, retried = 0, primary = 0, covered = 0;
  double task_decisions[3] = {0, 0, 0};
  for (const auto& o : ledger.outcomes) {
    if (!o.measured) continue;
    ++attempted;
    if (o.done_s < 0) continue;
    const double lat = o.latency_ms();
    const double to_ref = ledger.to_ref_at(o.done_s);
    const double p = lookup(primary_ms, o.request), f = lookup(fallback_ms, o.request);
    // serve's self time: in run() but in neither an adapter nor a fallback.
    const double self_ms = lookup(in_run_ms, o.request) - p - f;
    self.push_back(self_ms * to_ref);
    accounted_sum += self_ms + p + f;
    admission.push_back(o.admission_wait_ms * to_ref);
    latency_sum += lat;
    policy_sum += o.policy_wait_ms;
    fallback_sum += f;
    shed += o.source == serve::Source::kShed;
    fallback += o.source == serve::Source::kFallback;
    retried += o.source == serve::Source::kRetried;
    if (o.primary()) {
      ++primary;
      task_decisions[static_cast<int>(o.task)] += 1;
      if (p > 0) {
        ++covered;
        adapter.push_back(p * to_ref);
      }
    }
  }
  const double hits = static_cast<double>(stack.arena ? stack.arena->prefix_hits() : 0);
  const double misses = static_cast<double>(stack.arena ? stack.arena->prefix_misses() : 0);
  const double evictions = static_cast<double>(stack.arena ? stack.arena->evictions() : 0);
  const double hit_ratio = ratio(hits, hits + misses);

  // Replays at the run's shapes and concurrency (one thread per compute lane,
  // as the engine serves), weighted by the measured primary decisions. The
  // served adapters are called again: the run is over.
  const Replayer replay(core::global_threads());
  TaskCost costs[3];
  if (stack.vp && task_decisions[0] > 0) {
    costs[0] = replay_vp(replay, *stack.vp, hit_ratio, ledger.vp_checks);
  }
  if (stack.abr && task_decisions[1] > 0) {
    costs[1] = replay_abr(Replayer(1), *stack.abr, tracer.abr_windows(), tracer.abr_obs());
  }
  if (stack.cjs && task_decisions[2] > 0) {
    costs[2] = replay_cjs(Replayer(1), *stack.cjs, tracer.cjs_windows());
  }
  double encode = 0, head = 0, llm = 0, adapter_replayed = 0, rows = 0, prefill_calls = 0,
         prefill_time = 0;
  for (int t = 0; t < 3; ++t) {
    const double n = task_decisions[t];
    encode += n * costs[t].encode;
    head += n * costs[t].head;
    llm += n * costs[t].llm;
    adapter_replayed += n * costs[t].adapter;
    rows += n * costs[t].rows;
    prefill_calls += n * costs[t].prefills;
    prefill_time += n * costs[t].prefills * costs[t].prefill_ms;
  }
  encode = ratio(encode, primary);
  head = ratio(head, primary);
  llm = ratio(llm, primary);
  adapter_replayed = ratio(adapter_replayed, primary);
  rows = ratio(rows, primary);
  const double replayed = encode + head + llm;

  // Layer microbenchmarks at the workload's backbone shape.
  const llm::MiniGpt& backbone =
      stack.vp ? stack.vp->llm() : stack.abr ? stack.abr->llm() : stack.cjs->llm();
  const auto& bcfg = backbone.config();
  const double step_ms = replay_step(replay, backbone);
  const NnCost nn_cost = replay_nn(replay, bcfg, backbone.backbone_dtype());
  const KvCost kv_cost = replay_kv(replay, spec, bcfg);
  const auto [gemv, qgemv] = replay_gemv(replay, bcfg.d_model);

  const double window_s = ledger.window_end_s - ledger.window_start_s;
  double run_cpu_s = 0;
  for (const auto& [t, ms] : ledger.run_cpu_ms) {
    if (t >= ledger.window_start_s && t <= ledger.window_end_s) run_cpu_s += ms / 1e3;
  }

  checks = {
      {"trace.accounted_ratio", ratio(accounted_sum, latency_sum), "fraction"},
      {"trace.adapter_coverage", ratio(covered, primary), "fraction"},
      {"adapt.replay_ratio", ratio(replayed, adapter_replayed), "fraction"},
      // How much slower adapter calls ran in the window than in the replays.
      {"adapt.run_vs_replay", ratio(mean(adapter), adapter_replayed), "fraction"},
  };
  for (const auto& [name, p50] : ledger.phase_p50_ms) {
    checks.push_back({name + ".p50_ms", p50, "ms"});
  }

  return {
      {"serve.self_ms.p50", percentile(self, 50.0), "ref_ms"},
      {"serve.self_ms.p99", percentile(self, 99.0), "ref_ms"},
      {"serve.admission_wait_ms.p99", percentile(admission, 99.0), "ref_ms"},
      {"serve.policy_wait_share", ratio(policy_sum, latency_sum), "fraction"},
      {"serve.drain_size.mean", mean(ledger.drain_sizes), "count"},
      {"serve.shed_ratio", ratio(shed, attempted), "fraction"},
      {"serve.fallback_ratio", ratio(fallback, attempted), "fraction"},
      {"serve.retry_ratio", ratio(retried, attempted), "fraction"},
      {"adapt.predict_ms.p50", percentile(adapter, 50.0), "ref_ms"},
      {"adapt.predict_ms.p99", percentile(adapter, 99.0), "ref_ms"},
      {"adapt.fallback_share", ratio(fallback_sum, latency_sum), "fraction"},
      {"adapt.glue_ms", adapter_replayed - replayed, "ref_ms"},
      {"encoders.ms_per_decision", encode, "ref_ms"},
      {"heads.ms_per_decision", head, "ref_ms"},
      {"llm.ms_per_decision", llm, "ref_ms"},
      {"llm.prefill_ms", ratio(prefill_time, prefill_calls), "ref_ms"},
      {"llm.step_ms", step_ms, "ref_ms"},
      {"llm.rows_per_decision", rows, "count"},
      {"nn.block_step_us", nn_cost.block_step_us, "ref_us"},
      {"nn.attn_step_us", nn_cost.attn_step_us, "ref_us"},
      {"kv.prefix_hit_ratio", hit_ratio, "fraction"},
      {"kv.evictions_per_decision", ratio(evictions, task_decisions[0]), "count"},
      {"kv.pages_in_use.peak", static_cast<double>(tracer.kv_pages_peak()), "count"},
      {"kv.lease_us", kv_cost.lease_us, "ref_us"},
      {"kv.adopt_us", kv_cost.adopt_us, "ref_us"},
      {"kv.publish_us", kv_cost.publish_us, "ref_us"},
      {"tensor.flops_per_decision", ratio(ledger.kernel_flops, primary), "count"},
      {"tensor.bytes_per_decision", ratio(ledger.kernel_bytes, primary), "bytes"},
      {"tensor.calls_per_decision", ratio(ledger.kernel_calls, primary), "count"},
      {"tensor.gemv_gflops", gemv, "ref_GFLOP/s"},
      {"tensor.qgemv_gflops", qgemv, "ref_GFLOP/s"},
      {"core.cpu_util", ratio(run_cpu_s, window_s * core::global_threads()), "fraction"},
  };
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const auto spans = tracer.spans();
  // An adapter or fallback call's parent is the span of the request it served.
  std::map<std::uint64_t, std::int64_t> request_span;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "request") {
      request_span[spans[i].request] = static_cast<std::int64_t>(i);
    }
  }
  std::map<std::uint64_t, int> tids;  // thread hashes -> small ids Perfetto shows as rows
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const auto tid = tids.emplace(s.tid, static_cast<int>(tids.size()) + 1).first->second;
    auto parent = s.parent;
    if (parent < 0 && s.request != 0 && std::string_view(s.name) != "request") {
      const auto it = request_span.find(s.request);
      if (it != request_span.end()) parent = it->second;
    }
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << parent << ",\"request\":" << s.request
        << "}}";
  }
  out << "\n]}\n";
}

}  // namespace netllm::e2e
