#include "netllm/abr_adapter.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "netllm/resilience.hpp"
#include "tensor/optim.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;
}  // namespace

AbrStep make_abr_step(const abr::Observation& obs) {
  AbrStep s;
  s.throughput.reserve(obs.past_throughput_mbps.size());
  for (double v : obs.past_throughput_mbps) s.throughput.push_back(static_cast<float>(v / 10.0));
  s.delay.reserve(obs.past_delay_s.size());
  for (double v : obs.past_delay_s) s.delay.push_back(static_cast<float>(v / 10.0));
  s.sizes.assign(AbrAdapter::kLevels, 0.0f);
  for (int l = 0; l < std::min<int>(AbrAdapter::kLevels, obs.num_levels); ++l) {
    s.sizes[static_cast<std::size_t>(l)] =
        static_cast<float>(obs.next_chunk_sizes_mbytes[static_cast<std::size_t>(l)] / 5.0);
  }
  s.buffer = static_cast<float>(obs.buffer_s / 30.0);
  s.remaining = static_cast<float>(obs.remaining_chunks_frac);
  return s;
}

std::vector<AbrTrajectory> collect_abr_experience(abr::AbrPolicy& collector,
                                                  const abr::VideoModel& video,
                                                  std::span<const abr::BandwidthTrace> traces,
                                                  int epochs, double epsilon,
                                                  std::uint64_t seed) {
  core::Rng rng(seed);
  const abr::QoeWeights weights;
  std::vector<AbrTrajectory> pool;
  pool.reserve(traces.size() * static_cast<std::size_t>(epochs));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& trace : traces) {
      abr::StreamingSession session(video, trace);
      collector.begin_session();
      AbrTrajectory traj;
      int prev_level = -1;
      while (!session.done()) {
        auto obs = session.observe();
        int level = collector.choose_level(obs);
        if (rng.bernoulli(epsilon)) {
          level = static_cast<int>(rng.randint(0, obs.num_levels - 1));
        }
        auto step = make_abr_step(obs);
        const auto result = session.step(level);
        const double prev_kbps =
            prev_level < 0 ? video.bitrate_kbps(level) : video.bitrate_kbps(prev_level);
        const double qoe =
            abr::qoe_chunk(weights, video.bitrate_kbps(level), prev_kbps, result.rebuffer_s);
        collector.observe_result(result, qoe);
        step.action = level;
        step.reward = static_cast<float>(qoe);
        traj.push_back(std::move(step));
        prev_level = level;
      }
      pool.push_back(std::move(traj));
    }
  }
  return pool;
}

AbrAdapter::AbrAdapter(std::shared_ptr<llm::MiniGpt> llm, const AbrAdapterConfig& cfg,
                       core::Rng& rng)
    : llm_(std::move(llm)), cfg_(cfg) {
  if (!llm_) throw std::invalid_argument("AbrAdapter: null LLM");
  const auto d = llm_->config().d_model;
  const auto hist = static_cast<std::int64_t>(abr::Observation::kHistory);
  rtg_encoder_ = std::make_shared<ScalarEncoder>(1, d, rng);
  tp_encoder_ = std::make_shared<TimeSeriesEncoder>(1, hist, d, rng);
  delay_encoder_ = std::make_shared<TimeSeriesEncoder>(1, hist, d, rng);
  sizes_encoder_ = std::make_shared<TimeSeriesEncoder>(1, kLevels, d, rng);
  buffer_encoder_ = std::make_shared<ScalarEncoder>(2, d, rng);
  action_encoder_ = std::make_shared<ActionEncoder>(kLevels, d, rng);
  head_ = std::make_shared<CategoricalHead>(d, kLevels, rng);
  llm_->freeze_backbone();
  if (cfg_.use_lora) lora_ = llm_->enable_lora(cfg_.lora_rank, cfg_.lora_alpha, rng);
  const auto max_tokens = llm_->config().max_seq;
  if (cfg_.context_window * kTokensPerStep > max_tokens) {
    throw std::invalid_argument("AbrAdapter: context window exceeds LLM max_seq");
  }
}

std::array<Tensor, AbrAdapter::kStateTokens> AbrAdapter::encode_state(const AbrStep& s,
                                                                      float rtg) const {
  const auto hist = static_cast<std::int64_t>(abr::Observation::kHistory);
  const float r[] = {rtg / cfg_.return_scale};
  const float buf[] = {s.buffer, s.remaining};
  return {rtg_encoder_->forward(r),
          tp_encoder_->forward(Tensor::from(
              std::vector<float>(s.throughput.begin(), s.throughput.end()), {1, hist})),
          delay_encoder_->forward(
              Tensor::from(std::vector<float>(s.delay.begin(), s.delay.end()), {1, hist})),
          sizes_encoder_->forward(
              Tensor::from(std::vector<float>(s.sizes.begin(), s.sizes.end()), {1, kLevels})),
          buffer_encoder_->forward(buf)};
}

AbrAdapter::WindowTokens AbrAdapter::build_window(std::span<const AbrStep> steps,
                                                  std::span<const float> rtg) const {
  if (steps.empty() || steps.size() != rtg.size()) {
    throw std::invalid_argument("AbrAdapter::build_window: bad window");
  }
  WindowTokens out;
  std::vector<Tensor> tokens;
  tokens.reserve(steps.size() * kTokensPerStep);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    for (auto& t : encode_state(steps[i], rtg[i])) tokens.push_back(std::move(t));
    // The feature at the last state token (buffer) predicts this action.
    out.predict_positions.push_back(static_cast<std::int64_t>(tokens.size()) - 1);
    tokens.push_back(action_encoder_->forward(steps[i].action));
  }
  out.sequence = concat_rows(tokens);
  return out;
}

void AbrAdapter::encode_state_rows(const AbrStep& s, float rtg, std::span<float> rows) const {
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  const float r[] = {rtg / cfg_.return_scale};
  const float buf[] = {s.buffer, s.remaining};
  rtg_encoder_->forward_rows(r, 1, rows.subspan(0, d));
  tp_encoder_->forward_rows(s.throughput, rows.subspan(d, d));
  delay_encoder_->forward_rows(s.delay, rows.subspan(2 * d, d));
  sizes_encoder_->forward_rows(s.sizes, rows.subspan(3 * d, d));
  buffer_encoder_->forward_rows(buf, 1, rows.subspan(4 * d, d));
}

void AbrAdapter::served_sequence() {
  const auto d = llm_->config().d_model;
  const std::size_t n = context_.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto& c = context_[i];
    // Encode into scratch first: a step whose encode throws keeps no rows.
    if (c.state_rows.empty()) {
      scratch_.resize(static_cast<std::size_t>(kStateTokens * d));
      encode_state_rows(c.step, c.rtg, scratch_);
      c.state_rows.assign(scratch_.begin(), scratch_.end());
    }
    // A step's action token is encoded once it stops being the last, from
    // the action it recorded: the chosen level, or the default a step keeps
    // when its decision threw.
    if (i + 1 < n && c.action_row.empty()) {
      scratch_.resize(static_cast<std::size_t>(d));
      action_encoder_->forward_rows(c.step.action, scratch_);
      c.action_row.assign(scratch_.begin(), scratch_.end());
    }
  }
  sequence_.clear();
  for (const auto& c : context_) {
    sequence_.insert(sequence_.end(), c.state_rows.begin(), c.state_rows.end());
    sequence_.insert(sequence_.end(), c.action_row.begin(), c.action_row.end());  // empty for the last
  }
}

void AbrAdapter::invalidate_rows() {
  for (auto& c : context_) {
    c.state_rows.clear();
    c.action_row.clear();
  }
}

void AbrAdapter::begin_session() {
  rtg_now_ = target_return_;
  context_.clear();
}

int AbrAdapter::choose_level(const abr::Observation& obs) {
  context_.push_back({make_abr_step(obs), rtg_now_, {}, {}});
  while (static_cast<int>(context_.size()) > cfg_.context_window) context_.pop_front();
  // Per-phase spans (DESIGN.md §11): encoder → backbone prefill →
  // networking head. Encoders, backbone and head all run graph-free on raw
  // rows, the window through the backbone pass with no cache to capture
  // into; training keeps the Tensor forwards and their tape.
  {
    core::trace::Span span(core::trace::Phase::kEncode);
    served_sequence();
  }
  llm_->prefill_rows(sequence_, features_);
  const int level = [&] {
    // The feature at the last state token (buffer) predicts the action.
    core::trace::Span span(core::trace::Phase::kHead);
    return head_->argmax(std::span<const float>(features_).last(
        static_cast<std::size_t>(llm_->config().d_model)));
  }();
  context_.back().step.action = level;  // feed the chosen action back next step
  return std::min(level, obs.num_levels - 1);
}

void AbrAdapter::observe_result(const abr::ChunkResult&, double chunk_qoe) {
  rtg_now_ -= static_cast<float>(chunk_qoe);
}

AbrAdapter::AdaptStats AbrAdapter::adapt(std::span<const AbrTrajectory> pool, int steps,
                                         float lr, std::uint64_t seed,
                                         const SessionOptions& session) {
  if (pool.empty()) throw std::invalid_argument("AbrAdapter::adapt: empty pool");
  // Train on the fp32 masters (see VpAdapter::adapt); requantize on exit.
  llm::ScopedQuantPause quant_pause(*llm_);
  invalidate_rows();  // the weights change under the cached context rows
  core::Rng rng(seed);
  // Precompute returns-to-go per trajectory and the target return.
  std::vector<std::vector<float>> rtg(pool.size());
  float best_return = -1e30f;
  for (std::size_t t = 0; t < pool.size(); ++t) {
    rtg[t].resize(pool[t].size());
    float g = 0.0f;
    for (std::size_t i = pool[t].size(); i-- > 0;) {
      g += pool[t][i].reward;
      rtg[t][i] = g;
    }
    if (!pool[t].empty()) best_return = std::max(best_return, rtg[t][0]);
  }
  target_return_ = best_return * cfg_.target_return_boost;

  // Return-weighted trajectory sampling: high-return behaviour is seen more
  // often (softmax over episode returns), while return-to-go conditioning
  // still lets the model distinguish good from bad actions within a window.
  std::vector<double> sample_weights(pool.size(), 1.0);
  {
    float g_min = 1e30f, g_max = -1e30f;
    for (std::size_t t = 0; t < pool.size(); ++t) {
      if (pool[t].empty()) continue;
      g_min = std::min(g_min, rtg[t][0]);
      g_max = std::max(g_max, rtg[t][0]);
    }
    const float temp = std::max((g_max - g_min) / 8.0f, 1e-3f);
    for (std::size_t t = 0; t < pool.size(); ++t) {
      sample_weights[t] =
          pool[t].empty() ? 0.0 : std::exp(static_cast<double>((rtg[t][0] - g_max) / temp));
    }
  }

  Adam opt(adapt_parameters(), lr);  // unfreezes the backbone when it trains too
  TrainGuard guard(opt.params());
  AdaptStats stats;
  TrainSession sess(session, SessionFingerprint{"abr", llm_->config().name, seed, lr, steps},
                    session_params(*this, cfg_.train_backbone ? llm_.get() : nullptr), opt,
                    guard);
  const int start = sess.resume(rng, stats);
  const double prior_s = stats.seconds;  // wall time from interrupted runs
  auto& step_hist = core::metrics::histogram("adapt.abr.step_ms");
  auto& step_count = core::metrics::counter("adapt.abr.steps");
  core::Timer timer;
  const auto w = static_cast<std::size_t>(cfg_.context_window);
  constexpr int kBatch = 3;  // windows per gradient step
  for (int step = start; step < steps; ++step) {
    core::Timer step_timer;
    // Linear learning-rate decay to 30% — stabilises the late phase of the
    // offline fit without a separate schedule object.
    opt.set_lr(lr * (1.0f - 0.7f * static_cast<float>(step) / static_cast<float>(steps)));
    opt.zero_grad();
    float batch_loss = 0.0f;
    for (int b = 0; b < kBatch; ++b) {
      const auto traj_idx = rng.weighted_choice(sample_weights);
      const auto& traj = pool[traj_idx];
      if (traj.size() < 2) continue;
      const auto span_len = std::min(w, traj.size());
      const auto start = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(traj.size() - span_len)));
      std::vector<AbrStep> window_steps{traj.begin() + static_cast<std::ptrdiff_t>(start),
                                        traj.begin() + static_cast<std::ptrdiff_t>(start + span_len)};
      std::span<const float> window_rtg{rtg[traj_idx].data() + start, span_len};
      // Targets are the true actions; the *context* action tokens are
      // randomly perturbed (action dropout) so the model cannot minimise the
      // loss by copying its previous action — it must read the state. This
      // prevents the copy-collapse failure of behaviour-cloned policies
      // whose actions are strongly autocorrelated.
      std::vector<int> targets;
      targets.reserve(window_steps.size());
      for (const auto& s : window_steps) targets.push_back(s.action);
      for (auto& s : window_steps) {
        if (rng.bernoulli(0.25)) s.action = static_cast<int>(rng.randint(0, kLevels - 1));
      }
      auto window = build_window(window_steps, window_rtg);
      auto features = llm_->forward_embeddings(window.sequence);
      std::vector<Tensor> rows;
      for (std::size_t i = 0; i < window_steps.size(); ++i) {
        rows.push_back(slice_rows(features, window.predict_positions[i], 1));
      }
      auto logits = head_->logits(concat_rows(rows));
      auto loss = cross_entropy_rows(logits, targets);
      core::fault::corrupt("adapter.step", loss.mutable_data());
      batch_loss += loss.item() / kBatch;
      scale(loss, 1.0f / kBatch).backward();
    }
    if (guard.loss_ok(batch_loss) && guard.grads_ok()) {
      if (step == 0) stats.initial_loss = batch_loss;
      stats.final_loss = batch_loss;
      opt.clip_grad_norm(1.0);
      opt.step();
      guard.after_step();
    } else {
      // A poisoned window already backpropagated into the grads — drop the
      // whole accumulated batch rather than stepping on NaNs.
      opt.zero_grad();
    }
    stats.seconds = prior_s + timer.elapsed_s();
    stats.skipped_steps = guard.skipped_steps();
    stats.restores = guard.restores();
    step_hist.record(step_timer.elapsed_ms());
    step_count.add();
    if (sess.after_step(step, rng, stats)) break;  // drained on SIGINT/SIGTERM
  }
  stats.seconds = prior_s + timer.elapsed_s();
  stats.skipped_steps = guard.skipped_steps();
  stats.restores = guard.restores();
  if (!stats.interrupted) sess.finish(steps, rng, stats);
  stats.checkpoints = sess.checkpoints_written();
  return stats;
}


std::vector<Tensor> AbrAdapter::adapt_parameters() const {
  auto params = trainable_parameters();
  if (cfg_.train_backbone) {
    llm_->unfreeze();
    for (auto& p : llm_->trainable_parameters()) params.push_back(p);
  }
  return params;
}
void AbrAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  rtg_encoder_->collect_params(out, prefix + "rtg_encoder.");
  tp_encoder_->collect_params(out, prefix + "tp_encoder.");
  delay_encoder_->collect_params(out, prefix + "delay_encoder.");
  sizes_encoder_->collect_params(out, prefix + "sizes_encoder.");
  buffer_encoder_->collect_params(out, prefix + "buffer_encoder.");
  action_encoder_->collect_params(out, prefix + "action_encoder.");
  head_->collect_params(out, prefix + "head.");
  for (std::size_t i = 0; i < lora_.size(); ++i) {
    out.emplace_back(prefix + "lora." + std::to_string(i), lora_[i]);
  }
}

}  // namespace netllm::adapt
