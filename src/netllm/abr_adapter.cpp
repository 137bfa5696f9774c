#include "netllm/abr_adapter.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/trace.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;
}  // namespace

void assign_abr_step(const abr::Observation& obs, AbrStep& s) {
  const auto scaled = [](const std::vector<double>& in, std::vector<float>& out) {
    out.resize(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<float>(in[i] / 10.0);
  };
  scaled(obs.past_throughput_mbps, s.throughput);
  scaled(obs.past_delay_s, s.delay);
  s.sizes.assign(AbrAdapter::kLevels, 0.0f);
  for (int l = 0; l < std::min<int>(AbrAdapter::kLevels, obs.num_levels); ++l) {
    s.sizes[static_cast<std::size_t>(l)] =
        static_cast<float>(obs.next_chunk_sizes_mbytes[static_cast<std::size_t>(l)] / 5.0);
  }
  s.buffer = static_cast<float>(obs.buffer_s / 30.0);
  s.remaining = static_cast<float>(obs.remaining_chunks_frac);
  s.action = 0;
  s.reward = 0.0f;
}

AbrStep make_abr_step(const abr::Observation& obs) {
  AbrStep s;
  assign_abr_step(obs, s);
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
    : DdLrnaAdapter(std::move(llm), cfg.train_backbone, "AbrAdapter"),
      cfg_(cfg),
      context_(cfg.context_window) {
  const auto d = llm_->config().d_model;
  const auto hist = static_cast<std::int64_t>(abr::Observation::kHistory);
  rtg_encoder_ = std::make_shared<ScalarEncoder>(1, d, rng);
  tp_encoder_ = std::make_shared<TimeSeriesEncoder>(1, hist, d, rng);
  delay_encoder_ = std::make_shared<TimeSeriesEncoder>(1, hist, d, rng);
  sizes_encoder_ = std::make_shared<TimeSeriesEncoder>(1, kLevels, d, rng);
  buffer_encoder_ = std::make_shared<ScalarEncoder>(2, d, rng);
  action_encoder_ = std::make_shared<ActionEncoder>(kLevels, d, rng);
  head_ = std::make_shared<CategoricalHead>(d, kLevels, rng);
  freeze_backbone_and_add_lora(cfg_.use_lora, cfg_.lora_rank, cfg_.lora_alpha, rng);
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

void AbrAdapter::begin_session() { context_.begin(target_return_); }

int AbrAdapter::choose_level(const abr::Observation& obs) {
  assign_abr_step(obs, context_.push().raw);
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  // Per-phase spans (DESIGN.md §11): encoder → backbone prefill →
  // networking head. Encoders, backbone and head all run graph-free on raw
  // rows, the window through the backbone pass with no cache to capture
  // into; training keeps the Tensor forwards and their tape.
  const auto sequence = [&] {
    core::trace::Span span(core::trace::Phase::kEncode);
    return context_.sequence(
        [&](auto& step, std::vector<float>& scratch) {
          scratch.resize(kStateTokens * d);
          encode_state_rows(step.raw, step.rtg, scratch);
          return std::span<const float>(scratch);
        },
        [&](auto& step, std::vector<float>& scratch) {
          scratch.resize(d);
          action_encoder_->forward_rows(step.raw.action, scratch);
          return std::span<const float>(scratch);
        });
  }();
  llm_->prefill_rows(sequence, features_);
  const int level = [&] {
    // The feature at the last state token (buffer) predicts the action.
    core::trace::Span span(core::trace::Phase::kHead);
    return head_->argmax(std::span<const float>(features_).last(d));
  }();
  context_.back().raw.action = level;  // feed the chosen action back next step
  return std::min(level, obs.num_levels - 1);
}

void AbrAdapter::observe_result(const abr::ChunkResult&, double chunk_qoe) {
  context_.add_to_return(-static_cast<float>(chunk_qoe));
}

AbrAdapter::AdaptStats AbrAdapter::adapt(std::span<const AbrTrajectory> pool, int steps,
                                         float lr, std::uint64_t seed,
                                         const SessionOptions& session) {
  const auto returns = pool_returns(pool);
  target_return_ = returns.best * cfg_.target_return_boost;
  context_.invalidate();  // the weights change under the cached context rows
  const auto w = static_cast<std::size_t>(cfg_.context_window);
  constexpr int kBatch = 3;  // windows per gradient step
  return run_adapt("abr", steps, lr, seed, session, [&](core::Rng& rng) -> std::optional<float> {
    float batch_loss = 0.0f;
    for (int b = 0; b < kBatch; ++b) {
      const auto traj_idx = rng.weighted_choice(returns.weights);
      const auto& traj = pool[traj_idx];
      if (traj.size() < 2) continue;
      const auto span_len = std::min(w, traj.size());
      const auto start = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(traj.size() - span_len)));
      std::vector<AbrStep> window_steps{traj.begin() + static_cast<std::ptrdiff_t>(start),
                                        traj.begin() + static_cast<std::ptrdiff_t>(start + span_len)};
      std::span<const float> window_rtg{returns.rtg[traj_idx].data() + start, span_len};
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
      batch_loss += backward_loss(cross_entropy_rows(logits, targets), 1.0f / kBatch) / kBatch;
    }
    return batch_loss;
  });
}

void AbrAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  rtg_encoder_->collect_params(out, prefix + "rtg_encoder.");
  tp_encoder_->collect_params(out, prefix + "tp_encoder.");
  delay_encoder_->collect_params(out, prefix + "delay_encoder.");
  sizes_encoder_->collect_params(out, prefix + "sizes_encoder.");
  buffer_encoder_->collect_params(out, prefix + "buffer_encoder.");
  action_encoder_->collect_params(out, prefix + "action_encoder.");
  head_->collect_params(out, prefix + "head.");
  collect_lora(out, prefix);
}

}  // namespace netllm::adapt
