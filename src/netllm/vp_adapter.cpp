#include "netllm/vp_adapter.hpp"

#include <cmath>
#include <cstring>
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

constexpr float kRollScale = 20.0f, kPitchScale = 60.0f, kYawScale = 160.0f;

}  // namespace

VpAdapter::VpAdapter(std::shared_ptr<llm::MiniGpt> llm, const VpAdapterConfig& cfg,
                     core::Rng& rng)
    : llm_(std::move(llm)), cfg_(cfg) {
  if (!llm_) throw std::invalid_argument("VpAdapter: null LLM");
  const auto d = llm_->config().d_model;
  image_encoder_ = std::make_shared<ImageEncoder>(d, rng);
  viewport_encoder_ = std::make_shared<ScalarEncoder>(3, d, rng);
  head_ = std::make_shared<RegressionHead>(d, 3, rng);
  llm_->freeze_backbone();
  if (cfg_.use_lora) lora_ = llm_->enable_lora(cfg_.lora_rank, cfg_.lora_alpha, rng);
}

Tensor VpAdapter::viewport_token(const vp::Viewport& v) const {
  const float coords[] = {static_cast<float>(v.roll) / kRollScale,
                          static_cast<float>(v.pitch) / kPitchScale,
                          static_cast<float>(v.yaw) / kYawScale};
  return viewport_encoder_->forward(coords);
}

Tensor VpAdapter::build_sequence(std::span<const vp::Viewport> history,
                                 std::span<const vp::Viewport> future_teacher,
                                 const Tensor& saliency) const {
  std::vector<Tensor> tokens;
  tokens.reserve(1 + history.size() + future_teacher.size());
  tokens.push_back(image_encoder_->forward(saliency));
  for (const auto& v : history) tokens.push_back(viewport_token(v));
  for (const auto& v : future_teacher) tokens.push_back(viewport_token(v));
  return concat_rows(tokens);
}

Tensor VpAdapter::loss(const vp::VpSample& sample) const {
  if (sample.history.empty() || sample.future.empty()) {
    throw std::invalid_argument("VpAdapter::loss: empty sample");
  }
  // Teacher forcing: feed history plus all-but-last future viewports; the
  // features at positions hw-1 .. hw+pw-2 (offset by the image token)
  // predict the per-step normalized deltas.
  const auto hw = static_cast<std::int64_t>(sample.history.size());
  const auto pw = static_cast<std::int64_t>(sample.future.size());
  auto seq = build_sequence(sample.history,
                            {sample.future.data(), sample.future.size() - 1}, sample.saliency);
  auto features = llm_->forward_embeddings(seq);
  auto pred = head_->forward(slice_rows(features, hw, pw));  // image token shifts by 1
  std::vector<float> target;
  target.reserve(static_cast<std::size_t>(pw * 3));
  const vp::Viewport* prev = &sample.history.back();
  for (const auto& f : sample.future) {
    target.push_back(static_cast<float>(f.roll - prev->roll) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.pitch - prev->pitch) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.yaw - prev->yaw) / cfg_.delta_scale_deg);
    prev = &f;
  }
  return mse_loss(pred, Tensor::from(std::move(target), {pw, 3}));
}

namespace {

bool all_finite(std::span<const float> xs) {
  for (float x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The warm-prefix key of a request: the saliency's rank, dims and floats,
/// then the history viewports' bytes, packed into floats that the arena
/// only hashes and compares bytewise. Equal keys mean an equal raw request,
/// and so (the encoders being deterministic) an equal encoded prompt.
std::vector<float> request_key(std::span<const vp::Viewport> history, const Tensor& saliency) {
  static_assert(sizeof(vp::Viewport) % sizeof(float) == 0);
  std::vector<float> key;
  key.reserve(1 + saliency.shape().size() + saliency.data().size() +
              history.size_bytes() / sizeof(float));
  key.push_back(static_cast<float>(saliency.rank()));
  for (const auto dim : saliency.shape()) key.push_back(static_cast<float>(dim));
  key.insert(key.end(), saliency.data().begin(), saliency.data().end());
  const auto packed = key.size();
  key.resize(packed + history.size_bytes() / sizeof(float));
  std::memcpy(key.data() + packed, history.data(), history.size_bytes());
  return key;
}

}  // namespace

std::vector<vp::Viewport> VpAdapter::predict(std::span<const vp::Viewport> history,
                                             const Tensor& saliency, int horizon) {
  if (history.empty() || horizon <= 0) throw std::invalid_argument("VpAdapter: bad inputs");
  // The prompt is the image token plus one token per history viewport; the
  // rollout appends horizon-1 generated viewports after it.
  const auto prompt_len = 1 + static_cast<std::int64_t>(history.size());
  const auto rows_needed = prompt_len + horizon - 1;

  // Per-layer caches: a pooled arena lease when attached (may throw the
  // named KvArena::Exhausted — the serve engine sheds that request), else a
  // private reserved set.
  nn::KvArena::Lease lease;
  std::vector<nn::KvCache> own;
  std::span<nn::KvCache> layers;
  if (arena_) {
    lease = arena_->lease(rows_needed);
    layers = lease.layers();
  } else {
    own.resize(static_cast<std::size_t>(llm_->config().n_layers));
    for (auto& c : own) {
      c.d_model = llm_->config().d_model;
      c.reserve(rows_needed);
    }
    layers = own;
  }

  // Prefix sharing: requests carrying the same raw prompt (saliency and
  // history, byte-for-byte) adopt the published K/V rows and last-position
  // features, skipping the encoders and the backbone prefill. The floats are
  // the published request's own prefill output, and the encoders are
  // deterministic in (weights, input), so a hit is bitwise a cold prefill.
  const auto d_model = llm_->config().d_model;
  const auto key_floats = arena_ ? request_key(history, saliency) : std::vector<float>{};
  const std::uint64_t key = arena_ ? nn::KvArena::prefix_key(key_floats) : 0;
  Tensor features_last;
  std::vector<float> warm_features;
  if (arena_ && arena_->adopt(key, key_floats, lease, &warm_features)) {
    features_last = Tensor::from(std::move(warm_features), {1, d_model});
  } else {
    // Encode the prompt (image token + history viewports) exactly once.
    const auto prompt = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return build_sequence(history, {}, saliency);
    }();
    auto features = llm_->prefill_embeddings(prompt, layers);
    features_last = slice_rows(features, prompt_len - 1, 1);
    // Never publish poisoned features: an armed llm.forward NaN fault must
    // degrade this one request, not seed the warm cache for every later hit.
    if (arena_ && all_finite(features_last.data())) {
      arena_->publish(key, key_floats, {layers.data(), layers.size()}, prompt_len,
                      features_last.data());
    }
  }

  std::vector<vp::Viewport> rollout;
  rollout.reserve(static_cast<std::size_t>(horizon));
  vp::Viewport cur = history.back();
  for (int k = 0; k < horizon; ++k) {
    auto delta = [&] {
      core::trace::Span span(core::trace::Phase::kHead);
      return head_->forward(features_last);
    }();
    cur.roll += static_cast<double>(delta.at(0)) * cfg_.delta_scale_deg;
    cur.pitch += static_cast<double>(delta.at(1)) * cfg_.delta_scale_deg;
    cur.yaw += static_cast<double>(delta.at(2)) * cfg_.delta_scale_deg;
    rollout.push_back(cur);
    if (k + 1 == horizon) break;
    // One incremental backbone step over the newly generated viewport —
    // bitwise the last row of the full forward predict_uncached re-runs.
    const auto tok = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return viewport_token(cur);
    }();
    features_last = llm_->embeddings_step(tok, layers);
  }
  return rollout;
}

std::vector<vp::Viewport> VpAdapter::predict_uncached(std::span<const vp::Viewport> history,
                                                      const Tensor& saliency, int horizon) {
  if (history.empty() || horizon <= 0) throw std::invalid_argument("VpAdapter: bad inputs");
  std::vector<vp::Viewport> rollout;
  rollout.reserve(static_cast<std::size_t>(horizon));
  vp::Viewport cur = history.back();
  std::vector<vp::Viewport> generated;
  for (int k = 0; k < horizon; ++k) {
    // Per-phase spans (DESIGN.md §11): encoder → backbone (prefill, inside
    // forward_embeddings) → networking head.
    auto seq = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return build_sequence(history, generated, saliency);
    }();
    auto features = llm_->forward_embeddings(seq);
    auto delta = [&] {
      core::trace::Span span(core::trace::Phase::kHead);
      return head_->forward(slice_rows(features, features.dim(0) - 1, 1));
    }();
    cur.roll += static_cast<double>(delta.at(0)) * cfg_.delta_scale_deg;
    cur.pitch += static_cast<double>(delta.at(1)) * cfg_.delta_scale_deg;
    cur.yaw += static_cast<double>(delta.at(2)) * cfg_.delta_scale_deg;
    rollout.push_back(cur);
    generated.push_back(cur);
  }
  return rollout;
}

VpAdapter::AdaptStats VpAdapter::adapt(std::span<const vp::VpSample> dataset, int steps,
                                       float lr, std::uint64_t seed,
                                       const SessionOptions& session) {
  if (dataset.empty()) throw std::invalid_argument("VpAdapter::adapt: empty dataset");
  // Training always runs on the fp32 masters: pause the quantized forward
  // for the whole loop so losses, gradients and checkpoints are bitwise
  // those of an fp32-backbone run, and requantize on the way out.
  llm::ScopedQuantPause quant_pause(*llm_);
  // Warm prefixes are keyed on raw requests, so rows the old weights
  // computed must not be adopted after the weights change.
  if (arena_) arena_->clear_warm();
  core::Rng rng(seed);
  Adam opt(adapt_parameters(), lr);  // unfreezes the backbone when it trains too
  TrainGuard guard(opt.params());
  AdaptStats stats;
  TrainSession sess(session, SessionFingerprint{"vp", llm_->config().name, seed, lr, steps},
                    session_params(*this, cfg_.train_backbone ? llm_.get() : nullptr), opt,
                    guard);
  const int start = sess.resume(rng, stats);
  const double prior_s = stats.seconds;  // wall time from interrupted runs
  auto& step_hist = core::metrics::histogram("adapt.vp.step_ms");
  auto& step_count = core::metrics::counter("adapt.vp.steps");
  core::Timer timer;
  for (int step = start; step < steps; ++step) {
    core::Timer step_timer;
    opt.set_lr(lr * (1.0f - 0.7f * static_cast<float>(step) / static_cast<float>(steps)));
    const auto& sample =
        dataset[static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(dataset.size()) - 1))];
    opt.zero_grad();
    auto l = loss(sample);
    core::fault::corrupt("adapter.step", l.mutable_data());
    const float lv = l.item();
    if (guard.loss_ok(lv)) {
      if (step == 0) stats.initial_loss = lv;
      stats.final_loss = lv;
      l.backward();
      if (guard.grads_ok()) {
        opt.clip_grad_norm(1.0);
        opt.step();
        guard.after_step();
      } else {
        opt.zero_grad();  // poisoned gradients: drop the step
      }
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


std::vector<Tensor> VpAdapter::adapt_parameters() const {
  auto params = trainable_parameters();
  if (cfg_.train_backbone) {
    llm_->unfreeze();
    for (auto& p : llm_->trainable_parameters()) params.push_back(p);
  }
  return params;
}
void VpAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  image_encoder_->collect_params(out, prefix + "image_encoder.");
  viewport_encoder_->collect_params(out, prefix + "viewport_encoder.");
  head_->collect_params(out, prefix + "head.");
  for (std::size_t i = 0; i < lora_.size(); ++i) {
    out.emplace_back(prefix + "lora." + std::to_string(i), lora_[i]);
  }
}

}  // namespace netllm::adapt
