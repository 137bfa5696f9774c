#include "netllm/dd_lrna.hpp"

#include <cmath>
#include <string>

#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "netllm/resilience.hpp"
#include "tensor/optim.hpp"

namespace netllm::adapt {

DdLrnaAdapter::DdLrnaAdapter(std::shared_ptr<llm::MiniGpt> llm, bool train_backbone,
                             const char* name)
    : llm_(std::move(llm)), train_backbone_(train_backbone) {
  if (!llm_) throw std::invalid_argument(std::string(name) + ": null LLM");
}

void DdLrnaAdapter::freeze_backbone_and_add_lora(bool use_lora, std::int64_t rank, float alpha,
                                                 core::Rng& rng) {
  llm_->freeze_backbone();
  if (use_lora) lora_ = llm_->enable_lora(rank, alpha, rng);
}

void DdLrnaAdapter::collect_lora(tensor::NamedParams& out, const std::string& prefix) const {
  for (std::size_t i = 0; i < lora_.size(); ++i) {
    out.emplace_back(prefix + "lora." + std::to_string(i), lora_[i]);
  }
}

std::vector<tensor::Tensor> DdLrnaAdapter::adapt_parameters() const {
  auto params = trainable_parameters();
  if (train_backbone_) {
    llm_->unfreeze();
    for (auto& p : llm_->trainable_parameters()) params.push_back(p);
  }
  return params;
}

AdaptStats DdLrnaAdapter::run_adapt(const char* task, int steps, float lr, std::uint64_t seed,
                                    const SessionOptions& session, const StepBody& body) {
  // Training always runs on the fp32 masters: pause the quantized forward
  // for the whole loop so losses, gradients and checkpoints are bitwise
  // those of an fp32-backbone run, and requantize on the way out.
  llm::ScopedQuantPause quant_pause(*llm_);
  core::Rng rng(seed);
  tensor::Adam opt(adapt_parameters(), lr);  // unfreezes the backbone when it trains too
  TrainGuard guard(opt.params());
  AdaptStats stats;
  TrainSession sess(session, SessionFingerprint{task, llm_->config().name, seed, lr, steps},
                    session_params(*this, train_backbone_ ? llm_.get() : nullptr), opt, guard);
  const int start = sess.resume(rng, stats);
  const double prior_s = stats.seconds;  // wall time from interrupted runs
  const std::string metric = std::string("adapt.") + task;
  auto& step_hist = core::metrics::histogram(metric + ".step_ms");
  auto& step_count = core::metrics::counter(metric + ".steps");
  core::Timer timer;
  const auto sync = [&] {
    stats.seconds = prior_s + timer.elapsed_s();
    stats.skipped_steps = guard.skipped_steps();
    stats.restores = guard.restores();
  };
  for (int step = start; step < steps; ++step) {
    core::Timer step_timer;
    // Linear learning-rate decay to 30% — stabilises the late phase of the
    // offline fit without a separate schedule object.
    opt.set_lr(lr * (1.0f - 0.7f * static_cast<float>(step) / static_cast<float>(steps)));
    opt.zero_grad();
    const auto loss = body(rng);
    if (!loss) continue;
    // The body has backpropagated already (ABR accumulates three windows),
    // so a poisoned loss or gradient drops the whole step: its gradients
    // are zeroed by the next step before they are read.
    if (guard.loss_ok(*loss) && guard.grads_ok()) {
      if (step == 0) stats.initial_loss = *loss;
      stats.final_loss = *loss;
      opt.clip_grad_norm(1.0);
      opt.step();
      guard.after_step();
    }
    sync();
    step_hist.record(step_timer.elapsed_ms());
    step_count.add();
    if (sess.after_step(step, rng, stats)) break;  // drained on SIGINT/SIGTERM
  }
  sync();
  if (!stats.interrupted) sess.finish(steps, rng, stats);
  stats.checkpoints = sess.checkpoints_written();
  return stats;
}

float backward_loss(tensor::Tensor loss, float weight) {
  core::fault::corrupt("adapter.step", loss.mutable_data());
  const float value = loss.item();
  if (weight == 1.0f) {
    loss.backward();
  } else {
    tensor::scale(loss, weight).backward();
  }
  return value;
}

PoolReturns fit_returns(std::vector<std::vector<float>> rtg) {
  if (rtg.empty()) throw std::invalid_argument("adapt: empty pool");
  PoolReturns out;
  float g_min = 1e30f, g_max = -1e30f;
  int counted = 0;
  for (const auto& r : rtg) {
    if (r.empty()) continue;
    out.mean_abs += std::abs(r[0]);
    g_min = std::min(g_min, r[0]);
    g_max = std::max(g_max, r[0]);
    ++counted;
  }
  if (counted == 0) throw std::invalid_argument("adapt: empty trajectories");
  out.best = g_max;
  out.mean_abs /= counted;
  const float temp = std::max((g_max - g_min) / 8.0f, 1e-3f);
  out.weights.reserve(rtg.size());
  for (const auto& r : rtg) {
    out.weights.push_back(r.empty() ? 0.0 : std::exp(static_cast<double>((r[0] - g_max) / temp)));
  }
  out.rtg = std::move(rtg);
  return out;
}

}  // namespace netllm::adapt
