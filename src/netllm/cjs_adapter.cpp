#include "netllm/cjs_adapter.hpp"

#include <algorithm>
#include <cmath>
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

std::vector<CjsTrajectory> collect_cjs_experience(cjs::SchedPolicy& collector,
                                                  const cjs::WorkloadConfig& base, int episodes,
                                                  std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<CjsTrajectory> pool;
  pool.reserve(static_cast<std::size_t>(episodes));
  for (int ep = 0; ep < episodes; ++ep) {
    auto cfg = base;
    cfg.seed = rng.next_u64();
    CjsTrajectory traj;
    cjs::run_workload(cfg, collector, &traj);
    pool.push_back(std::move(traj));
  }
  return pool;
}

CjsAdapter::CjsAdapter(std::shared_ptr<llm::MiniGpt> llm, const CjsAdapterConfig& cfg,
                       core::Rng& rng)
    : llm_(std::move(llm)), cfg_(cfg) {
  if (!llm_) throw std::invalid_argument("CjsAdapter: null LLM");
  const auto d = llm_->config().d_model;
  rtg_encoder_ = std::make_shared<ScalarEncoder>(1, d, rng);
  graph_encoder_ =
      std::make_shared<GraphTokenEncoder>(cjs::SchedObservation::kNodeFeatures, d, rng);
  exec_encoder_ = std::make_shared<ScalarEncoder>(2, d, rng);
  stage_token_proj_ = std::make_shared<nn::Linear>(graph_encoder_->gnn_dim(), d, rng);
  stage_token_norm_ = std::make_shared<nn::LayerNorm>(d);
  cap_encoder_ = std::make_shared<ActionEncoder>(cjs::kNumCapChoices, d, rng);
  stage_head_ = std::make_shared<PointerHead>(d, graph_encoder_->gnn_dim(), rng);
  cap_head_ = std::make_shared<CategoricalHead>(d, cjs::kNumCapChoices, rng);
  llm_->freeze_backbone();
  if (cfg_.use_lora) lora_ = llm_->enable_lora(cfg_.lora_rank, cfg_.lora_alpha, rng);
  if (cfg_.context_window * kTokensPerStep > llm_->config().max_seq) {
    throw std::invalid_argument("CjsAdapter: context window exceeds LLM max_seq");
  }
}

tensor::Tensor CjsAdapter::exec_scalars(const cjs::SchedObservation& obs) const {
  const float vals[] = {static_cast<float>(obs.idle_executors) / obs.total_executors,
                        static_cast<float>(obs.jobs_in_system) / 50.0f};
  return exec_encoder_->forward(vals);
}

CjsAdapter::StepTokens CjsAdapter::encode_state(const StepContext& step) const {
  const float r[] = {step.rtg / return_scale_};
  auto rtg = rtg_encoder_->forward(r);
  auto graph = graph_encoder_->forward(step.obs.node_features, step.obs.topology);
  return {{std::move(rtg), std::move(graph.global_token), exec_scalars(step.obs)},
          std::move(graph.node_embeddings)};
}

std::array<Tensor, 2> CjsAdapter::encode_action(const Tensor& chosen_node, int cap_choice) const {
  return {stage_token_norm_->forward(stage_token_proj_->forward(chosen_node)),
          cap_encoder_->forward(cap_choice)};
}

CjsAdapter::WindowTokens CjsAdapter::build_window(std::span<const StepContext> steps) const {
  if (steps.empty()) throw std::invalid_argument("CjsAdapter::build_window: empty window");
  WindowTokens out;
  std::vector<Tensor> tokens;
  tokens.reserve(steps.size() * kTokensPerStep);
  for (const auto& step : steps) {
    auto enc = encode_state(step);
    for (auto& t : enc.state) tokens.push_back(std::move(t));
    out.predict_positions.push_back(static_cast<std::int64_t>(tokens.size()) - 1);
    // Candidate embeddings for the pointer head: the runnable stages.
    std::vector<Tensor> cand_rows;
    cand_rows.reserve(step.obs.runnable_rows.size());
    for (int row : step.obs.runnable_rows) {
      cand_rows.push_back(slice_rows(enc.node_embeddings, row, 1));
    }
    out.candidates.push_back(concat_rows(cand_rows));
    const int chosen_row =
        step.obs.runnable_rows[static_cast<std::size_t>(step.action.runnable_index)];
    for (auto& t : encode_action(slice_rows(enc.node_embeddings, chosen_row, 1),
                                 step.action.cap_choice)) {
      tokens.push_back(std::move(t));
    }
  }
  out.sequence = concat_rows(tokens);
  return out;
}

void CjsAdapter::encode_state_rows(const StepContext& step, std::span<float> rows,
                                   std::vector<float>& node_rows) const {
  const auto& features = step.obs.node_features;
  if (features.rank() != 2 || features.dim(1) != cjs::SchedObservation::kNodeFeatures) {
    throw std::invalid_argument("GraphEncoder: expected [N, feature_dim] features");
  }
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  const float r[] = {step.rtg / return_scale_};
  const float vals[] = {static_cast<float>(step.obs.idle_executors) / step.obs.total_executors,
                        static_cast<float>(step.obs.jobs_in_system) / 50.0f};
  node_rows.resize(static_cast<std::size_t>(features.dim(0) * graph_encoder_->gnn_dim()));
  rtg_encoder_->forward_rows(r, 1, rows.subspan(0, d));
  graph_encoder_->forward_rows(features.data(), step.obs.topology, rows.subspan(d, d), node_rows);
  exec_encoder_->forward_rows(vals, 1, rows.subspan(2 * d, d));
}

void CjsAdapter::served_sequence() {
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  const auto gnn = static_cast<std::size_t>(graph_encoder_->gnn_dim());
  const std::size_t n = context_.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto& c = context_[i];
    // Encode into scratch first: a step whose encode throws keeps no rows.
    if (c.state_rows.empty()) {
      scratch_.resize(kStateTokens * d);
      encode_state_rows(c.raw, scratch_, c.node_rows);
      c.state_rows.assign(scratch_.begin(), scratch_.end());
    }
    // A step's action tokens are encoded once it stops being the last, from
    // the action it recorded: the chosen one, or the default a step keeps
    // when its decision threw. encode_action on raw rows: the stage token is
    // the chosen stage's GNN row projected and normalised, then the cap token.
    if (i + 1 < n && c.action_rows.empty()) {
      const auto row = static_cast<std::size_t>(
          c.raw.obs.runnable_rows[static_cast<std::size_t>(c.raw.action.runnable_index)]);
      scratch_.resize(3 * d);  // [stage projection | stage token | cap token]
      const std::span<float> rows = scratch_;
      stage_token_proj_->forward_rows(std::span<const float>(c.node_rows).subspan(row * gnn, gnn),
                                      1, rows.first(d));
      stage_token_norm_->forward_rows(rows.first(d), 1, rows.subspan(d, d));
      cap_encoder_->forward_rows(c.raw.action.cap_choice, rows.subspan(2 * d, d));
      c.action_rows.assign(scratch_.begin() + static_cast<std::ptrdiff_t>(d), scratch_.end());
    }
  }
  sequence_.clear();
  for (const auto& c : context_) {
    sequence_.insert(sequence_.end(), c.state_rows.begin(), c.state_rows.end());
    sequence_.insert(sequence_.end(), c.action_rows.begin(), c.action_rows.end());  // empty for the last
  }
}

void CjsAdapter::last_candidates() {
  const auto& last = context_.back();
  const auto gnn = graph_encoder_->gnn_dim();
  const auto& runnable = last.raw.obs.runnable_rows;
  if (runnable.empty()) throw std::invalid_argument("CjsAdapter: no runnable stage");
  candidates_.clear();
  for (int row : runnable) {
    const auto first = last.node_rows.begin() + static_cast<std::ptrdiff_t>(row) * gnn;
    candidates_.insert(candidates_.end(), first, first + gnn);
  }
}

void CjsAdapter::invalidate_rows() {
  for (auto& c : context_) {
    c.state_rows.clear();
    c.node_rows.clear();
    c.action_rows.clear();
  }
}

void CjsAdapter::begin_episode() {
  rtg_now_ = target_return_;
  context_.clear();
}

void CjsAdapter::observe_reward(double reward) { rtg_now_ += static_cast<float>(reward); }

cjs::SchedAction CjsAdapter::choose(const cjs::SchedObservation& obs) {
  context_.push_back({{obs, {}, rtg_now_}, {}, {}, {}});
  while (static_cast<int>(context_.size()) > cfg_.context_window) context_.pop_front();
  // Per-phase spans (DESIGN.md §11): encoder → backbone prefill (capturing
  // nothing) → networking heads, all graph-free on raw rows.
  {
    core::trace::Span span(core::trace::Phase::kEncode);
    served_sequence();
  }
  llm_->prefill_rows(sequence_, features_);
  // The feature at the last state token (exec) predicts the action.
  const auto feature =
      std::span<const float>(features_).last(static_cast<std::size_t>(llm_->config().d_model));
  cjs::SchedAction action;
  {
    core::trace::Span span(core::trace::Phase::kHead);
    last_candidates();
    action.runnable_index = stage_head_->argmax(feature, candidates_);
    action.cap_choice = cap_head_->argmax(feature);
  }
  context_.back().raw.action = action;
  return action;
}

CjsAdapter::AdaptStats CjsAdapter::adapt(std::span<const CjsTrajectory> pool, int steps,
                                         float lr, std::uint64_t seed,
                                         const SessionOptions& session) {
  if (pool.empty()) throw std::invalid_argument("CjsAdapter::adapt: empty pool");
  // Train on the fp32 masters (see VpAdapter::adapt); requantize on exit.
  llm::ScopedQuantPause quant_pause(*llm_);
  invalidate_rows();  // the weights and the return scale change under the cached rows
  core::Rng rng(seed);
  // Returns-to-go per decision; fit the normalisation scale and target.
  std::vector<std::vector<float>> rtg(pool.size());
  double mean_abs_return = 0.0;
  float best_return = -1e30f;
  int counted = 0;
  for (std::size_t t = 0; t < pool.size(); ++t) {
    rtg[t].resize(pool[t].size());
    float g = 0.0f;
    for (std::size_t i = pool[t].size(); i-- > 0;) {
      g += static_cast<float>(pool[t][i].reward);
      rtg[t][i] = g;
    }
    if (!pool[t].empty()) {
      mean_abs_return += std::abs(rtg[t][0]);
      best_return = std::max(best_return, rtg[t][0]);
      ++counted;
    }
  }
  if (counted == 0) throw std::invalid_argument("CjsAdapter::adapt: empty trajectories");
  return_scale_ = std::max(1.0f, static_cast<float>(mean_abs_return / counted));
  target_return_ = best_return * cfg_.target_return_boost;

  // Return-weighted trajectory sampling (see AbrAdapter::adapt): favour
  // high-return episodes while RTG conditioning keeps the contrast signal.
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
  TrainSession sess(session, SessionFingerprint{"cjs", llm_->config().name, seed, lr, steps},
                    session_params(*this, cfg_.train_backbone ? llm_.get() : nullptr), opt,
                    guard);
  const int start = sess.resume(rng, stats);
  const double prior_s = stats.seconds;  // wall time from interrupted runs
  auto& step_hist = core::metrics::histogram("adapt.cjs.step_ms");
  auto& step_count = core::metrics::counter("adapt.cjs.steps");
  core::Timer timer;
  const auto w = static_cast<std::size_t>(cfg_.context_window);
  for (int step = start; step < steps; ++step) {
    core::Timer step_timer;
    opt.set_lr(lr * (1.0f - 0.7f * static_cast<float>(step) / static_cast<float>(steps)));
    const auto traj_idx = rng.weighted_choice(sample_weights);
    const auto& traj = pool[traj_idx];
    if (traj.empty()) continue;
    const auto span_len = std::min(w, traj.size());
    const auto start = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(traj.size() - span_len)));
    std::vector<StepContext> window_steps;
    window_steps.reserve(span_len);
    std::vector<cjs::SchedAction> targets;
    targets.reserve(span_len);
    for (std::size_t i = 0; i < span_len; ++i) {
      StepContext sc;
      sc.obs = traj[start + i].obs;
      sc.action = traj[start + i].action;
      sc.rtg = rtg[traj_idx][start + i];
      targets.push_back(sc.action);
      // Action-context dropout (see AbrAdapter::adapt): perturb the context
      // action tokens so the model reads the DAG state instead of copying.
      if (rng.bernoulli(0.25)) {
        sc.action.runnable_index = static_cast<int>(rng.randint(
            0, static_cast<std::int64_t>(sc.obs.runnable_rows.size()) - 1));
        sc.action.cap_choice = static_cast<int>(rng.randint(0, cjs::kNumCapChoices - 1));
      }
      window_steps.push_back(std::move(sc));
    }
    opt.zero_grad();
    auto window = build_window(window_steps);
    auto features = llm_->forward_embeddings(window.sequence);
    std::vector<Tensor> losses;
    std::vector<Tensor> cap_rows;
    std::vector<int> cap_targets;
    for (std::size_t i = 0; i < window_steps.size(); ++i) {
      auto feature = slice_rows(features, window.predict_positions[i], 1);
      auto stage_logits = stage_head_->logits(feature, window.candidates[i]);
      const int stage_target[] = {targets[i].runnable_index};
      losses.push_back(cross_entropy_rows(stage_logits, stage_target));
      cap_rows.push_back(feature);
      cap_targets.push_back(targets[i].cap_choice);
    }
    auto cap_logits = cap_head_->logits(concat_rows(cap_rows));
    losses.push_back(cross_entropy_rows(cap_logits, cap_targets));
    auto loss = scale(add_n(losses), 1.0f / static_cast<float>(losses.size()));
    core::fault::corrupt("adapter.step", loss.mutable_data());
    const float lv = loss.item();
    if (guard.loss_ok(lv)) {
      if (step == 0) stats.initial_loss = lv;
      stats.final_loss = lv;
      loss.backward();
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


std::vector<Tensor> CjsAdapter::adapt_parameters() const {
  auto params = trainable_parameters();
  if (cfg_.train_backbone) {
    llm_->unfreeze();
    for (auto& p : llm_->trainable_parameters()) params.push_back(p);
  }
  return params;
}
void CjsAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  rtg_encoder_->collect_params(out, prefix + "rtg_encoder.");
  graph_encoder_->collect_params(out, prefix + "graph_encoder.");
  exec_encoder_->collect_params(out, prefix + "exec_encoder.");
  stage_token_proj_->collect_params(out, prefix + "stage_token_proj.");
  stage_token_norm_->collect_params(out, prefix + "stage_token_norm.");
  cap_encoder_->collect_params(out, prefix + "cap_encoder.");
  stage_head_->collect_params(out, prefix + "stage_head.");
  cap_head_->collect_params(out, prefix + "cap_head.");
  for (std::size_t i = 0; i < lora_.size(); ++i) {
    out.emplace_back(prefix + "lora." + std::to_string(i), lora_[i]);
  }
}

}  // namespace netllm::adapt
