#include "netllm/cjs_adapter.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/trace.hpp"

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
    : DdLrnaAdapter(std::move(llm), cfg.train_backbone, "CjsAdapter"),
      cfg_(cfg),
      context_(cfg.context_window) {
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
  freeze_backbone_and_add_lora(cfg_.use_lora, cfg_.lora_rank, cfg_.lora_alpha, rng);
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

void CjsAdapter::encode_state_rows(const cjs::SchedObservation& obs, float rtg,
                                   std::span<float> rows, std::vector<float>& node_rows) const {
  const auto& features = obs.node_features;
  if (features.rank() != 2 || features.dim(1) != cjs::SchedObservation::kNodeFeatures) {
    throw std::invalid_argument("GraphEncoder: expected [N, feature_dim] features");
  }
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  const float r[] = {rtg / return_scale_};
  const float vals[] = {static_cast<float>(obs.idle_executors) / obs.total_executors,
                        static_cast<float>(obs.jobs_in_system) / 50.0f};
  node_rows.resize(static_cast<std::size_t>(features.dim(0) * graph_encoder_->gnn_dim()));
  rtg_encoder_->forward_rows(r, 1, rows.subspan(0, d));
  graph_encoder_->forward_rows(features.data(), obs.topology, rows.subspan(d, d), node_rows);
  exec_encoder_->forward_rows(vals, 1, rows.subspan(2 * d, d));
}

void CjsAdapter::begin_episode() { context_.begin(target_return_); }

void CjsAdapter::observe_reward(double reward) {
  context_.add_to_return(static_cast<float>(reward));
}

cjs::SchedAction CjsAdapter::choose(const cjs::SchedObservation& obs) {
  auto& step = context_.push();
  step.raw.obs = obs;  // copy-assigned into the slot's storage
  step.raw.action = {};
  const auto d = static_cast<std::size_t>(llm_->config().d_model);
  const auto gnn = static_cast<std::size_t>(graph_encoder_->gnn_dim());
  // Per-phase spans (DESIGN.md §11): encoder → backbone prefill (capturing
  // nothing) → networking heads, all graph-free on raw rows.
  const auto sequence = [&] {
    core::trace::Span span(core::trace::Phase::kEncode);
    return context_.sequence(
        [&](auto& s, std::vector<float>& scratch) {
          scratch.resize(kStateTokens * d);
          encode_state_rows(s.raw.obs, s.rtg, scratch, s.aux_rows);
          return std::span<const float>(scratch);
        },
        // encode_action on raw rows: the stage token is the chosen stage's
        // GNN row projected and normalised, then the cap token.
        [&](auto& s, std::vector<float>& scratch) {
          const auto row = static_cast<std::size_t>(
              s.raw.obs.runnable_rows[static_cast<std::size_t>(s.raw.action.runnable_index)]);
          scratch.resize(3 * d);  // [stage projection | stage token | cap token]
          const std::span<float> rows = scratch;
          stage_token_proj_->forward_rows(
              std::span<const float>(s.aux_rows).subspan(row * gnn, gnn), 1, rows.first(d));
          stage_token_norm_->forward_rows(rows.first(d), 1, rows.subspan(d, d));
          cap_encoder_->forward_rows(s.raw.action.cap_choice, rows.subspan(2 * d, d));
          return std::span<const float>(rows.subspan(d));
        });
  }();
  llm_->prefill_rows(sequence, features_);
  // The feature at the last state token (exec) predicts the action.
  const auto feature = std::span<const float>(features_).last(d);
  cjs::SchedAction action;
  {
    core::trace::Span span(core::trace::Phase::kHead);
    // The pointer head's candidates: the last step's runnable-stage rows.
    const auto& last = context_.back();
    if (obs.runnable_rows.empty()) throw std::invalid_argument("CjsAdapter: no runnable stage");
    candidates_.clear();
    for (int row : obs.runnable_rows) {
      const auto first = last.aux_rows.begin() + static_cast<std::ptrdiff_t>(row * gnn);
      candidates_.insert(candidates_.end(), first, first + static_cast<std::ptrdiff_t>(gnn));
    }
    action.runnable_index = stage_head_->argmax(feature, candidates_);
    action.cap_choice = cap_head_->argmax(feature);
  }
  context_.back().raw.action = action;
  return action;
}

CjsAdapter::AdaptStats CjsAdapter::adapt(std::span<const CjsTrajectory> pool, int steps,
                                         float lr, std::uint64_t seed,
                                         const SessionOptions& session) {
  // Returns-to-go per decision; fit the normalisation scale and target.
  const auto returns = pool_returns(pool);
  return_scale_ = std::max(1.0f, static_cast<float>(returns.mean_abs));
  target_return_ = returns.best * cfg_.target_return_boost;
  context_.invalidate();  // the weights and the return scale change under the cached rows
  const auto w = static_cast<std::size_t>(cfg_.context_window);
  return run_adapt("cjs", steps, lr, seed, session, [&](core::Rng& rng) -> std::optional<float> {
    const auto traj_idx = rng.weighted_choice(returns.weights);
    const auto& traj = pool[traj_idx];
    if (traj.empty()) return std::nullopt;
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
      sc.rtg = returns.rtg[traj_idx][start + i];
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
    return backward_loss(scale(add_n(losses), 1.0f / static_cast<float>(losses.size())));
  });
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
  collect_lora(out, prefix);
}

}  // namespace netllm::adapt
