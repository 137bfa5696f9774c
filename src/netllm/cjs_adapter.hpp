// NetLLM adapter for cluster job scheduling — the paper's centralized RL
// use case, trained with the DD-LRNA offline pipeline on experience
// collected by Decima (paper §A.2).
//
// Per-timestep token group (Eq. 2, modalities processed separately):
//   [ return-to-go | DAG global token (GNN) | executor scalars |
//     chosen-stage embedding | executor-cap embedding ]
// Two networking heads (Table 1): a pointer head that scores the currently
// runnable stages (so answers are always valid stages) and a categorical
// head over the executor-cap menu; both read the feature at the last state
// token of the step. Context window w = 20 per the paper.
#pragma once

#include <array>
#include <deque>
#include <memory>

#include "core/rng.hpp"
#include "envs/cjs/simulator.hpp"
#include "llm/minigpt.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"
#include "netllm/session.hpp"
#include "nn/module.hpp"

namespace netllm::adapt {

using CjsTrajectory = std::vector<cjs::Decision>;

/// RL_Collect for CJS: run the collector policy over `episodes` workload
/// instances derived from `base` (fresh seeds per episode).
std::vector<CjsTrajectory> collect_cjs_experience(cjs::SchedPolicy& collector,
                                                  const cjs::WorkloadConfig& base, int episodes,
                                                  std::uint64_t seed);

struct CjsAdapterConfig {
  std::int64_t lora_rank = 8;   // scaled-down analogue of the paper's r = 128
  float lora_alpha = 16.0f;
  bool use_lora = true;
  // Train the LLM backbone too: full-parameter fine-tuning (Fig. 4) or the
  // Fig. 13 train-from-scratch ablation. Default is the frozen-backbone
  // DD-LRNA recipe.
  bool train_backbone = false;
  int context_window = 20;      // paper §A.2: w = 20 for CJS
  float target_return_boost = 1.0f;
};

class CjsAdapter final : public nn::Module, public cjs::SchedPolicy {
 public:
  CjsAdapter(std::shared_ptr<llm::MiniGpt> llm, const CjsAdapterConfig& cfg, core::Rng& rng);

  std::string name() const override { return "NetLLM"; }
  void begin_episode() override;
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override;
  void observe_reward(double reward) override;

  using AdaptStats = ::netllm::adapt::AdaptStats;
  /// Offline fine-tuning (Eq. 4). Resilient to non-finite losses/gradients
  /// and parameter corruption (see TrainGuard). With `session.dir` set the
  /// run is durable: periodic checkpoints, clean SIGINT/SIGTERM drain,
  /// bitwise-identical resume.
  AdaptStats adapt(std::span<const CjsTrajectory> pool, int steps, float lr,
                   std::uint64_t seed, const SessionOptions& session = {});

  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  const llm::MiniGpt& llm() const { return *llm_; }
  /// Shared handle for callers that reconfigure the backbone in place
  /// (quantization) — the adapter stays the owner of record.
  std::shared_ptr<llm::MiniGpt> llm_shared() const { return llm_; }

  /// Return-conditioning target used at inference. `adapt` sets it to the
  /// best pool return; callers may retarget (e.g. a quantile) without
  /// retraining — standard decision-transformer practice.
  float target_return() const { return target_return_; }
  void set_target_return(float target) { target_return_ = target; }
  float return_scale() const { return return_scale_; }
  /// Rescaling the return-to-go re-encodes the rolling context's rtg tokens.
  void set_return_scale(float scale) {
    return_scale_ = scale;
    invalidate_rows();
  }

 /// Parameters the Adapt API optimises: encoder + head + LoRA, plus the
  /// backbone when cfg.train_backbone is set.
  std::vector<tensor::Tensor> adapt_parameters() const;

 private:
  static constexpr int kStateTokens = 3;   // rtg, DAG global token, exec scalars
  static constexpr int kTokensPerStep = kStateTokens + 2;  // + stage, cap

  struct StepContext {
    cjs::SchedObservation obs;  // tensor handles share storage; copies are cheap
    cjs::SchedAction action;
    float rtg = 0.0f;
  };

  /// One step's state tokens and the GNN node embeddings its stage token
  /// and pointer candidates read, on the tape (training windows);
  /// `encode_state_rows` is the serving twin.
  struct StepTokens {
    std::array<tensor::Tensor, kStateTokens> state;  // each [1, d_model]
    tensor::Tensor node_embeddings;                   // [nodes, gnn_dim]
  };
  StepTokens encode_state(const StepContext& step) const;
  /// The action tokens [stage, cap] of a step whose chosen stage has GNN
  /// embedding `chosen_node` [1, gnn_dim].
  std::array<tensor::Tensor, 2> encode_action(const tensor::Tensor& chosen_node,
                                              int cap_choice) const;

  struct WindowTokens {
    tensor::Tensor sequence;                       // [tokens, d_model]
    std::vector<std::int64_t> predict_positions;   // exec-token row per step
    std::vector<tensor::Tensor> candidates;        // runnable node embeddings per step
  };
  /// Training window: every step's state tokens, then its action tokens.
  WindowTokens build_window(std::span<const StepContext> steps) const;
  tensor::Tensor exec_scalars(const cjs::SchedObservation& obs) const;

  // Inference-time rolling context. Each step keeps its encoded rows as
  // plain floats: a cache of the raw step (encoders are deterministic in
  // (weights, input)), so a decision runs one GNN pass, for the newest step.
  struct ServedStep {
    StepContext raw;
    std::vector<float> state_rows;   // [kStateTokens, d_model]; empty = not encoded
    std::vector<float> node_rows;    // [nodes, gnn_dim], the step's GNN node embeddings
    std::vector<float> action_rows;  // [2, d_model], encoded once the step is not the last
  };
  /// `encode_state`'s token rows on the graph-free encoders: rows
  /// [kStateTokens, d_model] and the GNN node embeddings into `node_rows`.
  void encode_state_rows(const StepContext& step, std::span<float> rows,
                         std::vector<float>& node_rows) const;
  /// Served sequence [5n - 2, d_model] over the rolling context into
  /// `sequence_`: copies the cached rows, encoding only what they lack, and
  /// leaves the last step's action open (it is what the heads predict).
  void served_sequence();
  /// The last step's runnable-stage embeddings [runnable, gnn_dim] into
  /// `candidates_`.
  void last_candidates();
  /// Drop every cached row; the raw steps stay and are re-encoded next call.
  void invalidate_rows();

  std::shared_ptr<llm::MiniGpt> llm_;
  CjsAdapterConfig cfg_;
  std::shared_ptr<ScalarEncoder> rtg_encoder_;
  std::shared_ptr<GraphTokenEncoder> graph_encoder_;
  std::shared_ptr<ScalarEncoder> exec_encoder_;
  std::shared_ptr<nn::Linear> stage_token_proj_;   // gnn_dim -> d_model
  std::shared_ptr<nn::LayerNorm> stage_token_norm_;
  std::shared_ptr<ActionEncoder> cap_encoder_;
  std::shared_ptr<PointerHead> stage_head_;
  std::shared_ptr<CategoricalHead> cap_head_;
  std::vector<tensor::Tensor> lora_;

  float return_scale_ = 2000.0f;  // fitted to the pool during adapt()
  float target_return_ = 0.0f;
  float rtg_now_ = 0.0f;
  std::deque<ServedStep> context_;
  // Served-decision rows, sized once: a step's token rows, the window, the
  // backbone's output and the pointer head's candidates.
  std::vector<float> scratch_, sequence_, features_, candidates_;
};

}  // namespace netllm::adapt
