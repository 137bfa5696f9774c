// NetLLM adapter for adaptive bitrate streaming — the paper's distributed
// RL use case, trained with the DD-LRNA offline pipeline (paper §4.3).
//
// Experience pool: trajectories collected once by existing policies (GENET,
// per §A.2) interacting with training environments — `collect_experience` is
// the paper's RL_Collect API. Trajectories are rewritten per Eq. (2) as
// (return-to-go, state parts, action) groups; each part is its own modality
// and its own token: R_t, throughput series, delay series, chunk-size
// ladder, buffer scalars, then the action embedding. Training samples
// context windows of w steps (paper: w = 10) and minimises cross entropy on
// actions (Eq. 4). At inference the adapter is return-conditioned: it
// targets the best return seen in the pool and decrements it by observed
// chunk QoE — the standard decision-transformer trigger the paper builds on.
#pragma once

#include <array>
#include <memory>

#include "core/rng.hpp"
#include "envs/abr/policy.hpp"
#include "llm/minigpt.hpp"
#include "netllm/dd_lrna.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"

namespace netllm::adapt {

struct AbrStep {
  std::vector<float> throughput;  // kHistory values / 10
  std::vector<float> delay;       // kHistory values / 10
  std::vector<float> sizes;       // 6 ladder sizes / 5 (MB)
  float buffer = 0.0f;            // / 30
  float remaining = 0.0f;
  int action = 0;
  float reward = 0.0f;            // chunk QoE
};
using AbrTrajectory = std::vector<AbrStep>;

/// Normalised state snapshot from a raw observation.
AbrStep make_abr_step(const abr::Observation& obs);
/// `make_abr_step` into `step`, reusing its vectors' storage.
void assign_abr_step(const abr::Observation& obs, AbrStep& step);

/// RL_Collect (Fig. 9): run `collector` over the training traces, with
/// epsilon-greedy exploration noise, recording one trajectory per trace
/// per epoch. Collected once; reused for the entire adaptation (Fig. 3).
std::vector<AbrTrajectory> collect_abr_experience(abr::AbrPolicy& collector,
                                                  const abr::VideoModel& video,
                                                  std::span<const abr::BandwidthTrace> traces,
                                                  int epochs, double epsilon,
                                                  std::uint64_t seed);

struct AbrAdapterConfig {
  std::int64_t lora_rank = 8;   // scaled-down analogue of the paper's r = 128
  float lora_alpha = 16.0f;
  bool use_lora = true;
  // Train the LLM backbone too: full-parameter fine-tuning (Fig. 4) or the
  // Fig. 13 train-from-scratch ablation. Default is the frozen-backbone
  // DD-LRNA recipe.
  bool train_backbone = false;
  int context_window = 10;      // paper §A.2: w = 10 for ABR
  float return_scale = 50.0f;   // normalises returns-to-go
  float target_return_boost = 1.0f;  // target = best pool return x boost
};

class AbrAdapter final : public DdLrnaAdapter, public abr::AbrPolicy {
 public:
  AbrAdapter(std::shared_ptr<llm::MiniGpt> llm, const AbrAdapterConfig& cfg, core::Rng& rng);

  std::string name() const override { return "NetLLM"; }
  void begin_session() override;
  int choose_level(const abr::Observation& obs) override;
  void observe_result(const abr::ChunkResult& result, double chunk_qoe) override;

  /// The Adapt API: offline fine-tuning on the experience pool (Eq. 4).
  /// Resilient to non-finite losses/gradients and parameter corruption
  /// (see TrainGuard). With `session.dir` set the run is durable: periodic
  /// checkpoints, clean SIGINT/SIGTERM drain, bitwise-identical resume.
  AdaptStats adapt(std::span<const AbrTrajectory> pool, int steps, float lr,
                   std::uint64_t seed, const SessionOptions& session = {});

  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  /// Return-conditioning target used at inference. `adapt` sets it to the
  /// best pool return; callers may retarget (e.g. a quantile) without
  /// retraining — standard decision-transformer practice.
  float target_return() const { return target_return_; }
  void set_target_return(float target) { target_return_ = target; }

  static constexpr int kLevels = 6;

 private:
  static constexpr int kStateTokens = 5;  // R, tp, delay, sizes, buf
  static constexpr int kTokensPerStep = kStateTokens + 1;  // + action

  struct WindowTokens {
    tensor::Tensor sequence;          // [w * kTokensPerStep, d_model]
    std::vector<std::int64_t> predict_positions;  // feature row per step
  };

  /// One step's state tokens in window order, each [1, d_model], on the
  /// tape (training windows); `encode_state_rows` is the serving twin.
  std::array<tensor::Tensor, kStateTokens> encode_state(const AbrStep& step, float rtg) const;
  /// Training window: every step's state tokens, then its action token.
  WindowTokens build_window(std::span<const AbrStep> steps, std::span<const float> rtg) const;
  /// `encode_state`'s token rows on the graph-free encoders: rows
  /// [kStateTokens, d_model].
  void encode_state_rows(const AbrStep& step, float rtg, std::span<float> rows) const;

  AbrAdapterConfig cfg_;
  std::shared_ptr<ScalarEncoder> rtg_encoder_;
  std::shared_ptr<TimeSeriesEncoder> tp_encoder_;
  std::shared_ptr<TimeSeriesEncoder> delay_encoder_;
  std::shared_ptr<TimeSeriesEncoder> sizes_encoder_;
  std::shared_ptr<ScalarEncoder> buffer_encoder_;
  std::shared_ptr<ActionEncoder> action_encoder_;
  std::shared_ptr<CategoricalHead> head_;

  float target_return_ = 120.0f;  // updated from the pool during adapt()
  // Inference-time rolling context: a decision encodes only the newest
  // step's state tokens [kStateTokens, d_model] and the action token of the
  // step before it; the sequence is [6n - 1, d_model].
  RollingContext<AbrStep> context_;
  std::vector<float> features_;  // the backbone's output, sized once
};

}  // namespace netllm::adapt
