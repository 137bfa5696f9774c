// NetLLM adapter for viewport prediction — the paper's SL use case.
//
// Pipeline (Fig. 5 top path): the multimodal encoder turns the saliency
// image (ViT) and each historical viewport (FC) into token embeddings; the
// frozen LLM (with trainable LoRA matrices) processes them; the VP head's
// three neurons emit the next viewport as a normalized delta. Longer
// horizons roll the head forward autoregressively — each rollout step is
// one LLM inference that always yields a valid coordinate triple, unlike
// token-based decoding (Fig. 2).
#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "envs/vp/dataset.hpp"
#include "llm/minigpt.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"
#include "netllm/session.hpp"
#include "nn/kv_arena.hpp"
#include "nn/module.hpp"

namespace netllm::adapt {

struct VpAdapterConfig {
  // The paper uses r = 32 on d_model = 4096 (§A.2); the lite zoo backbones
  // are 16-64 wide, so the default keeps a comparable rank/width ratio.
  std::int64_t lora_rank = 4;
  float lora_alpha = 8.0f;
  bool use_lora = true;
  // Train the LLM backbone too: full-parameter fine-tuning (Fig. 4) or the
  // Fig. 13 train-from-scratch ablation. Default is the frozen-backbone
  // DD-LRNA recipe.
  bool train_backbone = false;         // false = the Fig. 13 "w/o domain knowledge" arm
  float delta_scale_deg = 5.0f;
};

/// One member of a grouped rollout (`VpAdapter::predict_group`): the
/// arguments of one `predict` call. The referenced data must outlive the call.
struct VpQuery {
  std::span<const vp::Viewport> history;
  const tensor::Tensor* saliency = nullptr;
  int horizon = 0;
};

/// A member's rollout, or the error that ended it (then `viewports` must not
/// be read).
struct VpRollout {
  std::vector<vp::Viewport> viewports;
  std::exception_ptr error;
};

class VpAdapter final : public nn::Module, public vp::VpPredictor {
 public:
  /// Takes (shared) ownership of the LLM, freezes its backbone and injects
  /// LoRA adapters. Build one adapter per MiniGpt instance.
  VpAdapter(std::shared_ptr<llm::MiniGpt> llm, const VpAdapterConfig& cfg, core::Rng& rng);

  std::string name() const override { return "NetLLM"; }

  /// KV-cached rollout (DESIGN.md §13): encode the prompt once, prefill the
  /// backbone once, then run one incremental backbone step per further
  /// rollout step — bitwise identical to `predict_uncached`, which re-runs
  /// the full forward every step. With a `KvArena` attached the per-layer
  /// caches are pooled leases and a request whose raw prompt (saliency and
  /// history, byte-for-byte) was published adopts that prefix, skipping the
  /// encoders and the prefill entirely; `KvArena::Exhausted` propagates to
  /// the caller (the serve engine sheds such requests deterministically).
  /// This is `predict_group` over a group of one.
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history,
                                    const tensor::Tensor& saliency, int horizon) override;
  /// Step-level batched rollouts (DESIGN.md §13): the members advance in
  /// lockstep. Each member leases its caches and adopts a warm prefix or is
  /// marked cold; a cold member whose raw request equals an earlier cold
  /// member's adopts that member's rows once it publishes. All cold prompts
  /// run one stacked prefill and publish in member order; then each step is
  /// one stacked head call, one stacked viewport-token encode and one
  /// m = (live members) backbone step. A member leaves at its own horizon or
  /// on its own error (bad inputs, `KvArena::Exhausted`, an "llm.forward"
  /// Throw on its rows), which lands in its `VpRollout::error` and touches
  /// no other member. Every member's viewports are bitwise its `predict`.
  std::vector<VpRollout> predict_group(std::span<const VpQuery> group);
  /// The pre-§13 rollout: a full `forward_embeddings` per step. Kept as the
  /// equivalence baseline `tests/test_sched.cpp` pins `predict` against.
  std::vector<vp::Viewport> predict_uncached(std::span<const vp::Viewport> history,
                                             const tensor::Tensor& saliency, int horizon);

  /// Attach (or detach, with nullptr) a pooled KV arena; the serve engine
  /// injects its own so concurrent requests share the page budget and the
  /// warm prefix cache. Warm prefixes are keyed on raw requests, so an arena
  /// serves this one adapter, and `adapt()` empties its warm set.
  void set_kv_arena(std::shared_ptr<nn::KvArena> arena) { arena_ = std::move(arena); }
  const std::shared_ptr<nn::KvArena>& kv_arena() const { return arena_; }

  /// Teacher-forced SL loss for one sample (Eq. 1 with MSE).
  tensor::Tensor loss(const vp::VpSample& sample) const;

  using AdaptStats = ::netllm::adapt::AdaptStats;
  /// The `Adapt` API (Fig. 9): fine-tune encoder + head + LoRA over the
  /// dataset; the LLM backbone stays frozen throughout. Resilient to
  /// non-finite losses/gradients (poisoned steps are skipped) and to
  /// parameter corruption (restored from a periodic in-memory snapshot).
  /// With `session.dir` set the run is durable: it checkpoints periodically,
  /// drains cleanly on SIGINT/SIGTERM, and resumes bitwise-identically (see
  /// session.hpp).
  AdaptStats adapt(std::span<const vp::VpSample> dataset, int steps, float lr,
                   std::uint64_t seed, const SessionOptions& session = {});

  /// Trainable parameters only (encoder + head + LoRA). The frozen backbone
  /// is intentionally excluded so snapshots are per-task adaptation deltas.
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  const llm::MiniGpt& llm() const { return *llm_; }
  /// Shared handle for callers that reconfigure the backbone in place
  /// (quantization) — the adapter stays the owner of record.
  std::shared_ptr<llm::MiniGpt> llm_shared() const { return llm_; }

 /// Parameters the Adapt API optimises: encoder + head + LoRA, plus the
  /// backbone when cfg.train_backbone is set.
  std::vector<tensor::Tensor> adapt_parameters() const;

 private:
  tensor::Tensor viewport_token(const vp::Viewport& v) const;
  /// build_sequence(history, {}, saliency) on raw rows: the prompt's
  /// [1 + |history|, d_model] token rows into `rows`.
  void encode_prompt(std::span<const vp::Viewport> history, const tensor::Tensor& saliency,
                     std::span<float> rows) const;
  /// Token sequence [1 + |history| + extra] for teacher forcing / rollout.
  tensor::Tensor build_sequence(std::span<const vp::Viewport> history,
                                std::span<const vp::Viewport> future_teacher,
                                const tensor::Tensor& saliency) const;

  std::shared_ptr<llm::MiniGpt> llm_;
  VpAdapterConfig cfg_;
  std::shared_ptr<ImageEncoder> image_encoder_;
  std::shared_ptr<ScalarEncoder> viewport_encoder_;
  std::shared_ptr<RegressionHead> head_;
  std::vector<tensor::Tensor> lora_;
  std::shared_ptr<nn::KvArena> arena_;  // null = per-call caches, no sharing
};

}  // namespace netllm::adapt
