// The DD-LRNA core (PAPER.md §1.3), one recipe for VP, ABR and CJS: LoRA on
// a frozen backbone, fine-tuned offline, for the RL tasks on
// (return-to-go, state, action) token groups.
//   - `DdLrnaAdapter`: the base of the three adapters, holding the backbone,
//     its LoRA matrices and the one adaptation loop (DESIGN.md §9).
//   - `pool_returns`: returns-to-go and return-weighted sampling (ABR, CJS).
//   - `RollingContext`: the served window of the last w steps with their
//     token rows cached (DESIGN.md §10 "Encode once"), for ABR and CJS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "llm/minigpt.hpp"
#include "netllm/session.hpp"
#include "nn/module.hpp"

namespace netllm::adapt {

class DdLrnaAdapter : public nn::Module {
 public:
  using AdaptStats = ::netllm::adapt::AdaptStats;

  const llm::MiniGpt& llm() const { return *llm_; }
  /// Shared handle for callers that reconfigure the backbone in place
  /// (quantization) — the adapter stays the owner of record.
  std::shared_ptr<llm::MiniGpt> llm_shared() const { return llm_; }

  /// Parameters the Adapt API optimises: encoder + head + LoRA, plus the
  /// backbone when the task config sets `train_backbone` (which unfreezes it).
  std::vector<tensor::Tensor> adapt_parameters() const;

 protected:
  DdLrnaAdapter(std::shared_ptr<llm::MiniGpt> llm, bool train_backbone, const char* name);

  /// Freeze the backbone and, with `use_lora`, inject its LoRA matrices;
  /// called after the task's encoders and heads draw from `rng`.
  void freeze_backbone_and_add_lora(bool use_lora, std::int64_t rank, float alpha,
                                    core::Rng& rng);
  /// The LoRA matrices as `<prefix>lora.<i>`, after the task's own modules.
  void collect_lora(tensor::NamedParams& out, const std::string& prefix) const;

  /// A task's training step: sample from `rng`, forward, and backpropagate
  /// through `backward_loss`. Returns the loss, or nothing when the draw
  /// left nothing to train on (the step is then passed over unrecorded).
  using StepBody = std::function<std::optional<float>(core::Rng& rng)>;

  /// The adaptation loop for `task` ("vp" | "abr" | "cjs"), DESIGN.md §9:
  /// everything around `body`, which runs once per step.
  AdaptStats run_adapt(const char* task, int steps, float lr, std::uint64_t seed,
                       const SessionOptions& session, const StepBody& body);

  std::shared_ptr<llm::MiniGpt> llm_;

 private:
  bool train_backbone_;
  std::vector<tensor::Tensor> lora_;
};

/// Pass a step's loss through the "adapter.step" fault site and
/// backpropagate it, scaled by `weight` unless 1; returns its unscaled value.
float backward_loss(tensor::Tensor loss, float weight = 1.0f);

/// The returns-to-go of an experience pool (Eq. 2) and what the RL adapters
/// fit from them.
struct PoolReturns {
  std::vector<std::vector<float>> rtg;  // [trajectory][step]: the return from that step on
  float best = -1e30f;                  // the best episode return
  double mean_abs = 0.0;                // the mean |episode return|
  // Return-weighted trajectory sampling: a softmax over episode returns at
  // temperature max((g_max - g_min) / 8, 1e-3), so high-return behaviour is
  // seen more often while return-to-go conditioning still contrasts good
  // and bad actions within a window. An empty trajectory weighs 0.
  std::vector<double> weights;
};

/// `pool_returns` after the sums. Throws std::invalid_argument "adapt: empty
/// pool", or "adapt: empty trajectories" when every trajectory is empty.
PoolReturns fit_returns(std::vector<std::vector<float>> rtg);

template <typename Trajectory>
PoolReturns pool_returns(std::span<const Trajectory> pool) {
  std::vector<std::vector<float>> rtg(pool.size());
  for (std::size_t t = 0; t < pool.size(); ++t) {
    rtg[t].resize(pool[t].size());
    float g = 0.0f;
    for (std::size_t i = pool[t].size(); i-- > 0;) {
      g += static_cast<float>(pool[t][i].reward);
      rtg[t][i] = g;
    }
  }
  return fit_returns(std::move(rtg));
}

/// The last `window` served steps in a ring whose slots keep their storage,
/// and the running return-to-go that stamps each new step.
template <typename Raw>
class RollingContext {
 public:
  /// A served step: the raw input (action included), its return-to-go and
  /// its token rows, a cache as encoders are deterministic in (weights, input).
  struct Step {
    Raw raw;
    float rtg = 0.0f;
    std::vector<float> state_rows;   // the state tokens; empty = not encoded
    std::vector<float> aux_rows;     // what the state encode leaves for the action tokens
    std::vector<float> action_rows;  // encoded once the step is not the last
  };

  explicit RollingContext(int window) : window_(static_cast<std::size_t>(window)) {
    if (window < 1) throw std::invalid_argument("RollingContext: window < 1");
    slots_.reserve(window_);
  }

  /// A new session or episode: no steps, the return-to-go at `target`.
  void begin(float target) {
    rtg_ = target;
    head_ = size_ = 0;
  }
  /// Add `delta` to the running return-to-go.
  void add_to_return(float delta) { rtg_ += delta; }

  /// Append a step with the running return-to-go and no rows, dropping the
  /// oldest past `window`; the caller writes the raw step into the slot.
  Step& push() {
    Step* s;
    if (size_ < window_) {
      if (slots_.size() == size_) slots_.emplace_back();  // head_ is 0 until the ring fills
      s = &slots_[size_++];
    } else {
      s = &slots_[head_];
      head_ = (head_ + 1) % window_;
    }
    s->rtg = rtg_;
    clear_rows(*s);
    return *s;
  }

  Step& back() { return at(size_ - 1); }

  /// Drop every cached row; the raw steps stay and are re-encoded next call.
  void invalidate() {
    for (auto& s : slots_) clear_rows(s);
  }

  /// The served sequence: each step's state rows, then its action rows but
  /// for the last step, whose action the heads predict. Encodes only what
  /// the cache lacks; `encode_state(step, scratch)` / `encode_action(...)`
  /// return the rows to keep from `scratch`, so a throwing encode keeps
  /// none. The action rows encode the recorded action: the chosen one, or
  /// the default when the step's decision threw.
  template <typename EncodeState, typename EncodeAction>
  std::span<const float> sequence(EncodeState&& encode_state, EncodeAction&& encode_action) {
    for (std::size_t i = 0; i < size_; ++i) {
      auto& s = at(i);
      if (s.state_rows.empty()) {
        const std::span<const float> rows = encode_state(s, scratch_);
        s.state_rows.assign(rows.begin(), rows.end());
      }
      if (i + 1 < size_ && s.action_rows.empty()) {
        const std::span<const float> rows = encode_action(s, scratch_);
        s.action_rows.assign(rows.begin(), rows.end());
      }
    }
    sequence_.clear();
    for (std::size_t i = 0; i < size_; ++i) {
      const auto& s = at(i);
      sequence_.insert(sequence_.end(), s.state_rows.begin(), s.state_rows.end());
      sequence_.insert(sequence_.end(), s.action_rows.begin(), s.action_rows.end());
    }
    return sequence_;
  }

 private:
  Step& at(std::size_t i) { return slots_[(head_ + i) % window_]; }  // i-th oldest
  static void clear_rows(Step& s) {
    s.state_rows.clear();
    s.aux_rows.clear();
    s.action_rows.clear();
  }

  std::size_t window_;
  std::vector<Step> slots_;
  std::size_t head_ = 0, size_ = 0;
  float rtg_ = 0.0f;
  std::vector<float> scratch_, sequence_;  // sized once, reused every decision
};

}  // namespace netllm::adapt
