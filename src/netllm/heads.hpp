// Networking heads (paper §4.2, Fig. 7): lightweight trainable projectors
// that map LLM output features directly into task-specific answers. Unlike
// the LM head they constrain generation to the valid answer range (a ladder
// rung, a runnable stage, a viewport coordinate triple), so every answer is
// valid and produced in a single inference.
//
// Like the encoders, each head serves through a graph-free row forward
// (`forward_rows`, the span `argmax`) that computes the floats of its
// Tensor forward without building the tape.
#pragma once

#include <memory>
#include <span>

#include "core/rng.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace netllm::adapt {

/// Continuous answers (VP head: the paper's "three neurons to output the
/// viewport coordinates, i.e. roll, pitch and yaw").
class RegressionHead final : public nn::Module {
 public:
  RegressionHead(std::int64_t d_model, std::int64_t outputs, core::Rng& rng);
  tensor::Tensor forward(const tensor::Tensor& features) const;  // [m,d] -> [m,outputs]
  /// Graph-free forward: features [m, d] -> answers [m, outputs].
  void forward_rows(std::span<const float> features, std::int64_t m,
                    std::span<float> answers) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Linear> fc_;
};

/// Discrete answers from a fixed candidate set (ABR head: probability
/// distribution over the bitrate ladder; CJS executor-cap head).
class CategoricalHead final : public nn::Module {
 public:
  CategoricalHead(std::int64_t d_model, std::int64_t num_classes, core::Rng& rng);
  tensor::Tensor logits(const tensor::Tensor& features) const;   // [m,d] -> [m,classes]
  int argmax(const tensor::Tensor& features) const;              // single row
  /// Graph-free argmax of one feature row [d]; throws on a non-finite logit.
  int argmax(std::span<const float> feature) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Linear> fc_;
};

/// Discrete answers from a *variable* candidate set (CJS stage head): scores
/// each candidate embedding against the LLM feature, so the answer is always
/// one of the currently runnable stages.
class PointerHead final : public nn::Module {
 public:
  PointerHead(std::int64_t d_model, std::int64_t candidate_dim, core::Rng& rng,
              std::int64_t hidden = 16);
  /// feature: [1, d_model]; candidates: [n, candidate_dim] -> logits [1, n].
  tensor::Tensor logits(const tensor::Tensor& feature, const tensor::Tensor& candidates) const;
  int argmax(const tensor::Tensor& feature, const tensor::Tensor& candidates) const;
  /// Graph-free argmax: feature [d_model], candidates [n, candidate_dim]
  /// row-major; throws on no candidate or a non-finite logit.
  int argmax(std::span<const float> feature, std::span<const float> candidates) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Linear> feat_proj_;   // d_model -> hidden
  std::shared_ptr<nn::Linear> cand_proj_;   // candidate_dim -> hidden
  std::shared_ptr<nn::Mlp> scorer_;         // hidden -> 1 applied per candidate
};

}  // namespace netllm::adapt
