// ViT-lite: a small Vision Transformer for grayscale images, standing in for
// the pre-trained ViT the paper plugs into the multimodal encoder for the
// image modality (video saliency maps in VP). Patch embedding + learned
// positional embeddings + bidirectional transformer blocks + mean pooling.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/transformer.hpp"

namespace netllm::nn {

struct ViTConfig {
  std::int64_t image_size = 16;  // square, pixels
  std::int64_t patch_size = 4;
  std::int64_t d_model = 32;
  std::int64_t n_heads = 2;
  std::int64_t n_layers = 2;
  std::int64_t d_ff = 64;
};

class ViTLite final : public Module {
 public:
  ViTLite(const ViTConfig& cfg, core::Rng& rng);

  /// image: [H, W] grayscale in [0,1] -> patch feature sequence [P, d_model].
  Tensor forward_patches(const Tensor& image) const;
  /// Mean-pooled single feature [1, d_model].
  Tensor forward_pooled(const Tensor& image) const;
  /// Graph-free forward_pooled on raw floats: image [H * W] -> pooled
  /// [d_model]. The blocks run their m-row forward over the P patch rows
  /// as one cache-less segment (non-causal attention: one rows = 1
  /// attend_head call per patch row and head); bitwise forward_pooled.
  void forward_pooled_rows(std::span<const float> image, std::span<float> pooled) const;

  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  const ViTConfig& config() const { return cfg_; }
  std::int64_t num_patches() const;

 private:
  ViTConfig cfg_;
  std::shared_ptr<Linear> patch_embed_;
  Tensor pos_embed_;  // [P, d_model]
  std::vector<std::shared_ptr<TransformerBlock>> blocks_;
  std::shared_ptr<LayerNorm> final_ln_;
};

}  // namespace netllm::nn
