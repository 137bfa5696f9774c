// Multimodal encoder building blocks (paper §4.1, Fig. 6).
//
// Each encoder maps one networking input modality into token-like embedding
// vectors in the LLM's d_model space: a modality-specific feature encoder
// (1D-CNN for time-series/sequences, FC for scalars, ViT for images, GNN for
// DAGs — exactly the paper's table) followed by a trainable linear
// projection and layer normalisation for training stability. Task adapters
// compose these into per-task multimodal encoders.
//
// Every encoder has two forwards that compute the same floats: the Tensor
// one builds the autograd tape and serves training, and `forward_rows`
// runs the same ops on raw rows with per-thread scratch and builds no node
// (DESIGN.md §10); serving runs the latter.
#pragma once

#include <memory>
#include <span>

#include "core/rng.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/vit.hpp"

namespace netllm::adapt {

/// 1D-CNN feature encoder + linear projection for time-series / sequence
/// data (e.g. past throughputs, chunk-size ladders). Input [C, T] -> one
/// token [1, d_model].
class TimeSeriesEncoder final : public nn::Module {
 public:
  TimeSeriesEncoder(std::int64_t channels, std::int64_t length, std::int64_t d_model,
                    core::Rng& rng, std::int64_t conv_channels = 8, std::int64_t kernel = 3);
  tensor::Tensor forward(const tensor::Tensor& series) const;
  /// Graph-free forward: series [C * T] row-major -> token [d_model].
  void forward_rows(std::span<const float> series, std::span<float> token) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Conv1d> conv_;
  std::shared_ptr<nn::Linear> proj_;
  std::shared_ptr<nn::LayerNorm> norm_;
  std::int64_t channels_, length_;
};

/// Fully-connected feature encoder for scalar groups (e.g. buffer occupancy,
/// return-to-go). Input [1, k] -> [1, d_model]; every op is row-wise, so
/// [m, k] encodes m groups at once, each row bitwise its own [1, k] call.
class ScalarEncoder final : public nn::Module {
 public:
  ScalarEncoder(std::int64_t inputs, std::int64_t d_model, core::Rng& rng);
  tensor::Tensor forward(const tensor::Tensor& scalars) const;
  tensor::Tensor forward(std::span<const float> scalars) const;
  /// Graph-free forward of m groups: scalars [m, inputs] -> tokens [m, d_model].
  void forward_rows(std::span<const float> scalars, std::int64_t m,
                    std::span<float> tokens) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Linear> fc_;
  std::shared_ptr<nn::Linear> proj_;
  std::shared_ptr<nn::LayerNorm> norm_;
  std::int64_t inputs_;
};

/// ViT feature encoder + projection for images (saliency maps). The ViT
/// backbone is frozen by default, mirroring the paper's use of pre-trained
/// ViT weights (§A.2); the projection + norm stay trainable.
class ImageEncoder final : public nn::Module {
 public:
  ImageEncoder(std::int64_t d_model, core::Rng& rng, bool freeze_vit = true);
  tensor::Tensor forward(const tensor::Tensor& image) const;  // [16,16] -> [1, d_model]
  /// Graph-free forward: image [16 * 16] -> token [d_model].
  void forward_rows(std::span<const float> image, std::span<float> token) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::ViTLite> vit_;
  std::shared_ptr<nn::Linear> proj_;
  std::shared_ptr<nn::LayerNorm> norm_;
};

/// GNN feature encoder + projection for DAGs (CJS job graphs). Produces a
/// global summary token and projected per-node embeddings for pointer-style
/// stage selection.
class GraphTokenEncoder final : public nn::Module {
 public:
  GraphTokenEncoder(std::int64_t feature_dim, std::int64_t d_model, core::Rng& rng,
                    std::int64_t gnn_dim = 16);
  struct Output {
    tensor::Tensor global_token;      // [1, d_model]
    tensor::Tensor node_embeddings;   // [N, gnn_dim] (raw GNN space)
  };
  Output forward(const tensor::Tensor& features, const nn::DagTopology& topo) const;
  /// Graph-free forward: features [N, feature_dim] -> global token
  /// [d_model] and node embeddings [N, gnn_dim].
  void forward_rows(std::span<const float> features, const nn::DagTopology& topo,
                    std::span<float> global_token, std::span<float> node_embeddings) const;
  std::int64_t gnn_dim() const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::GraphEncoder> gnn_;
  std::shared_ptr<nn::Linear> proj_;
  std::shared_ptr<nn::LayerNorm> norm_;
};

/// Embedding table for discrete actions (e.g. the chosen bitrate), used to
/// feed past actions back into the decision-transformer context.
class ActionEncoder final : public nn::Module {
 public:
  ActionEncoder(std::int64_t num_actions, std::int64_t d_model, core::Rng& rng);
  tensor::Tensor forward(int action) const;  // -> [1, d_model]
  /// Graph-free forward: action -> token [d_model].
  void forward_rows(int action, std::span<float> token) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::shared_ptr<nn::Embedding> table_;
  std::shared_ptr<nn::LayerNorm> norm_;
};

}  // namespace netllm::adapt
