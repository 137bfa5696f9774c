#include "netllm/encoders.hpp"

#include <stdexcept>

#include "envs/vp/viewport.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;
}  // namespace

TimeSeriesEncoder::TimeSeriesEncoder(std::int64_t channels, std::int64_t length,
                                     std::int64_t d_model, core::Rng& rng,
                                     std::int64_t conv_channels, std::int64_t kernel)
    : channels_(channels), length_(length) {
  conv_ = std::make_shared<nn::Conv1d>(channels, conv_channels, kernel, rng);
  proj_ = std::make_shared<nn::Linear>(conv_channels * length, d_model, rng);
  norm_ = std::make_shared<nn::LayerNorm>(d_model);
}

Tensor TimeSeriesEncoder::forward(const Tensor& series) const {
  if (series.rank() != 2 || series.dim(0) != channels_ || series.dim(1) != length_) {
    throw std::invalid_argument("TimeSeriesEncoder: unexpected input shape");
  }
  auto feat = relu(conv_->forward(series));                       // [Cc, T]
  auto flat = reshape(feat, {1, feat.numel()});                   // [1, Cc*T]
  return norm_->forward(proj_->forward(flat));                    // [1, d_model]
}

void TimeSeriesEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  conv_->collect_params(out, prefix + "conv.");
  proj_->collect_params(out, prefix + "proj.");
  norm_->collect_params(out, prefix + "norm.");
}

ScalarEncoder::ScalarEncoder(std::int64_t inputs, std::int64_t d_model, core::Rng& rng)
    : inputs_(inputs) {
  fc_ = std::make_shared<nn::Linear>(inputs, d_model, rng);
  proj_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  norm_ = std::make_shared<nn::LayerNorm>(d_model);
}

Tensor ScalarEncoder::forward(const Tensor& scalars) const {
  if (scalars.rank() != 2 || scalars.dim(0) < 1 || scalars.dim(1) != inputs_) {
    throw std::invalid_argument("ScalarEncoder: expected [m, inputs]");
  }
  return norm_->forward(proj_->forward(relu(fc_->forward(scalars))));
}

Tensor ScalarEncoder::forward(std::span<const float> scalars) const {
  return forward(Tensor::from(std::vector<float>(scalars.begin(), scalars.end()),
                              {1, static_cast<std::int64_t>(scalars.size())}));
}

void ScalarEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  fc_->collect_params(out, prefix + "fc.");
  proj_->collect_params(out, prefix + "proj.");
  norm_->collect_params(out, prefix + "norm.");
}

ImageEncoder::ImageEncoder(std::int64_t d_model, core::Rng& rng, bool freeze_vit) {
  nn::ViTConfig cfg;
  cfg.image_size = vp::kSaliencySize;
  cfg.patch_size = 4;
  cfg.d_model = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 64;
  vit_ = std::make_shared<nn::ViTLite>(cfg, rng);
  if (freeze_vit) vit_->freeze();
  proj_ = std::make_shared<nn::Linear>(cfg.d_model, d_model, rng);
  norm_ = std::make_shared<nn::LayerNorm>(d_model);
}

Tensor ImageEncoder::forward(const Tensor& image) const {
  return norm_->forward(proj_->forward(vit_->forward_pooled(image)));
}

void ImageEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  vit_->collect_params(out, prefix + "vit.");
  proj_->collect_params(out, prefix + "proj.");
  norm_->collect_params(out, prefix + "norm.");
}

GraphTokenEncoder::GraphTokenEncoder(std::int64_t feature_dim, std::int64_t d_model,
                                     core::Rng& rng, std::int64_t gnn_dim) {
  gnn_ = std::make_shared<nn::GraphEncoder>(feature_dim, gnn_dim, rng);
  proj_ = std::make_shared<nn::Linear>(gnn_dim, d_model, rng);
  norm_ = std::make_shared<nn::LayerNorm>(d_model);
}

GraphTokenEncoder::Output GraphTokenEncoder::forward(const Tensor& features,
                                                     const nn::DagTopology& topo) const {
  auto enc = gnn_->forward(features, topo);
  Output out;
  out.global_token = norm_->forward(proj_->forward(enc.global_summary));
  out.node_embeddings = enc.node_embeddings;
  return out;
}

std::int64_t GraphTokenEncoder::gnn_dim() const { return gnn_->embed_dim(); }

void GraphTokenEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  gnn_->collect_params(out, prefix + "gnn.");
  proj_->collect_params(out, prefix + "proj.");
  norm_->collect_params(out, prefix + "norm.");
}

ActionEncoder::ActionEncoder(std::int64_t num_actions, std::int64_t d_model, core::Rng& rng) {
  table_ = std::make_shared<nn::Embedding>(num_actions, d_model, rng);
  norm_ = std::make_shared<nn::LayerNorm>(d_model);
}

Tensor ActionEncoder::forward(int action) const {
  const int ids[] = {action};
  return norm_->forward(table_->forward(ids));
}

void ActionEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  table_->collect_params(out, prefix + "table.");
  norm_->collect_params(out, prefix + "norm.");
}

}  // namespace netllm::adapt
