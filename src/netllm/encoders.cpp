#include "netllm/encoders.hpp"

#include <stdexcept>
#include <vector>

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

void TimeSeriesEncoder::forward_rows(std::span<const float> series,
                                     std::span<float> token) const {
  if (static_cast<std::int64_t>(series.size()) != channels_ * length_) {
    throw std::invalid_argument("TimeSeriesEncoder: unexpected input shape");
  }
  thread_local std::vector<float> feat, proj;
  feat.resize(static_cast<std::size_t>(proj_->in_features()));
  proj.resize(token.size());
  conv_->forward_rows(series, length_, feat);
  relu_row(feat.data(), feat.data(), static_cast<std::int64_t>(feat.size()));
  proj_->forward_rows(feat, 1, proj);
  norm_->forward_rows(proj, 1, token);
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

void ScalarEncoder::forward_rows(std::span<const float> scalars, std::int64_t m,
                                 std::span<float> tokens) const {
  if (m < 1 || static_cast<std::int64_t>(scalars.size()) != m * inputs_) {
    throw std::invalid_argument("ScalarEncoder: expected [m, inputs]");
  }
  thread_local std::vector<float> hidden, proj;
  hidden.resize(tokens.size());
  proj.resize(tokens.size());
  fc_->forward_rows(scalars, m, hidden);
  relu_row(hidden.data(), hidden.data(), static_cast<std::int64_t>(hidden.size()));
  proj_->forward_rows(hidden, m, proj);
  norm_->forward_rows(proj, m, tokens);
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

void ImageEncoder::forward_rows(std::span<const float> image, std::span<float> token) const {
  thread_local std::vector<float> pooled, proj;
  pooled.resize(static_cast<std::size_t>(vit_->config().d_model));
  proj.resize(token.size());
  vit_->forward_pooled_rows(image, pooled);
  proj_->forward_rows(pooled, 1, proj);
  norm_->forward_rows(proj, 1, token);
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

void GraphTokenEncoder::forward_rows(std::span<const float> features,
                                     const nn::DagTopology& topo, std::span<float> global_token,
                                     std::span<float> node_embeddings) const {
  thread_local std::vector<float> summary, proj;
  summary.resize(static_cast<std::size_t>(gnn_dim()));
  proj.resize(global_token.size());
  gnn_->forward_rows(features, topo, node_embeddings, summary);
  proj_->forward_rows(summary, 1, proj);
  norm_->forward_rows(proj, 1, global_token);
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

void ActionEncoder::forward_rows(int action, std::span<float> token) const {
  thread_local std::vector<float> row;
  row.resize(token.size());
  const int ids[] = {action};
  table_->forward_rows(ids, row);
  norm_->forward_rows(row, 1, token);
}

void ActionEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  table_->collect_params(out, prefix + "table.");
  norm_->collect_params(out, prefix + "norm.");
}

}  // namespace netllm::adapt
