#include "nn/vit.hpp"

#include <stdexcept>

namespace netllm::nn {

namespace {
using namespace netllm::tensor;
}  // namespace

ViTLite::ViTLite(const ViTConfig& cfg, core::Rng& rng) : cfg_(cfg) {
  if (cfg.image_size % cfg.patch_size != 0) {
    throw std::invalid_argument("ViTLite: image_size must be divisible by patch_size");
  }
  const auto patch_dim = cfg.patch_size * cfg.patch_size;
  patch_embed_ = std::make_shared<Linear>(patch_dim, cfg.d_model, rng);
  pos_embed_ = Tensor::randn({num_patches(), cfg.d_model}, rng, 0.02f, true);
  for (std::int64_t i = 0; i < cfg.n_layers; ++i) {
    blocks_.push_back(std::make_shared<TransformerBlock>(cfg.d_model, cfg.n_heads, cfg.d_ff,
                                                         /*causal=*/false, rng));
  }
  final_ln_ = std::make_shared<LayerNorm>(cfg.d_model);
}

std::int64_t ViTLite::num_patches() const {
  const auto per_side = cfg_.image_size / cfg_.patch_size;
  return per_side * per_side;
}

namespace {

/// Rearrange an [image_size, image_size] image into [P, p*p] patch rows
/// (pure data movement).
void patchify(const float* img, std::int64_t image_size, std::int64_t p, float* patches) {
  const auto per_side = image_size / p;
  for (std::int64_t py = 0; py < per_side; ++py) {
    for (std::int64_t px = 0; px < per_side; ++px) {
      const auto patch_idx = py * per_side + px;
      for (std::int64_t y = 0; y < p; ++y) {
        for (std::int64_t x = 0; x < p; ++x) {
          patches[patch_idx * p * p + y * p + x] = img[(py * p + y) * image_size + (px * p + x)];
        }
      }
    }
  }
}

}  // namespace

Tensor ViTLite::forward_patches(const Tensor& image) const {
  if (image.rank() != 2 || image.dim(0) != cfg_.image_size || image.dim(1) != cfg_.image_size) {
    throw std::invalid_argument("ViTLite: expected square [image_size, image_size] input");
  }
  const auto p = cfg_.patch_size;
  // The image is an input, not a parameter, so no gradient is needed
  // through the patch rearrangement.
  std::vector<float> patches(static_cast<std::size_t>(num_patches() * p * p));
  patchify(image.data().data(), cfg_.image_size, p, patches.data());
  auto tokens = patch_embed_->forward(Tensor::from(std::move(patches), {num_patches(), p * p}));
  tokens = add(tokens, pos_embed_);
  for (const auto& block : blocks_) tokens = block->forward(tokens);
  return final_ln_->forward(tokens);
}

Tensor ViTLite::forward_pooled(const Tensor& image) const {
  return mean_over_rows(forward_patches(image));
}

void ViTLite::forward_pooled_rows(std::span<const float> image, std::span<float> pooled) const {
  const auto n = num_patches(), d = cfg_.d_model, p = cfg_.patch_size;
  if (static_cast<std::int64_t>(image.size()) != cfg_.image_size * cfg_.image_size ||
      static_cast<std::int64_t>(pooled.size()) != d) {
    throw std::invalid_argument("ViTLite: expected square [image_size, image_size] input");
  }
  thread_local std::vector<float> patches, tokens, ln;
  patches.resize(static_cast<std::size_t>(n * p * p));
  tokens.resize(static_cast<std::size_t>(n * d));
  ln.resize(static_cast<std::size_t>(n * d));
  patchify(image.data(), cfg_.image_size, p, patches.data());
  patch_embed_->forward_rows(patches, n, tokens);
  const auto pos = pos_embed_.data();
  for (std::size_t j = 0; j < tokens.size(); ++j) tokens[j] = tokens[j] + pos[j];
  const KvSegment all{n, nullptr};
  for (const auto& block : blocks_) block->forward_rows(tokens, {&all, 1}, tokens);
  final_ln_->forward_rows(tokens, n, ln);
  mean_rows(ln.data(), n, d, pooled.data());
}

void ViTLite::collect_params(NamedParams& out, const std::string& prefix) const {
  patch_embed_->collect_params(out, prefix + "patch_embed.");
  out.emplace_back(prefix + "pos_embed", pos_embed_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->collect_params(out, prefix + "block" + std::to_string(i) + ".");
  }
  final_ln_->collect_params(out, prefix + "final_ln.");
}

}  // namespace netllm::nn
