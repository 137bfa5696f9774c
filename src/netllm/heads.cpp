#include "netllm/heads.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/kernels.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;

// A non-finite logit means upstream corruption (a poisoned backbone or
// encoder), and argmax over NaNs would silently pick index 0 — surface it
// instead so the guarded-inference layer can fall back.
void require_finite_logits(std::span<const float> logits, const char* who) {
  for (float v : logits) {
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string(who) + ": non-finite logits");
    }
  }
}

/// The first index of the largest logit (a later equal one does not win).
int first_max(std::span<const float> logits) {
  int best = 0;
  for (std::size_t j = 1; j < logits.size(); ++j) {
    if (logits[j] > logits[static_cast<std::size_t>(best)]) best = static_cast<int>(j);
  }
  return best;
}

}  // namespace

RegressionHead::RegressionHead(std::int64_t d_model, std::int64_t outputs, core::Rng& rng) {
  fc_ = std::make_shared<nn::Linear>(d_model, outputs, rng);
}

Tensor RegressionHead::forward(const Tensor& features) const { return fc_->forward(features); }

void RegressionHead::forward_rows(std::span<const float> features, std::int64_t m,
                                  std::span<float> answers) const {
  fc_->forward_rows(features, m, answers);
}

void RegressionHead::collect_params(NamedParams& out, const std::string& prefix) const {
  fc_->collect_params(out, prefix + "fc.");
}

CategoricalHead::CategoricalHead(std::int64_t d_model, std::int64_t num_classes,
                                 core::Rng& rng) {
  fc_ = std::make_shared<nn::Linear>(d_model, num_classes, rng);
}

Tensor CategoricalHead::logits(const Tensor& features) const { return fc_->forward(features); }

int CategoricalHead::argmax(const Tensor& features) const {
  auto l = logits(features);
  if (l.dim(0) != 1) throw std::invalid_argument("CategoricalHead::argmax: single row expected");
  require_finite_logits(l.data(), "CategoricalHead::argmax");
  return first_max(l.data());
}

int CategoricalHead::argmax(std::span<const float> feature) const {
  thread_local std::vector<float> l;
  l.resize(static_cast<std::size_t>(fc_->out_features()));
  fc_->forward_rows(feature, 1, l);
  require_finite_logits(l, "CategoricalHead::argmax");
  return first_max(l);
}

void CategoricalHead::collect_params(NamedParams& out, const std::string& prefix) const {
  fc_->collect_params(out, prefix + "fc.");
}

PointerHead::PointerHead(std::int64_t d_model, std::int64_t candidate_dim, core::Rng& rng,
                         std::int64_t hidden) {
  feat_proj_ = std::make_shared<nn::Linear>(d_model, hidden, rng);
  cand_proj_ = std::make_shared<nn::Linear>(candidate_dim, hidden, rng);
  scorer_ = std::make_shared<nn::Mlp>(std::vector<std::int64_t>{hidden, hidden, 1}, rng);
}

Tensor PointerHead::logits(const Tensor& feature, const Tensor& candidates) const {
  if (feature.rank() != 2 || feature.dim(0) != 1) {
    throw std::invalid_argument("PointerHead: feature must be [1, d_model]");
  }
  const auto n = candidates.dim(0);
  auto f = feat_proj_->forward(feature);             // [1, hidden]
  auto c = cand_proj_->forward(candidates);          // [n, hidden]
  // Broadcast-add the feature onto every candidate row, then score.
  std::vector<Tensor> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) rows.push_back(f);
  auto joint = tanh_t(add(c, concat_rows(rows)));     // [n, hidden]
  return transpose(scorer_->forward(joint));          // [1, n]
}

int PointerHead::argmax(const Tensor& feature, const Tensor& candidates) const {
  auto l = logits(feature, candidates);
  require_finite_logits(l.data(), "PointerHead::argmax");
  return first_max(l.data());
}

int PointerHead::argmax(std::span<const float> feature, std::span<const float> candidates) const {
  const auto cd = cand_proj_->in_features(), hidden = feat_proj_->out_features();
  const auto n = static_cast<std::int64_t>(candidates.size()) / cd;
  if (n <= 0 || n * cd != static_cast<std::int64_t>(candidates.size())) {
    throw std::invalid_argument("PointerHead: candidates must be whole [n, candidate_dim] rows");
  }
  // logits: scorer(tanh(c + f)) over the candidate rows, f added to each.
  thread_local std::vector<float> f, joint, l;
  f.resize(static_cast<std::size_t>(hidden));
  joint.resize(static_cast<std::size_t>(n * hidden));
  l.resize(static_cast<std::size_t>(n));
  feat_proj_->forward_rows(feature, 1, f);
  cand_proj_->forward_rows(candidates, n, joint);
  for (std::size_t j = 0; j < joint.size(); ++j) {
    joint[j] = joint[j] + f[j % static_cast<std::size_t>(hidden)];
  }
  kernels::tanh_row(joint.data(), joint.data(), n * hidden);
  scorer_->forward_rows(joint, n, l);
  require_finite_logits(l, "PointerHead::argmax");
  return first_max(l);
}

void PointerHead::collect_params(NamedParams& out, const std::string& prefix) const {
  feat_proj_->collect_params(out, prefix + "feat_proj.");
  cand_proj_->collect_params(out, prefix + "cand_proj.");
  scorer_->collect_params(out, prefix + "scorer.");
}

}  // namespace netllm::adapt
