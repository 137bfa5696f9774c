#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/kernels.hpp"

namespace netllm::nn {

namespace {
using namespace netllm::tensor;

void check_rows(std::span<const float> x, std::int64_t in, std::int64_t m, std::span<float> y,
                std::int64_t out, const char* what) {
  if (static_cast<std::int64_t>(x.size()) != m * in ||
      static_cast<std::int64_t>(y.size()) != m * out) {
    throw std::invalid_argument(std::string(what) + ": row width mismatch");
  }
}

}  // namespace

Linear::Linear(std::int64_t in, std::int64_t out, core::Rng& rng, bool bias) {
  if (in <= 0 || out <= 0) throw std::invalid_argument("Linear: non-positive dims");
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  weight_ = Tensor::rand_uniform({in, out}, rng, bound, /*requires_grad=*/true);
  if (bias) bias_ = Tensor::zeros({out}, /*requires_grad=*/true);
}

Tensor Linear::forward(const Tensor& x) const {
  Tensor y;
  if (quantized()) {
    y = quant::qmatmul(x, qweight_);
  } else {
    y = matmul(x, weight_);
  }
  if (bias_.defined()) y = add_bias(y, bias_);
  return y;
}

void Linear::forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const {
  const auto in = in_features(), out = out_features();
  check_rows(x, in, m, y, out, "Linear::forward_rows");
  std::fill(y.begin(), y.end(), 0.0f);
  if (quantized()) {
    quant::qmatmul_accum(x.data(), m, qweight_, y.data());
  } else {
    kernels::matmul_accum(x.data(), weight_.data().data(), y.data(), m, in, out);
  }
  if (bias_.defined()) {
    const auto b = bias_.data();
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < out; ++j) y[i * out + j] = y[i * out + j] + b[j];
    }
  }
}

void Linear::set_weight_dtype(quant::Dtype d) {
  weight_dtype_ = d;
  if (d == quant::Dtype::kF32) {
    qweight_ = quant::QTensor{};
    quant_active_ = false;
    return;
  }
  requantize();
  quant_active_ = true;
}

void Linear::requantize() {
  if (weight_dtype_ == quant::Dtype::kF32) return;
  // qmatmul wants the weight transposed (one row per output feature, blocks
  // along `in`), so quantize W^T rather than the [in,out] master layout.
  const auto in = weight_.dim(0), out = weight_.dim(1);
  std::vector<float> wt(static_cast<std::size_t>(in * out));
  const auto src = weight_.data();
  for (std::int64_t i = 0; i < in; ++i) {
    for (std::int64_t j = 0; j < out; ++j) wt[j * in + i] = src[i * out + j];
  }
  qweight_ = quant::quantize(weight_dtype_, wt.data(), out, in);
}

void Linear::collect_params(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + "weight", weight_);
  if (bias_.defined()) out.emplace_back(prefix + "bias", bias_);
}

LoRALinear::LoRALinear(std::shared_ptr<Linear> base, std::int64_t rank, float alpha,
                       core::Rng& rng)
    : base_(std::move(base)) {
  if (!base_) throw std::invalid_argument("LoRALinear: null base");
  if (rank <= 0) throw std::invalid_argument("LoRALinear: rank must be positive");
  const auto in = base_->in_features();
  const auto out = base_->out_features();
  // Standard LoRA init: A ~ N(0, 0.02), B = 0 -> delta starts at zero.
  a_ = Tensor::randn({in, rank}, rng, 0.02f, /*requires_grad=*/true);
  b_ = Tensor::zeros({rank, out}, /*requires_grad=*/true);
  scaling_ = alpha / static_cast<float>(rank);
}

Tensor LoRALinear::forward(const Tensor& x) const {
  auto y = base_->forward(x);
  auto delta = matmul(matmul(x, a_), b_);
  return add(y, scale(delta, scaling_));
}

void LoRALinear::forward_rows(std::span<const float> x, std::int64_t m,
                              std::span<float> y) const {
  const LoRALinear* one[] = {this};
  const std::span<float> ys[] = {y};
  forward_rows(one, x, m, ys);
}

void LoRALinear::forward_rows(std::span<const LoRALinear* const> lora, std::span<const float> x,
                              std::int64_t m, std::span<const std::span<float>> ys) {
  if (lora.empty() || lora.size() > 3 || ys.size() != lora.size()) {
    throw std::invalid_argument("LoRALinear::forward_rows: 1 to 3 layers, one output each");
  }
  const auto& first = *lora.front();
  const auto in = first.base_->in_features(), out = first.base_->out_features();
  const auto r = first.rank();
  const bool quantized = first.base_->quantized();
  kernels::LoraProjection projs[3];
  for (std::size_t i = 0; i < lora.size(); ++i) {
    const auto& l = *lora[i];
    const auto& base = *l.base_;
    if (base.in_features() != in || base.out_features() != out || l.rank() != r ||
        base.quantized() != quantized) {
      throw std::invalid_argument(
          "LoRALinear::forward_rows: layers must share widths, rank and base dtype path");
    }
    check_rows(x, in, m, ys[i], out, "LoRALinear::forward_rows");
    auto& p = projs[i];
    if (quantized) {
      base.forward_rows(x, m, ys[i]);  // qmatmul and bias; the slot adds the delta
    } else {
      p.w = base.weight().data().data();
      if (base.bias().defined()) p.bias = base.bias().data().data();
    }
    p.a = l.a_.data().data();
    p.b = l.b_.data().data();
    p.scale = l.scaling_;
    p.y = ys[i].data();
  }
  kernels::lora_projections(x.data(), m, in, out, r, projs, static_cast<int>(lora.size()));
}

void LoRALinear::collect_params(NamedParams& out, const std::string& prefix) const {
  base_->collect_params(out, prefix + "base.");
  out.emplace_back(prefix + "lora_a", a_);
  out.emplace_back(prefix + "lora_b", b_);
}

LayerNorm::LayerNorm(std::int64_t dim) {
  if (dim <= 0) throw std::invalid_argument("LayerNorm: non-positive dim");
  gamma_ = Tensor::full({dim}, 1.0f, /*requires_grad=*/true);
  beta_ = Tensor::zeros({dim}, /*requires_grad=*/true);
}

Tensor LayerNorm::forward(const Tensor& x) const { return layer_norm_rows(x, gamma_, beta_); }

void LayerNorm::forward_rows(std::span<const float> x, std::int64_t m,
                             std::span<float> y) const {
  const auto n = gamma_.dim(0);
  check_rows(x, n, m, y, n, "LayerNorm::forward_rows");
  for (std::int64_t i = 0; i < m; ++i) {
    layer_norm_row(x.data() + i * n, gamma_.data().data(), beta_.data().data(), y.data() + i * n,
                   n);
  }
}

void LayerNorm::collect_params(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + "gamma", gamma_);
  out.emplace_back(prefix + "beta", beta_);
}

Embedding::Embedding(std::int64_t vocab, std::int64_t dim, core::Rng& rng) {
  if (vocab <= 0 || dim <= 0) throw std::invalid_argument("Embedding: non-positive dims");
  weight_ = Tensor::randn({vocab, dim}, rng, 0.02f, /*requires_grad=*/true);
}

Tensor Embedding::forward(std::span<const int> ids) const { return embedding(weight_, ids); }

void Embedding::forward_rows(std::span<const int> ids, std::span<float> y) const {
  const auto v = weight_.dim(0), d = weight_.dim(1);
  if (static_cast<std::int64_t>(y.size()) != static_cast<std::int64_t>(ids.size()) * d) {
    throw std::invalid_argument("Embedding::forward_rows: row width mismatch");
  }
  const auto w = weight_.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int64_t id = ids[i];
    if (id < 0 || id >= v) throw std::invalid_argument("embedding: id out of range");
    std::copy(w.begin() + id * d, w.begin() + (id + 1) * d,
              y.begin() + static_cast<std::ptrdiff_t>(i) * d);
  }
}

void Embedding::collect_params(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + "weight", weight_);
}

Conv1d::Conv1d(std::int64_t cin, std::int64_t cout, std::int64_t kernel, core::Rng& rng) {
  if (cin <= 0 || cout <= 0 || kernel <= 0) {
    throw std::invalid_argument("Conv1d: non-positive dims");
  }
  const float bound = std::sqrt(6.0f / static_cast<float>(cin * kernel + cout * kernel));
  weight_ = Tensor::rand_uniform({cout, cin, kernel}, rng, bound, /*requires_grad=*/true);
  bias_ = Tensor::zeros({cout}, /*requires_grad=*/true);
  pad_ = static_cast<int>(kernel / 2);
}

Tensor Conv1d::forward(const Tensor& x) const { return conv1d(x, weight_, bias_, pad_); }

void Conv1d::forward_rows(std::span<const float> x, std::int64_t t, std::span<float> y) const {
  const auto cout = weight_.dim(0), cin = weight_.dim(1), k = weight_.dim(2);
  const auto t_out = t + 2 * pad_ - k + 1;
  if (t_out < 1 || static_cast<std::int64_t>(x.size()) != cin * t ||
      static_cast<std::int64_t>(y.size()) != cout * t_out) {
    throw std::invalid_argument("Conv1d::forward_rows: shape mismatch");
  }
  conv1d_rows(x.data(), weight_.data().data(), bias_.data().data(), cin, t, cout, k, pad_,
              y.data());
}

void Conv1d::collect_params(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + "weight", weight_);
  out.emplace_back(prefix + "bias", bias_);
}

Tensor apply_activation(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return relu(x);
    case Activation::kGelu:
      return gelu(x);
    case Activation::kTanh:
      return tanh_t(x);
  }
  throw std::logic_error("apply_activation: unknown activation");
}

void apply_activation_rows(std::span<float> x, Activation act) {
  const auto n = static_cast<std::int64_t>(x.size());
  switch (act) {
    case Activation::kRelu:
      return relu_row(x.data(), x.data(), n);
    case Activation::kGelu:
      return gelu_row(x.data(), x.data(), n);
    case Activation::kTanh:
      return kernels::tanh_row(x.data(), x.data(), n);
  }
  throw std::logic_error("apply_activation_rows: unknown activation");
}

Mlp::Mlp(std::vector<std::int64_t> dims, core::Rng& rng, Activation act) : act_(act) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need at least [in, out]");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_shared<Linear>(dims[i], dims[i + 1], rng));
  }
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->forward(h);
    if (i + 1 < layers_.size()) h = apply_activation(h, act_);
  }
  return h;
}

void Mlp::forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const {
  // Hidden rows ping-pong between two per-thread buffers; only the last
  // layer writes y.
  thread_local std::vector<float> bufs[2];
  std::span<const float> h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const auto& layer = *layers_[i];
    if (i + 1 == layers_.size()) return layer.forward_rows(h, m, y);
    auto& buf = bufs[i % 2];
    buf.resize(static_cast<std::size_t>(m * layer.out_features()));
    layer.forward_rows(h, m, buf);
    apply_activation_rows(buf, act_);
    h = buf;
  }
}

void Mlp::collect_params(NamedParams& out, const std::string& prefix) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->collect_params(out, prefix + "fc" + std::to_string(i) + ".");
  }
}

}  // namespace netllm::nn
