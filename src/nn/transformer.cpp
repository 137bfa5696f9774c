#include "nn/transformer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "tensor/kernels.hpp"

namespace netllm::nn {

namespace {
using namespace netllm::tensor;

/// Concatenate [T, d_i] tensors along columns via transpose + concat_rows.
Tensor concat_cols(const std::vector<Tensor>& xs) {
  std::vector<Tensor> transposed;
  transposed.reserve(xs.size());
  for (const auto& x : xs) transposed.push_back(transpose(x));
  return transpose(concat_rows(transposed));
}

/// Per-thread scratch rows for the graph-free decode step. A buffer's
/// capacity only grows, so a warm thread's step allocates nothing but its
/// returned row. Separate buffers per role keep the block's rows and the
/// attention rows it nests from aliasing.
struct StepWorkspace {
  std::vector<float> ln, attn, h, ff1, ff2;  // TransformerBlock::forward_step
  std::vector<float> q, k, v, ctx;           // MultiHeadAttention::step_row
  std::vector<float> kt, vh, scores;         // one head's gathered K^T, V and scores

  static StepWorkspace& local() {
    thread_local StepWorkspace ws;
    return ws;
  }
};

/// `buf` as n zeros (no reallocation once its capacity covers n).
std::span<float> zeroed(std::vector<float>& buf, std::int64_t n) {
  buf.assign(static_cast<std::size_t>(n), 0.0f);
  return buf;
}

void project_row(const std::shared_ptr<Linear>& base, const std::shared_ptr<LoRALinear>& lora,
                 std::span<const float> x, std::span<float> y) {
  if (lora) {
    lora->forward_row(x, y);
  } else {
    base->forward_row(x, y);
  }
}

void check_step_input(const Tensor& x_t, std::int64_t d_model, const char* what) {
  if (x_t.rank() != 2 || x_t.dim(0) != 1 || x_t.dim(1) != d_model) {
    throw std::invalid_argument(std::string(what) + ": expected [1, d_model] input");
  }
}

}  // namespace

void KvCache::clear() {
  len = 0;
  // Reset the width too: a cleared cache must be reusable with a
  // different-width model (the sticky d_model used to make the next append
  // throw "row width does not match d_model"). The buffers keep their
  // capacity.
  d_model = 0;
  k_.clear();
  v_.clear();
}

void KvCache::reserve(std::int64_t rows) {
  if (d_model <= 0) {
    throw std::invalid_argument("KvCache::reserve: d_model not set yet");
  }
  k_.reserve(static_cast<std::size_t>(rows * d_model));
  v_.reserve(static_cast<std::size_t>(rows * d_model));
}

void KvCache::append(std::span<const float> k_row, std::span<const float> v_row) {
  if (d_model == 0) d_model = static_cast<std::int64_t>(k_row.size());
  if (static_cast<std::int64_t>(k_row.size()) != d_model ||
      static_cast<std::int64_t>(v_row.size()) != d_model) {
    throw std::invalid_argument("KvCache::append: row width does not match d_model");
  }
  k_.insert(k_.end(), k_row.begin(), k_row.end());
  v_.insert(v_.end(), v_row.begin(), v_row.end());
  ++len;
  // KV-cache growth feeds capacity planning: rows resident per decode and
  // the bytes they pin (K and V) are the §10/§13 memory budget inputs.
  static core::metrics::Counter& rows = core::metrics::counter("kv.appended_rows");
  static core::metrics::Counter& bytes = core::metrics::counter("kv.appended_bytes");
  rows.add();
  bytes.add(static_cast<std::int64_t>(2 * sizeof(float)) * d_model);
}

std::int64_t KvCache::capacity_rows() const {
  return d_model > 0 ? static_cast<std::int64_t>(k_.capacity()) / d_model : 0;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model, std::int64_t n_heads, bool causal,
                                       core::Rng& rng)
    : d_model_(d_model), n_heads_(n_heads), d_head_(d_model / n_heads), causal_(causal) {
  if (d_model % n_heads != 0) {
    throw std::invalid_argument("MultiHeadAttention: d_model must be divisible by n_heads");
  }
  wq_ = std::make_shared<Linear>(d_model, d_model, rng);
  wk_ = std::make_shared<Linear>(d_model, d_model, rng);
  wv_ = std::make_shared<Linear>(d_model, d_model, rng);
  wo_ = std::make_shared<Linear>(d_model, d_model, rng);
}

Tensor MultiHeadAttention::project(const std::shared_ptr<Linear>& base,
                                   const std::shared_ptr<LoRALinear>& lora,
                                   const Tensor& x) const {
  return lora ? lora->forward(x) : base->forward(x);
}

Tensor MultiHeadAttention::attend(const Tensor& q, const Tensor& k, const Tensor& v) const {
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));

  // Heads are independent in the forward pass (they only read q/k/v and
  // build disjoint graph nodes), so they evaluate concurrently on the pool.
  // Tensor ops inside a head run inline (no nested parallelism), and the
  // result slot per head is fixed, so output order — and therefore the
  // autograd graph — is identical to the serial loop for any thread count.
  std::vector<Tensor> heads(static_cast<std::size_t>(n_heads_));
  core::parallel_for(n_heads_, 1, [&](std::int64_t h0, std::int64_t h1) {
    for (std::int64_t h = h0; h < h1; ++h) {
      const auto qh = slice_cols(q, h * d_head_, d_head_);
      const auto kh = slice_cols(k, h * d_head_, d_head_);
      const auto vh = slice_cols(v, h * d_head_, d_head_);
      auto scores = scale(matmul(qh, transpose(kh)), inv_sqrt);
      auto attn = causal_ ? causal_masked_softmax(scores) : softmax_rows(scores);
      heads[static_cast<std::size_t>(h)] = matmul(attn, vh);
    }
  });
  return project(wo_, lo_, concat_cols(heads));
}

Tensor MultiHeadAttention::forward(const Tensor& x, KvCache* cache) const {
  if (x.rank() != 2 || x.dim(1) != d_model_) {
    throw std::invalid_argument("MultiHeadAttention: expected [T, d_model] input");
  }
  const auto q = project(wq_, lq_, x);
  const auto k = project(wk_, lk_, x);
  const auto v = project(wv_, lv_, x);
  if (cache) {
    // Capture the K/V rows for incremental decoding. A [1, d] x [d, d]
    // matmul row accumulates in the same order as the matching row of the
    // full [T, d] x [d, d] product, so these rows are bitwise what
    // forward_step would have appended token by token.
    const std::size_t d = static_cast<std::size_t>(d_model_);
    for (std::int64_t i = 0; i < x.dim(0); ++i) {
      cache->append(k.data().subspan(static_cast<std::size_t>(i) * d, d),
                    v.data().subspan(static_cast<std::size_t>(i) * d, d));
    }
  }
  return attend(q, k, v);
}

Tensor MultiHeadAttention::forward_step(const Tensor& x_t, KvCache& cache) const {
  check_step_input(x_t, d_model_, "MultiHeadAttention::forward_step");
  auto y = Tensor::zeros({1, d_model_});
  step_row(x_t.data(), cache, y.mutable_data());
  return y;
}

void MultiHeadAttention::step_row(std::span<const float> x, KvCache& cache,
                                  std::span<float> y) const {
  // The step runs the ops of `attend` for one query row, on raw buffers and
  // in the same order, calling the same kernel entry points with the same
  // shapes: the projections, then per head scores = q_h K_h^T (matmul_accum
  // into a zeroed [1, len] row), scale, softmax, and attn V_h written into
  // the head's columns of the concatenated row. A full-row softmax over the
  // cache equals the causal-masked last row of the full forward: both run
  // softmax_row over the same len scores, and the masked zero weights of
  // earlier rows never reach this one.
  auto& ws = StepWorkspace::local();
  const auto d = d_model_, dh = d_head_;
  const auto q = zeroed(ws.q, d), k = zeroed(ws.k, d), v = zeroed(ws.v, d);
  project_row(wq_, lq_, x, q);
  project_row(wk_, lk_, x, k);
  project_row(wv_, lv_, x, v);
  cache.append(k, v);

  const auto len = cache.len;
  const float* kc = cache.k().data();
  const float* vc = cache.v().data();
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto ctx = zeroed(ws.ctx, d);
  for (std::int64_t h = 0; h < n_heads_; ++h) {
    const auto kt = zeroed(ws.kt, dh * len), vh = zeroed(ws.vh, len * dh);
    for (std::int64_t r = 0; r < len; ++r) {
      for (std::int64_t c = 0; c < dh; ++c) {
        kt[c * len + r] = kc[r * d + h * dh + c];
        vh[r * dh + c] = vc[r * d + h * dh + c];
      }
    }
    const auto scores = zeroed(ws.scores, len);
    kernels::matmul_accum(q.data() + h * dh, kt.data(), scores.data(), 1, dh, len);
    for (std::int64_t j = 0; j < len; ++j) scores[j] = scores[j] * inv_sqrt;
    softmax_row(scores.data(), scores.data(), len);
    kernels::matmul_accum(scores.data(), vh.data(), ctx.data() + h * dh, 1, len, dh);
  }
  project_row(wo_, lo_, ctx, y);
}

void MultiHeadAttention::collect_params(NamedParams& out, const std::string& prefix) const {
  // When LoRA wraps a projection, the LoRALinear reports both the (frozen)
  // base weights and its low-rank matrices; otherwise report the base alone.
  auto emit = [&](const char* name, const std::shared_ptr<Linear>& base,
                  const std::shared_ptr<LoRALinear>& lora) {
    if (lora) {
      lora->collect_params(out, prefix + name + std::string("."));
    } else {
      base->collect_params(out, prefix + name + std::string("."));
    }
  };
  emit("wq", wq_, lq_);
  emit("wk", wk_, lk_);
  emit("wv", wv_, lv_);
  emit("wo", wo_, lo_);
}

std::vector<Tensor> MultiHeadAttention::enable_lora(std::int64_t rank, float alpha,
                                                    core::Rng& rng) {
  lq_ = std::make_shared<LoRALinear>(wq_, rank, alpha, rng);
  lk_ = std::make_shared<LoRALinear>(wk_, rank, alpha, rng);
  lv_ = std::make_shared<LoRALinear>(wv_, rank, alpha, rng);
  lo_ = std::make_shared<LoRALinear>(wo_, rank, alpha, rng);
  std::vector<Tensor> lora;
  for (const auto& l : {lq_, lk_, lv_, lo_}) {
    for (auto& t : l->lora_parameters()) lora.push_back(t);
  }
  return lora;
}

TransformerBlock::TransformerBlock(std::int64_t d_model, std::int64_t n_heads, std::int64_t d_ff,
                                   bool causal, core::Rng& rng) {
  ln1_ = std::make_shared<LayerNorm>(d_model);
  ln2_ = std::make_shared<LayerNorm>(d_model);
  attn_ = std::make_shared<MultiHeadAttention>(d_model, n_heads, causal, rng);
  fc1_ = std::make_shared<Linear>(d_model, d_ff, rng);
  fc2_ = std::make_shared<Linear>(d_ff, d_model, rng);
}

Tensor TransformerBlock::ff(const Tensor& x) const {
  auto h = lfc1_ ? lfc1_->forward(x) : fc1_->forward(x);
  h = gelu(h);
  return lfc2_ ? lfc2_->forward(h) : fc2_->forward(h);
}

Tensor TransformerBlock::forward(const Tensor& x, KvCache* cache) const {
  auto h = add(x, attn_->forward(ln1_->forward(x), cache));
  return add(h, ff(ln2_->forward(h)));
}

Tensor TransformerBlock::forward_step(const Tensor& x_t, KvCache& cache) const {
  // layer_norm, the residual adds and the MLP are all row-wise, so running
  // them on the single new row produces the same floats as the last row of
  // the full-sequence forward; attention is the only cross-row op and goes
  // through the cache. Each op below is the raw-row form of the matching
  // Tensor op in `forward`, with the operands in the same order.
  const auto d = attn_->d_model_;
  check_step_input(x_t, d, "TransformerBlock::forward_step");
  auto& ws = StepWorkspace::local();
  const auto x = x_t.data();
  const auto ln = zeroed(ws.ln, d), a = zeroed(ws.attn, d), h = zeroed(ws.h, d);
  ln1_->forward_row(x, ln);
  attn_->step_row(ln, cache, a);
  for (std::int64_t j = 0; j < d; ++j) h[j] = x[j] + a[j];
  ln2_->forward_row(h, ln);  // the attention step is done with ln1's row
  const auto f1 = zeroed(ws.ff1, fc1_->out_features()), f2 = zeroed(ws.ff2, d);
  project_row(fc1_, lfc1_, ln, f1);
  gelu_row(f1.data(), f1.data(), fc1_->out_features());
  project_row(fc2_, lfc2_, f1, f2);
  auto y = Tensor::zeros({1, d});
  auto out = y.mutable_data();
  for (std::int64_t j = 0; j < d; ++j) out[j] = h[j] + f2[j];
  return y;
}

void TransformerBlock::collect_params(NamedParams& out, const std::string& prefix) const {
  ln1_->collect_params(out, prefix + "ln1.");
  attn_->collect_params(out, prefix + "attn.");
  ln2_->collect_params(out, prefix + "ln2.");
  if (lfc1_) {
    lfc1_->collect_params(out, prefix + "fc1.");
  } else {
    fc1_->collect_params(out, prefix + "fc1.");
  }
  if (lfc2_) {
    lfc2_->collect_params(out, prefix + "fc2.");
  } else {
    fc2_->collect_params(out, prefix + "fc2.");
  }
}

std::vector<Tensor> TransformerBlock::enable_lora(std::int64_t rank, float alpha,
                                                  core::Rng& rng) {
  auto lora = attn_->enable_lora(rank, alpha, rng);
  lfc1_ = std::make_shared<LoRALinear>(fc1_, rank, alpha, rng);
  lfc2_ = std::make_shared<LoRALinear>(fc2_, rank, alpha, rng);
  for (const auto& l : {lfc1_, lfc2_}) {
    for (auto& t : l->lora_parameters()) lora.push_back(t);
  }
  return lora;
}

}  // namespace netllm::nn
