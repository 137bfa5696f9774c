#include "nn/transformer.hpp"

#include <algorithm>
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

/// Per-thread scratch rows for the graph-free forward. A buffer's capacity
/// only grows, so a warm thread's pass allocates nothing but its returned
/// rows. Separate buffers per role keep the block's rows and the attention
/// rows it nests from aliasing.
struct RowsWorkspace {
  std::vector<float> ln, attn, h, ff1, ff2;  // TransformerBlock::forward_rows
  std::vector<float> xq, q, k, v, ctx;       // MultiHeadAttention::forward_rows

  static RowsWorkspace& local() {
    thread_local RowsWorkspace ws;
    return ws;
  }
};

/// The first n floats of `buf`, grown (never shrunk) to hold them: a pass
/// that needs fewer rows, as the last-row block does, keeps the size, so a
/// longer pass later grows geometrically from it rather than to exactly n.
/// Unfilled: every buffer of the pass is written whole before it is read
/// (Linear::forward_rows fills its output, attend_head zeroes its ctx
/// columns on every tier, the loops write the rest).
std::span<float> sized(std::vector<float>& buf, std::int64_t n) {
  const auto count = static_cast<std::size_t>(n);
  if (buf.size() < count) buf.resize(count);
  return std::span<float>(buf).first(count);
}

void project_rows(const std::shared_ptr<Linear>& base, const std::shared_ptr<LoRALinear>& lora,
                  std::span<const float> x, std::int64_t m, std::span<float> y) {
  if (lora) {
    lora->forward_rows(x, m, y);
  } else {
    base->forward_rows(x, m, y);
  }
}

/// One projection of rows that others read too.
struct SharedProjection {
  const Linear* base;
  const LoRALinear* lora;  // null: the base alone
  std::span<float> y;
};

/// Projections of the same rows x (Q, K and V): the LoRA-wrapped ones in
/// one fused slot call, the rest through Linear::forward_rows.
void project_shared(std::span<const SharedProjection> projs, std::span<const float> x,
                    std::int64_t m) {
  const LoRALinear* lora[3];
  std::span<float> ys[3];
  std::size_t n = 0;
  for (const auto& p : projs) {
    if (p.lora) {
      lora[n] = p.lora;
      ys[n++] = p.y;
    } else {
      p.base->forward_rows(x, m, p.y);
    }
  }
  if (n > 0) LoRALinear::forward_rows({lora, n}, x, m, {ys, n});
}

/// m > 0 input rows of d_model in x and out_rows of them in y.
void check_rows(std::span<const float> x, std::int64_t m, std::span<float> y,
                std::int64_t out_rows, std::int64_t d_model, const char* what) {
  if (m <= 0 || static_cast<std::int64_t>(x.size()) != m * d_model ||
      static_cast<std::int64_t>(y.size()) != out_rows * d_model) {
    throw std::invalid_argument(std::string(what) + ": expected m > 0 rows of d_model");
  }
}

/// Rows of a stacked pass: the sum of its segments' rows, each positive.
std::int64_t total_rows(std::span<const KvSegment> segments) {
  std::int64_t m = 0;
  for (const auto& seg : segments) {
    if (seg.rows <= 0) throw std::invalid_argument("forward_rows: empty segment");
    m += seg.rows;
  }
  return m;
}

void check_input(const Tensor& x, std::int64_t d_model, const char* what) {
  if (x.rank() != 2 || x.dim(1) != d_model) {
    throw std::invalid_argument(std::string(what) + ": expected [T, d_model] input");
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
  append_rows(k_row, v_row, 1);
}

void KvCache::append_rows(std::span<const float> k_rows, std::span<const float> v_rows,
                          std::int64_t rows) {
  if (d_model == 0 && rows > 0) d_model = static_cast<std::int64_t>(k_rows.size()) / rows;
  if (rows < 0 || static_cast<std::int64_t>(k_rows.size()) != rows * d_model ||
      static_cast<std::int64_t>(v_rows.size()) != rows * d_model) {
    throw std::invalid_argument("KvCache::append: row width does not match d_model");
  }
  k_.insert(k_.end(), k_rows.begin(), k_rows.end());
  v_.insert(v_.end(), v_rows.begin(), v_rows.end());
  len += rows;
  // KV-cache growth feeds capacity planning: rows resident per decode and
  // the bytes they pin (K and V) are the §10/§13 memory budget inputs.
  static core::metrics::Counter& rows_counter = core::metrics::counter("kv.appended_rows");
  static core::metrics::Counter& bytes = core::metrics::counter("kv.appended_bytes");
  rows_counter.add(rows);
  bytes.add(static_cast<std::int64_t>(2 * sizeof(float)) * d_model * rows);
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

Tensor MultiHeadAttention::forward(const Tensor& x) const {
  check_input(x, d_model_, "MultiHeadAttention");
  const auto q = project(wq_, lq_, x);
  const auto k = project(wk_, lk_, x);
  const auto v = project(wv_, lv_, x);
  return attend(q, k, v);
}

Tensor MultiHeadAttention::forward(const Tensor& x, KvCache* cache) const {
  check_input(x, d_model_, "MultiHeadAttention");
  auto y = Tensor::zeros(x.shape());
  forward_rows(x.data(), x.dim(0), cache, y.mutable_data());
  return y;
}

Tensor MultiHeadAttention::forward_step(const Tensor& x_t, KvCache& cache) const {
  check_step_input(x_t, d_model_, "MultiHeadAttention::forward_step");
  return forward(x_t, &cache);
}

void MultiHeadAttention::forward_rows(std::span<const float> x,
                                      std::span<const KvSegment> segments,
                                      std::span<float> y) const {
  attend_rows(x, segments, y, /*last_only=*/false);
}

void MultiHeadAttention::attend_rows(std::span<const float> x,
                                     std::span<const KvSegment> segments, std::span<float> y,
                                     bool last_only) const {
  // The ops of `attend` for m query rows, on raw buffers, with every
  // element computed by the same sequence. With one segment of m = T over
  // an empty cache those are exactly the Tensor-op shapes; with m = 1 the
  // [1, len] score row equals the matching row of the full product. Row i
  // of a segment sits at absolute position len - rows + i of its cache and
  // sees that many columns plus itself, so its causal softmax is the row
  // the full forward computes, and the masked zeros add 0 * v exactly as
  // the full attn V does. The projections are row-wise, and every kernel
  // tier computes each output element by one sequence for any m (DESIGN.md
  // §10), so stacking segments changes no bit of any of them. Each head
  // reads its columns of the Q rows and of the cache's K/V rows in place
  // (kernels::attend_head) and writes its columns of ctx. Q, K and V read
  // the same rows, so a LoRA-wrapped block runs them as one fused slot.
  //
  // Non-causal attention (ViT-lite) runs each query row as its own
  // attend_head call with rows = 1 and len = the segment's rows: that row
  // sits at the last position and so sees every key, and its softmax over
  // all of them is the softmax_rows row of the Tensor-op forward. The last
  // row of a causal segment is the same call: with last_only, Q, the
  // attention and O run for those rows alone, gathered one per segment.
  const auto m = total_rows(segments);
  const auto n_seg = static_cast<std::int64_t>(segments.size());
  const auto out_rows = last_only ? n_seg : m;
  check_rows(x, m, y, out_rows, d_model_, "MultiHeadAttention::forward_rows");
  if (!causal_) {
    for (const auto& seg : segments) {
      if (seg.cache) {
        throw std::invalid_argument(
            "MultiHeadAttention::forward_rows: non-causal attention takes no cache");
      }
    }
  }
  auto& ws = RowsWorkspace::local();
  const auto d = d_model_, dh = d_head_;
  const auto du = static_cast<std::size_t>(d);
  const auto q = sized(ws.q, out_rows * d), k = sized(ws.k, m * d), v = sized(ws.v, m * d);
  if (last_only) {
    const auto xq = sized(ws.xq, n_seg * d);
    std::int64_t row0 = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      row0 += segments[s].rows;
      std::copy_n(x.begin() + static_cast<std::ptrdiff_t>((row0 - 1) * d), d,
                  xq.begin() + static_cast<std::ptrdiff_t>(s * du));
    }
    const SharedProjection kv[] = {{wk_.get(), lk_.get(), k}, {wv_.get(), lv_.get(), v}};
    project_shared(kv, x, m);
    project_rows(wq_, lq_, xq, n_seg, q);
  } else {
    const SharedProjection qkv[] = {
        {wq_.get(), lq_.get(), q}, {wk_.get(), lk_.get(), k}, {wv_.get(), lv_.get(), v}};
    project_shared(qkv, x, m);
  }
  const auto ctx = sized(ws.ctx, out_rows * d);
  std::int64_t row0 = 0;  // the segment's first row in the stacked pass
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto rows = segments[s].rows;
    KvCache* cache = segments[s].cache;
    const float* kc = k.data() + row0 * d;
    const float* vc = v.data() + row0 * d;
    std::int64_t len = rows;
    if (cache) {
      const auto off = static_cast<std::size_t>(row0) * du;
      const auto n = static_cast<std::size_t>(rows) * du;
      cache->append_rows(k.subspan(off, n), v.subspan(off, n), rows);
      kc = cache->k().data();
      vc = cache->v().data();
      len = cache->len;
    }
    for (std::int64_t h = 0; h < n_heads_; ++h) {
      const auto col = h * dh;
      if (last_only) {
        const auto at = static_cast<std::int64_t>(s) * d + col;
        kernels::attend_head(q.data() + at, kc + col, vc + col, ctx.data() + at, d, dh, 1, len);
      } else if (causal_) {
        kernels::attend_head(q.data() + row0 * d + col, kc + col, vc + col,
                             ctx.data() + row0 * d + col, d, dh, rows, len);
      } else {
        for (std::int64_t i = row0; i < row0 + rows; ++i) {
          kernels::attend_head(q.data() + i * d + col, kc + col, vc + col,
                               ctx.data() + i * d + col, d, dh, 1, len);
        }
      }
    }
    row0 += rows;
  }
  project_rows(wo_, lo_, ctx, out_rows, y);
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

Tensor TransformerBlock::forward(const Tensor& x) const {
  auto h = add(x, attn_->forward(ln1_->forward(x)));
  return add(h, ff(ln2_->forward(h)));
}

Tensor TransformerBlock::forward(const Tensor& x, KvCache* cache) const {
  check_input(x, attn_->d_model_, "TransformerBlock");
  auto y = Tensor::zeros(x.shape());
  forward_rows(x.data(), x.dim(0), cache, y.mutable_data());
  return y;
}

Tensor TransformerBlock::forward_step(const Tensor& x_t, KvCache& cache) const {
  check_step_input(x_t, attn_->d_model_, "TransformerBlock::forward_step");
  return forward(x_t, &cache);
}

void TransformerBlock::forward_rows(std::span<const float> x,
                                    std::span<const KvSegment> segments,
                                    std::span<float> y) const {
  block_rows(x, segments, y, /*last_only=*/false);
}

void TransformerBlock::forward_last_rows(std::span<const float> x,
                                         std::span<const KvSegment> segments,
                                         std::span<float> y) const {
  block_rows(x, segments, y, /*last_only=*/true);
}

void TransformerBlock::block_rows(std::span<const float> x, std::span<const KvSegment> segments,
                                  std::span<float> y, bool last_only) const {
  // layer_norm, the residual adds, gelu and the MLP are row-wise; attention
  // is the only cross-row op and reads each segment's cache. With last_only
  // everything after the attention runs on one row per segment, the
  // residual reading each segment's last row of x. x is last read by the
  // first residual add, so y may alias it.
  const auto d = attn_->d_model_, d_ff = fc1_->out_features();
  const auto m = total_rows(segments);
  const auto rows = last_only ? static_cast<std::int64_t>(segments.size()) : m;
  check_rows(x, m, y, rows, d, "TransformerBlock::forward_rows");
  auto& ws = RowsWorkspace::local();
  const auto du = static_cast<std::size_t>(d);
  const auto n = static_cast<std::size_t>(rows) * du;
  const auto ln = sized(ws.ln, m * d), a = sized(ws.attn, rows * d), h = sized(ws.h, rows * d);
  ln1_->forward_rows(x, m, ln);
  attn_->attend_rows(ln, segments, a, last_only);
  if (last_only) {
    std::int64_t row0 = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      row0 += segments[s].rows;
      const auto xr = x.subspan(static_cast<std::size_t>(row0 - 1) * du, du);
      for (std::size_t c = 0; c < du; ++c) h[s * du + c] = xr[c] + a[s * du + c];
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) h[j] = x[j] + a[j];
  }
  const auto ln2 = ln.first(n);  // the attention is done with ln1's rows
  ln2_->forward_rows(h, rows, ln2);
  const auto f1 = sized(ws.ff1, rows * d_ff), f2 = sized(ws.ff2, rows * d);
  project_rows(fc1_, lfc1_, ln2, rows, f1);
  gelu_row(f1.data(), f1.data(), rows * d_ff);
  project_rows(fc2_, lfc2_, f1, rows, f2);
  for (std::size_t j = 0; j < n; ++j) y[j] = h[j] + f2[j];
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
