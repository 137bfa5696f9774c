#include "llm/minigpt.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fault.hpp"
#include "core/trace.hpp"

namespace netllm::llm {

namespace {
using namespace netllm::tensor;

/// Per-thread rows of the graph-free backbone pass: the residual stream, the
/// final layer norm and the per-block segment lists. Capacity only grows, so
/// a warm thread allocates nothing but the returned tensors.
struct PassRows {
  std::vector<float> h, ln;
  std::vector<nn::KvSegment> segments;

  static PassRows& local() {
    thread_local PassRows rows;
    return rows;
  }
};

std::span<float> sized(std::vector<float>& buf, std::int64_t n) {
  buf.resize(static_cast<std::size_t>(n));
  return buf;
}

}  // namespace

MiniGpt::MiniGpt(const MiniGptConfig& cfg, core::Rng& rng) : cfg_(cfg) {
  if (cfg.vocab <= 0 || cfg.max_seq <= 0) throw std::invalid_argument("MiniGpt: bad config");
  tok_embed_ = std::make_shared<nn::Embedding>(cfg.vocab, cfg.d_model, rng);
  pos_embed_ = Tensor::randn({cfg.max_seq, cfg.d_model}, rng, 0.02f, true);
  for (std::int64_t i = 0; i < cfg.n_layers; ++i) {
    blocks_.push_back(std::make_shared<nn::TransformerBlock>(cfg.d_model, cfg.n_heads, cfg.d_ff,
                                                             /*causal=*/true, rng));
  }
  final_ln_ = std::make_shared<nn::LayerNorm>(cfg.d_model);
  lm_head_ = std::make_shared<nn::Linear>(cfg.d_model, cfg.vocab, rng, /*bias=*/false);
}

Tensor MiniGpt::run_blocks(const Tensor& x) const {
  Tensor h = x;
  for (const auto& block : blocks_) h = block->forward(h);
  return final_ln_->forward(h);
}

void MiniGpt::run_blocks_rows(std::span<float> h, std::int64_t m,
                              std::span<const nn::KvSegment> segments, std::span<float> out,
                              bool last_only) const {
  const auto n = segments.size() / blocks_.size();
  const auto last = blocks_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    blocks_[i]->forward_rows(h, segments.subspan(i * n, n), h);
  }
  const auto rows = last_only ? static_cast<std::int64_t>(n) : m;
  const auto top = h.first(static_cast<std::size_t>(rows * cfg_.d_model));
  if (last_only) {
    blocks_[last]->forward_last_rows(h, segments.subspan(last * n, n), top);
  } else {
    blocks_[last]->forward_rows(h, segments.subspan(last * n, n), h);
  }
  final_ln_->forward_rows(top, rows, out);
}

Tensor MiniGpt::token_logits(std::span<const int> ids, std::int64_t pos,
                             std::span<nn::KvCache> layers) const {
  // add(embedding(ids), slice_rows(pos_embed_, pos, m)) on raw rows, then the
  // blocks and lm_head.
  const auto m = static_cast<std::int64_t>(ids.size()), d = cfg_.d_model;
  const auto w = tok_embed_->weight().data();
  const auto p = pos_embed_.data();
  auto& rows = PassRows::local();
  const auto h = sized(rows.h, m * d);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int64_t id = ids[static_cast<std::size_t>(i)];
    if (id < 0 || id >= cfg_.vocab) throw std::invalid_argument("embedding: id out of range");
    for (std::int64_t j = 0; j < d; ++j) h[i * d + j] = w[id * d + j] + p[(pos + i) * d + j];
  }
  auto& segs = rows.segments;
  segs.clear();
  for (auto& c : layers) segs.push_back({m, &c});
  segs.resize(blocks_.size(), {m, nullptr});
  const auto ln = sized(rows.ln, m * d);
  run_blocks_rows(h, m, segs, ln, /*last_only=*/false);
  auto logits = Tensor::zeros({m, cfg_.vocab});
  lm_head_->forward_rows(ln, m, logits.mutable_data());
  return logits;
}

void MiniGpt::forward_segments(std::span<const EmbeddingSegment> segments,
                               std::vector<float>& features,
                               std::span<std::exception_ptr> errors) const {
  segment_rows(segments, features, errors, /*last_only=*/true);
}

void MiniGpt::segment_rows(std::span<const EmbeddingSegment> segments,
                           std::vector<float>& features, std::span<std::exception_ptr> errors,
                           bool last_only) const {
  // add(embeds, slice_rows(pos_embed_, pos, rows)) on each segment's raw
  // rows, stacked, then one pass through the blocks.
  const auto d = cfg_.d_model;
  const auto n = segments.size();
  if (errors.size() != n) {
    throw std::invalid_argument("MiniGpt::forward_segments: one error slot per segment");
  }
  auto& rows = PassRows::local();
  auto& segs = rows.segments;
  segs.assign(blocks_.size() * n, {});
  std::int64_t m = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const auto& seg = segments[s];
    const auto r = static_cast<std::int64_t>(seg.embeds.size()) / d;
    const auto pos = seg.layers.empty() ? std::int64_t{0} : seg.layers.front().len;
    if (r <= 0 || r * d != static_cast<std::int64_t>(seg.embeds.size()) ||
        (!seg.layers.empty() && seg.layers.size() != blocks_.size()) ||
        pos + r > cfg_.max_seq) {
      throw std::invalid_argument(
          "MiniGpt::forward_segments: each segment needs whole d_model rows, caches sized "
          "for this model and at most max_seq positions");
    }
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      segs[b * n + s] = {r, seg.layers.empty() ? nullptr : &seg.layers[b]};
    }
    m += r;
  }
  const auto h = sized(rows.h, m * d);
  std::int64_t row0 = 0;
  for (const auto& seg : segments) {
    const auto pos = seg.layers.empty() ? std::int64_t{0} : seg.layers.front().len;
    const auto p = pos_embed_.data().subspan(static_cast<std::size_t>(pos * d));
    for (std::size_t j = 0; j < seg.embeds.size(); ++j) {
      h[static_cast<std::size_t>(row0 * d) + j] = seg.embeds[j] + p[j];
    }
    row0 += static_cast<std::int64_t>(seg.embeds.size()) / d;
  }
  const auto out = sized(features, (last_only ? static_cast<std::int64_t>(n) : m) * d);
  run_blocks_rows(h, m, segs, out, last_only);
  row0 = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const auto r = last_only ? 1 : static_cast<std::int64_t>(segments[s].embeds.size()) / d;
    errors[s] = nullptr;
    // Fault-injection site shared with forward_embeddings: one draw per
    // segment per backbone pass, so an armed plan fires on one request's
    // rows exactly as when that request is served alone.
    try {
      core::fault::corrupt("llm.forward", out.subspan(static_cast<std::size_t>(row0 * d),
                                                      static_cast<std::size_t>(r * d)));
    } catch (...) {
      errors[s] = std::current_exception();
    }
    row0 += r;
  }
}

void MiniGpt::embedding_rows(std::span<const float> embeds, std::span<nn::KvCache> layers,
                             std::vector<float>& features, bool last_only) const {
  const EmbeddingSegment seg{embeds, layers};
  std::exception_ptr error;
  segment_rows({&seg, 1}, features, {&error, 1}, last_only);
  if (error) std::rethrow_exception(error);
}

Tensor MiniGpt::embedding_features(const Tensor& embeds, std::span<nn::KvCache> layers) const {
  std::vector<float> features;
  embedding_rows(embeds.data(), layers, features, /*last_only=*/false);
  return Tensor::from(std::move(features), {embeds.dim(0), cfg_.d_model});
}

Tensor MiniGpt::forward_tokens(std::span<const int> ids) const {
  const auto t = static_cast<std::int64_t>(ids.size());
  if (t == 0 || t > cfg_.max_seq) throw std::invalid_argument("MiniGpt: sequence length out of range");
  auto x = add(tok_embed_->forward(ids), slice_rows(pos_embed_, 0, t));
  return lm_head_->forward(run_blocks(x));
}

Tensor MiniGpt::lm_loss(std::span<const int> ids) const {
  if (ids.size() < 2) throw std::invalid_argument("MiniGpt::lm_loss: need >= 2 tokens");
  auto logits = forward_tokens(ids.subspan(0, ids.size() - 1));
  std::vector<int> targets(ids.begin() + 1, ids.end());
  return cross_entropy_rows(logits, targets);
}

namespace {

/// Greedy pick over the last row of a [T, vocab] logits tensor.
int argmax_last_row(const Tensor& logits) {
  const auto v = logits.dim(1);
  const auto last = logits.data().subspan(static_cast<std::size_t>((logits.dim(0) - 1) * v),
                                          static_cast<std::size_t>(v));
  int best = 0;
  for (std::int64_t j = 1; j < v; ++j) {
    if (last[static_cast<std::size_t>(j)] > last[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace

std::vector<int> MiniGpt::generate(std::vector<int> prompt, int max_new, int stop_token) const {
  return generate(std::move(prompt), max_new, stop_token, /*use_cache=*/false);
}

std::vector<int> MiniGpt::generate(std::vector<int> ctx, int max_new, int stop_token,
                                   bool use_cache) const {
  if (ctx.empty()) throw std::invalid_argument("MiniGpt::generate: empty prompt");
  std::vector<int> out;
  // Context for each step is a sliding window of the last `max_seq` tokens —
  // long prompts are clamped instead of walking past pos_embed_.
  const auto window = [&]() -> std::span<const int> {
    const auto t = std::min<std::size_t>(ctx.size(), static_cast<std::size_t>(cfg_.max_seq));
    return {ctx.data() + (ctx.size() - t), t};
  };

  if (!use_cache) {
    for (int step = 0; step < max_new; ++step) {
      // Trace attribution (DESIGN.md §11): the first full forward is the
      // prompt prefill; every later re-forward is this path's decode step —
      // a full T-row forward per token, which is the Fig. 2 cost the KV
      // cache removes. The span taxonomy makes that visible per phase.
      int best;
      if (step == 0) {
        core::trace::Span span(core::trace::Phase::kPrefill);
        best = argmax_last_row(forward_tokens(window()));
      } else {
        core::trace::Span span(core::trace::Phase::kDecodeStep);
        best = argmax_last_row(forward_tokens(window()));
      }
      if (best == stop_token) break;
      out.push_back(best);
      ctx.push_back(best);
    }
    return out;
  }

  auto st = make_decode_state();
  Tensor logits = prefill(window(), st);  // prefill() carries its own span
  for (int step = 0; step < max_new; ++step) {
    const int best = argmax_last_row(logits);
    if (best == stop_token) break;
    out.push_back(best);
    ctx.push_back(best);
    if (step + 1 == max_new) break;  // next logits would never be read
    if (st.len() >= cfg_.max_seq) {
      // The window slid: every cached position pairs with a different
      // positional embedding now, so the cache is stale. Rebuild it from the
      // shifted window — same floats as the uncached path's next forward.
      st.clear();
      logits = prefill(window(), st);
    } else {
      logits = decode_step(best, st);
    }
  }
  return out;
}

DecodeState MiniGpt::make_decode_state() const {
  DecodeState st;
  st.layers.resize(blocks_.size());
  for (auto& c : st.layers) {
    c.d_model = cfg_.d_model;
    // A decode never outgrows max_seq positions (the sliding window rebuilds
    // the state instead), so one up-front reservation means appends never
    // reallocate mid-decode.
    c.reserve(cfg_.max_seq);
  }
  return st;
}

Tensor MiniGpt::prefill(std::span<const int> ids, DecodeState& st) const {
  if (st.layers.size() != blocks_.size() || st.len() != 0) {
    throw std::invalid_argument("MiniGpt::prefill: state must be empty and sized for this model");
  }
  const auto t = static_cast<std::int64_t>(ids.size());
  if (t == 0 || t > cfg_.max_seq) {
    throw std::invalid_argument("MiniGpt: sequence length out of range");
  }
  core::trace::Span span(core::trace::Phase::kPrefill);
  return token_logits(ids, 0, st.layers);
}

Tensor MiniGpt::decode_step(int token, DecodeState& st) const {
  if (st.layers.size() != blocks_.size()) {
    throw std::invalid_argument("MiniGpt::decode_step: state not sized for this model");
  }
  const auto pos = st.len();
  if (pos >= cfg_.max_seq) {
    throw std::invalid_argument("MiniGpt::decode_step: cache is full (max_seq positions)");
  }
  core::trace::Span span(core::trace::Phase::kDecodeStep);
  const int ids[1] = {token};
  return token_logits(ids, pos, st.layers);
}

Tensor MiniGpt::forward_embeddings(const Tensor& embeds) const {
  if (embeds.rank() != 2 || embeds.dim(1) != cfg_.d_model) {
    throw std::invalid_argument("MiniGpt::forward_embeddings: expected [T, d_model]");
  }
  const auto t = embeds.dim(0);
  if (t > cfg_.max_seq) throw std::invalid_argument("MiniGpt::forward_embeddings: sequence too long");
  // The embedding-path backbone forward is a full-sequence pass, so it is
  // attributed to the prefill phase — for serving *and* adaptation forwards.
  core::trace::Span span(core::trace::Phase::kPrefill);
  auto features = run_blocks(add(embeds, slice_rows(pos_embed_, 0, t)));
  // Fault-injection site for the serving/robustness tests: armed plans can
  // throw, delay past a latency budget, or poison the features with NaN/Inf.
  core::fault::corrupt("llm.forward", features.mutable_data());
  return features;
}

Tensor MiniGpt::prefill_embeddings(const Tensor& embeds, std::span<nn::KvCache> layers) const {
  if (embeds.rank() != 2 || embeds.dim(1) != cfg_.d_model) {
    throw std::invalid_argument("MiniGpt::prefill_embeddings: expected [T, d_model]");
  }
  if (!layers.empty() && (layers.size() != blocks_.size() || layers.front().len != 0)) {
    throw std::invalid_argument(
        "MiniGpt::prefill_embeddings: caches must be empty and sized for this model");
  }
  const auto t = embeds.dim(0);
  if (t == 0 || t > cfg_.max_seq) {
    throw std::invalid_argument("MiniGpt::prefill_embeddings: sequence length out of range");
  }
  core::trace::Span span(core::trace::Phase::kPrefill);
  return embedding_features(embeds, layers);
}

void MiniGpt::prefill_rows(std::span<const float> embeds, std::vector<float>& features) const {
  const auto t = static_cast<std::int64_t>(embeds.size()) / cfg_.d_model;
  if (t == 0 || t > cfg_.max_seq || t * cfg_.d_model != static_cast<std::int64_t>(embeds.size())) {
    throw std::invalid_argument("MiniGpt::prefill_embeddings: sequence length out of range");
  }
  core::trace::Span span(core::trace::Phase::kPrefill);
  embedding_rows(embeds, {}, features, /*last_only=*/true);
}

Tensor MiniGpt::embeddings_step(const Tensor& row, std::span<nn::KvCache> layers) const {
  if (row.rank() != 2 || row.dim(0) != 1 || row.dim(1) != cfg_.d_model) {
    throw std::invalid_argument("MiniGpt::embeddings_step: expected [1, d_model]");
  }
  if (layers.size() != blocks_.size()) {
    throw std::invalid_argument("MiniGpt::embeddings_step: caches not sized for this model");
  }
  const auto pos = layers.empty() ? 0 : layers.front().len;
  if (pos >= cfg_.max_seq) {
    throw std::invalid_argument("MiniGpt::embeddings_step: cache is full (max_seq positions)");
  }
  core::trace::Span span(core::trace::Phase::kDecodeStep);
  return embedding_features(row, layers);
}

std::vector<Tensor> MiniGpt::enable_lora(std::int64_t rank, float alpha, core::Rng& rng) {
  lora_params_.clear();
  for (const auto& block : blocks_) {
    for (auto& t : block->enable_lora(rank, alpha, rng)) lora_params_.push_back(t);
  }
  return lora_params_;
}

void MiniGpt::collect_params(NamedParams& out, const std::string& prefix) const {
  tok_embed_->collect_params(out, prefix + "tok_embed.");
  out.emplace_back(prefix + "pos_embed", pos_embed_);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->collect_params(out, prefix + "block" + std::to_string(i) + ".");
  }
  final_ln_->collect_params(out, prefix + "final_ln.");
  lm_head_->collect_params(out, prefix + "lm_head.");
}

}  // namespace netllm::llm
