// Multi-head attention and pre-LN transformer blocks — the backbone of both
// the MiniGPT LLM substrate and the ViT-lite image encoder.
//
// Each block's projection layers can be wrapped with LoRA adapters after
// construction (`enable_lora`), which freezes nothing by itself — callers
// freeze the backbone and train only the returned low-rank matrices, which
// is exactly the DD-LRNA recipe (paper §4.3).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace netllm::nn {

/// Per-layer key/value cache for incremental decoding. Rows are the post-
/// projection K/V vectors of the positions processed so far, in position
/// order, exactly as the full forward would compute them — the cached decode
/// path is bitwise identical to re-running the whole sequence (see
/// DESIGN.md §10), which `tests/test_decode.cpp` pins.
///
/// Storage is a pair of plain row-major [len, d_model] float buffers. Only
/// the graph-free forward writes and reads them (each head's attention
/// reads its K/V columns of the rows in place), so the cache never becomes
/// part of an autograd graph. `reserve()` pins the allocation to a known
/// horizon (or an arena page span) so appends never reallocate mid-decode.
/// Copying a KvCache copies the rows — two caches never alias storage.
struct KvCache {
  std::int64_t d_model = 0;  // set on first append; checked afterwards
  std::int64_t len = 0;      // cached positions

  /// Forget every cached position AND the width: a cleared cache is
  /// indistinguishable from a fresh one, so it can be reused with a
  /// different-width model. Buffer capacity is kept.
  void clear();
  /// Pre-allocate storage for `rows` positions; requires d_model known
  /// (set it, or append once, first). Appends within the reservation never
  /// reallocate — `tests/test_sched.cpp` pins the allocation count.
  void reserve(std::int64_t rows);
  void append(std::span<const float> k_row, std::span<const float> v_row);
  /// Append `rows` consecutive K/V rows (the first append sets the width);
  /// the kv.appended_* counters move once per call.
  void append_rows(std::span<const float> k_rows, std::span<const float> v_rows,
                   std::int64_t rows);

  /// Raw row-major [len, d_model] floats.
  const std::vector<float>& k() const { return k_; }
  const std::vector<float>& v() const { return v_; }
  /// Rows the buffers can hold before reallocating (0 while the width is
  /// unset).
  std::int64_t capacity_rows() const;

 private:
  std::vector<float> k_, v_;
};

/// One request's rows in a stacked graph-free pass: `rows` consecutive rows
/// of the pass, at the positions after the rows `cache` already holds.
struct KvSegment {
  std::int64_t rows = 0;
  KvCache* cache = nullptr;  // null: capture nothing; the rows attend among themselves
};

/// Multi-head self-attention over a [T, D] sequence.
///
/// Two forwards compute the same floats. The Tensor-op `forward(x)` builds
/// an autograd graph and serves training and the reference path. The
/// graph-free `forward_rows` forwards m new rows against the K/V rows a
/// cache already holds: a prefill is m = T over an empty cache and a decode
/// step is m = 1 (DESIGN.md §10). Non-causal attention (ViT-lite) runs
/// graph-free too, over cache-less segments. The m rows may stack several
/// requests' segments, each against its own cache: a grouped VP rollout
/// step is m = (live requests).
class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(std::int64_t d_model, std::int64_t n_heads, bool causal, core::Rng& rng);

  /// Full-sequence Tensor-op forward (autograd tape).
  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of x's m rows at the positions after the cache's
  /// rows, appending their K/V rows to `cache`. A null cache captures
  /// nothing and the rows attend only among themselves. Returns one node
  /// with no parents and no gradient.
  Tensor forward(const Tensor& x, KvCache* cache) const;
  /// Incremental decode: the m = 1 graph-free forward of x_t [1, D]. Bitwise
  /// the last row of `forward` over the full sequence; decoding must not be
  /// backpropagated through.
  Tensor forward_step(const Tensor& x_t, KvCache& cache) const;
  /// The graph-free routine on raw rows: x [m, d_model] -> y [m, d_model],
  /// m the sum of the segments' rows, stacked in segment order. The Q/K/V/O
  /// projections run once over all m rows. Then per segment and per head,
  /// serially, kernels::attend_head reads the head's columns of the
  /// segment's Q rows and of its cache's K/V rows in place: scores, scale,
  /// causal softmax by absolute position and attn V_h, each element by the
  /// sequence the two matmul_accum calls of the Tensor-op `forward` give it
  /// for that segment's rows alone.
  void forward_rows(std::span<const float> x, std::span<const KvSegment> segments,
                    std::span<float> y) const;
  /// The one-segment case: x's m rows against `cache`.
  void forward_rows(std::span<const float> x, std::int64_t m, KvCache* cache,
                    std::span<float> y) const {
    const KvSegment one{m, cache};
    forward_rows(x, {&one, 1}, y);
  }
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  /// Wrap q/k/v/o projections with LoRA; returns the new low-rank tensors.
  std::vector<Tensor> enable_lora(std::int64_t rank, float alpha, core::Rng& rng);

  /// The four projection Linears in fixed order {wq, wk, wv, wo}; the
  /// backbone quantizer (llm::MiniGpt::quantize_backbone) walks them.
  std::vector<std::shared_ptr<Linear>> projection_linears() const {
    return {wq_, wk_, wv_, wo_};
  }

 private:
  friend class TransformerBlock;

  Tensor project(const std::shared_ptr<Linear>& base, const std::shared_ptr<LoRALinear>& lora,
                 const Tensor& x) const;
  Tensor attend(const Tensor& q, const Tensor& k, const Tensor& v) const;
  /// forward_rows, or with last_only the rows a reader of each segment's
  /// last row needs (TransformerBlock::forward_last_rows): K and V still
  /// run over all m rows and every segment's cache still captures them,
  /// but Q, the attention and O run for the last rows alone, one
  /// attend_head(rows = 1, len) call per head. y [segments, d_model]: row
  /// s is bitwise the last row of segment s in forward_rows' output.
  void attend_rows(std::span<const float> x, std::span<const KvSegment> segments,
                   std::span<float> y, bool last_only) const;

  std::int64_t d_model_, n_heads_, d_head_;
  bool causal_;
  std::shared_ptr<Linear> wq_, wk_, wv_, wo_;
  std::shared_ptr<LoRALinear> lq_, lk_, lv_, lo_;
};

/// Pre-LN transformer block: x + MHA(LN(x)), then x + MLP(LN(x)).
class TransformerBlock final : public Module {
 public:
  TransformerBlock(std::int64_t d_model, std::int64_t n_heads, std::int64_t d_ff, bool causal,
                   core::Rng& rng);

  /// Full-sequence Tensor-op forward (autograd tape).
  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of x's rows after the cache's rows, like
  /// MultiHeadAttention::forward(x, cache).
  Tensor forward(const Tensor& x, KvCache* cache) const;
  /// Incremental decode over one new position: the m = 1 graph-free forward.
  Tensor forward_step(const Tensor& x_t, KvCache& cache) const;
  /// The graph-free block body on raw rows: x [m, d_model] -> y [m, d_model];
  /// y may alias x. Each step is the raw-rows form of the matching Tensor op
  /// in `forward`, with the operands in the same order. The norms, residuals
  /// and MLP are row-wise and run once over all stacked segments; only the
  /// attention splits them (MultiHeadAttention::forward_rows).
  void forward_rows(std::span<const float> x, std::span<const KvSegment> segments,
                    std::span<float> y) const;
  /// The one-segment case: x's m rows against `cache`.
  void forward_rows(std::span<const float> x, std::int64_t m, KvCache* cache,
                    std::span<float> y) const {
    const KvSegment one{m, cache};
    forward_rows(x, {&one, 1}, y);
  }
  /// The block for a reader of each segment's last row only (the final
  /// block of a served pass, DESIGN.md §10 "rows the head reads"): LN1 and
  /// the attention's K/V run over all m rows and fill the caches as
  /// forward_rows does; Q, the attention, O, the residual, LN2 and the MLP
  /// run for the last rows alone. y [segments, d_model]: row s is bitwise
  /// the last row of segment s in forward_rows' output; y may alias x.
  void forward_last_rows(std::span<const float> x, std::span<const KvSegment> segments,
                         std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;
  std::vector<Tensor> enable_lora(std::int64_t rank, float alpha, core::Rng& rng);

  /// The block's six projection Linears in fixed order
  /// {wq, wk, wv, wo, fc1, fc2} (see MultiHeadAttention::projection_linears).
  std::vector<std::shared_ptr<Linear>> projection_linears() const {
    auto ls = attn_->projection_linears();
    ls.push_back(fc1_);
    ls.push_back(fc2_);
    return ls;
  }

 private:
  Tensor ff(const Tensor& x) const;
  /// forward_rows (last_only false) and forward_last_rows (true).
  void block_rows(std::span<const float> x, std::span<const KvSegment> segments,
                  std::span<float> y, bool last_only) const;

  std::shared_ptr<LayerNorm> ln1_, ln2_;
  std::shared_ptr<MultiHeadAttention> attn_;
  std::shared_ptr<Linear> fc1_, fc2_;
  std::shared_ptr<LoRALinear> lfc1_, lfc2_;
};

}  // namespace netllm::nn
