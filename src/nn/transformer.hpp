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
/// Storage is a pair of in-place growable tensor row buffers: `k_view()` /
/// `v_view()` hand the attention step a zero-copy [len, d_model] tensor, so
/// decoding no longer pays an O(len) copy per step, and `reserve()` pins the
/// backing allocation to a known horizon (or an arena page span) so appends
/// never reallocate mid-decode. Copying a KvCache deep-copies the buffers —
/// two caches never alias storage.
struct KvCache {
  std::int64_t d_model = 0;  // set on first append; checked afterwards
  std::int64_t len = 0;      // cached positions

  KvCache() = default;
  KvCache(const KvCache& other);
  KvCache& operator=(const KvCache& other);
  KvCache(KvCache&&) noexcept = default;
  KvCache& operator=(KvCache&&) noexcept = default;

  /// Forget every cached position AND the width: a cleared cache is
  /// indistinguishable from a fresh one, so it can be reused with a
  /// different-width model. Buffer capacity is kept when the width matches.
  void clear();
  /// Pre-allocate storage for `rows` positions; requires d_model known
  /// (set it, or append once, first). Appends within the reservation never
  /// reallocate — `tests/test_sched.cpp` pins the allocation count.
  void reserve(std::int64_t rows);
  void append(std::span<const float> k_row, std::span<const float> v_row);

  /// Raw row-major [len, d_model] floats (for tests / serialization).
  const std::vector<float>& k() const;
  const std::vector<float>& v() const;
  /// Zero-copy [len, d_model] tensor views over the live buffers. Valid until
  /// the next append/clear mutates the buffer mid-op — take them fresh per
  /// attention step.
  tensor::Tensor k_view() const;
  tensor::Tensor v_view() const;
  /// Rows the buffers can hold before reallocating (0 when unallocated).
  std::int64_t capacity_rows() const;

 private:
  void ensure_buffers();
  tensor::Tensor k_buf_, v_buf_;  // null handles until the first append/reserve
};

/// Multi-head self-attention over a [T, D] sequence.
class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(std::int64_t d_model, std::int64_t n_heads, bool causal, core::Rng& rng);

  /// Full-sequence forward. With `cache` given (prefill), the K/V rows of
  /// every position are appended to it so decoding can continue with
  /// `forward_step`.
  Tensor forward(const Tensor& x, KvCache* cache = nullptr) const;
  /// Incremental decode: project the single new position x_t [1, D], append
  /// its K/V rows to the cache and attend over the whole cache. Produces the
  /// same floats as the last row of `forward` over the full sequence.
  Tensor forward_step(const Tensor& x_t, KvCache& cache) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  /// Wrap q/k/v/o projections with LoRA; returns the new low-rank tensors.
  std::vector<Tensor> enable_lora(std::int64_t rank, float alpha, core::Rng& rng);

  /// The four projection Linears in fixed order {wq, wk, wv, wo}; the
  /// backbone quantizer (llm::MiniGpt::quantize_backbone) walks them.
  std::vector<std::shared_ptr<Linear>> projection_linears() const {
    return {wq_, wk_, wv_, wo_};
  }

 private:
  Tensor project(const std::shared_ptr<Linear>& base, const std::shared_ptr<LoRALinear>& lora,
                 const Tensor& x) const;
  Tensor attend(const Tensor& q, const Tensor& k, const Tensor& v, bool causal) const;

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

  /// Full-sequence forward; with `cache` given the attention K/V rows are
  /// captured for incremental decoding (prefill).
  Tensor forward(const Tensor& x, KvCache* cache = nullptr) const;
  /// Incremental decode over one new position (see MultiHeadAttention).
  Tensor forward_step(const Tensor& x_t, KvCache& cache) const;
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

  std::shared_ptr<LayerNorm> ln1_, ln2_;
  std::shared_ptr<MultiHeadAttention> attn_;
  std::shared_ptr<Linear> fc1_, fc2_;
  std::shared_ptr<LoRALinear> lfc1_, lfc2_;
};

}  // namespace netllm::nn
