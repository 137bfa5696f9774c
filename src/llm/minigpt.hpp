// MiniGPT: the from-scratch GPT-style LLM substrate standing in for
// Llama2/OPT/Mistral/LLaVa (see DESIGN.md substitution table).
//
// It exposes exactly the two surfaces NetLLM needs (paper Fig. 5):
//  * the token path (tokenizer -> vocabulary -> blocks -> LM head) used for
//    pre-training and for the prompt-learning / token-prediction baselines
//    of Fig. 2, and
//  * the embedding path (`forward_embeddings`) that accepts token-like
//    embedding vectors produced by the multimodal encoder and returns
//    high-level features for the networking heads — the LM head is bypassed
//    entirely, which is how NetLLM guarantees single-inference valid answers.
#pragma once

#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/transformer.hpp"

namespace netllm::llm {

struct MiniGptConfig {
  std::string name = "minigpt";
  std::int64_t vocab = 64;
  std::int64_t d_model = 64;
  std::int64_t n_heads = 4;
  std::int64_t n_layers = 4;
  std::int64_t d_ff = 160;
  std::int64_t max_seq = 96;
};

/// Per-layer KV caches for one in-flight decode. Obtain from
/// `MiniGpt::make_decode_state`, feed through `prefill`/`decode_step`.
struct DecodeState {
  std::vector<nn::KvCache> layers;  // one per transformer block

  std::int64_t len() const { return layers.empty() ? 0 : layers.front().len; }
  void clear() {
    for (auto& c : layers) c.clear();
  }
};

/// One request's rows in a grouped embedding pass (`MiniGpt::forward_segments`).
struct EmbeddingSegment {
  std::span<const float> embeds;  // [rows, d_model] token-like vectors, row-major
  std::span<nn::KvCache> layers;  // one cache per block; empty captures nothing
};

class MiniGpt final : public nn::Module {
 public:
  MiniGpt(const MiniGptConfig& cfg, core::Rng& rng);

  // ---- token path ----
  /// Full forward: ids -> next-token logits [T, vocab].
  tensor::Tensor forward_tokens(std::span<const int> ids) const;
  /// Mean next-token cross entropy over a document (teacher forcing).
  tensor::Tensor lm_loss(std::span<const int> ids) const;
  /// Greedy autoregressive decoding; re-runs the full forward per new token
  /// (no KV cache — the per-answer latency this produces is the phenomenon
  /// Fig. 2 right measures). Prompts longer than `max_seq` are clamped to a
  /// sliding window of the last `max_seq` tokens, and generation keeps
  /// sliding that window. Stops at `stop_token` or `max_new` tokens.
  std::vector<int> generate(std::vector<int> prompt, int max_new, int stop_token) const;
  /// Same decoding, selectable path: `use_cache=true` runs the KV-cached
  /// incremental decode (DESIGN.md §10) and emits a bitwise-identical token
  /// stream; `use_cache=false` is the uncached baseline above.
  std::vector<int> generate(std::vector<int> prompt, int max_new, int stop_token,
                            bool use_cache) const;

  // ---- incremental decode (KV cache) ----
  /// Empty per-layer caches sized for this model.
  DecodeState make_decode_state() const;
  /// Run the whole prompt through the blocks once, capturing every K/V row;
  /// returns logits [T, vocab]. `st` must be freshly made or cleared.
  tensor::Tensor prefill(std::span<const int> ids, DecodeState& st) const;
  /// Feed one new token at position `st.len()`; returns logits [1, vocab].
  /// Throws once the cache holds `max_seq` positions — callers handle the
  /// sliding window (see `generate`).
  tensor::Tensor decode_step(int token, DecodeState& st) const;

  // ---- embedding path (NetLLM) ----
  /// embeds: [T, d_model] token-like vectors from the multimodal encoder.
  /// Adds the backbone's positional embeddings, runs the blocks and the
  /// final layer norm; returns features [T, d_model].
  tensor::Tensor forward_embeddings(const tensor::Tensor& embeds) const;

  // ---- incremental embedding path (serve scheduler, DESIGN.md §13) ----
  // Span-based so the per-layer caches can be a DecodeState's layers OR an
  // arena lease (`nn::KvArena::Lease::layers()`); one cache per block.
  /// Graph-free full-prompt pass capturing every K/V row; returns features
  /// [T, d_model], bitwise `forward_embeddings` (same kernels, same shapes).
  /// The caches must be empty; an empty span captures nothing, which is how
  /// the ABR and CJS adapters serve a whole window.
  tensor::Tensor prefill_embeddings(const tensor::Tensor& embeds,
                                    std::span<nn::KvCache> layers) const;
  /// The last row of prefill_embeddings(embeds, {}) on raw rows, how the
  /// ABR and CJS adapters serve a whole window (their heads read the last
  /// state token): embeds [T, d_model] -> features [1, d_model] in
  /// `features` (resized; no allocation once warm). The final block runs
  /// Q, attention, O, the MLP and the final norm for that row alone
  /// (TransformerBlock::forward_last_rows).
  void prefill_rows(std::span<const float> embeds, std::vector<float>& features) const;
  /// Feed one new embedding row at the caches' current position; returns
  /// features [1, d_model], bitwise the last row `forward_embeddings` would
  /// produce over the extended sequence. Throws at `max_seq` positions.
  tensor::Tensor embeddings_step(const tensor::Tensor& row,
                                 std::span<nn::KvCache> layers) const;
  /// The served grouped pass (VP prefills and rollout steps): every
  /// segment's rows, at the positions after its own caches' rows, stacked
  /// into one graph-free m-row backbone pass (m = the segments' rows), each
  /// segment attending only over its own caches, which capture every row.
  /// The networking head reads one feature row per segment, its last, so
  /// the final block and norm run for those rows alone
  /// (TransformerBlock::forward_last_rows): features [segments, d_model],
  /// row s bitwise the last row that prefill_embeddings / embeddings_step
  /// of segment s alone return. The "llm.forward" fault site is drawn once
  /// per segment, in segment order, on that segment's row: a Throw or a
  /// corruption belongs to that segment only: its error, or null, lands in
  /// errors[s] (then its row must not be read). `features` is resized (no
  /// allocation once its capacity covers them). Throws
  /// std::invalid_argument (for the whole group) on a malformed segment or
  /// one past `max_seq`.
  void forward_segments(std::span<const EmbeddingSegment> segments, std::vector<float>& features,
                        std::span<std::exception_ptr> errors) const;

  // ---- adaptation hooks ----
  /// Freeze every backbone parameter (embeddings, blocks, LM head).
  void freeze_backbone() { freeze(); }
  /// Inject LoRA adapters into every block; returns the trainable low-rank
  /// tensors. Call after `freeze_backbone()` for the DD-LRNA recipe.
  std::vector<tensor::Tensor> enable_lora(std::int64_t rank, float alpha, core::Rng& rng);
  const std::vector<tensor::Tensor>& lora_parameters() const { return lora_params_; }

  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  const MiniGptConfig& config() const { return cfg_; }

  // ---- quantized backbone (DESIGN.md §15) ----
  /// Quantize every backbone projection weight (block 0's {wq,wk,wv,wo,
  /// fc1,fc2}, then block 1's, ...) to the given dtype and activate the
  /// quantized forward. Embeddings, layer norms, the LM head, LoRA deltas
  /// and all gradients stay fp32; kF32 restores plain matmul everywhere.
  void quantize_backbone(tensor::quant::Dtype d) {
    backbone_dtype_ = d;
    for (const auto& l : backbone_linears()) l->set_weight_dtype(d);
  }
  tensor::quant::Dtype backbone_dtype() const { return backbone_dtype_; }
  /// Gate the quantized forward on/off without dropping the quantized
  /// copies (the training loops pause it via ScopedQuantPause below).
  void set_backbone_quant_active(bool active) {
    for (const auto& l : backbone_linears()) l->set_quant_active(active);
  }
  /// Refresh the quantized copies from the fp32 masters (after the masters
  /// changed while the quant path was paused).
  void requantize_backbone() {
    for (const auto& l : backbone_linears()) l->requantize();
  }
  /// Bytes the backbone projections hold for inference at the current
  /// dtype: quantized payload when quantized, numel*4 when fp32.
  std::int64_t backbone_weight_bytes() const {
    std::int64_t bytes = 0;
    for (const auto& l : backbone_linears()) {
      bytes += l->weight_dtype() == tensor::quant::Dtype::kF32
                   ? l->weight().numel() * static_cast<std::int64_t>(sizeof(float))
                   : l->qweight().bytes();
    }
    return bytes;
  }

  /// Every backbone projection Linear in fixed order — block 0's
  /// {wq, wk, wv, wo, fc1, fc2}, then block 1's, and so on — the enumeration
  /// `quantize_backbone` walks. Embeddings, the final LayerNorm and the LM
  /// head never appear.
  std::vector<std::shared_ptr<nn::Linear>> backbone_linears() const {
    std::vector<std::shared_ptr<nn::Linear>> out;
    for (const auto& b : blocks_) {
      auto ls = b->projection_linears();
      out.insert(out.end(), ls.begin(), ls.end());
    }
    return out;
  }

 private:
  /// Tensor-op blocks and final layer norm (the autograd tape).
  tensor::Tensor run_blocks(const tensor::Tensor& x) const;
  /// The graph-free backbone pass behind prefill, decode_step and
  /// forward_segments: every block's m-row forward over h in place, block
  /// b against segments[b * n .. (b + 1) * n) for n segments per block,
  /// then the final layer norm into `out` (m rows, or with last_only the
  /// n segments' last rows, the final block run as forward_last_rows).
  void run_blocks_rows(std::span<float> h, std::int64_t m, std::span<const nn::KvSegment> segments,
                       std::span<float> out, bool last_only) const;
  /// Graph-free pass over the tokens ids at positions pos..; returns
  /// logits [m, vocab].
  tensor::Tensor token_logits(std::span<const int> ids, std::int64_t pos,
                              std::span<nn::KvCache> layers) const;
  /// forward_segments, returning every row of each segment unless
  /// last_only.
  void segment_rows(std::span<const EmbeddingSegment> segments, std::vector<float>& features,
                    std::span<std::exception_ptr> errors, bool last_only) const;
  /// A one-segment segment_rows call; rethrows the segment's error.
  void embedding_rows(std::span<const float> embeds, std::span<nn::KvCache> layers,
                      std::vector<float>& features, bool last_only) const;
  /// embedding_rows as a [rows, d_model] Tensor.
  tensor::Tensor embedding_features(const tensor::Tensor& embeds,
                                    std::span<nn::KvCache> layers) const;

  MiniGptConfig cfg_;
  std::shared_ptr<nn::Embedding> tok_embed_;
  tensor::Tensor pos_embed_;  // [max_seq, d_model]
  std::vector<std::shared_ptr<nn::TransformerBlock>> blocks_;
  std::shared_ptr<nn::LayerNorm> final_ln_;
  std::shared_ptr<nn::Linear> lm_head_;
  std::vector<tensor::Tensor> lora_params_;
  tensor::quant::Dtype backbone_dtype_ = tensor::quant::Dtype::kF32;
};

/// RAII guard the adaptation loops wrap around training: on entry the
/// quantized forward is deactivated, so every forward/backward/checkpoint
/// runs on the fp32 masters and is bitwise identical to the fp32-backbone
/// run; on exit the quantized copies are refreshed from the (possibly
/// updated) masters and reactivated. No-op for an fp32 backbone.
class ScopedQuantPause {
 public:
  explicit ScopedQuantPause(MiniGpt& llm)
      : llm_(llm), active_(llm.backbone_dtype() != tensor::quant::Dtype::kF32) {
    if (active_) llm_.set_backbone_quant_active(false);
  }
  ~ScopedQuantPause() {
    if (active_) {
      llm_.requantize_backbone();
      llm_.set_backbone_quant_active(true);
    }
  }
  ScopedQuantPause(const ScopedQuantPause&) = delete;
  ScopedQuantPause& operator=(const ScopedQuantPause&) = delete;

 private:
  MiniGpt& llm_;
  bool active_;
};

}  // namespace netllm::llm
