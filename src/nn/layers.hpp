// Basic trainable layers: Linear, LoRALinear, LayerNorm, Embedding, Conv1d,
// MLP. These are the building blocks for the LLM, the multimodal encoder,
// the networking heads and every learning-based baseline.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "nn/module.hpp"
#include "tensor/quants.hpp"
#include "tensor/tensor.hpp"

namespace netllm::nn {

using tensor::Tensor;

/// y = x W + b, x: [m,in] -> [m,out]. Xavier-uniform init.
class Linear final : public Module {
 public:
  Linear(std::int64_t in, std::int64_t out, core::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of m rows, x [m, in] -> y [m, out]: zero-fill y,
  /// accumulate x W through the kernel entry point `forward` uses (fp32 or
  /// quantized, same shape), then add the bias. Bitwise what `forward`
  /// returns; builds no autograd node.
  void forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  std::int64_t in_features() const { return weight_.dim(0); }
  std::int64_t out_features() const { return weight_.dim(1); }
  const Tensor& weight() const { return weight_; }
  /// The bias [out]; undefined for a Linear built with bias = false.
  const Tensor& bias() const { return bias_; }

  // ---- weight dtype (block-quantized inference, DESIGN.md §15) ----
  //
  // The fp32 master weight always stays resident and owns the gradients;
  // quantization only swaps the *inference* compute to tensor/quants.hpp
  // qmatmul against a quantized copy of the (transposed) master. Training
  // code pauses the quant path (`set_quant_active(false)`) so gradients and
  // checkpoints are bitwise those of the fp32 run, then `requantize()`s on
  // resume to pick up any master updates.

  /// Pick the inference weight dtype. kF32 drops the quantized copy and
  /// restores plain matmul; kQ8_0/kQ4_0 quantize the master (transposed,
  /// blocks along `in`) and activate the quantized forward.
  void set_weight_dtype(tensor::quant::Dtype d);
  tensor::quant::Dtype weight_dtype() const { return weight_dtype_; }
  /// The transposed quantized weight [out,in]; only valid when
  /// weight_dtype() != kF32.
  const tensor::quant::QTensor& qweight() const { return qweight_; }

  /// Gate the quantized forward without dropping the quantized copy.
  void set_quant_active(bool active) { quant_active_ = active; }
  bool quant_active() const { return quant_active_; }
  /// True when the forward runs the quantized copy (qmatmul) rather than
  /// the fp32 master.
  bool quantized() const { return quant_active_ && weight_dtype_ != tensor::quant::Dtype::kF32; }
  /// Refresh the quantized copy from the fp32 master at the current dtype
  /// (no-op for kF32). Call after the master changed while paused.
  void requantize();

 private:
  Tensor weight_;  // [in,out] — fp32 master, always present
  Tensor bias_;    // [out] (undefined when bias = false)
  tensor::quant::Dtype weight_dtype_ = tensor::quant::Dtype::kF32;
  tensor::quant::QTensor qweight_;  // transposed [out,in]; empty for kF32
  bool quant_active_ = false;
};

/// LoRA-augmented linear layer (paper §4.3): y = x W0 + (alpha/r) (x A) B.
/// W0 is the frozen pre-trained weight; only A [in,r] and B [r,out] train.
/// B starts at zero so adaptation begins exactly at the pre-trained function.
class LoRALinear final : public Module {
 public:
  /// Wraps an existing (already initialised, typically pre-trained) Linear.
  LoRALinear(std::shared_ptr<Linear> base, std::int64_t rank, float alpha, core::Rng& rng);

  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of m rows through kernels::lora_projections, bitwise
  /// what `forward` returns: an fp32 base runs inside the slot with the
  /// delta; a quantized base runs Linear::forward_rows (qmatmul and bias),
  /// then the slot's delta-only form adds the scaled (x A) B.
  void forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const;
  /// The same for 1 to 3 LoRA layers of one width, in_features and rank
  /// that read the same rows x (Q, K and V): one slot call computes every
  /// ys[i] = lora[i]'s forward_rows(x), bitwise.
  static void forward_rows(std::span<const LoRALinear* const> lora, std::span<const float> x,
                           std::int64_t m, std::span<const std::span<float>> ys);
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  /// Only the low-rank matrices (what DD-LRNA trains on the backbone).
  std::vector<Tensor> lora_parameters() const { return {a_, b_}; }
  std::int64_t rank() const { return a_.dim(1); }

 private:
  std::shared_ptr<Linear> base_;
  Tensor a_, b_;
  float scaling_;
};

class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::int64_t dim);
  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of m rows (the row helper `forward` runs per row).
  void forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  Tensor gamma_, beta_;
};

class Embedding final : public Module {
 public:
  Embedding(std::int64_t vocab, std::int64_t dim, core::Rng& rng);
  Tensor forward(std::span<const int> ids) const;
  /// Graph-free forward: row i of y [ids, dim] is the table row ids[i].
  void forward_rows(std::span<const int> ids, std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;
  const Tensor& weight() const { return weight_; }

 private:
  Tensor weight_;  // [V,D]
};

/// 1D convolution with 'same' zero padding, x: [Cin,T] -> [Cout,T].
class Conv1d final : public Module {
 public:
  Conv1d(std::int64_t cin, std::int64_t cout, std::int64_t kernel, core::Rng& rng);
  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of x [Cin, t] into y [Cout, t] through the body
  /// `forward` runs (tensor::conv1d_rows).
  void forward_rows(std::span<const float> x, std::int64_t t, std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  Tensor weight_;  // [Cout,Cin,K]
  Tensor bias_;    // [Cout]
  int pad_;
};

enum class Activation { kRelu, kGelu, kTanh };

/// Feed-forward stack: Linear -> act -> ... -> Linear (no final activation).
class Mlp final : public Module {
 public:
  Mlp(std::vector<std::int64_t> dims, core::Rng& rng, Activation act = Activation::kRelu);
  Tensor forward(const Tensor& x) const;
  /// Graph-free forward of m rows, x [m, in] -> y [m, out]: each Linear's
  /// forward_rows and the activation's row body, the hidden rows in
  /// per-thread scratch.
  void forward_rows(std::span<const float> x, std::int64_t m, std::span<float> y) const;
  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

 private:
  std::vector<std::shared_ptr<Linear>> layers_;
  Activation act_;
};

Tensor apply_activation(const Tensor& x, Activation act);
/// apply_activation's row body over n values in place.
void apply_activation_rows(std::span<float> x, Activation act);

}  // namespace netllm::nn
