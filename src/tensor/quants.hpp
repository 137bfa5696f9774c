// ggml-style weight-only block quantization for the frozen LLM backbone
// (DESIGN.md §15).
//
// NetLLM freezes the backbone and trains only LoRA + heads (~0.3% of
// params), so the frozen projection weights are pure inference data — a
// perfect target for block quantization: per-block fp32 scale + int codes,
// block size 32, ~4x (Q8_0) / ~7x (Q4_0) smaller than fp32 and served by
// integer-dot matmul kernels whose inner reduction the compiler may
// vectorize (integer adds are associative; strict-FP float dots are not).
//
// Formats (block = 32 values along the last dimension, tail blocks padded
// with the zero code):
//   Q8_0: fp32 scale d + 32 int8 codes.  d = signed_max / -128, so the
//         scale is an exact power-of-two quotient of the extreme value:
//         the max-magnitude element reconstructs exactly (q = -128 ->
//         q*d = signed_max with no rounding), and a constant block is
//         therefore reconstructed bit-exactly. Codes are round(x/d)
//         clamped to [-128, 127]; |dequant - x| <= |d| per element.
//   Q4_0: fp32 scale d + 32 4-bit codes packed 2/byte (lo nibble first).
//         d = signed_max / -8, codes are round(x/d) + 8 in [0, 15],
//         dequant = (q - 8) * d. Same exact-extreme property, error
//         bounded by |d|.
//
// Determinism contract: quantization, dequantization and the quantized
// matmuls are bitwise identical at any NETLLM_THREADS — every output
// element is produced by one chunk with a fixed block-ascending
// accumulation order (see tensor/kernels.hpp). tests/test_quant.cpp pins
// this, plus the round-trip error bounds, against the fp32 reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace netllm::tensor::quant {

/// Weight storage dtype. kF32 means "not quantized" (the fp32 master).
enum class Dtype : std::uint8_t { kF32 = 0, kQ8_0 = 1, kQ4_0 = 2 };

const char* dtype_name(Dtype d);
/// Parse "f32" / "q8_0" (or "q8") / "q4_0" (or "q4"); throws
/// std::invalid_argument on anything else.
Dtype dtype_from_name(const std::string& name);

/// Values per quantization block.
constexpr std::int64_t kBlock = 32;
/// Stored code bytes per block: Q8_0 keeps one byte per value, Q4_0 packs
/// two values per byte. Tail blocks are padded to the full width with the
/// zero code so kernels always run whole blocks.
constexpr std::int64_t kQ8BlockBytes = kBlock;
constexpr std::int64_t kQ4BlockBytes = kBlock / 2;

/// Blocks needed to cover `cols` values (ceil division).
std::int64_t blocks_per_row(std::int64_t cols);
/// Code bytes per block for a dtype (throws on kF32).
std::int64_t block_code_bytes(Dtype d);

/// A rank-2 tensor quantized row-wise: each of the `rows` rows is split
/// into blocks of 32 along the column dimension, each block holding one
/// fp32 scale plus packed integer codes. This is a plain value type (no
/// autograd): quantized tensors are frozen inference data.
struct QTensor {
  Dtype dtype = Dtype::kQ8_0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<float> scales;        // rows * blocks_per_row(cols)
  std::vector<std::uint8_t> codes;  // rows * bpr * block_code_bytes(dtype)

  std::int64_t numel() const { return rows * cols; }
  std::int64_t n_blocks() const { return rows * blocks_per_row(cols); }
  /// Total quantized payload bytes (scales + codes) — the memory the
  /// backbone actually holds instead of numel()*4 fp32 bytes.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(scales.size() * sizeof(float) + codes.size());
  }
};

// ---- quantize / dequantize ----

/// Quantize one row of `n` values into ceil(n/32) blocks. `scales` receives
/// one fp32 per block; `codes` receives block_code_bytes(dtype) bytes per
/// block (tail-padded with the zero code). Deterministic, branch-stable.
void quantize_row(Dtype d, const float* x, std::int64_t n, float* scales,
                  std::uint8_t* codes);

/// Quantize a row-major [rows, cols] buffer (blocks along cols).
QTensor quantize(Dtype d, const float* data, std::int64_t rows, std::int64_t cols);
/// Quantize a rank-2 tensor. Throws std::invalid_argument on other ranks.
QTensor quantize(Dtype d, const Tensor& t);

/// Dequantize one block back to `count <= kBlock` values.
void dequantize_block(const QTensor& q, std::int64_t block, float* out,
                      std::int64_t count);
/// Full fp32 reconstruction as a grad-free leaf tensor [rows, cols].
Tensor dequantize(const QTensor& q);

// ---- quantized matmul (the serving hot path) ----

/// y = x · W where `wt` is the TRANSPOSED weight [out, in] (one row per
/// output feature, blocks along in). x is [m, in] fp32; its rows are
/// quantized to Q8_0 on the fly, then each output element is an integer
/// dot accumulated block-by-block:  acc += d_x * d_w * sum(q_x * q_w).
/// Returns [m, out]. Backward (rarely taken: training pauses quantization,
/// see nn::Linear) accumulates grad_x += grad_y · dequant(wt).
/// Bitwise identical at any NETLLM_THREADS.
Tensor qmatmul(const Tensor& x, const QTensor& wt);
/// The graph-free core of qmatmul on raw buffers: quantize the m rows of
/// x [m, wt.cols] and accumulate x · W into y [m, wt.rows] through the same
/// counted kernel entry points. y must be zero-filled for a plain product.
void qmatmul_accum(const float* x, std::int64_t m, const QTensor& wt, float* y);

}  // namespace netllm::tensor::quant
