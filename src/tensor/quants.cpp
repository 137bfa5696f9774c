#include "tensor/quants.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/kernels_dispatch.hpp"

namespace netllm::tensor::quant {

namespace {

using kernels::detail::clamp_code;
using kernels::detail::has_codes;
using kernels::detail::signed_absmax;

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

void quantize_block_q4(const float* x, std::int64_t n, float* scale, std::uint8_t* codes) {
  const float best = signed_absmax(x, n);
  const float d = best == 0.0f ? 0.0f : best / -8.0f;  // exact, as Q8_0's best / -128
  *scale = d;
  for (std::int64_t t = 0; t < kBlock; t += 2) {
    std::int32_t lo = 8, hi = 8;  // code 8 == 0 (the padding value)
    if (t < n && has_codes(d)) lo = clamp_code(std::lrintf(x[t] / d), -8, 7) + 8;
    if (t + 1 < n && has_codes(d)) hi = clamp_code(std::lrintf(x[t + 1] / d), -8, 7) + 8;
    codes[t / 2] = static_cast<std::uint8_t>(lo | (hi << 4));
  }
}

}  // namespace

const char* dtype_name(Dtype d) {
  switch (d) {
    case Dtype::kF32:
      return "f32";
    case Dtype::kQ8_0:
      return "q8_0";
    case Dtype::kQ4_0:
      return "q4_0";
  }
  return "unknown";
}

Dtype dtype_from_name(const std::string& name) {
  if (name == "f32" || name == "fp32") return Dtype::kF32;
  if (name == "q8_0" || name == "q8") return Dtype::kQ8_0;
  if (name == "q4_0" || name == "q4") return Dtype::kQ4_0;
  throw std::invalid_argument("quant: unknown dtype '" + name + "'");
}

std::int64_t blocks_per_row(std::int64_t cols) { return (cols + kBlock - 1) / kBlock; }

std::int64_t block_code_bytes(Dtype d) {
  switch (d) {
    case Dtype::kQ8_0:
      return kQ8BlockBytes;
    case Dtype::kQ4_0:
      return kQ4BlockBytes;
    case Dtype::kF32:
      break;
  }
  throw std::invalid_argument("quant: f32 has no block code bytes");
}

void quantize_row(Dtype d, const float* x, std::int64_t n, float* scales,
                  std::uint8_t* codes) {
  check(d == Dtype::kQ8_0 || d == Dtype::kQ4_0, "quantize_row: need a quantized dtype");
  if (d == Dtype::kQ8_0) {
    // A row kernel of the active ISA tier, bytes equal on every tier.
    kernels::detail::active_table().quantize_row_q8(x, n, scales,
                                                    reinterpret_cast<std::int8_t*>(codes));
    return;
  }
  const auto cbb = block_code_bytes(d);
  const auto bpr = blocks_per_row(n);
  for (std::int64_t b = 0; b < bpr; ++b) {
    const auto count = std::min<std::int64_t>(kBlock, n - b * kBlock);
    quantize_block_q4(x + b * kBlock, count, scales + b, codes + b * cbb);
  }
}

QTensor quantize(Dtype d, const float* data, std::int64_t rows, std::int64_t cols) {
  check(rows >= 0 && cols > 0, "quantize: non-positive dims");
  QTensor q;
  q.dtype = d;
  q.rows = rows;
  q.cols = cols;
  const auto bpr = blocks_per_row(cols);
  const auto cbb = block_code_bytes(d);
  q.scales.resize(static_cast<std::size_t>(rows * bpr));
  q.codes.resize(static_cast<std::size_t>(rows * bpr * cbb));
  for (std::int64_t r = 0; r < rows; ++r) {
    quantize_row(d, data + r * cols, cols, q.scales.data() + r * bpr,
                 q.codes.data() + r * bpr * cbb);
  }
  return q;
}

QTensor quantize(Dtype d, const Tensor& t) {
  check(t.defined() && t.rank() == 2, "quantize: rank-2 tensor required");
  return quantize(d, t.data().data(), t.dim(0), t.dim(1));
}

void dequantize_block(const QTensor& q, std::int64_t block, float* out,
                      std::int64_t count) {
  check(block >= 0 && block < q.n_blocks(), "dequantize_block: block out of range");
  check(count >= 0 && count <= kBlock, "dequantize_block: bad count");
  const float d = q.scales[static_cast<std::size_t>(block)];
  if (q.dtype == Dtype::kQ8_0) {
    const auto* codes = q.codes.data() + block * kQ8BlockBytes;
    for (std::int64_t t = 0; t < count; ++t) {
      out[t] = d * static_cast<float>(static_cast<std::int8_t>(codes[t]));
    }
  } else if (q.dtype == Dtype::kQ4_0) {
    const auto* codes = q.codes.data() + block * kQ4BlockBytes;
    for (std::int64_t t = 0; t < count; ++t) {
      const std::uint8_t byte = codes[t / 2];
      const std::int32_t code = (t % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
      out[t] = d * static_cast<float>(code - 8);
    }
  } else {
    throw std::invalid_argument("dequantize_block: f32 QTensor");
  }
}

Tensor dequantize(const QTensor& q) {
  std::vector<float> out(static_cast<std::size_t>(q.numel()));
  const auto bpr = blocks_per_row(q.cols);
  for (std::int64_t r = 0; r < q.rows; ++r) {
    for (std::int64_t b = 0; b < bpr; ++b) {
      const auto count = std::min<std::int64_t>(kBlock, q.cols - b * kBlock);
      dequantize_block(q, r * bpr + b, out.data() + r * q.cols + b * kBlock, count);
    }
  }
  return Tensor::from(std::move(out), {q.rows, q.cols});
}

void qmatmul_accum(const float* x, std::int64_t m, const QTensor& wt, float* y) {
  check(wt.dtype == Dtype::kQ8_0 || wt.dtype == Dtype::kQ4_0,
        "qmatmul: weight must be Q8_0 or Q4_0");
  const auto k = wt.cols, n = wt.rows;
  // Quantize the activation rows to Q8_0 once, up front. Padding lanes hold
  // the zero code, so the kernels can run whole 32-lane blocks throughout.
  // The staging buffers are per thread and only grow: a decode step
  // quantizes one row per projection and should not allocate for it.
  const auto kb = blocks_per_row(k);
  thread_local std::vector<std::int8_t> aq;
  thread_local std::vector<float> ascales;
  aq.resize(static_cast<std::size_t>(m * kb * kBlock));
  ascales.resize(static_cast<std::size_t>(m * kb));
  for (std::int64_t i = 0; i < m; ++i) {
    quantize_row(Dtype::kQ8_0, x + i * k, k, ascales.data() + i * kb,
                 reinterpret_cast<std::uint8_t*>(aq.data()) + i * kb * kBlock);
  }
  if (wt.dtype == Dtype::kQ8_0) {
    kernels::matmul_q8_accum(aq.data(), ascales.data(),
                             reinterpret_cast<const std::int8_t*>(wt.codes.data()),
                             wt.scales.data(), y, m, kb, n);
  } else {
    kernels::matmul_q4_accum(aq.data(), ascales.data(), wt.codes.data(), wt.scales.data(), y,
                             m, kb, n);
  }
}

Tensor qmatmul(const Tensor& x, const QTensor& wt) {
  check(x.defined() && x.rank() == 2, "qmatmul: rank-2 activation required");
  const auto m = x.dim(0), k = x.dim(1), n = wt.rows;
  check(wt.cols == k, "qmatmul: inner dimension mismatch");
  auto node = std::make_shared<Node>(Shape{m, n}, x.requires_grad());
  node->parents = {x.node()};
  qmatmul_accum(x.data().data(), m, wt, node->value.data());
  if (node->requires_grad) {
    // Gradients w.r.t. the activation flow through the dequantized weight:
    // grad_x[m,k] += grad_y[m,n] · wt[n,k]. The training loops pause
    // quantization entirely (nn::Linear), so this closure is a correctness
    // backstop for graphs built during inference, not a hot path.
    Node* px = x.node().get();
    const QTensor* w = &wt;
    node->backward = [px, w, m, k, n](Node& self) {
      if (!px->requires_grad) return;
      px->ensure_grad();
      const Tensor wd = dequantize(*w);
      kernels::matmul_accum(self.grad.data(), wd.data().data(), px->grad.data(), m, n, k);
    };
  }
  return Tensor(node);
}

}  // namespace netllm::tensor::quant
