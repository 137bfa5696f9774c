// Hot compute kernels behind the tensor ops, exposed so tests and benches
// can cross-check the thread-parallel versions against the serial references
// on raw buffers (no autograd graph in the way).
//
// Every entry point dispatches to the ISA tier selected at runtime by
// tensor/isa.* (scalar always; AVX2+FMA and AVX-512 when compiled in and
// the CPU advertises them; NETLLM_ISA forces a tier — DESIGN.md §16).
//
// Determinism contract: for every kernel the threaded version partitions the
// *output* rows into contiguous chunks and, within each output element, adds
// contributions in exactly the same order as the serial entry point AT THE
// SAME TIER. Results are therefore bitwise identical for any thread count
// and any chunking — not merely within tolerance (test_parallel.cpp and
// test_isa.cpp enforce this per tier). Across tiers the fp32 kernels agree
// within a pinned tolerance (vector tiers fuse multiplies into FMAs and use
// wider partial sums); the quantized kernels are bitwise identical across
// tiers (exact int32 block dots + a fixed float expression order).
//
// NaN/Inf semantics: kernels never skip work based on operand values, so a
// zero activation against a NaN/Inf weight row propagates NaN into C (IEEE
// 0 * NaN = NaN) and the serve guard's validity check can catch poisoned
// weights. An earlier zero-skip fast path violated this — see test_isa.cpp.
#pragma once

#include <cstdint>

namespace netllm::tensor::kernels {

// ---- serial references (single thread, no pool involvement) ----

/// C[m,n] += A[m,k] * B[k,n]
void matmul_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                         std::int64_t k, std::int64_t n);
/// C[m,n] += A[m,k] * B^T where B is [n,k]
void matmul_bt_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                            std::int64_t k, std::int64_t n);
/// C[k,n] += A^T * B where A is [m,k], B is [m,n]
void matmul_at_accum_serial(const float* a, const float* b, float* c, std::int64_t m,
                            std::int64_t k, std::int64_t n);

// ---- blocked, thread-parallel versions (use core::ThreadPool::global()) ----

void matmul_accum(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n);
void matmul_bt_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);
void matmul_at_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);

// ---- quantized matmuls (weight-only block quantization, DESIGN.md §15) ----
//
// Layouts: `aq`/`ascales` is a Q8_0-quantized activation [m rows, kb blocks
// per row] — per row, kb fp32 scales and kb*32 int8 codes, tail blocks
// padded with the zero code. `bq`/`bscales` is the transposed quantized
// weight [n rows, kb blocks] in the same layout (Q8_0: 32 int8 codes per
// block; Q4_0: 16 packed bytes, low nibble first, code 8 = zero).
//
// C[m,n] += A · B^T, each output element accumulated block-by-block:
//   acc += d_a[b] * d_b[b] * (int32)sum_t(q_a[t] * q_b[t])
// The int32 block dot is associative, so the compiler may vectorize it —
// unlike the strict-FP fp32 dot — and the float accumulation across blocks
// ascends in fixed order, so results are bitwise identical for any thread
// count (threads partition C's rows, as in the fp32 kernels).

void matmul_q8_accum_serial(const std::int8_t* aq, const float* ascales,
                            const std::int8_t* bq, const float* bscales, float* c,
                            std::int64_t m, std::int64_t kb, std::int64_t n);
void matmul_q4_accum_serial(const std::int8_t* aq, const float* ascales,
                            const std::uint8_t* bq, const float* bscales, float* c,
                            std::int64_t m, std::int64_t kb, std::int64_t n);

void matmul_q8_accum(const std::int8_t* aq, const float* ascales, const std::int8_t* bq,
                     const float* bscales, float* c, std::int64_t m, std::int64_t kb,
                     std::int64_t n);
void matmul_q4_accum(const std::int8_t* aq, const float* ascales, const std::uint8_t* bq,
                     const float* bscales, float* c, std::int64_t m, std::int64_t kb,
                     std::int64_t n);

// ---- elementwise row kernels ----
//
// Every tier returns the scalar tier's bits (DESIGN.md §16), which are
// those of glibc 2.36 tanhf and of the FMA build of its expf: the scalar
// tier carries in-repo transcriptions of both, so the result does not
// depend on the host libm. Callers chunk rows as they like; elementwise
// means any cut is bitwise. tensor::softmax_row runs the exp inside the
// tier's softmax row body.

/// out[i] = tanh(in[i]) over n values; in == out is allowed.
void tanh_row(const float* in, float* out, std::int64_t n);
/// out[i] = exp(in[i]) over n values; in == out is allowed.
void exp_row(const float* in, float* out, std::int64_t n);

// ---- fused LoRA projections (graph-free backbone, DESIGN.md §10) ----

/// One projection of a lora_projections call: y [m, n] from the shared
/// input rows through the base weight W [k, n], the optional bias [n] and
/// the low-rank pair A [k, r], B [r, n] scaled by `scale`. A null `w` is the
/// delta-only form: y already holds the base rows (a quantized base, run by
/// qmatmul_accum with its bias), and only the scaled delta is added.
struct LoraProjection {
  const float* w = nullptr;
  const float* bias = nullptr;
  const float* a = nullptr;
  const float* b = nullptr;
  float scale = 0.0f;
  float* y = nullptr;
};

/// 1 to 3 LoRA projections of the same rows x [m, k] (Q, K and V share x),
/// each to n columns at rank r, all with a base or all without. Element
/// (i, j) of each is y = ((x W) + bias) + (((x A) B) * scale), every
/// product starting at 0 and taking the tier's matmul_accum sequence, so
/// it is bitwise the separate passes: Linear::forward_rows, then x A and
/// (x A) B through matmul_accum into zeroed rows, the scale, the add. A
/// null `w` computes y = y + ((x A) B) * scale. The kernels.matmul.*
/// counters move once per call, by the totals of those matmul_accum calls
/// (three per projection with a base, two without). Threads split the rows.
void lora_projections(const float* x, std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t r, const LoraProjection* projs, int count);

// ---- fused causal attention (graph-free backbone, DESIGN.md §10) ----

/// One head of causal self-attention for `rows` query rows against `len`
/// key/value rows, all read in place from row-major buffers of row stride
/// `ld` (the model width), each pointer at the head's first column: query
/// row i at q + i*ld, key and value row j at k + j*ld and v + j*ld, the
/// head's d_head output columns of row i at ctx + i*ld. Row i sits at
/// position len - rows + i and sees the keys up to it. Bitwise the gathered
/// form: Q_h K_h^T through matmul_accum, times 1/sqrt(d_head), the causal
/// softmax rows, then attn V_h through matmul_accum, each element with the
/// tier's matmul_accum sequence; and it bumps kernels.matmul.* as those two
/// products did. Threads split the rows.
void attend_head(const float* q, const float* k, const float* v, float* ctx, std::int64_t ld,
                 std::int64_t d_head, std::int64_t rows, std::int64_t len);

}  // namespace netllm::tensor::kernels
