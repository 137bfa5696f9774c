// A small tape-based autograd tensor engine.
//
// This is the numeric substrate the whole reproduction trains on: the MiniGPT
// LLM, the multimodal encoders, the networking heads, the LoRA matrices and
// the learning-based baselines (TRACK / GENET / Decima) are all built from
// these ops. Design goals, in order: correctness (validated against numeric
// gradients in tests), determinism (threaded kernels partition disjoint
// output ranges and preserve the per-element accumulation order, so results
// are bitwise identical for any NETLLM_THREADS — see DESIGN.md §8), and
// speed: hot kernels (blocked matmuls in tensor/kernels.cpp, large
// elementwise/row-wise loops) run on core::ThreadPool; small paper-scale
// tensors stay inline below the grain thresholds.
//
// Model: `Tensor` is a cheap value-type handle onto a heap `Node` holding the
// float buffer, shape, gradient and, for op results, the backward closure and
// parent links. Ops build a DAG; `Tensor::backward()` topologically sorts it
// and runs the closures in reverse. Graphs are rebuilt every forward pass
// (define-by-run), so only leaf (parameter) gradients persist across steps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace netllm::tensor {

using Shape = std::vector<std::int64_t>;

std::int64_t shape_numel(const Shape& shape);
std::string shape_str(const Shape& shape);

/// Graph node. Users interact through `Tensor`; this is exposed for the
/// optimizer and serialization, which need stable access to leaf storage.
struct Node {
  std::vector<float> value;
  std::vector<float> grad;  // sized lazily on first accumulation
  Shape shape;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Backward closure: reads this->grad, accumulates into parents' grads.
  // Captures raw parent pointers; `parents` keeps them alive (child -> parent
  // edges only, so no ownership cycles).
  std::function<void(Node&)> backward;

  Node(Shape s, bool rg);
  ~Node();

  std::int64_t numel() const { return static_cast<std::int64_t>(value.size()); }
  /// Zero-initialise the gradient buffer if it has not been allocated yet.
  void ensure_grad();
};

using NodePtr = std::shared_ptr<Node>;

class Tensor {
 public:
  Tensor() = default;  // null handle
  explicit Tensor(NodePtr node) : node_(std::move(node)) {}

  // ---- construction ----
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from(std::vector<float> data, Shape shape, bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// Gaussian init with the given stddev (used for weight init).
  static Tensor randn(Shape shape, core::Rng& rng, float stddev, bool requires_grad = false);
  /// Uniform init in [-bound, bound].
  static Tensor rand_uniform(Shape shape, core::Rng& rng, float bound, bool requires_grad = false);

  // ---- introspection ----
  bool defined() const { return node_ != nullptr; }
  const Shape& shape() const { return node_->shape; }
  std::int64_t numel() const { return node_->numel(); }
  std::int64_t dim(std::size_t i) const { return node_->shape.at(i); }
  std::size_t rank() const { return node_->shape.size(); }
  bool requires_grad() const { return node_->requires_grad; }

  std::span<const float> data() const { return node_->value; }
  /// Mutable access to the raw buffer — intended for leaves (parameters,
  /// inputs) and the optimizer, not for op results inside a live graph.
  std::span<float> mutable_data() { return node_->value; }
  std::span<const float> grad() const;

  float item() const;
  float at(std::int64_t i) const { return node_->value.at(static_cast<std::size_t>(i)); }

  const NodePtr& node() const { return node_; }

  // ---- autograd ----
  /// Backpropagate from this scalar tensor through the recorded tape.
  void backward() const;
  /// Clear this tensor's gradient buffer (used by optimizers on leaves).
  void zero_grad() const;
  /// Detach: copy the value into a fresh leaf with no history.
  Tensor detach() const;

 private:
  NodePtr node_;
};

// ---- memory instrumentation (used by the Fig. 4 adaptation-cost bench) ----
std::int64_t live_float_count();   // floats currently allocated in Nodes
std::int64_t peak_float_count();   // high-water mark since last reset
void reset_peak_float_count();
/// Op-result nodes built so far (every one has parents): the tape's size.
/// The graph-free serving path builds none, which tests pin.
std::int64_t tape_nodes_built();

// ---- elementwise & arithmetic ----
Tensor add(const Tensor& a, const Tensor& b);            // same shape
Tensor sub(const Tensor& a, const Tensor& b);            // same shape
Tensor mul(const Tensor& a, const Tensor& b);            // same shape
Tensor scale(const Tensor& a, float c);
Tensor add_scalar(const Tensor& a, float c);
Tensor neg(const Tensor& a);
/// Sum of n same-shaped tensors (shallow graph for GNN child aggregation).
Tensor add_n(const std::vector<Tensor>& xs);

// ---- activations ----
Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);  // tanh approximation
Tensor tanh_t(const Tensor& a);
Tensor sigmoid_t(const Tensor& a);

// ---- linear algebra ----
Tensor matmul(const Tensor& a, const Tensor& b);         // [m,k] x [k,n]
Tensor transpose(const Tensor& a);                        // [m,n] -> [n,m]
Tensor add_bias(const Tensor& a, const Tensor& bias);     // [m,n] + [n]

// ---- shape ----
Tensor reshape(const Tensor& a, Shape new_shape);          // same numel
Tensor concat_rows(const std::vector<Tensor>& xs);         // along dim 0, same cols
Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len);
Tensor slice_cols(const Tensor& a, std::int64_t start, std::int64_t len);
Tensor mean_over_rows(const Tensor& a);                    // [m,n] -> [1,n]

// ---- row-wise normalisations ----
Tensor softmax_rows(const Tensor& a);
Tensor log_softmax_rows(const Tensor& a);
/// Softmax over each row i restricted to columns [0, i]; columns > i get 0.
/// This is the causal-attention kernel (rows = query positions).
Tensor causal_masked_softmax(const Tensor& scores);
/// Layer norm over the last dimension of a [m,n] tensor with learnable
/// gamma/beta of shape [n].
Tensor layer_norm_rows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                       float eps = 1e-5f);

// ---- raw row helpers (graph-free backbone forward, DESIGN.md §10) ----
// The per-row bodies of softmax_rows / causal_masked_softmax, gelu and
// layer_norm_rows. The Tensor ops run these same functions, so code that
// computes on raw buffers gets bitwise the floats the op would produce.

/// out = softmax(in) over n values; in == out is allowed.
void softmax_row(const float* in, float* out, std::int64_t n);
/// One causal-attention row of n scores: softmax over the first `visible`
/// values, zeros after them; in == out is allowed.
void causal_softmax_row(const float* in, float* out, std::int64_t n, std::int64_t visible);
/// out[i] = gelu(in[i]) (tanh approximation); in == out is allowed.
void gelu_row(const float* in, float* out, std::int64_t n);
/// Layer-norm statistics of one row (layer_norm_rows keeps them for backward).
struct RowStats {
  float mean;
  float inv_std;
};
/// out[j] = gamma[j] * ((x[j] - mean) * inv_std) + beta[j] over n values.
RowStats layer_norm_row(const float* x, const float* gamma, const float* beta, float* out,
                        std::int64_t n, float eps = 1e-5f);
/// out[i] = in[i] > 0 ? in[i] : 0 over n values (relu's body); in == out is
/// allowed.
void relu_row(const float* in, float* out, std::int64_t n);
/// mean_over_rows' body: out[j] = (0 + a[0][j] + ... + a[m-1][j]) * (1/m)
/// for a [m, n], rows added in order.
void mean_rows(const float* a, std::int64_t m, std::int64_t n, float* out);
/// conv1d's body: x [Cin,T], w [Cout,Cin,K], bias [Cout] -> out [Cout,T_out]
/// with T_out = T + 2 pad - K + 1; each output starts from its bias and adds
/// the in-range products in (ic, kk) order.
void conv1d_rows(const float* x, const float* w, const float* bias, std::int64_t cin,
                 std::int64_t t, std::int64_t cout, std::int64_t k, int pad, float* out);

// ---- lookup / conv ----
/// weight: [V,D]; ids in [0,V) -> [T,D]
Tensor embedding(const Tensor& weight, std::span<const int> ids);
/// x: [Cin,T], w: [Cout,Cin,K], bias: [Cout]; stride 1, zero 'same' padding
/// when pad = K/2 -> [Cout,T].
Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, int pad);

// ---- reductions & losses ----
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);
/// Mean squared error; `target` is treated as constant.
Tensor mse_loss(const Tensor& pred, const Tensor& target);
/// Mean cross entropy over rows of logits [m,n] with integer targets.
/// Targets of -1 are ignored (masked out of the mean).
Tensor cross_entropy_rows(const Tensor& logits, std::span<const int> targets);
/// -mean(log_probs[i, targets[i]] * weights[i]) — policy-gradient loss.
Tensor nll_weighted(const Tensor& log_probs, std::span<const int> targets,
                    std::span<const float> weights);

}  // namespace netllm::tensor
