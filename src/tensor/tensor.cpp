#include "tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/threadpool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_dispatch.hpp"

namespace netllm::tensor {

namespace {

std::atomic<std::int64_t> g_live_floats{0};
std::atomic<std::int64_t> g_peak_floats{0};
std::atomic<std::int64_t> g_tape_nodes{0};

void track_alloc(std::int64_t n) {
  const auto live = g_live_floats.fetch_add(n) + n;
  std::int64_t peak = g_peak_floats.load();
  while (live > peak && !g_peak_floats.compare_exchange_weak(peak, live)) {
  }
}

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Build an op-result node whose requires_grad is the OR of its parents'.
NodePtr make_result(Shape shape, std::vector<NodePtr> parents) {
  bool rg = false;
  for (const auto& p : parents) rg = rg || p->requires_grad;
  auto node = std::make_shared<Node>(std::move(shape), rg);
  node->parents = std::move(parents);
  g_tape_nodes.fetch_add(1, std::memory_order_relaxed);
  return node;
}

// The blocked, thread-parallel matmul kernels live in tensor/kernels.cpp
// (shared with tests/benches); re-exported here under the old local names.
using kernels::matmul_accum;
using kernels::matmul_at_accum;
using kernels::matmul_bt_accum;

// Scalars per chunk before an elementwise loop is worth dispatching to the
// pool; paper-scale activations (<= 128 x 192) stay inline.
constexpr std::int64_t kElemGrain = 1 << 15;
// Rows per chunk for row-wise ops (softmax / layer-norm families).
constexpr std::int64_t kSoftmaxRowGrain = 32;

/// Run fn over index range [0,n) in parallel chunks. Chunks are disjoint, so
/// elementwise forward writes and per-index grad accumulations are race-free
/// and bitwise independent of the thread count.
template <typename Fn>
void parallel_elems(std::size_t n, Fn&& fn) {
  core::parallel_for(static_cast<std::int64_t>(n), kElemGrain,
                     [&fn](std::int64_t b, std::int64_t e) {
                       fn(static_cast<std::size_t>(b), static_cast<std::size_t>(e));
                     });
}

}  // namespace

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream ss;
  ss << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) ss << ',';
    ss << shape[i];
  }
  ss << ']';
  return ss.str();
}

Node::Node(Shape s, bool rg) : shape(std::move(s)), requires_grad(rg) {
  value.assign(static_cast<std::size_t>(shape_numel(shape)), 0.0f);
  track_alloc(numel());
}

Node::~Node() { track_alloc(-numel() - static_cast<std::int64_t>(grad.size())); }

void Node::ensure_grad() {
  if (grad.empty()) {
    grad.assign(value.size(), 0.0f);
    track_alloc(numel());
  }
}

std::int64_t live_float_count() { return g_live_floats.load(); }
std::int64_t peak_float_count() { return g_peak_floats.load(); }
void reset_peak_float_count() { g_peak_floats.store(g_live_floats.load()); }
std::int64_t tape_nodes_built() { return g_tape_nodes.load(std::memory_order_relaxed); }

// ---- construction ----

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return Tensor(std::make_shared<Node>(std::move(shape), requires_grad));
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto t = zeros(std::move(shape), requires_grad);
  std::fill(t.node_->value.begin(), t.node_->value.end(), value);
  return t;
}

Tensor Tensor::from(std::vector<float> data, Shape shape, bool requires_grad) {
  check(static_cast<std::int64_t>(data.size()) == shape_numel(shape),
        "Tensor::from: data size does not match shape");
  auto t = zeros(std::move(shape), requires_grad);
  t.node_->value = std::move(data);
  return t;
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from({value}, {1}, requires_grad);
}

Tensor Tensor::randn(Shape shape, core::Rng& rng, float stddev, bool requires_grad) {
  auto t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.node_->value) v = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, core::Rng& rng, float bound, bool requires_grad) {
  auto t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.node_->value) v = static_cast<float>(rng.uniform(-bound, bound));
  return t;
}

std::span<const float> Tensor::grad() const {
  node_->ensure_grad();
  return node_->grad;
}

float Tensor::item() const {
  check(numel() == 1, "Tensor::item: tensor is not scalar");
  return node_->value[0];
}

void Tensor::backward() const {
  check(numel() == 1, "backward: root must be scalar");
  // Iterative post-order DFS to build a topological order.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, idx] = stack.back();
    if (idx < n->parents.size()) {
      Node* parent = n->parents[idx].get();
      ++idx;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      topo.push_back(n);
      stack.pop_back();
    }
  }
  node_->ensure_grad();
  node_->grad[0] += 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* n = *it;
    if (n->backward && n->requires_grad) n->backward(*n);
  }
}

void Tensor::zero_grad() const {
  node_->ensure_grad();
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

Tensor Tensor::detach() const {
  auto t = zeros(node_->shape, false);
  t.node_->value = node_->value;
  return t;
}

// ---- elementwise ----

Tensor add(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "add: shape mismatch");
  auto node = make_result(a.shape(), {a.node(), b.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) node->value[i] = a.data()[i] + b.data()[i];
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward = [pa, pb, n](Node& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pa->grad[i] += self.grad[i];
        });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pb->grad[i] += self.grad[i];
        });
      }
    };
  }
  return Tensor(node);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "sub: shape mismatch");
  auto node = make_result(a.shape(), {a.node(), b.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) node->value[i] = a.data()[i] - b.data()[i];
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward = [pa, pb, n](Node& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pa->grad[i] += self.grad[i];
        });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pb->grad[i] -= self.grad[i];
        });
      }
    };
  }
  return Tensor(node);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "mul: shape mismatch");
  auto node = make_result(a.shape(), {a.node(), b.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) node->value[i] = a.data()[i] * b.data()[i];
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward = [pa, pb, n](Node& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pa->grad[i] += self.grad[i] * pb->value[i];
        });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
          for (std::size_t i = b0; i < e0; ++i) pb->grad[i] += self.grad[i] * pa->value[i];
        });
      }
    };
  }
  return Tensor(node);
}

Tensor scale(const Tensor& a, float c) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) node->value[i] = a.data()[i] * c;
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, c, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) pa->grad[i] += self.grad[i] * c;
      });
    };
  }
  return Tensor(node);
}

Tensor add_scalar(const Tensor& a, float c) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) node->value[i] = a.data()[i] + c;
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) pa->grad[i] += self.grad[i];
      });
    };
  }
  return Tensor(node);
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor add_n(const std::vector<Tensor>& xs) {
  check(!xs.empty(), "add_n: empty input");
  std::vector<NodePtr> parents;
  parents.reserve(xs.size());
  for (const auto& x : xs) {
    check(x.shape() == xs[0].shape(), "add_n: shape mismatch");
    parents.push_back(x.node());
  }
  auto node = make_result(xs[0].shape(), std::move(parents));
  const auto n = static_cast<std::size_t>(node->numel());
  for (const auto& x : xs) {
    for (std::size_t i = 0; i < n; ++i) node->value[i] += x.data()[i];
  }
  if (node->requires_grad) {
    node->backward = [n](Node& self) {
      for (const auto& p : self.parents) {
        if (!p->requires_grad) continue;
        p->ensure_grad();
        for (std::size_t i = 0; i < n; ++i) p->grad[i] += self.grad[i];
      }
    };
  }
  return Tensor(node);
}

// ---- activations ----

void relu_row(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

Tensor relu(const Tensor& a) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    relu_row(a.data().data() + b0, node->value.data() + b0, static_cast<std::int64_t>(e0 - b0));
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) {
          if (pa->value[i] > 0.0f) pa->grad[i] += self.grad[i];
        }
      });
    };
  }
  return Tensor(node);
}

// tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), a
// row kernel of the active ISA tier, bitwise the same on every tier
// (DESIGN.md §16).
using kernels::detail::kGeluA;
using kernels::detail::kGeluC;

void gelu_row(const float* in, float* out, std::int64_t n) {
  kernels::detail::active_table().gelu_row(in, out, n);
}

Tensor gelu(const Tensor& a) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    gelu_row(a.data().data() + b0, node->value.data() + b0, static_cast<std::int64_t>(e0 - b0));
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        // The forward's tanh values, through the same tanh the forward ran.
        std::vector<float> th(e0 - b0);
        for (std::size_t i = b0; i < e0; ++i) {
          const float x = pa->value[i];
          th[i - b0] = kGeluC * (x + kGeluA * x * x * x);
        }
        kernels::tanh_row(th.data(), th.data(), static_cast<std::int64_t>(th.size()));
        for (std::size_t i = b0; i < e0; ++i) {
          const float x = pa->value[i];
          const float t = th[i - b0];
          const float dinner = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
          const float d = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
          pa->grad[i] += self.grad[i] * d;
        }
      });
    };
  }
  return Tensor(node);
}

Tensor tanh_t(const Tensor& a) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    kernels::tanh_row(a.data().data() + b0, node->value.data() + b0,
                      static_cast<std::int64_t>(e0 - b0));
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) {
          const float y = self.value[i];
          pa->grad[i] += self.grad[i] * (1.0f - y * y);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor sigmoid_t(const Tensor& a) {
  auto node = make_result(a.shape(), {a.node()});
  const auto n = static_cast<std::size_t>(node->numel());
  parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) {
      node->value[i] = 1.0f / (1.0f + std::exp(-a.data()[i]));
    }
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, n](Node& self) {
      pa->ensure_grad();
      parallel_elems(n, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) {
          const float y = self.value[i];
          pa->grad[i] += self.grad[i] * y * (1.0f - y);
        }
      });
    };
  }
  return Tensor(node);
}

// ---- linear algebra ----

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  const auto m = a.dim(0), k = a.dim(1), n = b.dim(1);
  check(b.dim(0) == k, "matmul: inner dimension mismatch");
  auto node = make_result({m, n}, {a.node(), b.node()});
  matmul_accum(a.data().data(), b.data().data(), node->value.data(), m, k, n);
  if (node->requires_grad) {
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward = [pa, pb, m, k, n](Node& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        // dA[m,k] += dC[m,n] * B^T ; B is [k,n]
        matmul_bt_accum(self.grad.data(), pb->value.data(), pa->grad.data(), m, n, k);
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        // dB[k,n] += A^T[k,m] * dC[m,n]
        matmul_at_accum(pa->value.data(), self.grad.data(), pb->grad.data(), m, k, n);
      }
    };
  }
  return Tensor(node);
}

Tensor transpose(const Tensor& a) {
  check(a.rank() == 2, "transpose: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  auto node = make_result({n, m}, {a.node()});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) node->value[j * m + i] = a.data()[i * n + j];
  }
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, m, n](Node& self) {
      pa->ensure_grad();
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) pa->grad[i * n + j] += self.grad[j * m + i];
      }
    };
  }
  return Tensor(node);
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  check(a.rank() == 2 && bias.rank() == 1, "add_bias: expects [m,n] + [n]");
  const auto m = a.dim(0), n = a.dim(1);
  check(bias.dim(0) == n, "add_bias: bias length mismatch");
  auto node = make_result({m, n}, {a.node(), bias.node()});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) node->value[i * n + j] = a.data()[i * n + j] + bias.data()[j];
  }
  if (node->requires_grad) {
    Node* pa = a.node().get();
    Node* pb = bias.node().get();
    node->backward = [pa, pb, m, n](Node& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        const auto total = static_cast<std::size_t>(m * n);
        for (std::size_t i = 0; i < total; ++i) pa->grad[i] += self.grad[i];
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) pb->grad[j] += self.grad[i * n + j];
        }
      }
    };
  }
  return Tensor(node);
}

// ---- shape ----

Tensor reshape(const Tensor& a, Shape new_shape) {
  check(shape_numel(new_shape) == a.numel(), "reshape: numel mismatch");
  auto node = make_result(std::move(new_shape), {a.node()});
  node->value = std::vector<float>(a.data().begin(), a.data().end());
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa](Node& self) {
      pa->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) pa->grad[i] += self.grad[i];
    };
  }
  return Tensor(node);
}

Tensor concat_rows(const std::vector<Tensor>& xs) {
  check(!xs.empty(), "concat_rows: empty input");
  const auto cols = xs[0].rank() == 2 ? xs[0].dim(1) : xs[0].dim(0);
  std::int64_t total_rows = 0;
  std::vector<NodePtr> parents;
  parents.reserve(xs.size());
  for (const auto& x : xs) {
    check(x.rank() == 2, "concat_rows: rank-2 tensors required");
    check(x.dim(1) == cols, "concat_rows: column mismatch");
    total_rows += x.dim(0);
    parents.push_back(x.node());
  }
  auto node = make_result({total_rows, cols}, std::move(parents));
  std::int64_t row = 0;
  for (const auto& x : xs) {
    std::copy(x.data().begin(), x.data().end(), node->value.begin() + row * cols);
    row += x.dim(0);
  }
  if (node->requires_grad) {
    node->backward = [cols](Node& self) {
      std::int64_t row = 0;
      for (const auto& p : self.parents) {
        const auto rows_p = p->shape[0];
        if (p->requires_grad) {
          p->ensure_grad();
          const auto count = static_cast<std::size_t>(rows_p * cols);
          for (std::size_t i = 0; i < count; ++i) {
            p->grad[i] += self.grad[static_cast<std::size_t>(row * cols) + i];
          }
        }
        row += rows_p;
      }
    };
  }
  return Tensor(node);
}

Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len) {
  check(a.rank() == 2, "slice_rows: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  check(start >= 0 && len >= 0 && start + len <= m, "slice_rows: out of range");
  auto node = make_result({len, n}, {a.node()});
  std::copy(a.data().begin() + start * n, a.data().begin() + (start + len) * n,
            node->value.begin());
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, start, n](Node& self) {
      pa->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) {
        pa->grad[static_cast<std::size_t>(start * n) + i] += self.grad[i];
      }
    };
  }
  return Tensor(node);
}

Tensor slice_cols(const Tensor& a, std::int64_t start, std::int64_t len) {
  check(a.rank() == 2, "slice_cols: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  check(start >= 0 && len >= 0 && start + len <= n, "slice_cols: out of range");
  auto node = make_result({m, len}, {a.node()});
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy(a.data().begin() + i * n + start, a.data().begin() + i * n + start + len,
              node->value.begin() + i * len);
  }
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, start, len, n, m](Node& self) {
      pa->ensure_grad();
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < len; ++j) {
          pa->grad[i * n + start + j] += self.grad[i * len + j];
        }
      }
    };
  }
  return Tensor(node);
}

void mean_rows(const float* a, std::int64_t m, std::int64_t n, float* out) {
  std::fill(out, out + n, 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out[j] += a[i * n + j];
  }
  const float inv = 1.0f / static_cast<float>(m);
  for (std::int64_t j = 0; j < n; ++j) out[j] *= inv;
}

Tensor mean_over_rows(const Tensor& a) {
  check(a.rank() == 2, "mean_over_rows: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  check(m > 0, "mean_over_rows: empty tensor");
  auto node = make_result({1, n}, {a.node()});
  mean_rows(a.data().data(), m, n, node->value.data());
  const float inv = 1.0f / static_cast<float>(m);
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, m, n, inv](Node& self) {
      pa->ensure_grad();
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) pa->grad[i * n + j] += self.grad[j] * inv;
      }
    };
  }
  return Tensor(node);
}

// ---- row-wise normalisations ----

// The max, the exps (glibc expf's bits on every tier), their serial sum
// and the normalising multiply: a row kernel of the active ISA tier
// (DESIGN.md §16).
void softmax_row(const float* in, float* out, std::int64_t n) {
  kernels::detail::active_table().softmax_row(in, out, n);
}

void causal_softmax_row(const float* in, float* out, std::int64_t n, std::int64_t visible) {
  softmax_row(in, out, visible);
  for (std::int64_t j = visible; j < n; ++j) out[j] = 0.0f;
}

Tensor softmax_rows(const Tensor& a) {
  check(a.rank() == 2, "softmax_rows: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  auto node = make_result({m, n}, {a.node()});
  core::parallel_for(m, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      softmax_row(a.data().data() + i * n, node->value.data() + i * n, n);
    }
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, m, n](Node& self) {
      pa->ensure_grad();
      core::parallel_for(m, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const float* y = self.value.data() + i * n;
          const float* dy = self.grad.data() + i * n;
          float dot = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) dot += y[j] * dy[j];
          for (std::int64_t j = 0; j < n; ++j) pa->grad[i * n + j] += y[j] * (dy[j] - dot);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor log_softmax_rows(const Tensor& a) {
  check(a.rank() == 2, "log_softmax_rows: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  auto node = make_result({m, n}, {a.node()});
  core::parallel_for(m, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const float* in = a.data().data() + i * n;
      float* out = node->value.data() + i * n;
      float mx = in[0];
      for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, in[j]);
      float sum = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) sum += std::exp(in[j] - mx);
      const float lse = mx + std::log(sum);
      for (std::int64_t j = 0; j < n; ++j) out[j] = in[j] - lse;
    }
  });
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa, m, n](Node& self) {
      pa->ensure_grad();
      core::parallel_for(m, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const float* y = self.value.data() + i * n;  // log-probs
          const float* dy = self.grad.data() + i * n;
          float sum_dy = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) sum_dy += dy[j];
          for (std::int64_t j = 0; j < n; ++j) {
            pa->grad[i * n + j] += dy[j] - std::exp(y[j]) * sum_dy;
          }
        }
      });
    };
  }
  return Tensor(node);
}

Tensor causal_masked_softmax(const Tensor& scores) {
  check(scores.rank() == 2, "causal_masked_softmax: rank-2 tensor required");
  const auto t = scores.dim(0);
  check(scores.dim(1) == t, "causal_masked_softmax: square matrix required");
  auto node = make_result({t, t}, {scores.node()});
  core::parallel_for(t, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      causal_softmax_row(scores.data().data() + i * t, node->value.data() + i * t, t, i + 1);
    }
  });
  if (node->requires_grad) {
    Node* pa = scores.node().get();
    node->backward = [pa, t](Node& self) {
      pa->ensure_grad();
      core::parallel_for(t, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const float* y = self.value.data() + i * t;
          const float* dy = self.grad.data() + i * t;
          float dot = 0.0f;
          for (std::int64_t j = 0; j <= i; ++j) dot += y[j] * dy[j];
          for (std::int64_t j = 0; j <= i; ++j) {
            pa->grad[i * t + j] += y[j] * (dy[j] - dot);
          }
        }
      });
    };
  }
  return Tensor(node);
}

RowStats layer_norm_row(const float* x, const float* gamma, const float* beta, float* out,
                        std::int64_t n, float eps) {
  float mu = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) mu += x[j];
  mu /= static_cast<float>(n);
  float var = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) var += (x[j] - mu) * (x[j] - mu);
  var /= static_cast<float>(n);
  const float inv_std = 1.0f / std::sqrt(var + eps);
  for (std::int64_t j = 0; j < n; ++j) {
    const float xhat = (x[j] - mu) * inv_std;
    out[j] = gamma[j] * xhat + beta[j];
  }
  return {mu, inv_std};
}

Tensor layer_norm_rows(const Tensor& a, const Tensor& gamma, const Tensor& beta, float eps) {
  check(a.rank() == 2, "layer_norm_rows: rank-2 tensor required");
  const auto m = a.dim(0), n = a.dim(1);
  check(gamma.rank() == 1 && gamma.dim(0) == n, "layer_norm_rows: gamma shape");
  check(beta.rank() == 1 && beta.dim(0) == n, "layer_norm_rows: beta shape");
  auto node = make_result({m, n}, {a.node(), gamma.node(), beta.node()});
  // Cache per-row (mean, inv_std) for backward. Rows are independent, so the
  // forward parallelises; the backward stays serial because gamma/beta grads
  // accumulate across rows (a shared-accumulator race otherwise).
  auto stats = std::make_shared<std::vector<float>>(static_cast<std::size_t>(2 * m));
  core::parallel_for(m, kSoftmaxRowGrain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const auto st = layer_norm_row(a.data().data() + i * n, gamma.data().data(),
                                     beta.data().data(), node->value.data() + i * n, n, eps);
      (*stats)[static_cast<std::size_t>(2 * i)] = st.mean;
      (*stats)[static_cast<std::size_t>(2 * i + 1)] = st.inv_std;
    }
  });
  if (node->requires_grad) {
    Node* px = a.node().get();
    Node* pg = gamma.node().get();
    Node* pb = beta.node().get();
    node->backward = [px, pg, pb, m, n, stats](Node& self) {
      for (std::int64_t i = 0; i < m; ++i) {
        const float mu = (*stats)[static_cast<std::size_t>(2 * i)];
        const float inv_std = (*stats)[static_cast<std::size_t>(2 * i + 1)];
        const float* x = px->value.data() + i * n;
        const float* dy = self.grad.data() + i * n;
        if (pg->requires_grad) {
          pg->ensure_grad();
          for (std::int64_t j = 0; j < n; ++j) {
            pg->grad[j] += dy[j] * (x[j] - mu) * inv_std;
          }
        }
        if (pb->requires_grad) {
          pb->ensure_grad();
          for (std::int64_t j = 0; j < n; ++j) pb->grad[j] += dy[j];
        }
        if (px->requires_grad) {
          px->ensure_grad();
          // dxhat = dy * gamma; dx = inv_std (dxhat - mean(dxhat) - xhat mean(dxhat xhat))
          float mean_dxhat = 0.0f, mean_dxhat_xhat = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) {
            const float xhat = (x[j] - mu) * inv_std;
            const float dxhat = dy[j] * pg->value[j];
            mean_dxhat += dxhat;
            mean_dxhat_xhat += dxhat * xhat;
          }
          mean_dxhat /= static_cast<float>(n);
          mean_dxhat_xhat /= static_cast<float>(n);
          for (std::int64_t j = 0; j < n; ++j) {
            const float xhat = (x[j] - mu) * inv_std;
            const float dxhat = dy[j] * pg->value[j];
            px->grad[i * n + j] += inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
          }
        }
      }
    };
  }
  return Tensor(node);
}

// ---- lookup / conv ----

Tensor embedding(const Tensor& weight, std::span<const int> ids) {
  check(weight.rank() == 2, "embedding: weight must be [V,D]");
  const auto v = weight.dim(0), d = weight.dim(1);
  const auto t = static_cast<std::int64_t>(ids.size());
  auto ids_copy = std::make_shared<std::vector<int>>(ids.begin(), ids.end());
  for (int id : *ids_copy) check(id >= 0 && id < v, "embedding: id out of range");
  auto node = make_result({t, d}, {weight.node()});
  for (std::int64_t i = 0; i < t; ++i) {
    const auto row = static_cast<std::int64_t>((*ids_copy)[static_cast<std::size_t>(i)]);
    std::copy(weight.data().begin() + row * d, weight.data().begin() + (row + 1) * d,
              node->value.begin() + i * d);
  }
  if (node->requires_grad) {
    Node* pw = weight.node().get();
    node->backward = [pw, ids_copy, d](Node& self) {
      pw->ensure_grad();
      for (std::size_t i = 0; i < ids_copy->size(); ++i) {
        const auto row = static_cast<std::int64_t>((*ids_copy)[i]);
        for (std::int64_t j = 0; j < d; ++j) {
          pw->grad[row * d + j] += self.grad[static_cast<std::int64_t>(i) * d + j];
        }
      }
    };
  }
  return Tensor(node);
}

void conv1d_rows(const float* x, const float* w, const float* bias, std::int64_t cin,
                 std::int64_t t, std::int64_t cout, std::int64_t k, int pad, float* out) {
  const auto t_out = t + 2 * pad - k + 1;
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    for (std::int64_t ot = 0; ot < t_out; ++ot) {
      float acc = bias[oc];
      for (std::int64_t ic = 0; ic < cin; ++ic) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const std::int64_t it = ot - pad + kk;
          if (it < 0 || it >= t) continue;
          acc += x[ic * t + it] * w[(oc * cin + ic) * k + kk];
        }
      }
      out[oc * t_out + ot] = acc;
    }
  }
}

Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, int pad) {
  check(x.rank() == 2, "conv1d: x must be [Cin,T]");
  check(w.rank() == 3, "conv1d: w must be [Cout,Cin,K]");
  const auto cin = x.dim(0), t = x.dim(1);
  const auto cout = w.dim(0), k = w.dim(2);
  check(w.dim(1) == cin, "conv1d: channel mismatch");
  check(bias.rank() == 1 && bias.dim(0) == cout, "conv1d: bias shape");
  const auto t_out = t + 2 * pad - k + 1;
  check(t_out >= 1, "conv1d: kernel larger than padded input");
  auto node = make_result({cout, t_out}, {x.node(), w.node(), bias.node()});
  conv1d_rows(x.data().data(), w.data().data(), bias.data().data(), cin, t, cout, k, pad,
              node->value.data());
  if (node->requires_grad) {
    Node* px = x.node().get();
    Node* pw = w.node().get();
    Node* pb = bias.node().get();
    node->backward = [px, pw, pb, cin, t, cout, k, t_out, pad](Node& self) {
      if (pb->requires_grad) pb->ensure_grad();
      if (pw->requires_grad) pw->ensure_grad();
      if (px->requires_grad) px->ensure_grad();
      for (std::int64_t oc = 0; oc < cout; ++oc) {
        for (std::int64_t ot = 0; ot < t_out; ++ot) {
          const float dy = self.grad[oc * t_out + ot];
          if (dy == 0.0f) continue;
          if (pb->requires_grad) pb->grad[oc] += dy;
          for (std::int64_t ic = 0; ic < cin; ++ic) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
              const std::int64_t it = ot - pad + kk;
              if (it < 0 || it >= t) continue;
              if (pw->requires_grad) {
                pw->grad[(oc * cin + ic) * k + kk] += dy * px->value[ic * t + it];
              }
              if (px->requires_grad) {
                px->grad[ic * t + it] += dy * pw->value[(oc * cin + ic) * k + kk];
              }
            }
          }
        }
      }
    };
  }
  return Tensor(node);
}

// ---- reductions & losses ----

Tensor sum_all(const Tensor& a) {
  auto node = make_result({1}, {a.node()});
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  node->value[0] = acc;
  if (node->requires_grad) {
    Node* pa = a.node().get();
    node->backward = [pa](Node& self) {
      pa->ensure_grad();
      const float g = self.grad[0];
      for (auto& gv : pa->grad) gv += g;
    };
  }
  return Tensor(node);
}

Tensor mean_all(const Tensor& a) { return scale(sum_all(a), 1.0f / static_cast<float>(a.numel())); }

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check(pred.shape() == target.shape(), "mse_loss: shape mismatch");
  auto node = make_result({1}, {pred.node()});
  const auto n = static_cast<std::size_t>(pred.numel());
  auto diff = std::make_shared<std::vector<float>>(n);
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    (*diff)[i] = pred.data()[i] - target.data()[i];
    acc += (*diff)[i] * (*diff)[i];
  }
  node->value[0] = acc / static_cast<float>(n);
  if (node->requires_grad) {
    Node* pp = pred.node().get();
    node->backward = [pp, diff, n](Node& self) {
      pp->ensure_grad();
      const float c = 2.0f * self.grad[0] / static_cast<float>(n);
      for (std::size_t i = 0; i < n; ++i) pp->grad[i] += c * (*diff)[i];
    };
  }
  return Tensor(node);
}

Tensor cross_entropy_rows(const Tensor& logits, std::span<const int> targets) {
  check(logits.rank() == 2, "cross_entropy_rows: rank-2 logits required");
  const auto m = logits.dim(0), n = logits.dim(1);
  check(static_cast<std::int64_t>(targets.size()) == m, "cross_entropy_rows: target count");
  auto tcopy = std::make_shared<std::vector<int>>(targets.begin(), targets.end());
  std::int64_t valid = 0;
  for (int t : *tcopy) {
    check(t >= -1 && t < n, "cross_entropy_rows: target out of range");
    if (t >= 0) ++valid;
  }
  check(valid > 0, "cross_entropy_rows: all targets masked");
  auto node = make_result({1}, {logits.node()});
  // Cache row-wise softmax for backward.
  auto probs = std::make_shared<std::vector<float>>(static_cast<std::size_t>(m * n));
  float loss = 0.0f;
  for (std::int64_t i = 0; i < m; ++i) {
    softmax_row(logits.data().data() + i * n, probs->data() + i * n, n);
    const int t = (*tcopy)[static_cast<std::size_t>(i)];
    if (t < 0) continue;
    loss -= std::log(std::max((*probs)[static_cast<std::size_t>(i * n + t)], 1e-12f));
  }
  node->value[0] = loss / static_cast<float>(valid);
  if (node->requires_grad) {
    Node* pl = logits.node().get();
    node->backward = [pl, tcopy, probs, m, n, valid](Node& self) {
      pl->ensure_grad();
      const float c = self.grad[0] / static_cast<float>(valid);
      for (std::int64_t i = 0; i < m; ++i) {
        const int t = (*tcopy)[static_cast<std::size_t>(i)];
        if (t < 0) continue;
        for (std::int64_t j = 0; j < n; ++j) {
          float g = (*probs)[static_cast<std::size_t>(i * n + j)];
          if (j == t) g -= 1.0f;
          pl->grad[i * n + j] += c * g;
        }
      }
    };
  }
  return Tensor(node);
}

Tensor nll_weighted(const Tensor& log_probs, std::span<const int> targets,
                    std::span<const float> weights) {
  check(log_probs.rank() == 2, "nll_weighted: rank-2 log-probs required");
  const auto m = log_probs.dim(0), n = log_probs.dim(1);
  check(static_cast<std::int64_t>(targets.size()) == m, "nll_weighted: target count");
  check(weights.size() == targets.size(), "nll_weighted: weight count");
  auto tcopy = std::make_shared<std::vector<int>>(targets.begin(), targets.end());
  auto wcopy = std::make_shared<std::vector<float>>(weights.begin(), weights.end());
  for (int t : *tcopy) check(t >= 0 && t < n, "nll_weighted: target out of range");
  auto node = make_result({1}, {log_probs.node()});
  float loss = 0.0f;
  for (std::int64_t i = 0; i < m; ++i) {
    loss -= (*wcopy)[static_cast<std::size_t>(i)] *
            log_probs.data()[i * n + (*tcopy)[static_cast<std::size_t>(i)]];
  }
  node->value[0] = loss / static_cast<float>(m);
  if (node->requires_grad) {
    Node* pl = log_probs.node().get();
    node->backward = [pl, tcopy, wcopy, m, n](Node& self) {
      pl->ensure_grad();
      const float c = self.grad[0] / static_cast<float>(m);
      for (std::int64_t i = 0; i < m; ++i) {
        pl->grad[i * n + (*tcopy)[static_cast<std::size_t>(i)]] -=
            c * (*wcopy)[static_cast<std::size_t>(i)];
      }
    };
  }
  return Tensor(node);
}

}  // namespace netllm::tensor
