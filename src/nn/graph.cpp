#include "nn/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netllm::nn {

namespace {
using namespace netllm::tensor;
}  // namespace

std::vector<int> topological_order(const DagTopology& topo) {
  std::vector<int> order;
  topological_order(topo, order);
  return order;
}

void topological_order(const DagTopology& topo, std::vector<int>& order) {
  const auto n = topo.num_nodes;
  if (static_cast<std::int64_t>(topo.children.size()) != n) {
    throw std::invalid_argument("topological_order: children size mismatch");
  }
  // Kahn's algorithm on child -> parent edges (children must come first),
  // the parent lists packed as CSR: node c's parents, in the order the
  // child lists name c, sit at parents[first[c] .. first[c + 1]).
  thread_local std::vector<int> pending, first, parents, fill, frontier;
  const auto nu = static_cast<std::size_t>(n);
  pending.assign(nu, 0);
  first.assign(nu + 1, 0);
  for (int v = 0; v < n; ++v) {
    for (int c : topo.children[static_cast<std::size_t>(v)]) {
      if (c < 0 || c >= n) throw std::invalid_argument("topological_order: child out of range");
      ++first[static_cast<std::size_t>(c) + 1];
      ++pending[static_cast<std::size_t>(v)];
    }
  }
  for (std::size_t c = 0; c < nu; ++c) first[c + 1] += first[c];
  parents.resize(static_cast<std::size_t>(first[nu]));
  fill.assign(first.begin(), first.end() - 1);
  for (int v = 0; v < n; ++v) {
    for (int c : topo.children[static_cast<std::size_t>(v)]) {
      parents[static_cast<std::size_t>(fill[static_cast<std::size_t>(c)]++)] = v;
    }
  }
  order.clear();
  order.reserve(nu);
  frontier.clear();
  for (int v = 0; v < n; ++v) {
    if (pending[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    const auto vu = static_cast<std::size_t>(v);
    for (int i = first[vu]; i < first[vu + 1]; ++i) {
      const int p = parents[static_cast<std::size_t>(i)];
      if (--pending[static_cast<std::size_t>(p)] == 0) frontier.push_back(p);
    }
  }
  if (static_cast<std::int64_t>(order.size()) != n) {
    throw std::invalid_argument("topological_order: graph has a cycle");
  }
}

GraphEncoder::GraphEncoder(std::int64_t feature_dim, std::int64_t embed_dim, core::Rng& rng)
    : feature_dim_(feature_dim), embed_dim_(embed_dim) {
  f_ = std::make_shared<Mlp>(std::vector<std::int64_t>{embed_dim, embed_dim, embed_dim}, rng);
  g_ = std::make_shared<Mlp>(
      std::vector<std::int64_t>{feature_dim + embed_dim, embed_dim, embed_dim}, rng);
  global_ = std::make_shared<Mlp>(std::vector<std::int64_t>{embed_dim, embed_dim}, rng);
}

GraphEncoder::Output GraphEncoder::forward(const Tensor& features,
                                           const DagTopology& topo) const {
  if (features.rank() != 2 || features.dim(1) != feature_dim_) {
    throw std::invalid_argument("GraphEncoder: expected [N, feature_dim] features");
  }
  if (features.dim(0) != topo.num_nodes) {
    throw std::invalid_argument("GraphEncoder: feature row count != num_nodes");
  }
  const auto order = topological_order(topo);
  std::vector<Tensor> embed(static_cast<std::size_t>(topo.num_nodes));
  const auto zero_msg = Tensor::zeros({1, embed_dim_});
  for (int v : order) {
    const auto& children = topo.children[static_cast<std::size_t>(v)];
    Tensor msg;
    if (children.empty()) {
      msg = zero_msg;
    } else {
      std::vector<Tensor> transformed;
      transformed.reserve(children.size());
      for (int c : children) {
        transformed.push_back(f_->forward(embed[static_cast<std::size_t>(c)]));
      }
      msg = transformed.size() == 1 ? transformed[0] : add_n(transformed);
    }
    const auto xv = slice_rows(features, v, 1);
    // [1, feature_dim + embed_dim] via column concat (transpose trick).
    const auto joint = transpose(concat_rows({transpose(xv), transpose(msg)}));
    embed[static_cast<std::size_t>(v)] = g_->forward(joint);
  }
  Output out;
  out.node_embeddings = concat_rows(embed);
  out.global_summary = global_->forward(mean_over_rows(out.node_embeddings));
  return out;
}

void GraphEncoder::forward_rows(std::span<const float> features, const DagTopology& topo,
                                std::span<float> node_embeddings,
                                std::span<float> global_summary) const {
  const auto n = topo.num_nodes, fd = feature_dim_, e = embed_dim_;
  if (n <= 0 || static_cast<std::int64_t>(features.size()) != n * fd ||
      static_cast<std::int64_t>(node_embeddings.size()) != n * e ||
      static_cast<std::int64_t>(global_summary.size()) != e) {
    throw std::invalid_argument("GraphEncoder::forward_rows: shape mismatch");
  }
  struct Scratch {
    std::vector<int> order;
    std::vector<float> joint, child;  // [1, fd + e], [1, e]
  };
  thread_local Scratch ws;
  topological_order(topo, ws.order);
  const auto eu = static_cast<std::size_t>(e), fu = static_cast<std::size_t>(fd);
  ws.joint.resize(fu + eu);
  ws.child.resize(eu);
  const std::span<float> joint = ws.joint, child = ws.child;
  for (int v : ws.order) {
    const auto vu = static_cast<std::size_t>(v);
    const auto& children = topo.children[vu];
    // joint = [x_v ; msg], msg = add_n's 0 + f(e_c0) + f(e_c1) + ... in
    // child order. The tape passes a lone child's f row as is, which is the
    // same float: a Linear never outputs -0 (its zero-filled accumulator
    // turns every zero sum into +0), so 0 + f == f.
    std::copy_n(features.begin() + static_cast<std::ptrdiff_t>(vu * fu), fu, joint.begin());
    const auto msg = joint.subspan(fu, eu);
    std::fill(msg.begin(), msg.end(), 0.0f);
    for (int c : children) {
      f_->forward_rows(node_embeddings.subspan(static_cast<std::size_t>(c) * eu, eu), 1, child);
      for (std::size_t j = 0; j < eu; ++j) msg[j] += child[j];
    }
    g_->forward_rows(joint, 1, node_embeddings.subspan(vu * eu, eu));
  }
  mean_rows(node_embeddings.data(), n, e, child.data());
  global_->forward_rows(child, 1, global_summary);
}

void GraphEncoder::collect_params(NamedParams& out, const std::string& prefix) const {
  f_->collect_params(out, prefix + "f.");
  g_->collect_params(out, prefix + "g.");
  global_->collect_params(out, prefix + "global.");
}

}  // namespace netllm::nn
