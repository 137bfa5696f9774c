// Decima-style graph neural network over job DAGs (paper Table 1: the CJS
// task's input modality is a DAG describing stage dependencies and resource
// demands). Messages flow from leaf stages up through their parents:
//
//   e_v = g([x_v ; sum_{c in children(v)} f(e_c)])
//
// with shared MLPs f, g, plus a global summary embedding over all nodes.
// Used both by the Decima baseline and by NetLLM's multimodal encoder for
// the graph modality.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace netllm::nn {

/// Static DAG topology: children[v] lists the nodes whose messages feed v.
/// Must be acyclic; `GraphEncoder::forward` computes a topological order.
struct DagTopology {
  std::int64_t num_nodes = 0;
  std::vector<std::vector<int>> children;
};

class GraphEncoder final : public Module {
 public:
  GraphEncoder(std::int64_t feature_dim, std::int64_t embed_dim, core::Rng& rng);

  struct Output {
    Tensor node_embeddings;  // [N, embed_dim]
    Tensor global_summary;   // [1, embed_dim]
  };

  /// features: [N, feature_dim] row per DAG node.
  Output forward(const Tensor& features, const DagTopology& topo) const;
  /// Graph-free forward on raw rows: features [N, feature_dim] -> node
  /// embeddings [N, embed_dim] and the global summary [embed_dim]. Bitwise
  /// `forward`: a message adds its children's f rows from 0 in child order
  /// (add_n), the summary's mean is mean_over_rows'.
  void forward_rows(std::span<const float> features, const DagTopology& topo,
                    std::span<float> node_embeddings, std::span<float> global_summary) const;

  void collect_params(tensor::NamedParams& out, const std::string& prefix) const override;

  std::int64_t embed_dim() const { return embed_dim_; }

 private:
  std::int64_t feature_dim_, embed_dim_;
  std::shared_ptr<Mlp> f_;       // message transform
  std::shared_ptr<Mlp> g_;       // node update ([x_v ; msg] -> e_v)
  std::shared_ptr<Mlp> global_;  // summary over mean-pooled embeddings
};

/// Topological order (children before parents). Throws on cycles.
std::vector<int> topological_order(const DagTopology& topo);
/// The same order written into `order`, with per-thread scratch (no
/// allocation once warm).
void topological_order(const DagTopology& topo, std::vector<int>& order);

}  // namespace netllm::nn
