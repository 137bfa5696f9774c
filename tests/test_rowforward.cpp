// Graph-free encoder and head row forwards (ctest -L inference), DESIGN.md §10.
//
// Pinned claims, on every supported ISA tier: each `forward_rows` (and the
// span `argmax`) returns bitwise the floats, or the answer, of its Tensor
// forward, with NaN, +-Inf and -0 among the inputs:
//   - Mlp (relu, gelu, tanh), ScalarEncoder over stacked groups,
//     TimeSeriesEncoder (conv1d), ActionEncoder (embedding + LayerNorm);
//   - non-causal attention as rows = 1 attend_head calls: a ViT-style block
//     at every token count up to the ViT-lite's patch count, stacked
//     cache-less segments, the whole ViT-lite and ImageEncoder;
//   - GraphEncoder and GraphTokenEncoder on random DAGs with nodes of zero,
//     one and several children (add_n's 0 + sum);
//   - RegressionHead, CategoricalHead::argmax and PointerHead::argmax,
//     which throw on a non-finite logit exactly when the Tensor ones do;
//   - and the kv.appended_* counters, bumped once per segment and layer,
//     still total one row per appended position.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/transformer.hpp"
#include "nn/vit.hpp"
#include "tensor/isa.hpp"
#include "tensor/tensor.hpp"

namespace ad = netllm::adapt;
namespace isa = netllm::tensor::isa;
namespace nn = netllm::nn;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

struct IsaGuard {
  ~IsaGuard() { isa::reset_active_isa(); }
};

/// The floats' bit patterns, every NaN as one canonical pattern. A NaN's
/// sign and payload come from whichever NaN operand an instruction
/// forwards, and the attention products' vector FMAs order their operands
/// differently in the fused kernel and in the tape's matmul; a NaN output
/// is caught as non-finite either way. Everything else, -0 and +-Inf
/// included, must match bit for bit.
std::vector<std::uint32_t> bits(std::span<const float> xs) {
  std::vector<std::uint32_t> out;
  out.reserve(xs.size());
  for (float x : xs) out.push_back(x != x ? 0x7fc00000u : std::bit_cast<std::uint32_t>(x));
  return out;
}

/// An argmax's answer, or -1 when it throws on a non-finite logit.
template <typename Fn>
int answer(Fn&& argmax) {
  try {
    return argmax();
  } catch (const std::runtime_error&) {
    return -1;
  }
}

/// Every parameter uniform in [-1, 1], so LayerNorm gains, biases and the
/// frozen ViT all carry non-trivial values.
void spread(const nn::Module& m, Rng& rng) {
  for (auto t : m.parameters()) {
    for (auto& x : t.mutable_data()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

/// n values in [-2, 2]; with `specials`, NaN, +Inf, -Inf, -0 and +0 land at
/// seeded positions.
std::vector<float> values(std::size_t n, Rng& rng, bool specials) {
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  if (specials && n > 0) {
    const float s[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity(), -0.0f, 0.0f};
    for (float v : s) out[static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(n) - 1))] = v;
  }
  return out;
}

/// Run `fn(where)` on every supported tier.
template <typename Fn>
void on_every_tier(Fn&& fn) {
  IsaGuard guard;
  for (const auto tier : isa::supported_isas()) {
    ASSERT_EQ(isa::set_active_isa(tier), tier);
    fn(std::string(isa::isa_name(tier)));
  }
}

std::vector<float> rows_of(const Tensor& t) { return {t.data().begin(), t.data().end()}; }

/// A random DAG over n nodes whose labels are shuffled (so the topological
/// order is not the label order): each node takes up to three children
/// among the nodes ranked below it, sometimes none.
nn::DagTopology random_dag(int n, Rng& rng) {
  std::vector<int> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(label[static_cast<std::size_t>(i)],
              label[static_cast<std::size_t>(rng.randint(0, i))]);
  }
  nn::DagTopology topo;
  topo.num_nodes = n;
  topo.children.resize(static_cast<std::size_t>(n));
  for (int rank = 1; rank < n; ++rank) {
    const auto k = rng.randint(0, std::min(3, rank));
    auto& kids = topo.children[static_cast<std::size_t>(label[static_cast<std::size_t>(rank)])];
    for (std::int64_t j = 0; j < k; ++j) {
      kids.push_back(label[static_cast<std::size_t>(rng.randint(0, rank - 1))]);
    }
  }
  return topo;
}

}  // namespace

TEST(RowForward, MlpRowsEqualTapeForEveryActivation) {
  Rng rng(3);
  for (const auto act : {nn::Activation::kRelu, nn::Activation::kGelu, nn::Activation::kTanh}) {
    const nn::Mlp mlp({5, 9, 7, 3}, rng, act);
    spread(mlp, rng);
    on_every_tier([&](const std::string& where) {
      for (const std::int64_t m : {1, 4, 13}) {
        for (const bool specials : {false, true}) {
          const auto x = values(static_cast<std::size_t>(m * 5), rng, specials);
          const auto tape = mlp.forward(Tensor::from(x, {m, 5}));
          std::vector<float> y(static_cast<std::size_t>(m * 3));
          mlp.forward_rows(x, m, y);
          EXPECT_EQ(bits(y), bits(tape.data())) << where << " m=" << m;
        }
      }
    });
  }
}

TEST(RowForward, ScalarTimeSeriesAndActionEncodersEqualTape) {
  Rng rng(5);
  const std::int64_t d = 16;
  const ad::ScalarEncoder scalar(3, d, rng);
  const ad::TimeSeriesEncoder series(1, 8, d, rng);
  const ad::TimeSeriesEncoder wide(2, 5, d, rng, /*conv_channels=*/4, /*kernel=*/5);
  const ad::ActionEncoder action(6, d, rng);
  for (const nn::Module* m : std::initializer_list<const nn::Module*>{&scalar, &series, &wide, &action}) {
    spread(*m, rng);
  }
  on_every_tier([&](const std::string& where) {
    for (const bool specials : {false, true}) {
      // Groups stacked into m rows are each their own [1, 3] call.
      for (const std::int64_t m : {1, 2, 11}) {
        const auto x = values(static_cast<std::size_t>(m * 3), rng, specials);
        std::vector<float> y(static_cast<std::size_t>(m * d));
        scalar.forward_rows(x, m, y);
        EXPECT_EQ(bits(y), bits(scalar.forward(Tensor::from(x, {m, 3})).data()))
            << where << " scalar m=" << m;
        for (std::int64_t r = 0; r < m; ++r) {
          const auto one = scalar.forward(std::span<const float>(x).subspan(
              static_cast<std::size_t>(r * 3), 3));
          EXPECT_EQ(bits(std::span<const float>(y).subspan(static_cast<std::size_t>(r * d),
                                                           static_cast<std::size_t>(d))),
                    bits(one.data()))
              << where << " scalar row " << r;
        }
      }
      for (const auto* enc : {&series, &wide}) {
        const auto c = enc == &series ? 1 : 2, t = enc == &series ? 8 : 5;
        const auto x = values(static_cast<std::size_t>(c * t), rng, specials);
        std::vector<float> y(static_cast<std::size_t>(d));
        enc->forward_rows(x, y);
        EXPECT_EQ(bits(y), bits(enc->forward(Tensor::from(x, {c, t})).data()))
            << where << " series C=" << c;
      }
    }
    for (int a = 0; a < 6; ++a) {
      std::vector<float> y(static_cast<std::size_t>(d));
      action.forward_rows(a, y);
      EXPECT_EQ(bits(y), bits(action.forward(a).data())) << where << " action " << a;
    }
  });
  std::vector<float> y(static_cast<std::size_t>(d));
  EXPECT_THROW(action.forward_rows(6, y), std::invalid_argument);
  EXPECT_THROW(action.forward_rows(-1, y), std::invalid_argument);
  EXPECT_THROW(series.forward_rows(std::vector<float>(7), y), std::invalid_argument);
}

// Non-causal attention runs each query row as an attend_head call with
// rows = 1 and len = T: that row sees every key, so its softmax is the
// softmax_rows row of the tape. Every token count up to the ViT-lite's 16
// patches, one past it, and stacked cache-less segments.
TEST(RowForward, NonCausalBlockRowsEqualTapeAtEveryTokenCount) {
  Rng rng(7);
  const std::int64_t d = 32;
  const nn::TransformerBlock block(d, 2, 64, /*causal=*/false, rng);
  spread(block, rng);
  on_every_tier([&](const std::string& where) {
    for (std::int64_t t = 1; t <= 17; ++t) {
      for (const bool specials : {false, true}) {
        // Specials only in the first row: a NaN reaches every row through
        // the attention either way, but the other rows stay finite under LN.
        auto x = values(static_cast<std::size_t>(t * d), rng, false);
        if (specials) {
          const auto s = values(static_cast<std::size_t>(d), rng, true);
          std::copy(s.begin(), s.end(), x.begin());
        }
        std::vector<float> y(x.size());
        block.forward_rows(x, t, nullptr, y);
        EXPECT_EQ(bits(y), bits(block.forward(Tensor::from(x, {t, d})).data()))
            << where << " T=" << t << (specials ? " specials" : "");
      }
    }
    // Two segments in one pass attend only among their own rows.
    const std::int64_t t1 = 5, t2 = 16;
    const auto x = values(static_cast<std::size_t>((t1 + t2) * d), rng, false);
    const nn::KvSegment segs[] = {{t1, nullptr}, {t2, nullptr}};
    std::vector<float> y(x.size());
    block.forward_rows(x, segs, y);
    const auto first = block.forward(Tensor::from({x.begin(), x.begin() + t1 * d}, {t1, d}));
    const auto second = block.forward(Tensor::from({x.begin() + t1 * d, x.end()}, {t2, d}));
    auto want = rows_of(first);
    const auto tail = rows_of(second);
    want.insert(want.end(), tail.begin(), tail.end());
    EXPECT_EQ(bits(y), bits(want)) << where << " stacked segments";
  });
  nn::KvCache cache;
  std::vector<float> x(static_cast<std::size_t>(2 * d)), y(x.size());
  EXPECT_THROW(block.forward_rows(x, 2, &cache, y), std::invalid_argument);
}

TEST(RowForward, VitLiteAndImageEncoderEqualTape) {
  Rng rng(11);
  const ad::ImageEncoder image(16, rng, /*freeze_vit=*/false);
  spread(image, rng);
  nn::ViTConfig cfg;  // the ImageEncoder's ViT shape
  const nn::ViTLite vit(cfg, rng);
  spread(vit, rng);
  on_every_tier([&](const std::string& where) {
    for (int i = 0; i < 3; ++i) {
      const bool specials = i == 2;
      const auto px = values(16 * 16, rng, specials);
      const auto img = Tensor::from(px, {16, 16});
      std::vector<float> pooled(static_cast<std::size_t>(cfg.d_model)), token(16);
      vit.forward_pooled_rows(px, pooled);
      EXPECT_EQ(bits(pooled), bits(vit.forward_pooled(img).data())) << where << " vit " << i;
      image.forward_rows(px, token);
      EXPECT_EQ(bits(token), bits(image.forward(img).data())) << where << " image " << i;
    }
  });
}

TEST(RowForward, GraphEncodersEqualTapeOnRandomDags) {
  Rng rng(13);
  const std::int64_t f = 7, e = 16, d = 24;
  const nn::GraphEncoder gnn(f, e, rng);
  const ad::GraphTokenEncoder tokens(f, d, rng, e);
  spread(gnn, rng);
  spread(tokens, rng);
  int lone = 0, several = 0, leaves = 0;
  on_every_tier([&](const std::string& where) {
    for (const int n : {1, 2, 3, 6, 11, 24}) {
      for (int rep = 0; rep < 3; ++rep) {
        const auto topo = random_dag(n, rng);
        for (const auto& kids : topo.children) {
          (kids.empty() ? leaves : kids.size() == 1 ? lone : several) += 1;
        }
        std::vector<int> order;
        nn::topological_order(topo, order);
        EXPECT_EQ(order, nn::topological_order(topo)) << where << " n=" << n;
        const auto x = values(static_cast<std::size_t>(n * f), rng, rep == 2);
        const auto feats = Tensor::from(x, {n, f});
        const auto tape = gnn.forward(feats, topo);
        std::vector<float> nodes(static_cast<std::size_t>(n * e)), summary(static_cast<std::size_t>(e));
        gnn.forward_rows(x, topo, nodes, summary);
        EXPECT_EQ(bits(nodes), bits(tape.node_embeddings.data())) << where << " n=" << n;
        EXPECT_EQ(bits(summary), bits(tape.global_summary.data())) << where << " n=" << n;
        const auto tape_tok = tokens.forward(feats, topo);
        std::vector<float> global(static_cast<std::size_t>(d));
        tokens.forward_rows(x, topo, global, nodes);
        EXPECT_EQ(bits(global), bits(tape_tok.global_token.data())) << where << " n=" << n;
        EXPECT_EQ(bits(nodes), bits(tape_tok.node_embeddings.data())) << where << " n=" << n;
      }
    }
  });
  EXPECT_GT(leaves, 0);
  EXPECT_GT(lone, 0);
  EXPECT_GT(several, 0);
}

TEST(RowForward, HeadsEqualTape) {
  Rng rng(17);
  const std::int64_t d = 16, gnn = 12;
  const ad::RegressionHead regression(d, 3, rng);
  const ad::CategoricalHead categorical(d, 6, rng);
  const ad::PointerHead pointer(d, gnn, rng);
  spread(regression, rng);
  spread(categorical, rng);
  spread(pointer, rng);
  on_every_tier([&](const std::string& where) {
    for (const std::int64_t m : {1, 3, 8}) {
      const auto x = values(static_cast<std::size_t>(m * d), rng, m == 3);
      std::vector<float> y(static_cast<std::size_t>(m * 3));
      regression.forward_rows(x, m, y);
      EXPECT_EQ(bits(y), bits(regression.forward(Tensor::from(x, {m, d})).data()))
          << where << " regression m=" << m;
    }
    int thrown = 0;
    for (int i = 0; i < 60; ++i) {
      const auto feature = values(static_cast<std::size_t>(d), rng, i % 6 == 5);
      const auto tensor = Tensor::from(feature, {1, d});
      const auto n = rng.randint(1, 7);
      const auto cand = values(static_cast<std::size_t>(n * gnn), rng, i % 12 == 11);
      const auto cands = Tensor::from(cand, {n, gnn});
      const int cat = answer([&] { return categorical.argmax(tensor); });
      EXPECT_EQ(answer([&] { return categorical.argmax(std::span<const float>(feature)); }), cat)
          << where << " categorical " << i;
      const int ptr = answer([&] { return pointer.argmax(tensor, cands); });
      EXPECT_EQ(answer([&] {
                  return pointer.argmax(std::span<const float>(feature),
                                        std::span<const float>(cand));
                }),
                ptr)
          << where << " pointer " << i << " n=" << n;
      thrown += (cat < 0) + (ptr < 0);
    }
    EXPECT_GT(thrown, 0) << where;  // the non-finite check ran
  });
  const std::vector<float> feature(static_cast<std::size_t>(d), 0.5f);
  EXPECT_THROW(pointer.argmax(std::span<const float>(feature), std::span<const float>()),
               std::invalid_argument);
}

// The kv.appended_* counters move once per segment and layer now, by the
// segment's rows: the totals are one row (and 2 * d_model floats) per
// appended position, as when they moved once per row.
TEST(RowForward, KvAppendCountersTotalOneRowPerAppendedPosition) {
  namespace nm = netllm::core::metrics;
  nm::set_enabled(true);
  Rng rng(19);
  const std::int64_t d = 16;
  const nn::TransformerBlock block(d, 2, 32, /*causal=*/true, rng);
  nn::KvCache a, b;
  auto& rows = nm::counter("kv.appended_rows");
  auto& bytes = nm::counter("kv.appended_bytes");
  const auto rows0 = rows.value(), bytes0 = bytes.value();
  const nn::KvSegment segs[] = {{3, &a}, {2, &b}, {4, nullptr}};
  const auto x = values(static_cast<std::size_t>(9 * d), rng, false);
  std::vector<float> y(x.size());
  block.forward_rows(x, segs, y);
  const nn::KvSegment step[] = {{1, &a}};
  block.forward_rows(std::span<const float>(x).first(static_cast<std::size_t>(d)), step,
                     std::span<float>(y).first(static_cast<std::size_t>(d)));
  EXPECT_EQ(a.len, 4);
  EXPECT_EQ(b.len, 2);
  EXPECT_EQ(rows.value() - rows0, 6);
  EXPECT_EQ(bytes.value() - bytes0, 6 * 2 * d * static_cast<std::int64_t>(sizeof(float)));
}
