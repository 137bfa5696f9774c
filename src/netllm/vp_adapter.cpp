#include "netllm/vp_adapter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/trace.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;

constexpr float kRollScale = 20.0f, kPitchScale = 60.0f, kYawScale = 160.0f;

// A viewport's encoder input: its coordinates over the per-axis scales.
// viewport_token encodes one; predict_group stacks one triple per live member.
std::array<float, 3> viewport_coords(const vp::Viewport& v) {
  return {static_cast<float>(v.roll) / kRollScale, static_cast<float>(v.pitch) / kPitchScale,
          static_cast<float>(v.yaw) / kYawScale};
}

}  // namespace

VpAdapter::VpAdapter(std::shared_ptr<llm::MiniGpt> llm, const VpAdapterConfig& cfg,
                     core::Rng& rng)
    : DdLrnaAdapter(std::move(llm), cfg.train_backbone, "VpAdapter"), cfg_(cfg) {
  const auto d = llm_->config().d_model;
  image_encoder_ = std::make_shared<ImageEncoder>(d, rng);
  viewport_encoder_ = std::make_shared<ScalarEncoder>(3, d, rng);
  head_ = std::make_shared<RegressionHead>(d, 3, rng);
  freeze_backbone_and_add_lora(cfg_.use_lora, cfg_.lora_rank, cfg_.lora_alpha, rng);
}

Tensor VpAdapter::viewport_token(const vp::Viewport& v) const {
  return viewport_encoder_->forward(viewport_coords(v));
}

Tensor VpAdapter::build_sequence(std::span<const vp::Viewport> history,
                                 std::span<const vp::Viewport> future_teacher,
                                 const Tensor& saliency) const {
  std::vector<Tensor> tokens;
  tokens.reserve(1 + history.size() + future_teacher.size());
  tokens.push_back(image_encoder_->forward(saliency));
  for (const auto& v : history) tokens.push_back(viewport_token(v));
  for (const auto& v : future_teacher) tokens.push_back(viewport_token(v));
  return concat_rows(tokens);
}

Tensor VpAdapter::loss(const vp::VpSample& sample) const {
  if (sample.history.empty() || sample.future.empty()) {
    throw std::invalid_argument("VpAdapter::loss: empty sample");
  }
  // Teacher forcing: feed history plus all-but-last future viewports; the
  // features at positions hw-1 .. hw+pw-2 (offset by the image token)
  // predict the per-step normalized deltas.
  const auto hw = static_cast<std::int64_t>(sample.history.size());
  const auto pw = static_cast<std::int64_t>(sample.future.size());
  auto seq = build_sequence(sample.history,
                            {sample.future.data(), sample.future.size() - 1}, sample.saliency);
  auto features = llm_->forward_embeddings(seq);
  auto pred = head_->forward(slice_rows(features, hw, pw));  // image token shifts by 1
  std::vector<float> target;
  target.reserve(static_cast<std::size_t>(pw * 3));
  const vp::Viewport* prev = &sample.history.back();
  for (const auto& f : sample.future) {
    target.push_back(static_cast<float>(f.roll - prev->roll) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.pitch - prev->pitch) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.yaw - prev->yaw) / cfg_.delta_scale_deg);
    prev = &f;
  }
  return mse_loss(pred, Tensor::from(std::move(target), {pw, 3}));
}

namespace {

bool all_finite(std::span<const float> xs) {
  for (float x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The warm-prefix key of a request, written into `key`: the saliency's
/// rank, dims and floats, then the history viewports' bytes, packed into
/// floats that the arena only hashes and compares bytewise. Equal keys mean
/// an equal raw request, and so (the encoders being deterministic) an equal
/// encoded prompt.
void request_key(std::span<const vp::Viewport> history, const Tensor& saliency,
                 std::vector<float>& key) {
  static_assert(sizeof(vp::Viewport) % sizeof(float) == 0);
  key.clear();
  key.push_back(static_cast<float>(saliency.rank()));
  for (const auto dim : saliency.shape()) key.push_back(static_cast<float>(dim));
  key.insert(key.end(), saliency.data().begin(), saliency.data().end());
  const auto packed = key.size();
  key.resize(packed + history.size_bytes() / sizeof(float));
  std::memcpy(key.data() + packed, history.data(), history.size_bytes());
}

/// A member's in-flight state. `live` clears the moment its error is set.
struct Member {
  nn::KvArena::Lease lease;
  std::vector<nn::KvCache> own;
  std::span<nn::KvCache> layers;
  std::vector<float> key_floats;
  std::uint64_t key = 0;
  std::vector<float> features_last;  // [d_model] backbone features of the last position
  vp::Viewport cur;
  bool live = false;
};

/// predict_group's per-thread workspace. Every buffer keeps its capacity
/// between calls, so a warm thread's group allocates only the rollouts it
/// returns. The engine runs groups of one adapter on several pool threads
/// at once, so the workspace cannot be the adapter's.
struct GroupScratch {
  std::vector<Member> ms;
  std::vector<std::size_t> leaders, followers, late, live, next, who;
  std::vector<float> prompts;                  // stacked cold prompts [rows, d_model]
  std::vector<float> coords;                   // [members, 3] viewport encoder input
  std::vector<float> rows, delta, tokens;      // [b, d_model], [b, 3], [b, d_model]
  std::vector<float> features;                 // the backbone pass's rows
  std::vector<std::exception_ptr> errors;      // one per segment
  std::vector<llm::EmbeddingSegment> segs;

  static GroupScratch& local() {
    thread_local GroupScratch ws;
    return ws;
  }
};

}  // namespace

void VpAdapter::encode_prompt(std::span<const vp::Viewport> history, const Tensor& saliency,
                              std::span<float> rows) const {
  // build_sequence(history, {}, saliency) on raw rows: the image token, then
  // one viewport token per history entry (row-wise, so one stacked encode).
  if (saliency.rank() != 2 || saliency.dim(0) != vp::kSaliencySize ||
      saliency.dim(1) != vp::kSaliencySize) {
    throw std::invalid_argument("ViTLite: expected square [image_size, image_size] input");
  }
  const auto d = llm_->config().d_model;
  const auto h = static_cast<std::int64_t>(history.size());
  image_encoder_->forward_rows(saliency.data(), rows.first(static_cast<std::size_t>(d)));
  thread_local std::vector<float> coords;
  coords.clear();
  for (const auto& v : history) {
    const auto c = viewport_coords(v);
    coords.insert(coords.end(), c.begin(), c.end());
  }
  viewport_encoder_->forward_rows(coords, h, rows.subspan(static_cast<std::size_t>(d)));
}

std::vector<vp::Viewport> VpAdapter::predict(std::span<const vp::Viewport> history,
                                             const Tensor& saliency, int horizon) {
  const VpQuery one{history, &saliency, horizon};
  auto out = predict_group({&one, 1});
  if (out.front().error) std::rethrow_exception(out.front().error);
  return std::move(out.front().viewports);
}

std::vector<VpRollout> VpAdapter::predict_group(std::span<const VpQuery> group) {
  const auto d_model = llm_->config().d_model;
  const auto du = static_cast<std::size_t>(d_model);
  const auto n = group.size();
  std::vector<VpRollout> out(n);
  auto& ws = GroupScratch::local();
  if (ws.ms.size() < n) ws.ms.resize(n);
  const std::span<Member> ms(ws.ms.data(), n);
  // Every lease goes back to its arena when the call ends, however it ends.
  struct Release {
    std::span<Member> ms;
    ~Release() {
      for (auto& mb : ms) {
        mb.lease = {};
        mb.live = false;
      }
    }
  } release{ms};
  const auto fail = [&](std::size_t i) {
    out[i].error = std::current_exception();
    ms[i].live = false;
  };
  const auto same_key = [&](std::size_t a, std::size_t b) {
    return ms[a].key == ms[b].key && ms[a].key_floats.size() == ms[b].key_floats.size() &&
           std::memcmp(ms[a].key_floats.data(), ms[b].key_floats.data(),
                       ms[a].key_floats.size() * sizeof(float)) == 0;
  };

  // 1. Per-layer caches (a pooled arena lease when attached — may throw the
  // named KvArena::Exhausted, which the serve engine sheds — else a private
  // reserved set), then a warm prefix or a cold mark. Prefix sharing: a
  // request carrying a published raw prompt (saliency and history,
  // byte-for-byte) adopts its K/V rows and last-position features, skipping
  // the encoders and the prefill. The floats are the published request's own
  // prefill output and the encoders are deterministic in (weights, input),
  // so a hit is bitwise a cold prefill. A cold member equal to an earlier
  // cold member of this group follows it: it adopts once that leader has
  // published, as the second of two equal requests served in turn would.
  auto& leaders = ws.leaders;
  auto& followers = ws.followers;
  leaders.clear();
  followers.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const VpQuery& q = group[i];
    Member& mb = ms[i];
    mb.layers = {};
    mb.key = 0;
    mb.key_floats.clear();
    try {
      if (q.history.empty() || q.horizon <= 0 || !q.saliency) {
        throw std::invalid_argument("VpAdapter: bad inputs");
      }
      // The prompt is the image token plus one token per history viewport;
      // the rollout appends horizon-1 generated viewports after it.
      const auto rows_needed = 1 + static_cast<std::int64_t>(q.history.size()) + q.horizon - 1;
      if (rows_needed > llm_->config().max_seq) {
        throw std::invalid_argument("VpAdapter: prompt plus rollout exceed max_seq positions");
      }
      if (arena_) {
        mb.lease = arena_->lease(rows_needed);
        mb.layers = mb.lease.layers();
      } else {
        mb.own.resize(static_cast<std::size_t>(llm_->config().n_layers));
        for (auto& c : mb.own) {
          c.clear();
          c.d_model = d_model;
          c.reserve(rows_needed);
        }
        mb.layers = mb.own;
      }
      mb.cur = q.history.back();
      mb.live = true;
      out[i].viewports.reserve(static_cast<std::size_t>(q.horizon));
      if (arena_) {
        request_key(q.history, *q.saliency, mb.key_floats);
        mb.key = nn::KvArena::prefix_key(mb.key_floats);
        if (std::any_of(leaders.begin(), leaders.end(), [&](auto j) { return same_key(i, j); })) {
          followers.push_back(i);
          continue;
        }
        if (arena_->adopt(mb.key, mb.key_floats, mb.lease, &mb.features_last)) continue;
      }
      leaders.push_back(i);
    } catch (...) {
      fail(i);
    }
  }

  // 2. Cold prompts: encode each once, then one stacked prefill. A follower
  // whose leader did not publish (non-finite features, no room) runs cold in
  // a second stacked prefill, as it would have on its own.
  const auto prefill = [&](const std::vector<std::size_t>& cold) {
    if (cold.empty()) return;
    auto& who = ws.who;
    who.clear();
    std::size_t total = 0;  // the cold prompts' rows, stacked in member order
    for (const auto i : cold) total += 1 + group[i].history.size();
    ws.prompts.resize(total * du);
    auto& segs = ws.segs;
    segs.clear();
    {
      core::trace::Span span(core::trace::Phase::kEncode);
      std::size_t row0 = 0;
      for (const auto i : cold) {
        const auto n_rows = 1 + group[i].history.size();
        const auto rows = std::span<float>(ws.prompts).subspan(row0 * du, n_rows * du);
        row0 += n_rows;
        try {
          encode_prompt(group[i].history, *group[i].saliency, rows);
          segs.push_back({rows, ms[i].layers});
          who.push_back(i);
        } catch (...) {
          fail(i);
        }
      }
    }
    if (who.empty()) return;
    ws.errors.resize(who.size());
    try {
      core::trace::Span span(core::trace::Phase::kPrefill);
      llm_->forward_segments(segs, ws.features, ws.errors);
    } catch (...) {
      for (const auto i : who) fail(i);
      return;
    }
    for (std::size_t c = 0; c < who.size(); ++c) {
      const auto i = who[c];
      const auto rows = segs[c].embeds.size() / du;
      if (ws.errors[c]) {
        out[i].error = ws.errors[c];
        ms[i].live = false;
        continue;
      }
      // forward_segments returns each prompt's last row, the one the head reads.
      const auto last = std::span<const float>(ws.features).subspan(c * du, du);
      ms[i].features_last.assign(last.begin(), last.end());
      // Never publish poisoned features: an armed llm.forward NaN fault must
      // degrade this one request, not seed the warm cache for every later hit.
      if (arena_ && all_finite(last)) {
        arena_->publish(ms[i].key, ms[i].key_floats, ms[i].layers,
                        static_cast<std::int64_t>(rows), last);
      }
    }
  };
  prefill(leaders);
  auto& late = ws.late;
  late.clear();
  for (const auto i : followers) {
    if (!arena_->adopt(ms[i].key, ms[i].key_floats, ms[i].lease, &ms[i].features_last)) {
      late.push_back(i);
    }
  }
  prefill(late);

  // 3. Lockstep rollout over the members still live: per step one stacked
  // head call, one stacked viewport-token encode and one backbone step.
  auto& live = ws.live;
  auto& next = ws.next;
  live.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (ms[i].live) live.push_back(i);
  }
  while (!live.empty()) {
    try {
      const auto b = static_cast<std::int64_t>(live.size());
      ws.rows.clear();
      for (const auto i : live) {
        ws.rows.insert(ws.rows.end(), ms[i].features_last.begin(), ms[i].features_last.end());
      }
      ws.delta.resize(static_cast<std::size_t>(b * 3));
      {
        core::trace::Span span(core::trace::Phase::kHead);
        head_->forward_rows(ws.rows, b, ws.delta);
      }
      next.clear();
      ws.coords.clear();
      for (std::int64_t r = 0; r < b; ++r) {
        const auto i = live[static_cast<std::size_t>(r)];
        const float* delta = ws.delta.data() + r * 3;
        vp::Viewport& cur = ms[i].cur;
        cur.roll += static_cast<double>(delta[0]) * cfg_.delta_scale_deg;
        cur.pitch += static_cast<double>(delta[1]) * cfg_.delta_scale_deg;
        cur.yaw += static_cast<double>(delta[2]) * cfg_.delta_scale_deg;
        out[i].viewports.push_back(cur);
        if (static_cast<int>(out[i].viewports.size()) == group[i].horizon) continue;
        next.push_back(i);
        const auto c = viewport_coords(cur);
        ws.coords.insert(ws.coords.end(), c.begin(), c.end());
      }
      live.swap(next);
      if (live.empty()) break;
      // One incremental backbone step over each member's newly generated
      // viewport — bitwise the last row of the full forward predict_uncached
      // re-runs.
      const auto nl = static_cast<std::int64_t>(live.size());
      ws.tokens.resize(static_cast<std::size_t>(nl) * du);
      {
        core::trace::Span span(core::trace::Phase::kEncode);
        viewport_encoder_->forward_rows(ws.coords, nl, ws.tokens);
      }
      ws.segs.clear();
      for (std::int64_t r = 0; r < nl; ++r) {
        ws.segs.push_back({std::span<const float>(ws.tokens).subspan(
                               static_cast<std::size_t>(r) * du, du),
                           ms[live[static_cast<std::size_t>(r)]].layers});
      }
      ws.errors.resize(live.size());
      {
        core::trace::Span span(core::trace::Phase::kDecodeStep);
        llm_->forward_segments(ws.segs, ws.features, ws.errors);
      }
      next.clear();
      for (std::int64_t r = 0; r < nl; ++r) {
        const auto i = live[static_cast<std::size_t>(r)];
        if (ws.errors[static_cast<std::size_t>(r)]) {
          out[i].error = ws.errors[static_cast<std::size_t>(r)];
          continue;
        }
        const auto f = std::span<const float>(ws.features).subspan(static_cast<std::size_t>(r) * du,
                                                                   du);
        ms[i].features_last.assign(f.begin(), f.end());
        next.push_back(i);
      }
      live.swap(next);
    } catch (...) {
      for (const auto i : live) fail(i);
      live.clear();
    }
  }
  return out;
}

std::vector<vp::Viewport> VpAdapter::predict_uncached(std::span<const vp::Viewport> history,
                                                      const Tensor& saliency, int horizon) {
  if (history.empty() || horizon <= 0) throw std::invalid_argument("VpAdapter: bad inputs");
  std::vector<vp::Viewport> rollout;
  rollout.reserve(static_cast<std::size_t>(horizon));
  vp::Viewport cur = history.back();
  std::vector<vp::Viewport> generated;
  for (int k = 0; k < horizon; ++k) {
    // Per-phase spans (DESIGN.md §11): encoder → backbone (prefill, inside
    // forward_embeddings) → networking head.
    auto seq = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return build_sequence(history, generated, saliency);
    }();
    auto features = llm_->forward_embeddings(seq);
    auto delta = [&] {
      core::trace::Span span(core::trace::Phase::kHead);
      return head_->forward(slice_rows(features, features.dim(0) - 1, 1));
    }();
    cur.roll += static_cast<double>(delta.at(0)) * cfg_.delta_scale_deg;
    cur.pitch += static_cast<double>(delta.at(1)) * cfg_.delta_scale_deg;
    cur.yaw += static_cast<double>(delta.at(2)) * cfg_.delta_scale_deg;
    rollout.push_back(cur);
    generated.push_back(cur);
  }
  return rollout;
}

VpAdapter::AdaptStats VpAdapter::adapt(std::span<const vp::VpSample> dataset, int steps,
                                       float lr, std::uint64_t seed,
                                       const SessionOptions& session) {
  if (dataset.empty()) throw std::invalid_argument("VpAdapter::adapt: empty dataset");
  // Warm prefixes are keyed on raw requests, so rows the old weights
  // computed must not be adopted after the weights change.
  if (arena_) arena_->clear_warm();
  return run_adapt("vp", steps, lr, seed, session, [&](core::Rng& rng) -> std::optional<float> {
    const auto i = rng.randint(0, static_cast<std::int64_t>(dataset.size()) - 1);
    return backward_loss(loss(dataset[static_cast<std::size_t>(i)]));
  });
}

void VpAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  image_encoder_->collect_params(out, prefix + "image_encoder.");
  viewport_encoder_->collect_params(out, prefix + "viewport_encoder.");
  head_->collect_params(out, prefix + "head.");
  collect_lora(out, prefix);
}

}  // namespace netllm::adapt
