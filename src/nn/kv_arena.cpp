#include "nn/kv_arena.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/metrics.hpp"

namespace netllm::nn {

namespace {

struct ArenaMetrics {
  core::metrics::Gauge* pages = nullptr;
  core::metrics::Counter* evictions = nullptr;
  core::metrics::Counter* hits = nullptr;
  core::metrics::Counter* misses = nullptr;
};

/// Registry handles resolved once per process; every arena shares them, like
/// the kv.appended_* counters in KvCache::append.
ArenaMetrics& arena_metrics() {
  static ArenaMetrics m = {
      &core::metrics::gauge("kv.arena.pages_in_use"),
      &core::metrics::counter("kv.arena.evictions"),
      &core::metrics::counter("kv.prefix.hits"),
      &core::metrics::counter("kv.prefix.misses"),
  };
  return m;
}

}  // namespace

KvArena::KvArena(std::int64_t n_layers, std::int64_t d_model, KvArenaConfig cfg)
    : n_layers_(n_layers), d_model_(d_model), cfg_(cfg) {
  if (n_layers <= 0 || d_model <= 0 || cfg.page_rows <= 0 || cfg.page_budget < 0) {
    throw std::invalid_argument("KvArena: bad configuration");
  }
}

std::int64_t KvArena::pages_for(std::int64_t rows) const {
  const std::int64_t spans = (rows + cfg_.page_rows - 1) / cfg_.page_rows;
  return n_layers_ * 2 * std::max<std::int64_t>(spans, 1);  // K and V streams
}

bool KvArena::fits_without_eviction(std::int64_t pages) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_.page_budget == 0 || pages_in_use_ + pages <= cfg_.page_budget;
}

void KvArena::set_gauge_locked() {
  arena_metrics().pages->set(static_cast<double>(pages_in_use_));
}

void KvArena::evict_lru_locked() {
  auto lru = std::min_element(warm_.begin(), warm_.end(),
                              [](const PrefixEntry& a, const PrefixEntry& b) {
                                return a.last_use < b.last_use;
                              });
  pages_in_use_ -= lru->pages;
  warm_pages_ -= lru->pages;
  warm_.erase(lru);
  ++evictions_;
  arena_metrics().evictions->add();
}

KvArena::Lease KvArena::lease(std::int64_t rows) {
  if (rows <= 0) throw std::invalid_argument("KvArena::lease: rows must be positive");
  const std::int64_t pages = pages_for(rows);
  std::lock_guard<std::mutex> lock(mu_);
  // Leases outrank warm prefixes, but a request that cannot fit even with
  // the warm set empty fails before anything is evicted: flushing the warm
  // set for a lease that throws anyway would only cost later requests their
  // prefix hits.
  const std::int64_t leased = pages_in_use_ - warm_pages_;
  if (cfg_.page_budget > 0 && leased + pages > cfg_.page_budget) {
    throw Exhausted("KvArena: page budget exhausted (" + std::to_string(leased) + " leased + " +
                    std::to_string(pages) + " > " + std::to_string(cfg_.page_budget) +
                    " pages) even with every warm prefix evicted");
  }
  while (cfg_.page_budget > 0 && pages_in_use_ + pages > cfg_.page_budget) {
    evict_lru_locked();
  }
  Lease out;
  out.arena_ = this;
  out.pages_ = pages;
  // First recycled set whose reservation covers the request; appends then
  // never allocate. A fresh set is built only when the pool is empty.
  auto fit = std::find_if(free_sets_.begin(), free_sets_.end(), [&](const auto& set) {
    return set.front().capacity_rows() >= rows;
  });
  if (fit != free_sets_.end()) {
    out.layers_ = std::move(*fit);
    free_sets_.erase(fit);
  } else {
    out.layers_.resize(static_cast<std::size_t>(n_layers_));
    for (auto& c : out.layers_) {
      c.d_model = d_model_;
      c.reserve(rows);
    }
  }
  pages_in_use_ += pages;
  set_gauge_locked();
  return out;
}

void KvArena::release(std::vector<KvCache>&& layers, std::int64_t pages) {
  for (auto& c : layers) {
    c.clear();
    c.d_model = d_model_;  // keep the width pinned for the next lease
  }
  std::lock_guard<std::mutex> lock(mu_);
  free_sets_.push_back(std::move(layers));
  pages_in_use_ -= pages;
  set_gauge_locked();
}

KvArena::Lease::Lease(Lease&& other) noexcept
    : arena_(other.arena_), layers_(std::move(other.layers_)), pages_(other.pages_) {
  other.arena_ = nullptr;
  other.pages_ = 0;
}

KvArena::Lease& KvArena::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (arena_) arena_->release(std::move(layers_), pages_);
    arena_ = other.arena_;
    layers_ = std::move(other.layers_);
    pages_ = other.pages_;
    other.arena_ = nullptr;
    other.pages_ = 0;
  }
  return *this;
}

KvArena::Lease::~Lease() {
  if (arena_) arena_->release(std::move(layers_), pages_);
}

std::uint64_t KvArena::prefix_key(std::span<const float> prompt) {
  // FNV-1a over the raw bytes. Collisions only cost a failed verification in
  // adopt(), never a wrong answer.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(prompt.data());
  for (std::size_t i = 0; i < prompt.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool KvArena::adopt(std::uint64_t key, std::span<const float> prompt, Lease& lease,
                    std::vector<float>* features) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : warm_) {
    if (e.key != key) continue;
    if (e.prompt.size() != prompt.size() ||
        std::memcmp(e.prompt.data(), prompt.data(), prompt.size_bytes()) != 0) {
      continue;  // hash collision: not this prompt's prefix
    }
    auto layers = lease.layers();
    if (static_cast<std::int64_t>(layers.size()) != n_layers_ ||
        (n_layers_ > 0 && layers.front().len != 0)) {
      throw std::invalid_argument("KvArena::adopt: lease must be fresh and model-shaped");
    }
    for (std::int64_t l = 0; l < n_layers_; ++l) {
      layers[static_cast<std::size_t>(l)].append_rows(e.k[static_cast<std::size_t>(l)],
                                                      e.v[static_cast<std::size_t>(l)], e.rows);
    }
    if (features) *features = e.features;
    e.last_use = ++use_clock_;
    ++hits_;
    arena_metrics().hits->add();
    return true;
  }
  ++misses_;
  arena_metrics().misses->add();
  return false;
}

void KvArena::publish(std::uint64_t key, std::span<const float> prompt,
                      std::span<const KvCache> layers, std::int64_t rows,
                      std::span<const float> features) {
  if (cfg_.prefix_entries == 0 || rows <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : warm_) {
    if (e.key == key && e.prompt.size() == prompt.size() &&
        std::memcmp(e.prompt.data(), prompt.data(), prompt.size_bytes()) == 0) {
      return;  // already published (a concurrent request won the race)
    }
  }
  const std::int64_t pages = pages_for(rows);
  if (cfg_.page_budget > 0 && pages_in_use_ - warm_pages_ + pages > cfg_.page_budget) {
    return;  // in-flight leases own the budget; keep the warm set as it is
  }
  while (warm_.size() >= cfg_.prefix_entries ||
         (cfg_.page_budget > 0 && pages_in_use_ + pages > cfg_.page_budget)) {
    evict_lru_locked();
  }
  PrefixEntry e;
  e.key = key;
  e.prompt.assign(prompt.begin(), prompt.end());
  e.rows = rows;
  e.pages = pages;
  e.features.assign(features.begin(), features.end());
  e.last_use = ++use_clock_;
  const std::size_t n = static_cast<std::size_t>(rows) * static_cast<std::size_t>(d_model_);
  e.k.reserve(layers.size());
  e.v.reserve(layers.size());
  for (const auto& c : layers) {
    if (c.len < rows) throw std::invalid_argument("KvArena::publish: layer holds fewer rows");
    e.k.emplace_back(c.k().begin(), c.k().begin() + static_cast<std::ptrdiff_t>(n));
    e.v.emplace_back(c.v().begin(), c.v().begin() + static_cast<std::ptrdiff_t>(n));
  }
  pages_in_use_ += pages;
  warm_pages_ += pages;
  warm_.push_back(std::move(e));
  set_gauge_locked();
}

void KvArena::clear_warm() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_in_use_ -= warm_pages_;
  warm_pages_ = 0;
  warm_.clear();
  set_gauge_locked();
}

std::int64_t KvArena::pages_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_in_use_;
}

std::int64_t KvArena::page_budget() const { return cfg_.page_budget; }

std::uint64_t KvArena::prefix_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t KvArena::prefix_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t KvArena::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace netllm::nn
