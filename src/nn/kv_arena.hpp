// Pooled KV-cache arena for the serving scheduler (DESIGN.md §13).
//
// One arena owns a fixed page budget of KV storage for a model shape
// (n_layers x d_model). In-flight requests lease per-layer `KvCache` sets
// sized for their sequence; returning the lease recycles the buffers (their
// reserved capacity survives, so steady-state serving allocates nothing).
// Pages are the accounting granule: a lease of `rows` positions pins
// `n_layers * 2 * ceil(rows / page_rows)` pages (K and V streams).
//
// On top of the pool sits a warm *prefix cache*: the DT-style
// `return-to-go | state | action` prompt skeleton repeats across requests of
// a task, so a request whose prompt matches a published prefix adopts the
// prefix's K/V rows (a memcpy) instead of re-running the backbone prefill.
// The owner chooses what the prompt floats are: `VpAdapter` packs the raw
// request (saliency, then history), so a hit also skips its encoders; the
// owner's weights must not change while its entries are warm (`clear_warm`).
// One arena serves one owner. Entries are content-keyed (hash + full-byte
// verification, so a hash collision can never serve another prompt's cache)
// and LRU-evicted under the same page budget — in-flight leases always win
// over warm prefixes; only when the budget cannot cover a lease even with
// the warm set empty does `lease()` throw the named `Exhausted` error
// (without evicting anything), which the serve engine maps to a
// deterministic shed-to-fallback.
//
// Observability: kv.arena.pages_in_use gauge, kv.arena.evictions /
// kv.prefix.hits / kv.prefix.misses counters.
//
// Thread-safe: every public method locks the arena mutex; leased caches
// themselves are exclusively owned by their request between lease and return.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/transformer.hpp"

namespace netllm::nn {

struct KvArenaConfig {
  std::int64_t page_rows = 16;      // positions per page (accounting granule)
  std::int64_t page_budget = 0;     // pages across leases + warm prefixes; 0 = unbounded
  std::size_t prefix_entries = 32;  // max warm prefix entries; 0 disables sharing
};

class KvArena {
 public:
  /// The page budget cannot cover a new lease even after evicting every warm
  /// prefix entry. The serve engine sheds such a request to its fallback
  /// deterministically instead of letting this escape the batch.
  class Exhausted : public std::runtime_error {
   public:
    using std::runtime_error::runtime_error;
  };

  KvArena(std::int64_t n_layers, std::int64_t d_model, KvArenaConfig cfg = {});

  /// RAII lease over one request's per-layer caches. Returning (destroying)
  /// the lease recycles the buffers into the arena's freelist.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    bool valid() const { return arena_ != nullptr; }
    std::span<KvCache> layers() { return layers_; }

   private:
    friend class KvArena;
    KvArena* arena_ = nullptr;
    std::vector<KvCache> layers_;
    std::int64_t pages_ = 0;
  };

  /// Lease per-layer caches reserved for `rows` positions. Evicts warm
  /// prefix entries (LRU first) when the page budget is tight; throws
  /// `Exhausted`, with the warm set untouched, when even an empty warm set
  /// cannot fund the lease.
  Lease lease(std::int64_t rows);

  // ---- prefix sharing ----
  /// Content key for a prompt: FNV-1a over its raw float bytes. Collisions
  /// are tolerated — adopt() verifies bytes.
  static std::uint64_t prefix_key(std::span<const float> prompt);
  /// On a hit, copy the published prefix K/V rows into `lease` (which must be
  /// fresh) and the stored last-position feature row into `features`;
  /// returns false (a miss) when no verified entry matches.
  bool adopt(std::uint64_t key, std::span<const float> prompt, Lease& lease,
             std::vector<float>* features);
  /// Publish the first `rows` cached positions of `layers` plus the features
  /// of the prompt's last position. Skipped (not an error), with the warm
  /// set untouched, when prefix sharing is disabled or the leases leave the
  /// budget no room for the entry.
  void publish(std::uint64_t key, std::span<const float> prompt, std::span<const KvCache> layers,
               std::int64_t rows, std::span<const float> features);
  /// Drop every warm prefix entry and return its pages; leases are
  /// untouched. For an owner whose weights changed, so no later request
  /// adopts rows the old weights computed.
  void clear_warm();

  /// Pages a lease of `rows` positions pins.
  std::int64_t pages_for(std::int64_t rows) const;
  /// Whether `pages` more leased pages fit the budget beside everything
  /// held now (leases and warm prefixes) without evicting a warm prefix.
  /// The serve engine sizes a lockstep VP group with it.
  bool fits_without_eviction(std::int64_t pages) const;

  // ---- stats (also mirrored into core::metrics) ----
  std::int64_t pages_in_use() const;
  std::int64_t page_budget() const;
  std::uint64_t prefix_hits() const;
  std::uint64_t prefix_misses() const;
  std::uint64_t evictions() const;

  std::int64_t n_layers() const { return n_layers_; }
  std::int64_t d_model() const { return d_model_; }

 private:
  struct PrefixEntry {
    std::uint64_t key = 0;
    std::vector<float> prompt;  // exact bytes, verified on adopt
    std::vector<std::vector<float>> k, v;  // per-layer [rows, d_model]
    std::int64_t rows = 0;
    std::vector<float> features;  // last-position backbone features [d_model]
    std::uint64_t last_use = 0;   // LRU clock
    std::int64_t pages = 0;
  };

  /// Drop the least-recently-used warm entry. Caller holds mu_.
  void evict_lru_locked();
  void release(std::vector<KvCache>&& layers, std::int64_t pages);
  void set_gauge_locked();

  const std::int64_t n_layers_, d_model_;
  const KvArenaConfig cfg_;

  mutable std::mutex mu_;
  std::int64_t pages_in_use_ = 0;  // leased + warm
  std::int64_t warm_pages_ = 0;    // the warm prefix entries' share
  std::uint64_t use_clock_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  std::vector<PrefixEntry> warm_;
  /// Returned lease buffers, recycled by capacity (largest first is not
  /// needed — requests are near-uniform; first-fit is deterministic).
  std::vector<std::vector<KvCache>> free_sets_;
};

}  // namespace netllm::nn
