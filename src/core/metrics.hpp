// Process-wide metrics registry (DESIGN.md §11): pre-registered counter /
// gauge / histogram *handles* whose record paths take no lock and allocate
// no strings — the cost of a counter bump is one relaxed atomic add into a
// per-thread shard slot (cache-line padded, so concurrent bumpers do not
// false-share). Registration (`counter("serve.vp.llm_ok")`) locks a registry
// mutex and may allocate; callers do it once, up front, and keep the handle.
//
// Latency histograms use fixed log-spaced buckets (factor 2^(1/6) ≈ 1.12, so
// a percentile read from bucket midpoints is within ~6% of the exact sample
// percentile — tests/test_observability.cpp pins this against
// `core::percentile`). Count / sum / min / max are tracked exactly.
//
// The whole layer is gated by the `NETLLM_METRICS` env knob (default ON;
// `0` / `off` / `false` disables). Disabled, every record path reduces to a
// single relaxed atomic load and a branch; `snapshot()` then reports zeroed
// values because nothing was recorded. Instrumentation never touches RNG
// streams or float math, so enabling metrics cannot perturb the bitwise
// determinism contracts of §8–§10 (also pinned by test_observability).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netllm::core::metrics {

/// Global on/off switch. Initialised from NETLLM_METRICS on first use;
/// `set_enabled` overrides it for the current process (tests and the
/// on-vs-off benches toggle it without re-exec).
bool enabled();
void set_enabled(bool on);

namespace detail {

inline constexpr int kShards = 16;

extern std::atomic<int> g_enabled;  // -1 unset, 0 off, 1 on
int enabled_slow();

inline bool on() {
  const int e = g_enabled.load(std::memory_order_relaxed);
  return e >= 0 ? e != 0 : enabled_slow() != 0;
}

/// Stable per-thread shard index in [0, kShards).
int shard();

struct alignas(64) CountSlot {
  std::atomic<std::int64_t> v{0};
};

}  // namespace detail

/// Monotonic event counter. `add` is the hot path: no lock, no allocation,
/// one relaxed fetch_add on this thread's shard slot.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    if (!detail::on()) return;
    slots_[detail::shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::CountSlot slots_[detail::kShards];
};

/// Last-write-wins instantaneous value (pool sizes, queue depths).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!detail::on()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;  // exact (not bucketed)
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  // bucket-midpoint estimates, ~6% relative error
  double p90 = 0.0;
  double p99 = 0.0;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Fixed-bucket latency histogram (milliseconds). Buckets are log-spaced
/// with 6 per octave covering [2^-14, 2^17) ms ≈ [61 ns, 131 s); values
/// outside clamp into the first/last bucket. `record` takes no lock: one
/// log2, one relaxed fetch_add into a sharded bucket slot, plus exact
/// sum/min/max maintenance on sharded atomics.
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 6;
  static constexpr int kOctaves = 31;  // 2^-14 .. 2^17 ms
  static constexpr int kBuckets = kBucketsPerOctave * kOctaves;
  static constexpr double kMinMs = 6.103515625e-5;  // 2^-14

  void record(double ms) noexcept;

  /// Aggregate the shards. Percentiles use the `core::percentile` rank
  /// definition (linear index p/100*(n-1)) resolved to the geometric
  /// midpoint of the owning bucket.
  HistogramSnapshot snapshot() const noexcept;
  /// Percentile estimate for arbitrary p in [0, 100] (same method).
  double percentile(double p) const noexcept;
  std::int64_t count() const noexcept;
  double sum() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> buckets[kBuckets] = {};
    std::atomic<double> sum{0.0};
    // ±inf sentinels so the min/max CAS loops need no first-sample seeding.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<std::int64_t> count{0};
  };
  Shard shards_[detail::kShards];
};

// ---- registry ----
// Handles are created on first use of a name and live for the process (the
// backing store never moves, so returned references stay valid). Looking up
// an existing name returns the same handle. Registration locks; record
// paths never do.

Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Everything registered so far, values aggregated, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};
Snapshot snapshot();

/// Zero every registered metric (registrations and handles survive).
void reset();

/// Snapshot rendered as a stable JSON document (sorted keys).
std::string to_json();
/// Atomically-ish write `to_json()` to `path` (tmp + rename). Throws on I/O
/// failure. run_benches.sh drops `metrics.json` next to the BENCH files.
void write_json(const std::string& path);

}  // namespace netllm::core::metrics
