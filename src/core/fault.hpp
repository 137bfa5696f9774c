// Deterministic fault injection for robustness tests and benches.
//
// Code under test declares named *injection sites* (e.g. "serialize.write",
// "llm.forward", "adapter.step") by calling one of the hooks below on its
// hot path. Tests arm a site with a `FaultPlan` describing what to do and on
// which hit: throw, delay, corrupt floats to NaN/Inf, or truncate an I/O
// request. Hit counting is per-site and deterministic, so "fail the 3rd
// write, twice" is reproducible across runs and platforms.
//
// Beyond single-site plans, `arm_storm` arms a *storm*: several sites driven
// from one seeded `core::Rng` stream, each with an independent per-hit
// trigger probability and a correlated burst length (once a site triggers,
// the next `burst-1` hits at that site fire too — the "everything breaks at
// once" shape real outages have). The whole firing schedule is precomputed
// at arm time, so for a fixed seed the Nth hit at a site always fires or
// always doesn't, regardless of wall clock — storms replay deterministically.
//
// While a site is armed (plan or storm), its activity is exported through
// the core::metrics registry as the counters fault.<site>.hits and
// fault.<site>.fired, so storm runs are visible in metrics.json.
//
// Disarmed cost is a single relaxed atomic load (a global armed-site count),
// so sites can live on per-decision and per-step paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace netllm::core::fault {

enum class FaultKind {
  Throw,       // throw FaultInjected from the site
  Delay,       // sleep for delay_ms (latency-budget overruns)
  CorruptNan,  // overwrite the site's float payload with quiet NaNs
  CorruptInf,  // overwrite the site's float payload with +inf
  TruncateIo,  // cap an I/O request at truncate_to bytes (then throw)
};

struct FaultPlan {
  FaultKind kind = FaultKind::Throw;
  int after = 0;                 // skip this many hits before firing
  int times = 1;                 // fire on this many consecutive hits; -1 = forever
  double delay_ms = 0.0;         // Delay
  std::size_t truncate_to = 0;   // TruncateIo: bytes kept of the request
  std::string message;           // optional override for the thrown message
};

/// Exception thrown by armed Throw/TruncateIo sites; derives from
/// std::runtime_error so existing catch blocks treat it as an I/O failure.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One site's role in a storm: with probability `p` a hit starts a burst of
/// `burst` consecutive firing hits of `kind` (Delay uses `delay_ms`).
struct StormSite {
  std::string site;
  FaultKind kind = FaultKind::Throw;
  double p = 0.05;
  int burst = 1;
  double delay_ms = 0.0;
};

/// A correlated multi-site fault storm. All sites are scheduled from one
/// `core::Rng` stream seeded with `seed` (one `split()` per site, in order),
/// so a storm is replayed exactly by re-arming the same plan. `horizon` hits
/// are pre-scheduled per site; the schedule repeats beyond it, keeping a
/// long-running storm sustained without unbounded memory.
struct StormPlan {
  std::uint64_t seed = 1;
  int horizon = 1024;
  std::vector<StormSite> sites;
};

void arm(const std::string& site, FaultPlan plan);
/// Arm every site in the plan with its precomputed firing schedule. Throws
/// std::invalid_argument for a site name not in `sites()` (a typo'd storm
/// would otherwise silently never fire) or a non-positive horizon/burst.
void arm_storm(const StormPlan& plan);
void disarm(const std::string& site);
void disarm_all();
/// Canonical enumeration of every injection site compiled into the library,
/// sorted. A new `check`/`corrupt`/`io_bytes` call site MUST be added here —
/// `test_core` pins this list against the site names documented in
/// DESIGN.md, in both directions, and requires a hook call naming each
/// entry under src/, so code, docs and hooks cannot drift apart.
std::span<const char* const> sites();
/// Total hook invocations at `site` since it was armed (0 if never armed).
int hits(const std::string& site);
/// Invocations on which the armed plan actually fired.
int fired(const std::string& site);

namespace detail {
extern std::atomic<int> g_armed_sites;
void check_slow(const char* site);
void corrupt_slow(const char* site, std::span<float> values);
std::size_t io_bytes_slow(const char* site, std::size_t requested);
inline bool disarmed() {
  return g_armed_sites.load(std::memory_order_relaxed) == 0;
}
}  // namespace detail

/// Site hook with no payload: fires Throw/Delay plans (corruption kinds are
/// counted but no-ops here).
inline void check(const char* site) {
  if (detail::disarmed()) return;
  detail::check_slow(site);
}

/// Site hook over a float payload: fires Throw/Delay like `check`, and
/// additionally overwrites `values` for CorruptNan/CorruptInf plans.
inline void corrupt(const char* site, std::span<float> values) {
  if (detail::disarmed()) return;
  detail::corrupt_slow(site, values);
}

/// Site hook for an I/O request of `requested` bytes. Returns the number of
/// bytes the caller should actually transfer (smaller than `requested` for a
/// firing TruncateIo plan); fires Throw/Delay like `check`.
inline std::size_t io_bytes(const char* site, std::size_t requested) {
  if (detail::disarmed()) return requested;
  return detail::io_bytes_slow(site, requested);
}

/// RAII helper for tests: disarms every site on scope exit.
struct Scope {
  Scope() = default;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { disarm_all(); }
};

}  // namespace netllm::core::fault

/// Sugar for throw/delay-only sites, mirroring the FAULT_POINT(...) idiom.
#ifndef FAULT_POINT
#define FAULT_POINT(site) ::netllm::core::fault::check(site)
#endif
