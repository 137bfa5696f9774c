#include "core/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/metrics.hpp"
#include "core/rng.hpp"

namespace netllm::core::fault {

namespace detail {
std::atomic<int> g_armed_sites{0};
}  // namespace detail

namespace {

struct SiteState {
  FaultPlan plan;
  // Non-empty for storm-armed sites: schedule[(hit - 1) % size] decides
  // whether that hit fires, overriding the plan's after/times counting.
  std::vector<std::uint8_t> schedule;
  int hits = 0;
  int fired = 0;
  // Registry-export handles (resolved once at arm time, may be null when
  // the metrics layer failed to hand them out).
  metrics::Counter* hits_counter = nullptr;
  metrics::Counter* fired_counter = nullptr;
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<std::string, SiteState>& registry() {
  static std::unordered_map<std::string, SiteState> r;
  return r;
}

/// Counts the hit and decides whether the plan fires on it. Returns a copy
/// of the plan to act on outside the lock (sleeps must not hold it).
bool count_hit(const char* site, FaultPlan& plan_out) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto it = registry().find(site);
  if (it == registry().end()) return false;
  auto& s = it->second;
  ++s.hits;
  if (s.hits_counter) s.hits_counter->add();
  bool fires = false;
  if (!s.schedule.empty()) {
    // Storm schedule: hit N fires iff the precomputed slot says so — wall
    // clock and thread interleaving cannot change which hits fire.
    fires = s.schedule[static_cast<std::size_t>(s.hits - 1) % s.schedule.size()] != 0;
  } else {
    const int past = s.hits - s.plan.after;  // 1-based index into the firing run
    fires = past >= 1 && (s.plan.times < 0 || past <= s.plan.times);
  }
  if (fires) {
    ++s.fired;
    if (s.fired_counter) s.fired_counter->add();
  }
  plan_out = s.plan;
  return fires;
}

/// Insert/replace a site's state; `schedule` empty for plain plans.
void arm_state(const std::string& site, FaultPlan plan, std::vector<std::uint8_t> schedule) {
  // Resolve metric handles before taking the fault lock (registration locks
  // the metrics registry; keep the two mutexes unnested).
  metrics::Counter* hits_c = &metrics::counter("fault." + site + ".hits");
  metrics::Counter* fired_c = &metrics::counter("fault." + site + ".fired");
  std::lock_guard<std::mutex> lock(registry_mutex());
  SiteState state{std::move(plan), std::move(schedule), 0, 0, hits_c, fired_c};
  auto [it, inserted] = registry().insert_or_assign(site, std::move(state));
  (void)it;
  if (inserted) detail::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
}

[[noreturn]] void throw_injected(const char* site, const FaultPlan& plan) {
  throw FaultInjected(plan.message.empty()
                          ? "fault injected at site '" + std::string(site) + "'"
                          : plan.message);
}

void apply_delay(const FaultPlan& plan) {
  if (plan.delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(plan.delay_ms));
  }
}

}  // namespace

std::span<const char* const> sites() {
  // Sorted. Keep in sync with the hooks in the codebase and with DESIGN.md
  // ("Fault injection" + "Durable sessions"); test_core enforces both.
  static constexpr const char* kSites[] = {
      "adapter.params",   "adapter.step",    "llm.forward", "serialize.fsync",
      "serialize.rename", "serialize.write", "serve.batch", "session.checkpoint",
  };
  return kSites;
}

void arm(const std::string& site, FaultPlan plan) {
  arm_state(site, std::move(plan), {});
}

void arm_storm(const StormPlan& plan) {
  if (plan.horizon <= 0) {
    throw std::invalid_argument("arm_storm: horizon must be positive");
  }
  const auto known = sites();
  for (const auto& s : plan.sites) {
    if (s.burst <= 0) {
      throw std::invalid_argument("arm_storm: burst must be positive at site '" + s.site + "'");
    }
    if (std::find_if(known.begin(), known.end(),
                     [&](const char* k) { return s.site == k; }) == known.end()) {
      throw std::invalid_argument("arm_storm: unknown fault site '" + s.site +
                                  "' (not in fault::sites())");
    }
  }
  // One master stream; each site gets a split child in declaration order, so
  // the same plan always produces the same per-site schedules.
  Rng master(plan.seed);
  for (const auto& s : plan.sites) {
    Rng site_rng = master.split();
    std::vector<std::uint8_t> schedule(static_cast<std::size_t>(plan.horizon), 0);
    int burst_left = 0;
    for (auto& slot : schedule) {
      if (burst_left > 0) {
        slot = 1;
        --burst_left;
      } else if (site_rng.bernoulli(s.p)) {
        slot = 1;
        burst_left = s.burst - 1;
      }
    }
    FaultPlan fp;
    fp.kind = s.kind;
    fp.delay_ms = s.delay_ms;
    fp.times = -1;  // the schedule, not after/times, decides firing
    fp.message = "storm fault injected at site '" + s.site + "'";
    arm_state(s.site, std::move(fp), std::move(schedule));
  }
}

void disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  if (registry().erase(site) > 0) {
    detail::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  detail::g_armed_sites.fetch_sub(static_cast<int>(registry().size()),
                                  std::memory_order_relaxed);
  registry().clear();
}

int hits(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.hits;
}

int fired(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.fired;
}

namespace detail {

void check_slow(const char* site) {
  FaultPlan plan;
  if (!count_hit(site, plan)) return;
  switch (plan.kind) {
    case FaultKind::Throw:
    case FaultKind::TruncateIo:
      throw_injected(site, plan);
    case FaultKind::Delay:
      apply_delay(plan);
      return;
    case FaultKind::CorruptNan:
    case FaultKind::CorruptInf:
      return;  // no float payload at this site; counted but a no-op
  }
}

void corrupt_slow(const char* site, std::span<float> values) {
  FaultPlan plan;
  if (!count_hit(site, plan)) return;
  switch (plan.kind) {
    case FaultKind::Throw:
    case FaultKind::TruncateIo:
      throw_injected(site, plan);
    case FaultKind::Delay:
      apply_delay(plan);
      return;
    case FaultKind::CorruptNan:
      for (auto& v : values) v = std::numeric_limits<float>::quiet_NaN();
      return;
    case FaultKind::CorruptInf:
      for (auto& v : values) v = std::numeric_limits<float>::infinity();
      return;
  }
}

std::size_t io_bytes_slow(const char* site, std::size_t requested) {
  FaultPlan plan;
  if (!count_hit(site, plan)) return requested;
  switch (plan.kind) {
    case FaultKind::Throw:
      throw_injected(site, plan);
    case FaultKind::Delay:
      apply_delay(plan);
      return requested;
    case FaultKind::TruncateIo:
      return std::min(requested, plan.truncate_to);
    case FaultKind::CorruptNan:
    case FaultKind::CorruptInf:
      return requested;  // no float payload; counted but a no-op
  }
  return requested;
}

}  // namespace detail

}  // namespace netllm::core::fault
