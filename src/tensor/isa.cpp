#include "tensor/isa.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "tensor/kernels_dispatch.hpp"

namespace netllm::tensor::isa {

namespace {

namespace kd = kernels::detail;

// -1 = unresolved; otherwise the applied Isa value. The table pointer is
// published with release/acquire so a kernel thread that sees the pointer
// also sees the fully-initialised table.
std::atomic<int> g_active{-1};
std::atomic<const kd::KernelTable*> g_table{nullptr};
std::mutex g_mu;

using TableFn = const kd::KernelTable& (*)();

#if defined(NETLLM_HAVE_AVX2)
// The builtins read cpuid and also check that the OS saves the YMM state
// (AVX-512: the opmask and ZMM state too).
bool cpu_avx2() { return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"); }
constexpr TableFn kAvx2Table = &kd::avx2_table;
#else
bool cpu_avx2() { return false; }
constexpr TableFn kAvx2Table = nullptr;
#endif
#if defined(NETLLM_HAVE_AVX512)
bool cpu_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("fma");
}
constexpr TableFn kAvx512Table = &kd::avx512_table;
#else
bool cpu_avx512() { return false; }
constexpr TableFn kAvx512Table = nullptr;
#endif
bool cpu_any() { return true; }

struct Tier {
  Isa isa;
  const char* name;
  TableFn table;      // nullptr: not compiled into this binary
  bool (*cpu_has)();  // the running CPU advertises the tier's feature bits
};

/// Every tier, narrowest first: supported_isas() lists the supported ones
/// in this order and best_isa() takes the last of them. A new tier is one
/// row here plus its TU.
constexpr Tier kTiers[] = {
    {Isa::kScalar, "scalar", &kd::scalar_table, &cpu_any},
    {Isa::kAvx2, "avx2", kAvx2Table, &cpu_avx2},
    {Isa::kAvx512, "avx512", kAvx512Table, &cpu_avx512},
};

const Tier* find(Isa i) {
  for (const Tier& t : kTiers) {
    if (t.isa == i) return &t;
  }
  return nullptr;
}

/// Publish `requested` (or the scalar fallback if unsupported) as the
/// active tier. Caller holds g_mu. Returns the applied tier.
Isa apply_locked(Isa requested) {
  const Isa applied = isa_supported(requested) ? requested : Isa::kScalar;
  g_table.store(&find(applied)->table(), std::memory_order_release);
  g_active.store(static_cast<int>(applied), std::memory_order_release);
  core::metrics::gauge("kernels.isa.active").set(static_cast<double>(applied));
  core::metrics::gauge("kernels.isa.best").set(static_cast<double>(best_isa()));
  return applied;
}

/// NETLLM_ISA -> requested tier. Unset / empty / "auto" mean best_isa();
/// a valid-but-unsupported name is allowed (apply falls back to scalar);
/// garbage throws.
Isa resolve_env() {
  const char* env = std::getenv("NETLLM_ISA");
  if (env == nullptr || *env == '\0') return best_isa();
  const std::string_view v(env);
  if (v == "auto") return best_isa();
  try {
    return isa_from_name(v);
  } catch (const std::invalid_argument&) {
    std::string expected;
    for (const Tier& t : kTiers) expected += std::string(t.name) + "|";
    throw std::invalid_argument("NETLLM_ISA: expected " + expected + "auto, got '" +
                                std::string(v) + "'");
  }
}

}  // namespace

const char* isa_name(Isa i) {
  const Tier* t = find(i);
  return t != nullptr ? t->name : "scalar";
}

Isa isa_from_name(std::string_view name) {
  for (const Tier& t : kTiers) {
    if (name == t.name) return t.isa;
  }
  throw std::invalid_argument("isa_from_name: unknown tier '" + std::string(name) + "'");
}

bool isa_compiled(Isa i) {
  const Tier* t = find(i);
  return t != nullptr && t->table != nullptr;
}

bool isa_supported(Isa i) { return isa_compiled(i) && find(i)->cpu_has(); }

Isa best_isa() {
  Isa best = Isa::kScalar;
  for (const Tier& t : kTiers) {
    if (isa_supported(t.isa)) best = t.isa;
  }
  return best;
}

std::vector<Isa> all_isas() {
  std::vector<Isa> tiers;
  for (const Tier& t : kTiers) tiers.push_back(t.isa);
  return tiers;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> tiers;
  for (const Tier& t : kTiers) {
    if (isa_supported(t.isa)) tiers.push_back(t.isa);
  }
  return tiers;
}

Isa active_isa() {
  const int a = g_active.load(std::memory_order_acquire);
  if (a >= 0) return static_cast<Isa>(a);
  std::lock_guard<std::mutex> lk(g_mu);
  const int again = g_active.load(std::memory_order_acquire);
  if (again >= 0) return static_cast<Isa>(again);
  return apply_locked(resolve_env());
}

Isa set_active_isa(Isa requested) {
  std::lock_guard<std::mutex> lk(g_mu);
  return apply_locked(requested);
}

Isa reset_active_isa() {
  const Isa requested = resolve_env();  // throws on garbage, state untouched
  std::lock_guard<std::mutex> lk(g_mu);
  return apply_locked(requested);
}

}  // namespace netllm::tensor::isa

namespace netllm::tensor::kernels::detail {

const KernelTable& active_table() {
  const KernelTable* t = isa::g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    isa::active_isa();  // resolves NETLLM_ISA and publishes the table
    t = isa::g_table.load(std::memory_order_acquire);
  }
  return *t;
}

}  // namespace netllm::tensor::kernels::detail
