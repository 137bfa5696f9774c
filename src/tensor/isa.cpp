#include "tensor/isa.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "tensor/kernels_dispatch.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace netllm::tensor::isa {

namespace {

namespace kd = kernels::detail;

// -1 = unresolved; otherwise the applied Isa value. The table pointer is
// published with release/acquire so a kernel thread that sees the pointer
// also sees the fully-initialised table.
std::atomic<int> g_active{-1};
std::atomic<const kd::KernelTable*> g_table{nullptr};
std::mutex g_mu;

/// CPU feature bit for a tier (independent of whether it was compiled in).
bool cpu_has(Isa i) {
  switch (i) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // Covers AVX2 + FMA + the OS XSAVE/YMM-state check via the builtin.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The builtin also checks that the OS saves the opmask and ZMM state.
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni") &&
             __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__) && defined(__linux__)
      return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
      return true;  // ASIMD is architecturally mandatory on AArch64
#else
      return false;
#endif
  }
  return false;
}

const kd::KernelTable* table_for(Isa i) {
  switch (i) {
#if defined(NETLLM_HAVE_AVX2)
    case Isa::kAvx2:
      return &kd::avx2_table();
#endif
#if defined(NETLLM_HAVE_AVX512)
    case Isa::kAvx512:
      return &kd::avx512_table();
#endif
#if defined(NETLLM_HAVE_NEON)
    case Isa::kNeon:
      return &kd::neon_table();
#endif
    default:
      return &kd::scalar_table();
  }
}

/// Publish `requested` (or the scalar fallback if unsupported) as the
/// active tier. Caller holds g_mu. Returns the applied tier.
Isa apply_locked(Isa requested) {
  const Isa applied = isa_supported(requested) ? requested : Isa::kScalar;
  g_table.store(table_for(applied), std::memory_order_release);
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
    throw std::invalid_argument("NETLLM_ISA: expected scalar|avx2|avx512|neon|auto, got '" +
                                std::string(v) + "'");
  }
}

}  // namespace

const char* isa_name(Isa i) {
  switch (i) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
    case Isa::kAvx512: return "avx512";
  }
  return "scalar";
}

Isa isa_from_name(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "neon") return Isa::kNeon;
  if (name == "avx512") return Isa::kAvx512;
  throw std::invalid_argument("isa_from_name: unknown tier '" + std::string(name) + "'");
}

bool isa_compiled(Isa i) {
  switch (i) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(NETLLM_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(NETLLM_HAVE_NEON)
      return true;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(NETLLM_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool isa_supported(Isa i) { return isa_compiled(i) && cpu_has(i); }

Isa best_isa() {
  for (Isa i : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (isa_supported(i)) return i;
  }
  return Isa::kScalar;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> tiers;
  for (Isa i : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_supported(i)) tiers.push_back(i);
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
