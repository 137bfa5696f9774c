// Runtime CPU-ISA dispatch for the matmul microkernel tier (DESIGN.md §16).
//
// The hot range-kernels in tensor/kernels.* exist in up to three compiled
// tiers — scalar (portable baseline, always present), AVX2+FMA and AVX-512
// (x86-64, each built as a separate TU with its own per-file -m flags) —
// and the tier actually executed is picked at runtime from the CPU's
// feature bits, NOT by the compiler flags of the whole build. The binary
// therefore runs on any host of its architecture and still uses the widest
// vector unit the machine has. Other architectures (aarch64 included) run
// the scalar tier.
//
// Selection order, resolved once on first kernel call (or explicitly via
// reset_active_isa()):
//   1. `NETLLM_ISA` env: "scalar" | "avx2" | "avx512" force a tier (an
//      unsupported-but-valid name falls back to scalar — the dispatch
//      table, not the caller, decides); "auto" / unset pick best_isa().
//      Any other value throws std::invalid_argument, loudly.
//   2. best_isa(): the widest tier that is both compiled into this binary
//      and advertised by the CPU (cpuid-backed __builtin_cpu_supports), in
//      the order avx512, avx2, scalar. The AVX-512 tier needs
//      avx512f/bw/vl/vnni and fma.
//
// Tier contract (pinned by tests/test_isa.cpp, ctest -L isa):
//   - WITHIN a tier, results are bitwise identical at any NETLLM_THREADS:
//     every output element's accumulation order is fixed per tier and
//     independent of the parallel_for row partition (DESIGN.md §8).
//   - ACROSS tiers, fp32 kernels agree within a pinned tolerance (vector
//     tiers use FMA and wider partial sums), while the Q8/Q4 kernels are
//     bitwise IDENTICAL across every tier: their int32 block dots are exact
//     integer sums and the per-block float accumulation keeps the scalar
//     expression order (all kernel TUs build with -ffp-contract=off).
//   - The AVX-512 tier returns the AVX2 tier's bits in every kernel: its
//     fp32 elements keep the AVX2 per-element FMA sequence on 16 lanes.
//
// The resolved tier is exported into core::metrics as the gauges
// `kernels.isa.active` and `kernels.isa.best` (numeric Isa values).
#pragma once

#include <string_view>
#include <vector>

namespace netllm::tensor::isa {

/// Microkernel tiers, narrowest first. Values are stable: they are what the
/// kernels.isa.* metrics gauges report. Value 2 belonged to a retired
/// aarch64 tier and is not reused.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 3 };

/// Stable lowercase name ("scalar" / "avx2" / "avx512").
const char* isa_name(Isa i);

/// Parse "scalar" / "avx2" / "avx512". Throws std::invalid_argument on
/// anything else (including "auto" — resolve that via reset_active_isa()).
Isa isa_from_name(std::string_view name);

/// True if the tier's kernels were compiled into this binary.
bool isa_compiled(Isa i);

/// True if the tier is compiled AND the running CPU advertises the feature
/// bits it needs. kScalar is always supported.
bool isa_supported(Isa i);

/// Widest supported tier on this host.
Isa best_isa();

/// Every tier this dispatcher knows, compiled or not, narrowest first.
std::vector<Isa> all_isas();

/// Every supported tier on this host, scalar first, then narrowest to
/// widest: what a test or bench sweeps to cover each tier it can run.
std::vector<Isa> supported_isas();

/// The tier the kernels currently dispatch to. First call resolves
/// NETLLM_ISA (see file comment); may throw std::invalid_argument on a
/// garbage override.
Isa active_isa();

/// Force a tier. An unsupported request falls back to kScalar instead of
/// failing — returns the tier actually applied.
Isa set_active_isa(Isa requested);

/// Re-resolve from the environment (tests flip NETLLM_ISA and call this).
/// Returns the applied tier; throws on a garbage NETLLM_ISA value without
/// changing the active tier.
Isa reset_active_isa();

}  // namespace netllm::tensor::isa
