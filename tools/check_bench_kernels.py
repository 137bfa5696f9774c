#!/usr/bin/env python3
"""Validate a BENCH_kernels.json artifact (DESIGN.md §16).

Usage: tools/check_bench_kernels.py BENCH_kernels.json

The artifact must carry the threaded BM_MatmulKernel sweep and one
BM_IsaTier/<case>/<tier> row per kernel case for every tier the provenance
lists as supported on the host (`isa_supported`: scalar, plus avx2 and
avx512 where the host has them; no other tier name is accepted). Every
row runs REPETITIONS times and reports median and stddev aggregates; the
checks read the medians. The context block must name the run's
provenance (commit, build type, host width, active and supported tiers,
NETLLM_THREADS). On the GEMV serving
shapes, the narrow fp32 shapes and the row kernels (GELU, Q8_0 activation
quantization) every vector tier must not be slower than scalar, and
neither may the causal softmax, the fused attention head and the fused
LoRA slot (a Q/K/V step and an fc2 step). The avx512
tier returns the avx2 tier's bits, so it must also not be slower than
avx2 on any case: its median may trail the avx2 median by no more than the
two rows' combined relative spread (stddev / median), since some cases run
the same code (Q4, inherited) or the same latency-bound FMA chain (the
LoRA GEMV) at both widths and can only tie. Exits non-zero with a named
reason on key drift or a regression.
run_benches.sh runs it after regenerating the file; ctest runs it (label
`ledger`) on the checked-in copy, so a stale or hand-edited artifact fails
the test suite.
"""
import json, sys

REPETITIONS = 5
# The tiers tensor/isa.cpp dispatches to.
KNOWN_TIERS = ("scalar", "avx2", "avx512")
PROVENANCE = ("git_sha", "build_type", "nproc", "isa_active", "isa_supported", "netllm_threads")

with open(sys.argv[1]) as f:
    doc = json.load(f)

context = doc.get("context", {})
for key in PROVENANCE:
    if key not in context:
        raise SystemExit(f"schema drift: context lacks provenance key '{key}'")

rows = [b for b in doc.get("benchmarks", []) if "error_occurred" not in b]
if any(b.get("run_type") != "aggregate" for b in rows):
    raise SystemExit("schema drift: per-repetition rows present; report aggregates only")

runs = {}  # run_name -> {aggregate_name: row}
for b in rows:
    runs.setdefault(b["run_name"], {})[b["aggregate_name"]] = b
for run_name, agg in runs.items():
    for stat in ("median", "stddev"):
        if stat not in agg:
            raise SystemExit(f"schema drift: {run_name} lacks a {stat} aggregate")
    if agg["median"].get("repetitions") != REPETITIONS:
        raise SystemExit(f"schema drift: {run_name} ran "
                         f"{agg['median'].get('repetitions')} repetitions, want {REPETITIONS}")
if not any(name.startswith("BM_MatmulKernel/") for name in runs):
    raise SystemExit("schema drift: no BM_MatmulKernel rows (threaded matmul sweep)")

# Row-kernel cases count elements per second, the matmul cases FLOP/s.
ROW_CASES = ["gelu_ff256x59", "gelu_ff1280x4", "q8_quant512x4", "softmax_causal98x98"]
ATTEND_CASES = ["attend_step_len30_d512h8", "attend_prefill59_d64h4"]
# Fused LoRA slot calls (kernels::lora_projections) of a 64-wide decode step.
LORA_CASES = ["lora_qkv_step64_r4", "lora_fc2_step160x64_r4"]
CASES = ["f32_gemv512", "f32_gemm512", "f32_lora_gemv512", "f32_lora_gemm64", "f32_gemv64",
         "q8_gemv512", "q8_gemm512", "q4_gemv512", "q4_gemm512"] + ROW_CASES + ATTEND_CASES + \
        LORA_CASES
# Serving shapes where the vector tier must never lose to scalar.
FLOOR_CASES = ["f32_gemv512", "f32_lora_gemv512", "f32_lora_gemm64", "f32_gemv64",
               "q8_gemv512", "q4_gemv512"] + ROW_CASES + ATTEND_CASES + LORA_CASES
flops = {}   # (case, tier) -> median items_per_second
spread = {}  # (case, tier) -> stddev / median of items_per_second
for run_name, agg in runs.items():
    parts = run_name.split("/")
    if parts[0] != "BM_IsaTier":
        continue
    for stat in ("median", "stddev"):
        if "items_per_second" not in agg[stat]:
            raise SystemExit(f"schema drift: {run_name} {stat} lacks items_per_second")
    flops[(parts[1], parts[2])] = agg["median"]["items_per_second"]
    spread[(parts[1], parts[2])] = (agg["stddev"]["items_per_second"] /
                                    agg["median"]["items_per_second"])

for case in CASES:
    if (case, "scalar") not in flops:
        raise SystemExit(f"schema drift: missing BM_IsaTier/{case}/scalar row")
    if flops[(case, "scalar")] <= 0:
        raise SystemExit(f"regression: non-positive scalar rate for {case}")

supported = context["isa_supported"].split(",")
for tier in supported:
    if tier not in KNOWN_TIERS:
        raise SystemExit(f"schema drift: isa_supported lists '{tier}', "
                         f"not a dispatcher tier ({', '.join(KNOWN_TIERS)})")
vector_tiers = [t for t in supported if t != "scalar"]
for tier in sorted({t for (_, t) in flops} - set(supported)):
    raise SystemExit(f"schema drift: rows for tier {tier}, which isa_supported does not list")
for tier in vector_tiers:
    for case in CASES:
        if (case, tier) not in flops:
            raise SystemExit(f"schema drift: missing BM_IsaTier/{case}/{tier} row")
    for case in FLOOR_CASES:
        ratio = flops[(case, tier)] / flops[(case, "scalar")]
        # Floor, not target: the vector tier must never LOSE to scalar on
        # the serving shapes (a regression in the dispatch or the kernels).
        if ratio < 1.0:
            raise SystemExit(
                f"regression: {tier} {case} slower than scalar ({ratio:.2f}x)")
    for case in CASES:
        ratio = flops[(case, tier)] / flops[(case, "scalar")]
        unit = "Gelem/s" if case in ROW_CASES else "GFLOP/s"
        print(f"ok: {case} {tier}/scalar = {ratio:.2f}x "
              f"({flops[(case, tier)]/1e9:.2f} vs {flops[(case, 'scalar')]/1e9:.2f} {unit})")
if "avx512" in vector_tiers:
    if "avx2" not in vector_tiers:
        raise SystemExit("schema drift: avx512 rows without the avx2 rows they are floored at")
    for case in CASES:
        ratio = flops[(case, "avx512")] / flops[(case, "avx2")]
        noise = spread[(case, "avx512")] + spread[(case, "avx2")]
        if ratio < 1.0 - noise:
            raise SystemExit(f"regression: avx512 {case} slower than avx2 ({ratio:.3f}x, "
                             f"beyond the rows' combined spread {noise:.3f})")
        print(f"ok: {case} avx512/avx2 = {ratio:.2f}x (spread {noise:.3f})")
if not vector_tiers:
    print("ok: scalar-only host (no vector tier compiled/supported)")
print(f"ok: BENCH_kernels.json schema + provenance ({context['git_sha'][:12]}, "
      f"{context['build_type']}, isa {context['isa_active']}) + ISA tier floor")
