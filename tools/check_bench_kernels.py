#!/usr/bin/env python3
"""Validate a BENCH_kernels.json artifact (DESIGN.md §16).

Usage: tools/check_bench_kernels.py BENCH_kernels.json

The artifact must carry the threaded BM_MatmulKernel sweep and one
BM_IsaTier/<case>/<tier> row per kernel case for the scalar tier and, when
a vector tier was compiled in, for that tier too. On the GEMV serving shapes
the vector tier must not be slower than scalar. Exits non-zero with a
named reason on key drift or a regression. run_benches.sh runs it after
regenerating the file; ctest runs it (label `ledger`) on the checked-in
copy, so a stale or hand-edited artifact fails the test suite.
"""
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

rows = [b for b in doc.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration" and "error_occurred" not in b]
if not any(b["name"].startswith("BM_MatmulKernel/") for b in rows):
    raise SystemExit("schema drift: no BM_MatmulKernel rows (threaded matmul sweep)")

CASES = ["f32_gemv512", "f32_gemm512", "q8_gemv512", "q8_gemm512",
         "q4_gemv512", "q4_gemm512"]
flops = {}  # (case, tier) -> items_per_second
for b in rows:
    parts = b["name"].split("/")
    if parts[0] != "BM_IsaTier":
        continue
    if "items_per_second" not in b:
        raise SystemExit(f"schema drift: {b['name']} lacks items_per_second")
    flops[(parts[1], parts[2])] = b["items_per_second"]

for case in CASES:
    if (case, "scalar") not in flops:
        raise SystemExit(f"schema drift: missing BM_IsaTier/{case}/scalar row")
    if flops[(case, "scalar")] <= 0:
        raise SystemExit(f"regression: non-positive scalar FLOP/s for {case}")

vector_tiers = sorted({t for (_, t) in flops if t != "scalar"})
if vector_tiers:
    tier = vector_tiers[0]
    for case in CASES:
        if (case, tier) not in flops:
            raise SystemExit(f"schema drift: missing BM_IsaTier/{case}/{tier} row")
    for case in ("f32_gemv512", "q8_gemv512", "q4_gemv512"):
        ratio = flops[(case, tier)] / flops[(case, "scalar")]
        # Floor, not target: the vector tier must never LOSE to scalar on
        # the serving GEMV shapes (a regression in the dispatch or the
        # kernels). The measured margin on an AVX2 host is >= 2x.
        if ratio < 1.0:
            raise SystemExit(
                f"regression: {tier} {case} slower than scalar ({ratio:.2f}x)")
    for case in CASES:
        ratio = flops[(case, tier)] / flops[(case, "scalar")]
        print(f"ok: {case} {tier}/scalar = {ratio:.2f}x "
              f"({flops[(case, tier)]/1e9:.2f} vs {flops[(case, 'scalar')]/1e9:.2f} GFLOP/s)")
else:
    print("ok: scalar-only host (no vector tier compiled/supported)")
print("ok: BENCH_kernels.json schema + ISA tier floor")
