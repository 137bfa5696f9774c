#!/usr/bin/env python3
"""Validate a BENCH_decode.json artifact (DESIGN.md §10, §13, §15).

Usage: tools/check_bench_decode.py BENCH_decode.json

The artifact must carry the cached and uncached decode rows and their
speedup, the fp32 / Q8_0 / Q4_0 quantized decode rows, the VP lockstep-group
rows (B = 1, 2, 4, 8 requests per drain, each with median and stddev
aggregates over REPETITIONS runs) and a provenance block. A quantized
backbone must shrink more than 3x and decode no slower than fp32, and a
drain of 4 VP requests must cost less per decision than a drain of one.
Exits non-zero with a named reason on key drift or a regression.
run_benches.sh runs it after regenerating the file; ctest runs it (label
`ledger`) on the checked-in copy, so a stale or hand-edited artifact fails
the test suite.
"""
import json, sys

REPETITIONS = 5
PROVENANCE = ("git_sha", "build_type", "nproc", "isa_active", "netllm_threads")
GROUP_SIZES = [1, 2, 4, 8]

with open(sys.argv[1]) as f:
    doc = json.load(f)

def need(obj, key, ctx):
    if key not in obj:
        raise SystemExit(f"schema drift: missing '{key}' in {ctx}")

for key in ("decode", "speedup_tokens_per_s", "quant_decode",
            "quant_q8_speedup_tokens_per_s", "quant_q8_memory_ratio"):
    need(doc, key, "top level")
if {r.get("mode") for r in doc["decode"]} != {"cached", "uncached"}:
    raise SystemExit("schema drift: decode rows must be exactly cached + uncached")
for row in doc["decode"]:
    for key in ("tokens_per_s", "p50_ms", "p99_ms"):
        need(row, key, "decode row")
if [r.get("dtype") for r in doc["quant_decode"]] != ["f32", "q8_0", "q4_0"]:
    raise SystemExit("schema drift: quant_decode rows must be f32, q8_0, q4_0 in order")
for row in doc["quant_decode"]:
    for key in ("tokens_per_s", "p50_ms", "p99_ms", "backbone_bytes"):
        need(row, key, "quant_decode row")
# The DESIGN.md §15 headline: a quantized backbone must actually shrink
# (Q8 payload is 9/32 of fp32 plus scales -> well over 3x smaller) and the
# Q8 decode must not be slower than fp32 (measured best-of-3 interleaved,
# so a load spike on a shared box doesn't decide the comparison).
if doc["quant_q8_memory_ratio"] <= 3.0:
    raise SystemExit(f"regression: q8 backbone memory ratio {doc['quant_q8_memory_ratio']} <= 3x")
if doc["quant_q8_speedup_tokens_per_s"] <= 1.0:
    raise SystemExit(
        f"regression: q8 decode slower than fp32 ({doc['quant_q8_speedup_tokens_per_s']}x)")

# VP lockstep groups (DESIGN.md §13).
need(doc, "vp_group", "top level")
need(doc, "context", "top level")
for key in PROVENANCE:
    need(doc["context"], key, "context (provenance)")
if [r.get("requests") for r in doc["vp_group"]] != GROUP_SIZES:
    raise SystemExit(f"schema drift: vp_group rows must be requests {GROUP_SIZES} in order")
group_ms = {}
for row in doc["vp_group"]:
    ctx = f"vp_group row requests={row['requests']}"
    if row.get("repetitions") != REPETITIONS:
        raise SystemExit(f"schema drift: {ctx} ran {row.get('repetitions')} repetitions, "
                         f"want {REPETITIONS}")
    for key in ("decisions_per_s", "ms_per_decision"):
        need(row, key, ctx)
        for stat in ("median", "stddev"):
            need(row[key], stat, f"{ctx} {key}")
        if row[key]["median"] <= 0:
            raise SystemExit(f"regression: non-positive {key} median in {ctx}")
    group_ms[row["requests"]] = row["ms_per_decision"]["median"]
# Step-level batching must pay: four requests stepped in lockstep cost less
# per decision than one request served alone.
if group_ms[4] >= group_ms[1]:
    raise SystemExit(f"regression: B=4 VP drain costs {group_ms[4]:.2f} ms/decision, "
                     f"not below B=1's {group_ms[1]:.2f}")
print("ok: BENCH_decode.json schema")
