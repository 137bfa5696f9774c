#!/usr/bin/env bash
# Regenerates every paper table/figure. Output: bench_output.txt
# Also emits BENCH_kernels.json (serial vs threaded matmul GFLOP/s;
# items_per_second == FLOP/s), BENCH_session.json (durable-session
# checkpoint save/restore latency + steps/s at each checkpoint cadence),
# BENCH_decode.json (cached vs uncached tokens/s + quantized decode + VP
# lockstep groups),
# BENCH_metrics.json (observability hot-path cost) with the metrics-registry
# dump in metrics.json,
# BENCH_chaos.json (SLO attainment / shed / fallback rates under seeded
# fault storms at 10x oversubscription), and BENCH_quant.json (quantized
# matmul kernel throughput + the accuracy-vs-bits ablation: VP/ABR/CJS task
# metrics at fp32 / Q8_0 / Q4_0 backbones).
# Every BENCH_*.json (and metrics.json) is validated at the end; an empty or
# unparseable file fails the sweep loudly instead of archiving garbage.
set -euo pipefail
cd "$(dirname "$0")"
# Release only (the same check bench/e2e/run.sh applies): numbers from a
# debug or unoptimised build/ must never land in a BENCH_*.json row.
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' build/CMakeCache.txt 2>/dev/null; then
  echo "run_benches.sh: build/ is not a Release build; reconfigure with" \
    "cmake -B build -S . -DCMAKE_BUILD_TYPE=Release and rebuild" >&2
  exit 2
fi
{
for b in bench_fig02_motivation bench_fig03_training_time bench_fig04_adaptation_cost \
         bench_fig10_general bench_fig11_generalization bench_fig12_qoe_breakdown \
         bench_fig13_knowledge bench_fig14_realworld bench_fig15_llm_types \
         bench_fig16_llm_sizes bench_overhead_inference bench_microkernels; do
  echo "##### $b"
  "./build/bench/$b" 2>&1
  echo
done
echo "##### BENCH_kernels.json (serial vs threaded matmul + per-ISA-tier rows)"
./build/bench/bench_microkernels --benchmark_filter='BM_MatmulKernel|BM_IsaTier' \
  --benchmark_out=BENCH_kernels.json --benchmark_out_format=json 2>&1
echo
echo "##### BENCH_session.json (checkpoint latency + cadence overhead)"
./build/bench/bench_session \
  --benchmark_out=BENCH_session.json --benchmark_out_format=json 2>&1
echo
echo "##### BENCH_decode.json (KV-cached decode + quantized decode + VP lockstep groups)"
./build/bench/bench_decode BENCH_decode.json 2>&1
echo
echo "##### BENCH_metrics.json + metrics.json (observability overhead)"
./build/bench/bench_metrics BENCH_metrics.json metrics.json 2>&1
echo
echo "##### BENCH_chaos.json (admission control + fault-storm resilience)"
./build/bench/bench_chaos BENCH_chaos.json 2>&1
echo
echo "##### BENCH_quant.json (quantized kernels + accuracy vs bits)"
./build/bench/bench_quant BENCH_quant.json 2>&1
echo
echo "##### validating JSON artifacts"
fail=0
for f in BENCH_*.json metrics.json; do
  if [ ! -s "$f" ]; then
    echo "INVALID: $f is missing or empty"
    fail=1
  elif command -v python3 >/dev/null 2>&1; then
    if python3 -m json.tool "$f" >/dev/null 2>&1; then
      echo "ok: $f"
    else
      echo "INVALID: $f does not parse as JSON"
      fail=1
    fi
  elif ! grep -q '}' "$f"; then
    echo "INVALID: $f has no closing brace"
    fail=1
  else
    echo "ok (no python3, brace check only): $f"
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "FLEET-FAILED: invalid benchmark JSON artifacts"
  exit 1
fi
echo
echo "##### validating BENCH_decode.json schema"
# The decode artifact is consumed downstream: drift in its keys (decode rows,
# the cached/uncached speedup, the quantized decode rows, the VP lockstep
# group rows and their provenance) must fail the sweep loudly, not archive a
# silently incompatible file.
if command -v python3 >/dev/null 2>&1; then
  if python3 tools/check_bench_decode.py BENCH_decode.json
  then :; else
    echo "FLEET-FAILED: BENCH_decode.json schema drift"
    exit 1
  fi
else
  echo "skipped (no python3): BENCH_decode.json schema check"
fi
echo
echo "##### validating BENCH_kernels.json schema"
# The kernels artifact now carries the ISA-tier comparison (DESIGN.md §16):
# every case must have a scalar row, and when a vector tier was compiled in
# its rows must be present and not slower than scalar on the GEMV serving
# shapes and the narrow fp32 shapes (LoRA x·A, the 64-wide step). Every row
# carries 5-repetition median/stddev aggregates and the file a provenance
# block. Key drift or a vector tier losing to scalar fails the sweep
# loudly. NOTE: absolute FLOP/s shifted when PR 10 replaced the blanket
# -march=native with per-file tier flags — the scalar rows now measure the
# genuinely portable baseline (see EXPERIMENTS.md "Kernel throughput").
if command -v python3 >/dev/null 2>&1; then
  if python3 tools/check_bench_kernels.py BENCH_kernels.json
  then :; else
    echo "FLEET-FAILED: BENCH_kernels.json schema drift"
    exit 1
  fi
else
  echo "skipped (no python3): BENCH_kernels.json schema check"
fi
echo
echo "##### forced-scalar test pass (NETLLM_ISA=scalar: isa + parallel suites)"
# The portable tier must keep every determinism contract on its own — this
# is what a host with no vector unit (or NETLLM_ISA=scalar in production)
# actually runs.
if NETLLM_ISA=scalar ctest --test-dir build -L "isa|parallel" --output-on-failure 2>&1; then
  echo "ok: forced-scalar isa/parallel suites"
else
  echo "FLEET-FAILED: forced-scalar isa/parallel test pass failed"
  exit 1
fi
echo
echo "##### validating BENCH_quant.json schema"
# The quant artifact pins the §15 accuracy story: the Q8_0 backbone must
# stay within tolerance of fp32 on every task metric (measured ~3% worst
# case; 10% leaves headroom for benign numeric drift without letting a
# broken kernel or scale format through). Q4_0 is reported but unpinned —
# its visible degradation IS the accuracy-vs-bits result.
if command -v python3 >/dev/null 2>&1; then
  if python3 - BENCH_quant.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def need(obj, key, ctx):
    if key not in obj:
        raise SystemExit(f"schema drift: missing '{key}' in {ctx}")

for key in ("kernels", "ablation", "max_q8_rel_drift"):
    need(doc, key, "top level")
if len(doc["kernels"]) < 2:
    raise SystemExit("schema drift: kernel sweep needs at least 2 shapes")
for row in doc["kernels"]:
    for key in ("m", "k", "n", "f32_gops", "q8_0_gops", "q4_0_gops"):
        need(row, key, "kernel row")
    for key in ("f32_gops", "q8_0_gops", "q4_0_gops"):
        if row[key] <= 0:
            raise SystemExit(f"regression: non-positive {key} in kernel row m={row['m']}")
if [r.get("task") for r in doc["ablation"]] != ["vp", "abr", "cjs"]:
    raise SystemExit("schema drift: ablation rows must be vp, abr, cjs in order")
for row in doc["ablation"]:
    for key in ("metric", "higher_is_better", "f32", "q8_0", "q4_0", "q8_rel_drift"):
        need(row, key, f"ablation row {row.get('task')}")
    if row["q8_rel_drift"] >= 0.10:
        raise SystemExit(
            f"regression: {row['task']} Q8 drift {row['q8_rel_drift']:.3f} >= 10% of fp32")
if doc["max_q8_rel_drift"] >= 0.10:
    raise SystemExit(f"regression: max Q8 drift {doc['max_q8_rel_drift']:.3f} >= 10%")
print("ok: BENCH_quant.json schema + Q8-within-tolerance ablation")
EOF
  then :; else
    echo "FLEET-FAILED: BENCH_quant.json schema drift"
    exit 1
  fi
else
  echo "skipped (no python3): BENCH_quant.json schema check"
fi
echo
echo "FLEET-DONE"
} > bench_output.txt 2>&1
