#!/usr/bin/env python3
"""Check BENCHMARK.json, the layer map and benchmark result files.

    python3 bench/e2e/validate.py [--benchmark BENCHMARK.json] [RESULT.json | DIR] ...

With no results it checks only BENCHMARK.json and bench/e2e/layers.json.
With results it also checks each result against the declared metrics and
prints, per workload, the median of every end-to-end metric over the
untraced runs and trace_overhead (traced / untraced cpu_ms_per_decision).
Exits 1 when anything fails.
"""
import argparse
import json
import math
import os
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_LATENESS_MS = 1.0  # an open loop whose generator ran later than this is invalid
# A traced run's attribution holds when serve's self time plus the adapter and
# fallback spans cover the latency within 5%, and the replayed encoder, LLM
# and head calls come within 15% of the adapter span.
TRACE_CHECKS = {"trace.accounted_ratio": (0.95, 1.05), "adapt.replay_ratio": (0.85, 1.15)}
LAYER_MAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def check_benchmark(path, errors):
    """Validate BENCHMARK.json; returns the parsed document."""
    if os.path.getsize(path) > 64 * 1024:
        errors.append(f"{path}: larger than 64 KiB")
    with open(path) as f:
        bench = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"{path}: keys must be exactly {sorted(keys)}")
        return bench

    paths = bench["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths: 1 to 16 directories")
        paths = []
    for p in paths:
        if not (isinstance(p, str) and PATH.match(p)) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"paths: bad directory {p!r}")
    command = bench["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        errors.append("command: 1 to 32 strings")
        command = []
    for arg in command:
        if not (isinstance(arg, str) and len(arg) <= 200):
            errors.append(f"command: bad argument {arg!r}")
        elif arg.startswith("/") or ".." in arg.split("/"):
            errors.append(f"command: {arg!r} leaves the repository")
        elif "/" in arg and not any(arg == p or arg.startswith(p.rstrip("/") + "/") for p in paths):
            errors.append(f"command: {arg!r} is outside paths")
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")

    def entries(section, lo, hi, fields):
        items = bench[section]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            errors.append(f"{section}: {lo} to {hi} entries")
            return []
        seen = set()
        for item in items:
            if not isinstance(item, dict) or set(item) != fields:
                errors.append(f"{section}: entry {item!r} must have exactly {sorted(fields)}")
                continue
            name = item["name"]
            if not (isinstance(name, str) and NAME.match(name)):
                errors.append(f"{section}: bad name {name!r}")
            if name in seen:
                errors.append(f"{section}: {name} used twice")
            seen.add(name)
            if "unit" in fields and not (isinstance(item["unit"], str) and UNIT.match(item["unit"])):
                errors.append(f"{section}: {name} has a bad unit {item['unit']!r}")
            if "better" in fields and item["better"] not in ("higher", "lower"):
                errors.append(f"{section}: {name} better must be higher or lower")
        return items

    workloads = entries("workloads", 2, 8, {"name", "why"})
    for w in workloads:
        why = w.get("why")
        if not (isinstance(why, str) and why and len(why) <= 200 and "\n" not in why):
            errors.append(f"workloads: {w.get('name')} needs a one-line why of at most 200 characters")
    e2e = entries("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    for m in e2e:
        b = m.get("bound")
        if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
            errors.append(f"end_to_end: {m.get('name')} bound must be in (0, 0.25]")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end: setup_s (unit s, better lower) is required")
    layers = entries("per_layer", 1, 128, {"name", "unit", "better"})
    clash = {m["name"] for m in e2e} & {m["name"] for m in layers}
    if clash:
        errors.append(f"names used in both end_to_end and per_layer: {sorted(clash)}")
    check_layer_map(bench, errors)
    return bench


def check_layer_map(bench, errors):
    """Every layer metric names the end-to-end metric and workload it should move."""
    with open(LAYER_MAP) as f:
        layer_map = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    declared = {m["name"] for m in bench["per_layer"]}
    for name in sorted(declared - set(layer_map)):
        errors.append(f"layers.json: no target for layer metric {name}")
    for name in sorted(set(layer_map) - declared):
        errors.append(f"layers.json: {name} is not a declared layer metric")
    for name, targets in layer_map.items():
        if not targets:
            errors.append(f"layers.json: {name} has no target")
        for t in targets:
            if t.get("moves") not in e2e:
                errors.append(f"layers.json: {name} moves unknown metric {t.get('moves')!r}")
            if t.get("workload") not in workloads:
                errors.append(f"layers.json: {name} names unknown workload {t.get('workload')!r}")


def result_files(args):
    for a in args:
        if os.path.isdir(a):
            for f in sorted(os.listdir(a)):
                if f.endswith(".json"):
                    yield os.path.join(a, f)
        else:
            yield a


def check_result(path, res, bench, errors):
    if res.get("schema") != "netllm-e2e-result/1":
        errors.append(f"{path}: not a netllm-e2e result")
        return
    if res.get("correct") is not True:
        errors.append(f"{path}: correctness gate failed")
    if res.get("provenance", {}).get("build_type") != "Release":
        errors.append(f"{path}: not a Release build")
    if res.get("workload") not in {w["name"] for w in bench["workloads"]}:
        errors.append(f"{path}: unknown workload {res.get('workload')!r}")
    if res.get("phases", {}).get("measure", {}).get("sent", 0) < 1:
        errors.append(f"{path}: nothing attempted in the measurement window")
    declared = bench["per_layer"] if res.get("trace") else bench["end_to_end"]
    got = res.get("per_layer" if res.get("trace") else "metrics", {})
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            errors.append(f"{path}: missing {m['name']}")
        elif not (isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])):
            errors.append(f"{path}: {m['name']} is not a finite number")
        elif v.get("unit") != m["unit"]:
            errors.append(f"{path}: {m['name']} has unit {v.get('unit')!r}, declared {m['unit']!r}")
    if res.get("loop") == "open":
        late = res.get("extra", {}).get("gen_lateness_p99_ms", {}).get("value")
        if late is None or late > MAX_LATENESS_MS:
            errors.append(f"{path}: generator lateness p99 {late} ms is above {MAX_LATENESS_MS} ms")
    if res.get("trace"):
        for name, (lo, hi) in TRACE_CHECKS.items():
            v = res.get("checks", {}).get(name, {}).get("value")
            if v is None or not lo <= v <= hi:
                errors.append(f"{path}: {name} {v} is outside [{lo}, {hi}]")


def digest_key(res):
    p = res["provenance"]
    return (res["workload"], res["seed"], p.get("isa_active"), p.get("pool_threads"))


def check_digests(results, errors):
    """Closed-loop decisions repeat exactly for one seed, ISA tier and thread count."""
    seen = {}
    for path, res in results:
        if res.get("loop") != "closed" or not res.get("decision_digest"):
            continue
        key = digest_key(res)
        first = seen.setdefault(key, (path, res["decision_digest"]))
        if first[1] != res["decision_digest"]:
            errors.append(f"{path}: decision_digest {res['decision_digest']} differs from {first[0]} ({first[1]})")


def summarize(results, bench):
    by_workload = {}
    for _, res in results:
        by_workload.setdefault(res["workload"], []).append(res)
    for w in bench["workloads"]:
        runs = by_workload.get(w["name"], [])
        plain = [r for r in runs if not r.get("trace")]
        traced = [r for r in runs if r.get("trace")]
        if not plain:
            continue
        print(f"{w['name']}: {len(plain)} untraced run(s), {len(traced)} traced")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            print(f"  {m['name']:24s} {statistics.median(values):14.6g} {m['unit']}")
        if traced:
            # CPU per decision at the reference speed: a wall-clock rate moves
            # with the host, and an open loop below capacity answers its
            # offered rate traced or not.
            base = statistics.median(r["metrics"]["cpu_ms_per_decision"]["value"] for r in plain)
            over = [r["metrics"]["cpu_ms_per_decision"]["value"] / base for r in traced]
            print(f"  {'trace_overhead':24s} {statistics.median(over):14.6g} fraction")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("results", nargs="*")
    args = ap.parse_args()
    errors = []
    bench = check_benchmark(args.benchmark, errors)
    results = []
    if not errors:
        for path in result_files(args.results):
            with open(path) as f:
                res = json.load(f)
            check_result(path, res, bench, errors)
            results.append((path, res))
        check_digests(results, errors)
    for e in errors:
        print("INVALID:", e)
    if errors:
        return 1
    summarize(results, bench)
    print(f"ok: {args.benchmark}, {len(results)} result file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
