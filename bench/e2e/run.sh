#!/usr/bin/env bash
# End-to-end serving benchmark: one command builds it (Release, into
# build/e2e), runs every workload in its own process, checks the outputs and
# prints every metric by name with its unit. See bench/e2e/README.md.
#
#   bench/e2e/run.sh                          untraced pass over all workloads
#   bench/e2e/run.sh --trace                  ... plus one traced run per workload
#   bench/e2e/run.sh --runs 5 --results DIR   five untraced passes, results kept in DIR
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run; the last stdout line is JSON
#
# Every pass measures for BENCHMARK.json's run_seconds, so results of two
# commits compare. Run it from the repository root. Exits non-zero if the
# build is not Release, a correctness check fails or a result does not
# validate.
set -euo pipefail

here=bench/e2e
build=build/e2e
bin=$build/netllm_e2e

if [ ! -f "$here/CMakeLists.txt" ] || [ ! -f BENCHMARK.json ]; then
  echo "run.sh: run from the repository root (bench/e2e/CMakeLists.txt, BENCHMARK.json)" >&2
  exit 2
fi

# Release only: numbers from any other build type are not comparable.
if [ -f "$build/CMakeCache.txt" ] && ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$build/CMakeCache.txt"; then
  echo "run.sh: $build is not a Release build; remove it or reconfigure with -DCMAKE_BUILD_TYPE=Release" >&2
  exit 2
fi
{
  if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target netllm_e2e -j 4
} >&2

# Fixed execution conditions: one compute lane, the shipped metrics default.
export NETLLM_THREADS=1
unset NETLLM_METRICS
if git rev-parse --git-dir >/dev/null 2>&1; then
  NETLLM_E2E_GIT_SHA=$(git rev-parse HEAD)
  if [ -n "$(git status --porcelain)" ]; then NETLLM_E2E_GIT_DIRTY=1; else NETLLM_E2E_GIT_DIRTY=0; fi
  export NETLLM_E2E_GIT_SHA NETLLM_E2E_GIT_DIRTY
fi

# One run: hand the arguments to the benchmark binary.
if [ "${1:-}" = "--workload" ]; then
  exec "$bin" "$@"
fi

trace=0
runs=1
seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
results=""
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace=1; shift ;;
    --runs) runs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --results) results=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$results" ]; then results=$here/out/results-$(date +%Y%m%d-%H%M%S); fi
mkdir -p "$results"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
one() {  # workload seed trace
  local file="$results/$1-seed$2-trace$3.json"
  echo "== $1 seed $2 trace $3" >&2
  "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --result "$file" |
    grep -v '^{'
}
for ((r = 0; r < runs; r++)); do
  for w in $workloads; do one "$w" $((seed + r)) 0; done
done
if [ "$trace" = 1 ]; then
  for w in $workloads; do one "$w" "$seed" 1; done
fi
python3 "$here/validate.py" --benchmark BENCHMARK.json "$results"/*.json
