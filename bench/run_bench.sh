#!/usr/bin/env bash
# Runs the micro-benchmarks (BENCH_micro.json), the fault-resilience
# experiment (BENCH_fault.json + BENCH_fault_metrics.json) and the
# parallel sweep (BENCH_sweep.json, which also proves --jobs=N output is
# byte-identical to --jobs=1). The serving path (in-process reads and
# the TCP front-end) is benchmarked by perfbench:
#   python3 perfbench/run.py --workload serve_churn|tcp_query
#
# Usage: bench/run_bench.sh [--out-dir=DIR] [--jobs=N] [--preset=NAME]
#                           [build-dir] [extra google-benchmark flags...]
# Reports land in --out-dir (default: the repo root). --jobs=N sets the
# worker-thread count for the runner-backed benches (default: nproc).
# --preset=NAME resolves the build dir from CMakePresets.json (e.g.
# --preset=release -> ./build-release); otherwise the build dir defaults
# to ./build, and a first argument starting with "--" is a
# google-benchmark flag, not a build dir. Build it first with:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
# (or `cmake --preset release && cmake --build --preset release`).
#
# The script fails loudly on a missing/unconfigured build dir and on
# bench binaries older than the sources they were built from — stale
# binaries silently benchmark last week's code. Override the staleness
# check (only) with ABRR_ALLOW_STALE=1. Skip the (slower) fault
# experiment with ABRR_SKIP_FAULT_BENCH=1; skip the sweep with
# ABRR_SKIP_SWEEP_BENCH=1.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

out_dir="$repo_root"
jobs="$(nproc 2>/dev/null || echo 2)"
preset=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out-dir=*) out_dir="${1#--out-dir=}"; shift ;;
    --jobs=*) jobs="${1#--jobs=}"; shift ;;
    --preset=*) preset="${1#--preset=}"; shift ;;
    *) break ;;
  esac
done
if [[ ! -d "$out_dir" ]]; then
  mkdir -p "$out_dir" || {
    echo "error: cannot create output dir '$out_dir'" >&2
    exit 1
  }
fi

if [[ -n "$preset" ]]; then
  if [[ $# -gt 0 && "${1:0:2}" != "--" ]]; then
    echo "error: pass either --preset=NAME or an explicit build dir, not both" >&2
    exit 1
  fi
  # Preset binaryDirs follow the ${sourceDir}/build-<name> convention
  # (see CMakePresets.json); verify the preset actually exists there so a
  # typo fails here, not as a confusing missing-directory error below.
  if ! grep -q "\"name\": \"$preset\"" "$repo_root/CMakePresets.json"; then
    echo "error: preset '$preset' not found in CMakePresets.json" >&2
    exit 1
  fi
  build_dir="$repo_root/build-$preset"
else
  build_dir="$repo_root/build"
  if [[ $# -gt 0 && "${1:0:2}" != "--" ]]; then
    build_dir="$1"
    shift
  fi
fi
if [[ ! -d "$build_dir" ]]; then
  echo "error: build dir '$build_dir' does not exist." >&2
  echo "Build it first:" >&2
  if [[ -n "$preset" ]]; then
    echo "  cmake --preset $preset && cmake --build --preset $preset -j" >&2
  else
    echo "  cmake -B '$build_dir' -S '$repo_root' -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build '$build_dir' -j" >&2
  fi
  exit 1
fi
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  echo "error: '$build_dir' exists but has no CMakeCache.txt — not a configured build dir" >&2
  exit 1
fi

# Stale-build guard: if the newest source/CMake file is newer than
# everything in the build dir, the build has not run since that edit and
# the bench binaries measure last week's code. (Per-binary mtime checks
# are too brittle: an up-to-date binary that doesn't depend on the
# edited file is never relinked, so it would look stale forever.)
check_build_current() {
  [[ "${ABRR_ALLOW_STALE:-0}" == "1" ]] && return 0
  local newest_src
  # `|| true`: head(1) closing the pipe early can SIGPIPE find/sort,
  # which pipefail would otherwise turn into a spurious abort.
  newest_src="$(find "$repo_root/src" "$repo_root/bench" \
      "$repo_root/CMakeLists.txt" -type f \
      \( -name '*.cpp' -o -name '*.h' -o -name 'CMakeLists.txt' \) \
      -printf '%T@ %p\n' 2>/dev/null | sort -nr | head -1 | cut -d' ' -f2- \
      || true)"
  [[ -z "$newest_src" ]] && return 0
  if [[ -z "$(find "$build_dir" -type f -newer "$newest_src" -print -quit)" ]]; then
    echo "error: '$build_dir' predates $newest_src" >&2
    echo "Rebuild it first, or set ABRR_ALLOW_STALE=1 to run anyway." >&2
    exit 1
  fi
}

check_fresh() {
  local bin="$1"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first" >&2
    exit 1
  fi
}

check_build_current
bench_bin="$build_dir/bench/micro_bench"
check_fresh "$bench_bin"

# Preflight: the allocation-path tests (arena, scheduler event pool,
# interner trial scope) guard the machinery these benches measure, and
# the wire suite guards the measured byte columns the reports carry —
# refuse to publish numbers from a build where either fails.
if command -v ctest >/dev/null 2>&1; then
  echo "preflight: ctest -L '(alloc|wire)' in $build_dir"
  if ! ctest --test-dir "$build_dir" -L '(alloc|wire)' --output-on-failure; then
    echo "error: preflight tests failed; not running benches" >&2
    exit 1
  fi
fi

out="$out_dir/BENCH_micro.json"
"$bench_bin" \
  --benchmark_min_time=0.2 \
  --json_out="$out" \
  "$@"
echo "wrote $out"

if [[ "${ABRR_SKIP_FAULT_BENCH:-0}" != "1" ]]; then
  fault_bin="$build_dir/bench/fault_resilience"
  check_fresh "$fault_bin"
  "$fault_bin" \
    --prefixes="${ABRR_FAULT_PREFIXES:-2000}" \
    --jobs="$jobs" \
    --json_out="$out_dir/BENCH_fault.json" \
    --metrics-out="$out_dir/BENCH_fault_metrics.json"
fi

if [[ "${ABRR_SKIP_SWEEP_BENCH:-0}" != "1" ]]; then
  sweep_bin="$build_dir/bench/sweep"
  check_fresh "$sweep_bin"
  "$sweep_bin" \
    --prefixes="${ABRR_SWEEP_PREFIXES:-1000}" \
    --jobs="$jobs" \
    --out-dir="$out_dir"
fi
