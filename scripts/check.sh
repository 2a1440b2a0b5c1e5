#!/usr/bin/env bash
# Pre-merge check: the lint stage (hardened -Werror build evaluating the
# compile-time schedule proofs, strassen_lint project invariants,
# clang-tidy when available -- scripts/lint.sh), then the release and
# sanitizer presets with the test suite under each. The tsan preset builds
# everything but runs only the concurrency-relevant suites (test_parallel,
# test_faults, test_cabi, test_kernels, test_sgefmm), via the label filter
# in CMakePresets.json. Then the kernel matrix: the packed-GEMM suites
# forced onto the scalar micro-kernel and onto the best SIMD one
# (STRASSEN_KERNEL, resolved at process start), under release and asan --
# the only way the env-resolved dispatch path itself gets exercised.
# The serving matrix sweeps the admission env knobs the same way.
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== stage: lint =="
scripts/lint.sh

# Path-sensitive static analysis over the concurrency-dense subsystems
# (support, serve, parallel) -- the layers the section 13 lint rules
# guard, where an analyzer can still catch what text-level rules cannot
# (leaks on error paths, use-after-move, null derefs). Tool selection is
# tolerant of the GCC-only reference image:
#   * clang --analyze, when installed: findings are fatal;
#   * otherwise gcc -fanalyzer: ADVISORY only -- its C++ support is
#     experimental in GCC 12 (std::string/std::function temporaries on
#     exception paths produce known false leaks), so findings are printed
#     for review but do not fail the gate, and template-heavy files are
#     cut off by a per-file timeout rather than stalling the check;
#   * neither available: skipped with a notice.
echo "== stage: analyzer (src/support src/serve src/parallel) =="
mapfile -t analyzer_sources < <(
  git ls-files 'src/support/*.cpp' 'src/serve/*.cpp' 'src/parallel/*.cpp')
if command -v clang > /dev/null 2>&1; then
  for f in "${analyzer_sources[@]}"; do
    echo "-- clang --analyze ${f}"
    clang --analyze --analyzer-output text -std=c++20 -Isrc "${f}"
  done
elif g++ -fanalyzer -fsyntax-only -x c++ -std=c++20 /dev/null \
    > /dev/null 2>&1; then
  for f in "${analyzer_sources[@]}"; do
    rc=0
    timeout 120 g++ -fanalyzer -std=c++20 -Isrc -c "${f}" -o /dev/null \
      2> /tmp/strassen_fanalyzer.log || rc=$?
    nwarn=$(grep -c 'warning:' /tmp/strassen_fanalyzer.log || true)
    if [ "${rc}" -eq 124 ]; then
      echo "-- gcc -fanalyzer ${f}: timed out (advisory; template-heavy)"
    elif [ "${nwarn}" -gt 0 ]; then
      echo "-- gcc -fanalyzer ${f}: ${nwarn} advisory finding(s):"
      grep 'warning:' /tmp/strassen_fanalyzer.log | sed 's/^/     /'
    else
      echo "-- gcc -fanalyzer ${f}: clean"
    fi
  done
else
  echo "no static analyzer available; skipped"
fi

for preset in release asan tsan; do
  echo "== preset: ${preset} =="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}" "$@"
done

# Kernel matrix: the suites that drive the packed skeleton, re-run with the
# kernel pinned by environment. "auto" exercises the CPUID-best choice
# (identical to the plain runs above on most machines, but it also covers
# the env-parsing path); "scalar" proves the portable fallback end to end.
# STRASSEN_KERNEL selects the same arch tier for both element types, so
# including test_sgefmm alongside the double suites sweeps the float
# kernels (scalar-8x8-f32 / avx512-16x8-f32) through the same matrix.
kernel_suites='test_kernels|test_blas|test_fused|test_faults|test_sgefmm'
for preset in release asan; do
  for kern in scalar auto; do
    echo "== kernel matrix: ${preset} / STRASSEN_KERNEL=${kern} =="
    STRASSEN_KERNEL="${kern}" ctest --preset "${preset}" -j "${jobs}" \
      -L "${kernel_suites}" "$@"
  done
done

# Serving matrix: the serving suite re-run with the C-ABI process queue's
# admission knobs pinned by environment (overflow policies x workspace
# budgets), under release and (for the submit/worker/watchdog interleavings)
# tsan. The in-process QueueT tests construct their ServeOptions explicitly
# and are env-immune; the sweep exercises the env-resolution path the
# strassen_*_submit C ABI uses to build its lazy process queues, plus the
# whole suite's behavior when that queue is budget-constrained.
for preset in release tsan; do
  for policy in block reject shed; do
    for budget in 0 4096; do
      echo "== serving matrix: ${preset} / STRASSEN_SERVE_POLICY=${policy} STRASSEN_SERVE_BUDGET=${budget} =="
      STRASSEN_SERVE_POLICY="${policy}" STRASSEN_SERVE_BUDGET="${budget}" \
        STRASSEN_SERVE_QUEUE_CAP=8 \
        ctest --preset "${preset}" -j "${jobs}" -L serve "$@"
    done
  done
done

# Prepack matrix: the prepacked-operand suite (streamed-vs-fresh bitwise
# parity across kernels x element types x threads x schemes, hard-miss
# discipline, pack-handle fault sweeps, serving/C-ABI round trips) re-run
# with the kernel pinned by environment -- the handle's kernel stamp is
# exactly what the env-resolved dispatch can invalidate -- under release
# and (for the allocation-failure paths in the sweeps) asan.
for preset in release asan; do
  for kern in scalar auto; do
    echo "== prepack matrix: ${preset} / STRASSEN_KERNEL=${kern} =="
    STRASSEN_KERNEL="${kern}" ctest --preset "${preset}" -j "${jobs}" \
      -L prepack "$@"
  done
done

# Quick autotune: a tiny-budget end-to-end pass through the tuning chain
# (measure -> persist -> checked reload -> install -> consult). The CLI
# exits nonzero unless the final use_tuned call actually consulted the
# installed policy, so this stage asserts persisted taus reach dispatch --
# the regression a stale-stamp or broken-install bug would cause.
echo "== stage: quick autotune =="
cmake --build --preset release -j "${jobs}" --target autotune_cli
autotune_params="$(mktemp /tmp/strassen_tuned.XXXXXX.params)"
./build/examples/autotune_cli --quick --out "${autotune_params}"
rm -f "${autotune_params}"

# Benchmark smoke from a clean export: the benchmark builds what it runs
# from a checkout of the committed tree, so build and smoke-run perf_bench
# the same way -- `git archive HEAD` into a temp dir, configure perfbench/
# there, run every workload traced and untraced (ctest -L bench_smoke).
# Catches a committed tree that only builds with uncommitted or ignored
# files present. The same tree then runs both serving workloads at full
# length.
echo "== stage: benchmark smoke from a clean export =="
export_dir="$(mktemp -d -t strassen_export.XXXXXX)"
git archive HEAD | tar -x -C "${export_dir}"
cmake -S "${export_dir}/perfbench" -B "${export_dir}/.bench_build" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${export_dir}/.bench_build" -j "${jobs}" --target perf_bench
ctest --test-dir "${export_dir}/.bench_build" -L bench_smoke \
  --output-on-failure

# Full-length serving runs from the same tree, untraced and traced. The
# 2-second smoke runs are too short to show a request refused at the low
# or nominal rung; a whole 20-second rate ladder does, and run.py exits
# nonzero on it (or on any failed ticket or wrong product).
echo "== stage: full-length serve_mixed and serve_skinny from the clean export =="
for workload in serve_mixed serve_skinny; do
  for trace in 0 1; do
    python3 "${export_dir}/perfbench/run.py" --workload "${workload}" \
      --seed 1 --seconds 20 --trace "${trace}"
  done
done
rm -rf "${export_dir}"

# Refresh the committed precision snapshot: the stability bench's second
# stage measures forward error vs speed for C/STRASSEN1/STRASSEN2/FUSED in
# both element types and rewrites BENCH_precision.json in the repo root.
echo "== precision snapshot: bench_ablation_stability =="
cmake --build --preset release -j "${jobs}" --target bench_ablation_stability
# Paper-scale, so the refreshed snapshot matches the committed artifact's
# problem size (1024^3) rather than the smoke default.
STRASSEN_BENCH_FULL=1 ./build/bench/bench_ablation_stability

echo "All checks passed."
