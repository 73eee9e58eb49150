#!/usr/bin/env bash
# One-command verify gate: the tier1 test suite in the default tree, the
# static-analysis gate (vgbl-lint + clang thread-safety analysis), then the
# same test gate under ASan+UBSan, tier1 under fatal-report UBSan, then
# tier1 plus the `tsan`-labelled concurrency stress suite under TSan
# (trees: build/, build-asan/, build-ubsan/, build-tsan/, build-clang-tsa/
# — see CMakePresets.json).
#
#   ./check.sh          # everything
#   ./check.sh fast     # default tree: tier1 + vgbl-lint + bench-diff gate
#   ./check.sh lint     # static analysis only (vgbl-lint + clang TSA)
#   ./check.sh ubsan    # tier1 under UBSan with reports fatal (build-ubsan/)
#   ./check.sh bench    # perf regression gate only (bench-diff)
#   ./check.sh pgo      # profile-guided build exercise (build-pgo/, optional)
#
# JOBS=<n> overrides the parallelism (default: nproc).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

gate() {
  local preset="$1" dir="$2" labels="$3"
  local started="${SECONDS}"
  echo "=== ${preset}: configure + build (${dir}) ==="
  cmake --preset "${preset}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${preset}: ctest -L '${labels}' ==="
  ctest --test-dir "${dir}" -L "${labels}" --output-on-failure -j "${JOBS}"
  echo "=== ${preset}: passed in $((SECONDS - started))s ==="
}

# Perf regression gate (DESIGN.md §5i): run the cheap benches with a short
# min-time and diff their headline metrics against the committed baselines
# in bench/baselines/. Only benches cheap enough for every run live here —
# the heavy ones (classroom, district, streaming) run in CI's bench job.
bench_gate() {
  local started="${SECONDS}"
  echo "=== bench: bench-diff vs bench/baselines ==="
  cmake --preset default >/dev/null
  cmake --build build -j "${JOBS}" \
    --target bench_diff bench_event_dispatch bench_hit_test \
    bench_codec bench_pipeline
  local fresh="build/bench-fresh"
  rm -rf "${fresh}" && mkdir -p "${fresh}"
  ./build/bench/bench_event_dispatch --benchmark_min_time=0.05 \
    --out "${fresh}/BENCH_event_dispatch.json" >/dev/null
  ./build/bench/bench_hit_test --benchmark_min_time=0.05 \
    --out "${fresh}/BENCH_hit_test.json" >/dev/null
  # Codec hot-path gate: the smallest resolution keeps the run cheap; the
  # headline is the dct_q16 stream decode (BM_Decode/160/120/3), the arm
  # that runs the entropy decode, sparse inverse DCT and block scatter that
  # playback spends its decode time in. The raw arm it replaced never ran
  # the DCT path. The committed baselines were captured from this
  # reconstruction, so a regression to the dense path trips the tolerance.
  ./build/bench/bench_codec --benchmark_min_time=0.05 \
    --benchmark_filter='160/120' --out "${fresh}/BENCH_codec.json" >/dev/null
  ./build/bench/bench_pipeline --benchmark_min_time=0.05 \
    --out "${fresh}/BENCH_pipeline.json" >/dev/null
  # 35%: the short min-time arms are noisy; the gate is for step-function
  # regressions (accidental O(n^2), lost parallelism), not percent drift.
  ./build/tools/bench-diff bench/baselines "${fresh}" --tolerance 0.35
  echo "=== bench: passed in $((SECONDS - started))s ==="
}

# Profile-guided build exercise (DESIGN.md §5j): instrument, train on
# tools/pgo_workload, rebuild with -fprofile-use, then prove the PGO binary
# still emits the golden bitstream. Optional (not part of `all`) because it
# builds the tree twice; CI runs it in its own job.
pgo_gate() {
  local started="${SECONDS}"
  if ! printf 'int main(){return 0;}\n' |
       "${CXX:-c++}" -x c++ -fprofile-generate -o /dev/null - 2>/dev/null; then
    echo "=== pgo: toolchain lacks -fprofile-generate; skipping ==="
    return 0
  fi
  echo "=== pgo: phase 1 — instrumented build + training workload ==="
  cmake --preset build-pgo-instrument >/dev/null
  cmake --build build-pgo -j "${JOBS}" \
    --target vgbl_cli bench_codec codec_golden_test
  ./tools/pgo_workload build-pgo
  echo "=== pgo: phase 2 — rebuild with -fprofile-use ==="
  cmake --preset build-pgo-use >/dev/null
  cmake --build build-pgo -j "${JOBS}" \
    --target vgbl_cli bench_codec codec_golden_test
  echo "=== pgo: golden bitstream check under PGO ==="
  ./build-pgo/tests/codec_golden_test
  echo "=== pgo: passed in $((SECONDS - started))s ==="
}

# vgbl-lint (DESIGN.md §5f, §5k): builds the binary in the default tree
# and sweeps src/ + tools/ — per-file rules plus the cross-TU taint,
# lock-order and nodiscard passes. Cheap enough (~150 ms) to ride in the
# fast gate as well as the full lint gate.
vgbl_lint_run() {
  echo "=== lint: vgbl-lint over src/ tools/ ==="
  cmake --preset default >/dev/null
  cmake --build build --target vgbl_lint -j "${JOBS}"
  ./build/tools/vgbl-lint --rules lint_rules src tools
}

# Static analysis (DESIGN.md §5f): vgbl-lint always runs; the clang
# thread-safety tree and clang-tidy run only where clang is installed (CI
# installs it — see .github/workflows/ci.yml).
lint_gate() {
  local started="${SECONDS}"
  vgbl_lint_run

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== lint: clang -Werror=thread-safety (build-clang-tsa) ==="
    cmake --preset build-clang-tsa >/dev/null
    cmake --build build-clang-tsa -j "${JOBS}"
  else
    echo "=== lint: clang++ not installed; skipping thread-safety tree ==="
  fi

  if command -v clang-tidy >/dev/null 2>&1 &&
     [ -f build-clang-tsa/compile_commands.json ]; then
    echo "=== lint: clang-tidy (advisory, .clang-tidy) ==="
    # Advisory only: surface findings without failing the gate.
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs -r clang-tidy -p build-clang-tsa --quiet || true
  fi
  echo "=== lint: passed in $((SECONDS - started))s ==="
}

case "${MODE}" in
  lint)
    lint_gate
    ;;
  fast)
    gate default build tier1
    vgbl_lint_run
    bench_gate
    ;;
  ubsan)
    gate build-ubsan build-ubsan tier1
    ;;
  bench)
    bench_gate
    ;;
  pgo)
    pgo_gate
    ;;
  all)
    gate default build tier1
    bench_gate
    lint_gate
    # Stack use-after-return detection: a pool worker touching a caller's
    # stack frame after the call returned otherwise surfaces as an
    # anonymous SEGV, if at all.
    (
      export ASAN_OPTIONS="detect_stack_use_after_return=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}"
      gate build-asan build-asan tier1
    )
    gate build-ubsan build-ubsan tier1
    gate build-tsan build-tsan "tier1|tsan"
    ;;
  *)
    echo "usage: ./check.sh [all|fast|lint|ubsan|bench|pgo]" >&2
    exit 2
    ;;
esac
echo "all gates passed in ${SECONDS}s"
