#!/usr/bin/env bash
# CI gate: lint, then three build flavors, each running the full ctest
# suite. Mirrors what a hosted workflow would run; kept as a script so it
# works in any container with cmake + g++.
#
#   plain       -Werror build; ctest twice — once bare, once with the
#               MUST-style verifier ambient (LRT_CHECK=1) to prove the
#               production collective patterns run clean under checking.
#   asan+ubsan  -fsanitize=address,undefined, halt on first report.
#   tsan        -fsanitize=thread, the same code as plain (no binary
#               links an OpenMP runtime; `omp simd` is compile-time only).
#               Both sanitizer flavors also run the Fig-8 and Fig-7
#               bench smokes (bench_fig8_breakdown --smoke, then
#               bench_fig7_strong_scaling --smoke: the Naive and implicit
#               versions at 1 and 3 ranks, an uneven partition) and
#               examples/parallel_scaling at 3 ranks (implicit with one
#               allreduce, then Naive and implicit with the pipelined
#               reduce in 16-row chunks; it switches tracing on at run
#               time and reads DistDriverStats::phases), so rank threads
#               writing shared state outside the tests reach a sanitizer
#               too. The ctest runs cover the serial driver as well: it
#               is the same pipeline under par::run(1).
#   bench       bench-smoke: tools/bench.sh --smoke in the plain tree —
#               seconds-long kernel benches with --compare correctness
#               cross-checks, then lrt.bench/1 schema validation of the
#               emitted reports (see docs/PERFORMANCE.md).
#   fault       full ctest with deterministic fault injection ambient
#               (fixed-seed LRT_FAULT: transient send failures + delays)
#               and the verifier on — injected faults must heal
#               transparently with zero result or traffic divergence
#               (docs/RESILIENCE.md). Also repeated under ASan+UBSan in
#               that flavor's tree when it exists.
#
# Usage: tools/ci.sh [plain|asan|tsan|lint|bench|fault]...   (default: all)
set -eu
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

run_flavor() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== [$name] configure + build ==="
  cmake -B "$build_dir" -S . -DLRT_WERROR=ON "$@"
  cmake --build "$build_dir" -j "$jobs"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

# Fixed-seed injection spec for the fault flavor: roughly one transient
# failure and one delay per 500 sends, reproducible run to run. The
# verifier rides along so any fault-induced divergence in the collective
# call sequence fails loudly instead of hanging.
fault_spec="seed=2026,fail=0.002,delay=0.002,delay_us=20"

do_lint=0 do_plain=0 do_asan=0 do_tsan=0 do_bench=0 do_fault=0
if [ "$#" -eq 0 ]; then
  do_lint=1 do_plain=1 do_asan=1 do_tsan=1 do_bench=1 do_fault=1
else
  for arg in "$@"; do
    case "$arg" in
      lint) do_lint=1 ;;
      plain) do_plain=1 ;;
      asan) do_asan=1 ;;
      tsan) do_tsan=1 ;;
      bench) do_bench=1 ;;
      fault) do_fault=1 ;;
      *) echo "unknown flavor: $arg" >&2; exit 2 ;;
    esac
  done
fi

if [ "$do_lint" -eq 1 ]; then
  # The lint stage shares the plain flavor's tree (build-ci): one
  # configure covers lrt-analyze, compile_commands.json for clang-tidy,
  # and the subsequent plain build — no extra tree just for lint.
  echo "=== [lint] build lrt-analyze (build-ci) ==="
  cmake -B build-ci -S . -DLRT_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build-ci --target lrt-analyze -j "$jobs"
  echo "=== [lint] registry self-checks ==="
  # The committed headers must match their generators byte-for-byte
  # (also passes inside lrt-analyze; run explicitly so a drift fails
  # loudly even if someone baselines the pass).
  ./build-ci/tools/lrt-analyze gen-phases | cmp - src/obs/phase_registry.hpp \
    || { echo "ci: src/obs/phase_registry.hpp out of sync with" \
              "src/obs/phases.def (run lrt-analyze gen-phases --write)" >&2; \
         exit 1; }
  ./build-ci/tools/lrt-analyze gen-counters \
    | cmp - src/obs/counter_registry.hpp \
    || { echo "ci: src/obs/counter_registry.hpp out of sync with" \
              "src/obs/counters.def (run lrt-analyze gen-counters --write)" \
              >&2; \
         exit 1; }
  echo "=== [lint] tools/lint.sh ==="
  LRT_LINT_BUILD_DIR=build-ci bash tools/lint.sh
  echo "=== [lint] publish analyzer reports as CI artifacts ==="
  # lint.sh wrote both reports next to the binary's tree; artifacts/ is
  # the directory a hosted workflow would upload.
  mkdir -p build-ci/artifacts
  cp build-ci/lrt-analyze.json build-ci/lrt-analyze.sarif build-ci/artifacts/
fi

if [ "$do_plain" -eq 1 ]; then
  run_flavor plain build-ci
  echo "=== [plain] ctest with LRT_CHECK=1 (runtime verifier ambient) ==="
  LRT_CHECK=1 LRT_CHECK_STALL_SECONDS=120 \
    ctest --test-dir build-ci --output-on-failure -j "$jobs"
  echo "=== [plain] disabled-span overhead gate ==="
  ./build-ci/bench/bench_obs_overhead --max-ns 20
  echo "=== [plain] trace-enabled ctest + Chrome-JSON validation ==="
  # Parallel on purpose: each test process merges its spans into the
  # shared trace file at exit under flock(2), so concurrent writers
  # serialize instead of clobbering each other (docs/OBSERVABILITY.md §2).
  rm -f build-ci/ctest.trace.json
  LRT_TRACE="$PWD/build-ci/ctest.trace.json" \
    ctest --test-dir build-ci -R tddft_dist --output-on-failure -j "$jobs"
  ./build-ci/bench/validate_trace build-ci/ctest.trace.json \
    --require-phase kmeans --require-phase fft --require-phase mpi \
    --require-phase gemm --require-phase diag --require-flow
  echo "=== [plain] critical-path report from the merged trace ==="
  mkdir -p build-ci/artifacts
  ./build-ci/tools/lrt-report --quiet \
    --trace build-ci/ctest.trace.json \
    --out-json build-ci/artifacts/trace-report.json \
    --out-md build-ci/artifacts/trace-report.md
fi

if [ "$do_bench" -eq 1 ]; then
  # bench-smoke shares the plain flavor's tree (build-ci) — the smoke
  # subset finishes in seconds and its reports stay inside the build
  # tree, so the committed bench/results/ snapshots are untouched.
  echo "=== [bench] bench-smoke (tools/bench.sh --smoke) ==="
  bash tools/bench.sh --smoke --build-dir build-ci
  if [ -f build-ci/lrt-analyze.json ]; then
    echo "=== [bench] lrt.analyze/1 schema validation ==="
    # validate_bench dispatches on the schema field, so the analyzer's
    # machine-readable report goes through the same validator as the
    # bench reports.
    ./build-ci/bench/validate_bench build-ci/lrt-analyze.json
  fi
  echo "=== [bench] publish regression report as CI artifact ==="
  mkdir -p build-ci/artifacts
  cp build-ci/bench-smoke/report.json build-ci/bench-smoke/report.md \
    build-ci/artifacts/
fi

if [ "$do_fault" -eq 1 ]; then
  # Shares the plain flavor's tree; configure+build is a no-op when the
  # plain flavor already ran in this invocation.
  echo "=== [fault] configure + build (build-ci) ==="
  cmake -B build-ci -S . -DLRT_WERROR=ON
  cmake --build build-ci -j "$jobs"
  echo "=== [fault] ctest with LRT_FAULT + LRT_CHECK=1 ==="
  LRT_FAULT="$fault_spec" LRT_CHECK=1 LRT_CHECK_STALL_SECONDS=120 \
    ctest --test-dir build-ci --output-on-failure -j "$jobs"
fi

if [ "$do_asan" -eq 1 ]; then
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    run_flavor asan+ubsan build-asan "-DLRT_SANITIZE=address;undefined"
  echo "=== [asan+ubsan] fig8 bench smoke ==="
  mkdir -p build-asan/bench-smoke
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  LRT_BENCH_DIR=build-asan/bench-smoke \
    ./build-asan/bench/bench_fig8_breakdown --smoke
  echo "=== [asan+ubsan] fig7 bench smoke (Naive + implicit, ranks 1 and 3) ==="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/bench/bench_fig7_strong_scaling --smoke
  echo "=== [asan+ubsan] parallel_scaling (3 ranks: implicit, then Naive and implicit pipelined) ==="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/examples/parallel_scaling --ranks 3
  for version in naive implicit; do
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ./build-asan/examples/parallel_scaling --ranks 3 --version "$version" \
        --pipeline-chunk 16
  done
  echo "=== [asan+ubsan] ctest with LRT_FAULT (injection under sanitizers) ==="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  LRT_FAULT="$fault_spec" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
fi

if [ "$do_tsan" -eq 1 ]; then
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    run_flavor tsan build-tsan -DLRT_SANITIZE=thread
  echo "=== [tsan] fig8 bench smoke ==="
  mkdir -p build-tsan/bench-smoke
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  LRT_BENCH_DIR=build-tsan/bench-smoke \
    ./build-tsan/bench/bench_fig8_breakdown --smoke
  echo "=== [tsan] fig7 bench smoke (Naive + implicit, ranks 1 and 3) ==="
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ./build-tsan/bench/bench_fig7_strong_scaling --smoke
  echo "=== [tsan] parallel_scaling (3 ranks: implicit, then Naive and implicit pipelined) ==="
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ./build-tsan/examples/parallel_scaling --ranks 3
  for version in naive implicit; do
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
      ./build-tsan/examples/parallel_scaling --ranks 3 --version "$version" \
        --pipeline-chunk 16
  done
fi

echo "CI: all requested flavors passed"
