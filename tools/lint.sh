#!/usr/bin/env bash
# Static gate. Primary: the token-aware lrt-analyze binary (layer DAG,
# collective divergence, phase registry, migrated pattern gates — see
# docs/STATIC_ANALYSIS.md). Secondary: clang-tidy, when installed. When
# neither a built lrt-analyze nor a compiler is available, a minimal
# correctly-quoted shell fallback keeps the cheapest checks alive.
#
# Environment:
#   LRT_LINT_BUILD_DIR  build tree to (re)use for lrt-analyze and
#                       compile_commands.json (default: build)
#   LRT_ANALYZE         explicit path to an lrt-analyze binary
#
# Run from anywhere; exits non-zero on any finding.
set -u
cd "$(dirname "$0")/.."

fail=0
note() { printf '%s\n' "$*"; }
finding() { printf 'lint: %s\n' "$*"; fail=1; }

build_dir="${LRT_LINT_BUILD_DIR:-build}"

# --- locate or build the analyzer --------------------------------------------
analyze_bin=""
for cand in "${LRT_ANALYZE:-}" \
            "$build_dir/tools/lrt-analyze" \
            build/tools/lrt-analyze \
            build-ci/tools/lrt-analyze; do
  if [ -n "$cand" ] && [ -x "$cand" ]; then
    analyze_bin="$cand"
    break
  fi
done
if [ -z "$analyze_bin" ] && command -v cmake >/dev/null 2>&1; then
  note "lint: building lrt-analyze in $build_dir ..."
  if cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
     cmake --build "$build_dir" --target lrt-analyze -j >/dev/null; then
    analyze_bin="$build_dir/tools/lrt-analyze"
  else
    note "lint: lrt-analyze build failed; falling back to shell checks"
  fi
fi

# --- primary gate: lrt-analyze ------------------------------------------------
if [ -n "$analyze_bin" ]; then
  # The machine-readable reports land in the tree the binary came from
  # (which exists by construction, unlike $build_dir). The SARIF twin of
  # the lrt.analyze/1 report is what external CI viewers ingest.
  report_dir="$(dirname "$(dirname "$analyze_bin")")"
  note "lint: running $analyze_bin ..."
  if ! "$analyze_bin" --repo . \
         --json "$report_dir/lrt-analyze.json" \
         --sarif "$report_dir/lrt-analyze.sarif"; then
    finding 'lrt-analyze reported new findings (see above)'
  fi
  # The committed baseline must stay empty: regressions are fixed or
  # suppressed inline with an explanatory comment, never grandfathered.
  if grep -Ev '^[[:space:]]*(#|$)' tools/lrt-analyze.baseline; then
    finding 'tools/lrt-analyze.baseline has entries (fix or allow() inline)'
  fi
else
  # Minimal fallback for containers without a toolchain. Token-blind by
  # construction (grep does not understand block comments or strings), so
  # only the checks that tolerate that run here; lrt-analyze is the
  # authority whenever it can be built. src/analyze is excluded: the
  # analyzer's own sources necessarily *name* every banned pattern.
  note "lint: lrt-analyze unavailable; running minimal shell fallback"

  if grep -rn --include='*.hpp' --include='*.cpp' \
       --exclude-dir=analyze_fixtures --exclude-dir=analyze \
       '#include "\.\./' src tests bench examples; then
    finding 'parent-relative #include (use src/-relative paths)'
  fi

  while IFS= read -r -d '' h; do
    if ! head -n 40 "$h" | grep -q '#pragma once'; then
      finding "$h: missing #pragma once"
    fi
  done < <(find src -name '*.hpp' -print0)

  if grep -rn --include='*.cpp' --include='*.hpp' --exclude-dir=analyze \
      'std::thread' src \
      | grep -v 'src/par/runtime' | grep -v 'src/par/check'; then
    finding 'std::thread outside par/runtime and par/check'
  fi
  if grep -rn --include='*.cpp' --include='*.hpp' --exclude-dir=analyze \
      -w 'volatile' src; then
    finding 'volatile in library code (use std::atomic or a mutex)'
  fi
  if grep -rn --include='*.cpp' --include='*.hpp' --exclude-dir=analyze \
      'sleep_for\|sleep_until' src; then
    finding 'sleep-based waiting in library code (use condition variables)'
  fi
  # Approximate comment stripping (line comments and single-line block
  # comments); multi-line block comments are only handled by lrt-analyze.
  while IFS= read -r -d '' f; do
    if sed -e 's@//.*@@' -e 's@/\*.*\*/@@' "$f" \
        | grep -nE '\bnew +[A-Za-z_][A-Za-z0-9_:<,> ]*[({[]|\bdelete +[A-Za-z_*([]|\bdelete\[\]' \
        >/dev/null; then
      finding "$f: naked new/delete (use containers or unique_ptr)"
    fi
  done < <(find src \( -name '*.cpp' -o -name '*.hpp' \) \
             -not -path 'src/analyze/*' -print0)
fi

# --- OpenMP gate (always) -----------------------------------------------------
# Ranks are the only parallelism: kernels are single-threaded and the
# library builds with -fopenmp-simd, under which GCC silently ignores any
# other omp directive. So the only OpenMP allowed is `#pragma omp simd`:
# no other `#pragma omp`, no <omp.h> and no omp_* runtime calls. The
# analyzer's fixtures are omp-race inputs and stay exempt; the pragma and
# include patterns are anchored at the start of a line, so fixture strings
# in tests/test_analyze.cpp do not match, and the call pattern skips
# src/analyze and that test, which name the analyzer's own omp_race_*
# helpers.
omp_sources=(src bench examples tests tools)
omp_grep() {
  grep -rnE --include='*.cpp' --include='*.hpp' --include='*.h' \
    --exclude-dir=analyze_fixtures "$@" "${omp_sources[@]}"
}
if omp_grep '^[[:space:]]*#[[:space:]]*pragma[[:space:]]+omp([[:space:]]|$)' \
    | grep -vE 'pragma[[:space:]]+omp[[:space:]]+simd([[:space:]]|$)'; then
  finding '#pragma omp other than simd (ranks are the parallelism)'
fi
if omp_grep '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]omp\.h[>"]'; then
  finding '#include <omp.h> (the build has no OpenMP runtime)'
fi
if omp_grep '\bomp_[A-Za-z_]+[[:space:]]*\(' \
    | grep -vE '^(src/analyze/|tests/test_analyze\.cpp:)'; then
  finding 'omp_* runtime call (the build has no OpenMP runtime)'
fi

# --- secondary gate: clang-tidy (optional) ------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  note "running clang-tidy over src/ ..."
  if ! find src -name '*.cpp' -print0 \
      | xargs -0 clang-tidy -p "$build_dir" --quiet; then
    finding 'clang-tidy reported findings'
  fi
else
  note "clang-tidy not found; skipping (lrt-analyze still gates)"
fi

if [ "$fail" -ne 0 ]; then
  note 'lint FAILED'
  exit 1
fi
note 'lint OK'
