#!/usr/bin/env bash
# Pool sweep: runs one perfbench workload on every input seed of its pool
# and fails if any solve fails. A change that perturbs roundoff (LOBPCG
# iteration counts, Cholesky pivots) has to pass every pool seed, not only
# the seed a benchmark run happens to use (docs/PERFORMANCE.md §7).
#
# Usage: tools/perfbench_pool.sh WORKLOAD      (si8_e2e, casida_dist, ...)
#
# Builds lrt_perfbench through perfbench/run.py (same build tree, same
# per-revision oracle cache), then runs it once per --seed 0..39 with
# --seconds 0.3 --trace 1: a set-up solve plus at least four solves, each
# checked against the oracle, half of them traced for the per-layer
# counters. lrt_perfbench maps --seed onto the workload's kept input seeds
# modulo their count, so 0..39 reaches every kept seed (the first few
# twice). Prints one line per run with its Casida LOBPCG iteration count
# (tddft.eigen_iterations; the cap is 1000), then the pool maximum and
# median, and exits 1 if any run failed a solve or did not finish.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
  echo "usage: tools/perfbench_pool.sh WORKLOAD" >&2
  exit 2
fi
workload="$1"

# run.build() prints nothing on success and exits non-zero on failure.
paths="$(python3 -c '
import os, sys
sys.path.insert(0, "perfbench")
import run
binary = run.build("")
cache = os.path.join(os.path.dirname(run.build_dir("")), "oracle-cache",
                     run.source_revision()[1])
print(binary)
print(cache)
')"
binary="$(sed -n 1p <<<"$paths")"
cache="$(sed -n 2p <<<"$paths")"

bad=0
counts=()
for seed in $(seq 0 39); do
  if ! line="$("$binary" --workload "$workload" --seed "$seed" \
                 --seconds 0.3 --trace 1 --cache-dir "$cache" | tail -n 1)"; then
    echo "seed $seed: lrt_perfbench exited non-zero"
    bad=$((bad + 1))
    continue
  fi
  # Prints the run's line, then its iteration count on a line of its own.
  if ! report="$(python3 -c '
import json, sys
seed, doc = sys.argv[1], json.loads(sys.argv[2])
iterations = int(doc["per_layer"]["tddft.eigen_iterations"]["value"])
print("seed %2s -> input seed %2d: %d solves, %d failed, err %.4f meV, "
      "%d Casida LOBPCG iterations%s" % (
    seed, doc["params"]["input_seed"], doc["attempted"], doc["failed"],
    doc["end_to_end"]["err_mev"]["value"], iterations,
    "".join("\n    FAILED: " + r for r in doc["failures"])))
print(iterations)
sys.exit(1 if doc["failed"] else 0)
' "$seed" "$line")"; then
    bad=$((bad + 1))
  fi
  sed '$d' <<<"$report"
  iterations="$(tail -n 1 <<<"$report")"
  if [[ "$iterations" =~ ^[0-9]+$ ]]; then counts+=("$iterations"); fi
done

# Maximum and median over the runs that reported a count.
python3 -c '
import statistics, sys
counts = [int(c) for c in sys.argv[2:]]
print("perfbench_pool: %s: at most %d, median %g Casida LOBPCG iterations "
      "per solve over %d runs (cap 1000)" % (
    sys.argv[1], max(counts, default=0),
    statistics.median(counts) if counts else 0, len(counts)))
' "$workload" "${counts[@]}"
if [ "$bad" -ne 0 ]; then
  echo "perfbench_pool: $workload: $bad of 40 runs had failed solves" >&2
  exit 1
fi
echo "perfbench_pool: $workload: 0 failed solves on all 40 pool seeds"
