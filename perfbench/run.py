#!/usr/bin/env python3
"""Structure-to-spectrum benchmark: build, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload si8_e2e --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload casida_dist --seed 1 --seconds 30 \
      --trace 1 --out dist.json
  python3 perfbench/run.py compare base.json new.json
  python3 perfbench/run.py selftest

A run builds perfbench/ (CMake, incremental) under $CARGO_TARGET_DIR
(default .bench_build), runs lrt_perfbench, prints every metric by name
with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# An untraced run splits --seconds over this many lrt_perfbench processes,
# run one after another, and pools their samples, so that no single
# process's memory placement or thread layout decides a run.
PROCESSES = 8

# Host fields that must match before timings are compared. The source
# revision is recorded too but differs between the commits being compared.
HOST_KEYS = ("nproc", "affinity_cores", "ranks", "omp_threads_per_rank",
             "openmp", "cpu_model", "compiler", "build_type", "sanitizers",
             "processes")
TIME_UNITS = ("s", "%")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build_dir(sanitize):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    flavor = {"": "", "address;undefined": "-asan", "thread": "-tsan"}
    if sanitize not in flavor:
        fail("--sanitize must be 'address,undefined' or 'thread'", 2)
    return os.path.abspath(os.path.join(base, "perfbench" + flavor[sanitize]))


def build(sanitize):
    """Configures (once) and builds lrt_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    out = build_dir(sanitize)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DLRT_SANITIZE=" + sanitize]
        if sanitize == "thread":  # libgomp is not TSan-instrumented
            configure.append("-DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON")
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "lrt_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "lrt_perfbench")


def source_revision():
    """Git SHA when the tree is a checkout, and a digest of the sources
    (src/ and perfbench/) always."""
    sha = None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def pool(docs):
    """One result from several processes' results on the same inputs:
    samples concatenated, counts summed, medians over the pooled samples."""
    doc = dict(docs[0])
    samples = {k: [v for d in docs for v in d["samples"][k]]
               for k in docs[0]["samples"]}
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    doc.update(samples=samples, attempted=attempted, failed=failed,
               correct=all(d["correct"] for d in docs),
               failures=[r for d in docs for r in d["failures"]][:8],
               oracle_s=sum(d["oracle_s"] for d in docs))

    def worst(name):
        return max(d["end_to_end"][name]["value"] for d in docs)

    solve_s = statistics.median(samples["solve_s"])
    probe_s = statistics.median(samples["probe_s"])
    values = {"solve_per_probe": solve_s / probe_s,
              "solve_s": solve_s,
              "probe_s": probe_s,
              "setup_s": statistics.median(samples["setup_s"]),
              "err_mev": worst("err_mev"),
              "fail_frac": failed / attempted,
              "peak_rss_mb": worst("peak_rss_mb")}
    doc["end_to_end"] = {name: {"value": values[name], "unit": m["unit"]}
                         for name, m in docs[0]["end_to_end"].items()}
    return doc


def run_workload(args):
    binary = build(args.sanitize)
    sha, digest = source_revision()
    # Oracle energies depend on the code under test: one cache per revision.
    cache = os.path.join(os.path.dirname(build_dir("")), "oracle-cache",
                         digest)
    # A traced run stays one process: its traced and untraced solves are
    # compared with each other, and its metrics have no bound.
    processes = 1 if args.trace else PROCESSES
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes),
           "--trace", str(args.trace), "--cache-dir", cache]
    # Sanitizer flavors run 5-20x slower; only plain runs are time-boxed.
    timeout = RUN_TIMEOUT_S if not args.sanitize else 20 * RUN_TIMEOUT_S
    deadline = time.monotonic() + timeout
    docs = []
    for _ in range(processes):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("workload run exceeded %d s" % timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("lrt_perfbench exited with %d" % proc.returncode)
        docs.append(json.loads(lines[-1]))
    doc = pool(docs)
    doc["host"]["git_sha"] = sha
    doc["host"]["source_digest"] = digest
    doc["host"]["processes"] = processes
    return doc


def metric_values(doc, spec, trace):
    """The metrics of the result line, in BENCHMARK.json order."""
    source = doc["per_layer"] if trace else doc["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in source:
            fail("lrt_perfbench did not report %s" % m["name"])
        out[m["name"]] = {"value": source[m["name"]]["value"],
                          "unit": m["unit"]}
    return out


def print_report(doc, trace):
    host = doc["host"]
    print("perfbench %s seed=%d trace=%d  (%s; %d rank(s) x %d OpenMP "
          "thread(s); %d of %d cores; %s; %s)" % (
              doc["workload"], doc["seed"], int(trace), host["cpu_model"],
              host["ranks"], host["omp_threads_per_rank"],
              host["affinity_cores"], host["nproc"], host["compiler"],
              host["git_sha"] or "source " + host["source_digest"]))
    samples = doc["samples"]
    notes = {"solve_per_probe": "solve_s / probe_s",
             "solve_s": "median of %d solves in %d process(es)" % (
                 len(samples["solve_s"]), host["processes"]),
             "probe_s": "median of %d host probes around them"
                        % len(samples["probe_s"]),
             "setup_s": "median of %d set-ups" % len(samples["setup_s"]),
             "err_mev": "max over solves, tolerance %g meV"
                        % doc["tolerance_mev"],
             "fail_frac": "%d of %d solves failed" % (doc["failed"],
                                                      doc["attempted"])}
    for name, m in doc["end_to_end"].items():
        print("  %-28s %14.6g %-6s %s" % (name, m["value"], m["unit"],
                                          notes.get(name, "")))
    if trace:
        print("  per layer (traced solves: %d)" %
              len(samples["traced_solve_s"]))
        for name, m in doc["per_layer"].items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for reason in doc["failures"]:
        print("  FAILED: " + reason)


def hosts_differ(a, b):
    return [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]


def compare(base, new):
    """Prints base -> new per metric; returns 3 if hosts differ, else 0.

    Counters compare across hosts; timings only between equal host blocks.
    """
    diff = hosts_differ(base, new)
    if base["workload"] != new["workload"]:
        print("different workloads: %s vs %s" % (base["workload"],
                                                 new["workload"]))
        return 2
    if diff:
        print("timings NOT compared: host blocks differ in " + ", ".join(
            "%s (%r vs %r)" % (k, base["host"].get(k), new["host"].get(k))
            for k in diff))
    for section in ("end_to_end", "per_layer"):
        for name, m in base.get(section, {}).items():
            other = new.get(section, {}).get(name)
            if other is None:
                continue
            if diff and m["unit"] in TIME_UNITS:
                continue
            a, b = m["value"], other["value"]
            change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
            print("  %-28s %14.6g -> %-14.6g %-6s %s" % (
                name, a, b, m["unit"], change))
    return 3 if diff else 0


def selftest():
    binary = build("")
    ok = subprocess.run([binary, "--selftest"]).returncode == 0
    host = {k: 1 for k in HOST_KEYS}
    doc = {"workload": "w", "host": dict(host),
           "end_to_end": {"solve_s": {"value": 1.0, "unit": "s"}},
           "per_layer": {"fft.fft3d_calls": {"value": 5, "unit": "count"}}}
    other = json.loads(json.dumps(doc))
    other["host"]["nproc"] = 2
    with open(os.devnull, "w") as devnull:
        saved, sys.stdout = sys.stdout, devnull
        try:
            same, refused = compare(doc, doc), compare(doc, other)
        finally:
            sys.stdout = saved
    if same != 0 or refused != 3:
        print("selftest FAILED: compare must refuse differing host blocks",
              file=sys.stderr)
        ok = False
    print("run.py selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.json NEW.json", 2)
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            new = json.load(f)
        return compare(base, new)
    if argv[:1] == ["selftest"]:
        return selftest()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--sanitize", default="",
                        help="'address,undefined' or 'thread' build flavor")
    args = parser.parse_args(argv)
    args.sanitize = args.sanitize.replace(",", ";")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    spec = load_spec()
    doc = run_workload(args)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print_report(doc, args.trace)
    line = {"correct": bool(doc["correct"]),
            "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]),
            "metrics": metric_values(doc, spec, args.trace)}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
