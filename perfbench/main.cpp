// lrt_perfbench: runs one benchmark workload and prints one lrt.perfbench/1
// JSON document on stdout. perfbench/run.py builds and drives it; see
// README.md for the workloads and every metric.
//
//   lrt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--cache-dir DIR]
//   lrt_perfbench --selftest
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

using namespace lrt;
using namespace lrt::perfbench;

namespace {

/// Least timed solves per process, whatever --seconds says (traced runs
/// alternate untraced and traced solves and need two of each). Each
/// process sets up once, in a fresh process, so every set-up sample
/// includes the same process-wide one-time work (first touch, static
/// caches); run.py pools the set-ups of several processes.
constexpr int kMinSolves = 3;
constexpr int kMinTracedSolves = 4;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

json::Value metric(double value, const char* unit) {
  json::Value m = json::object();
  json::set(m, "value", json::number(value));
  json::set(m, "unit", json::string(unit));
  return m;
}

/// One solve's outcome, checked once its oracle is known.
struct Attempt {
  bool threw = false;
  std::string error;
  SolveResult result;
  std::vector<Real> reference;  ///< per-solve oracle, if the workload has one
};

struct Options {
  std::string workload;
  unsigned seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string cache_dir = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: lrt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--cache-dir DIR]\n"
               "       lrt_perfbench --selftest\n");
  return 2;
}

// ------------------------------------------------------------- self-test

int selftest() {
  int failures = 0;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };

  SolveResult good;
  good.energies = {0.10, 0.11, 0.12, 0.13};
  const std::vector<Real> ref = good.energies;
  expect(check_energies(good, ref, 5.0).ok, "exact energies pass");

  SolveResult perturbed = good;
  perturbed.energies[2] += 6.0e-3 / units::kHartreeToEv;  // +6 meV
  const Check c = check_energies(perturbed, ref, 5.0);
  expect(!c.ok, "a 6 meV perturbation fails a 5 meV tolerance");
  expect(std::fabs(c.err_mev - 6.0) < 1e-6, "err_mev reports the 6 meV");

  SolveResult nan = good;
  nan.energies[0] = std::nan("");
  expect(!check_energies(nan, ref, 5.0).ok, "a NaN energy fails");

  SolveResult short_result = good;
  short_result.energies.pop_back();
  expect(!check_energies(short_result, ref, 5.0).ok, "a missing state fails");

  SolveResult unconverged = good;
  unconverged.converged = false;
  unconverged.note = "not converged";
  expect(!check_energies(unconverged, ref, 5.0).ok, "non-convergence fails");

  auto si8 = make_workload("si8_e2e", 1);
  SolveResult scf = good;
  scf.has_total_energy = true;
  scf.total_energy = -29.413912;
  expect(si8->check(scf, ref).ok, "the pinned Si8 total energy passes");
  scf.total_energy += 1e-3;
  expect(!si8->check(scf, ref).ok, "a perturbed Si8 total energy fails");

  // Layer billing on a hand-built row (ns): the SCF boundary [0,100)
  // holds a band LOBPCG [10,40) that holds an FFT [20,30); the Casida
  // boundary [100,200) holds a LOBPCG [110,150), an allreduce [160,170)
  // with its wait half [160,165), and a SUMMA region [170,190).
  obs::Trace trace;
  trace.spans = {{"perfbench.solve_ground_state", 1, 7, 0, 100},
                 {"la.lobpcg", 1, 7, 10, 40},
                 {"fft.fft3d", 1, 7, 20, 30},
                 {"perfbench.solve_casida", 1, 7, 100, 200},
                 {"la.lobpcg", 1, 7, 110, 150},
                 {"allreduce", 1, 7, 160, 170},
                 {"allreduce.wait", 1, 7, 160, 165},
                 {"par.summa", 1, 7, 170, 190}};
  const auto layer = layer_self_seconds(trace);
  const auto near = [&](const char* name, double ns) {
    return std::fabs(layer.at(name) - 1e-9 * ns) < 1e-15;
  };
  expect(near("dft.scf_s", 90), "SCF self time includes the band LOBPCG");
  expect(near("fft.fft3d_s", 10), "FFT self time");
  expect(near("la.lobpcg_s", 40), "la.lobpcg_s is the Casida LOBPCG only");
  expect(near("par.comm_s", 10), "par.comm_s is the collective spans only");
  expect(near("tddft.casida_s", 50), "par.* region self time is compute");

  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ run

int run(const Options& opt) {
  const int cores = affinity_cores();
  std::unique_ptr<Workload> workload = make_workload(opt.workload, cores);
  if (!workload) {
    std::fprintf(stderr, "lrt_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const json::Value host =
      host_block(workload->ranks(), workload->omp_threads());
  // A single-threaded solve and its one-thread probes share one core.
  const int threads = workload->ranks() * workload->omp_threads();
  if (threads == 1) pin_to_one_core();
  set_omp_threads(workload->omp_threads());
  obs::set_tracing_enabled(false);

  // One solve; `log` non-null traces it. Tracing covers the solve only,
  // never the per-solve oracle.
  std::vector<Attempt> attempts;
  std::vector<std::map<std::string, double>> layers;
  const auto attempt = [&](CallLog* log) -> double {
    Attempt a;
    if (log != nullptr) {
      obs::reset_trace();
      obs::set_tracing_enabled(true);
    }
    const double t0 = now_s();
    try {
      a.result = workload->solve(log);
    } catch (const std::exception& e) {
      a.threw = true;
      a.error = e.what();
    }
    const double seconds = now_s() - t0;
    obs::set_tracing_enabled(false);
    if (!a.threw) {
      if (log != nullptr) {
        layers.push_back(layer_metrics(obs::snapshot_trace(), *log, a.result,
                                       workload->ranks()));
      }
      a.reference = workload->per_solve_reference();
    }
    attempts.push_back(std::move(a));
    return seconds;
  };

  // Set-up: input generation plus the warm-up solve.
  const double setup_t0 = now_s();
  workload->generate(opt.seed);
  const double generate_s = now_s() - setup_t0;
  const std::vector<double> setup_s = {generate_s + attempt(nullptr)};

  // Closed loop. Traced runs alternate untraced and traced solves. A host
  // probe on the solve's thread count runs before and after each untraced
  // solve, untimed by it.
  std::vector<double> solve_s;
  std::vector<double> probes;
  std::vector<double> traced_s;
  CallLog first_log;
  const double loop_start = now_s();
  for (int i = 0;; ++i) {
    const int done = static_cast<int>(solve_s.size() + traced_s.size());
    const int min_solves = opt.trace ? kMinTracedSolves : kMinSolves;
    if (done >= min_solves && now_s() - loop_start >= opt.seconds) break;
    if (!opt.trace || i % 2 == 0) {
      probes.push_back(probe_s(threads));
      solve_s.push_back(attempt(nullptr));
      probes.push_back(probe_s(threads));
      continue;
    }
    CallLog log;
    traced_s.push_back(attempt(&log));
    if (first_log.calls.empty()) first_log = std::move(log);
  }
  const double peak_rss_mb = 1e-6 * static_cast<double>(obs::vm_hwm_bytes());

  // Oracle and checks, outside every timed interval, on every core unless
  // the run is pinned to one.
  if (threads > 1) set_omp_threads(cores);
  const double oracle_t0 = now_s();
  std::vector<Real> shared;
  long long failed = 0;
  double err_mev = 0;
  json::Value failures = json::array();
  for (Attempt& a : attempts) {
    Check c;
    if (a.threw) {
      c.ok = false;
      c.reason = "threw: " + a.error;
    } else {
      if (a.reference.empty()) {
        if (shared.empty()) shared = workload->shared_reference(opt.cache_dir);
        a.reference = shared;
      }
      c = workload->check(a.result, a.reference);
      err_mev = std::max(err_mev, c.err_mev);
    }
    if (!c.ok) {
      ++failed;
      if (failures.array.size() < 8) failures.array.push_back(json::string(c.reason));
    }
  }
  const double oracle_s = now_s() - oracle_t0;
  const long long attempted = static_cast<long long>(attempts.size());

  json::Value doc = json::object();
  json::set(doc, "schema", json::string("lrt.perfbench/1"));
  json::set(doc, "workload", json::string(workload->name()));
  json::set(doc, "seed", json::number(opt.seed));
  json::set(doc, "seconds", json::number(opt.seconds));
  json::set(doc, "trace", json::boolean(opt.trace));
  json::set(doc, "host", host);
  json::set(doc, "params", workload->params());
  json::set(doc, "tolerance_mev", json::number(workload->tolerance_mev()));
  json::set(doc, "correct", json::boolean(failed == 0));
  json::set(doc, "attempted", json::number(static_cast<double>(attempted)));
  json::set(doc, "failed", json::number(static_cast<double>(failed)));
  json::set(doc, "failures", std::move(failures));
  json::set(doc, "oracle_s", json::number(oracle_s));

  json::Value samples = json::object();
  json::set(samples, "solve_s", json::numbers(solve_s));
  json::set(samples, "setup_s", json::numbers(setup_s));
  json::set(samples, "traced_solve_s", json::numbers(traced_s));
  json::set(samples, "probe_s", json::numbers(probes));
  json::set(doc, "samples", std::move(samples));

  json::Value e2e = json::object();
  json::set(e2e, "solve_per_probe",
            metric(median(solve_s) / median(probes), "ratio"));
  json::set(e2e, "solve_s", metric(median(solve_s), "s"));
  json::set(e2e, "probe_s", metric(median(probes), "s"));
  json::set(e2e, "setup_s", metric(median(setup_s), "s"));
  json::set(e2e, "err_mev", metric(err_mev, "meV"));
  json::set(e2e, "fail_frac",
            metric(static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio"));
  json::set(e2e, "peak_rss_mb", metric(peak_rss_mb, "MB"));
  json::set(doc, "end_to_end", std::move(e2e));

  if (opt.trace) {
    json::Value per_layer = json::object();
    for (const LayerMetricDef& def : layer_metric_defs()) {
      std::vector<double> values;
      for (const auto& m : layers) values.push_back(m.at(def.name));
      double value = median(values);
      if (std::string(def.name) == "obs.trace_overhead_pct") {
        value = 100.0 * (median(traced_s) / median(solve_s) - 1.0);
      }
      json::set(per_layer, def.name, metric(value, def.unit));
    }
    json::set(doc, "per_layer", std::move(per_layer));
    json::Value calls = json::array();
    for (const CallRecord& call : first_log.calls) {
      json::Value c = json::object();
      json::set(c, "call", json::string(call.name));
      json::Value counters = json::object();
      for (const auto& [name, value] : call.counters) {
        if (value != 0) {
          json::set(counters, name, json::number(static_cast<double>(value)));
        }
      }
      json::set(c, "counters", std::move(counters));
      calls.array.push_back(std::move(c));
    }
    json::set(doc, "calls", std::move(calls));
  }

  std::cout << obs::json::dump(doc) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
      have_seconds = opt.seconds > 0;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--cache-dir") {
      opt.cache_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrt_perfbench: %s\n", e.what());
    return 1;
  }
}
