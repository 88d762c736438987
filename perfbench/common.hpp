// Shared types of the structure-to-spectrum benchmark.
//
// main.cpp runs one workload (workloads.hpp) in a closed
// loop, checks every solve against the naive dense Casida oracle, and
// prints one lrt.perfbench/1 JSON document that perfbench/run.py turns
// into the benchmark's result line. Traced solves additionally fill a
// CallLog (layers.hpp) from which the per-layer numbers are derived.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "obs/json.hpp"

namespace lrt::perfbench {

/// One solve's outputs, as the checks and the layer report need them.
struct SolveResult {
  std::vector<Real> energies;  ///< lowest excitation energies, Hartree
  bool converged = true;       ///< SCF and eigensolver both converged
  std::string note;            ///< why !converged
  bool has_total_energy = false;
  Real total_energy = 0;       ///< SCF total energy, Hartree (si8_e2e)
  Index scf_iterations = 0;
  Index eigen_iterations = 0;  ///< serial driver only (dist: counter)
  /// Fig-8 phase wall seconds from the serial driver's profiler (fft,
  /// gemm, diag); empty for the distributed driver, whose phases are
  /// read from its traced wall spans instead.
  std::vector<std::pair<std::string, double>> profiler_phases;
};

/// Outcome of checking one solve against its oracle.
struct Check {
  bool ok = true;
  double err_mev = 0;  ///< max |ΔE| over the reported states, meV
  std::string reason;  ///< first failed condition, empty when ok
};

/// Energies agree with `reference` state by state within `tol_mev`, and
/// the solve reported convergence. Non-finite energies and a state-count
/// mismatch fail.
Check check_energies(const SolveResult& result,
                     const std::vector<Real>& reference, double tol_mev);

// Tiny JSON builders over obs::json::Value.
namespace json {

using Value = obs::json::Value;

inline Value number(double v) {
  Value out;
  out.kind = Value::Kind::kNumber;
  out.number = v;
  return out;
}

inline Value string(std::string s) {
  Value out;
  out.kind = Value::Kind::kString;
  out.string = std::move(s);
  return out;
}

inline Value boolean(bool b) {
  Value out;
  out.kind = Value::Kind::kBool;
  out.boolean = b;
  return out;
}

inline Value object() {
  Value out;
  out.kind = Value::Kind::kObject;
  return out;
}

inline Value array() {
  Value out;
  out.kind = Value::Kind::kArray;
  return out;
}

inline Value numbers(const std::vector<double>& values) {
  Value out = array();
  for (const double v : values) out.array.push_back(number(v));
  return out;
}

inline void set(Value& obj, std::string key, Value v) {
  obj.object.emplace_back(std::move(key), std::move(v));
}

}  // namespace json
}  // namespace lrt::perfbench
