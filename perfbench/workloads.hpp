// The benchmark's workloads. Each runs one closed loop in-process: the
// next solve starts when the previous one returns. The seed makes the
// inputs; the library only ever sees the generated inputs.
//
//   si8_e2e        Si8 SCF -> make_problem_from_scf -> serial kImplicit
//                  on one thread
//   casida_serial  synthetic Si64* analog -> serial kImplicit
//   casida_dist    the same problem -> solve_casida_distributed(kImplicit)
//                  on nproc rank threads with one OpenMP thread each
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace lrt::perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Rank threads per solve (1 = no par::run).
  virtual int ranks() const = 0;
  /// OpenMP threads inside each rank. ranks() * omp_threads() <= cores.
  virtual int omp_threads() const = 0;
  /// Largest |ΔE| against the oracle a solve may show, meV.
  virtual double tolerance_mev() const = 0;

  /// Input generation (part of set-up; never timed as a solve).
  virtual void generate(unsigned seed) = 0;

  /// One solve on the generated inputs. `log` is non-null for traced
  /// solves and receives one counter record per public call.
  virtual SolveResult solve(CallLog* log) = 0;

  /// Oracle energies for the inputs of the last solve, when they depend
  /// on the solve (si8_e2e: the SCF output). Empty otherwise. Untimed.
  virtual std::vector<Real> per_solve_reference() { return {}; }

  /// Oracle energies shared by every solve of this seed (the synthetic
  /// workloads), computed once after the timed loop and cached as a file
  /// in `cache_dir` keyed by a digest of the inputs. The caller gives
  /// each source revision its own `cache_dir`. Empty when
  /// per_solve_reference() applies.
  virtual std::vector<Real> shared_reference(const std::string& cache_dir) {
    (void)cache_dir;
    return {};
  }

  /// Full check of one solve: check_energies() plus workload-specific
  /// conditions (si8_e2e: SCF convergence and total energy).
  virtual Check check(const SolveResult& result,
                      const std::vector<Real>& reference) const {
    return check_energies(result, reference, tolerance_mev());
  }

  /// Workload parameters for the result document.
  virtual json::Value params() const = 0;
};

/// The workload called `name`, sized for `cores` usable cores, or null.
std::unique_ptr<Workload> make_workload(const std::string& name, int cores);

/// si8_e2e's total-energy check, exposed for the self-test: the SCF
/// total energy must match the pinned Si8 reference within tolerance.
Check check_total_energy(const SolveResult& result);

}  // namespace lrt::perfbench
