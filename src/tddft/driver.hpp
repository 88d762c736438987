// Serial LR-TDDFT driver: the five optimization levels of paper Table 4.
//
//   (1) kNaive              — explicit Pvc build + dense SYEV
//   (2) kQrcpIsdf           — QRCP-selected ISDF + explicit H + SYEV
//   (3) kKmeansIsdf         — K-Means-selected ISDF + explicit H + SYEV
//   (4) kKmeansIsdfLobpcg   — K-Means ISDF + explicit H + LOBPCG
//   (5) kImplicit           — K-Means ISDF + implicit factored H + LOBPCG
//
// The end points (1) and (5) are the paper's §5 pipeline run on a one-rank
// communicator (solve_casida_distributed under par::run(1)); the ablation
// versions (2)-(4) build H explicitly. The driver also estimates the
// per-version memory footprint with the closed forms of Table 4 so the
// benches can report both axes.
#pragma once

#include <string>

#include "dft/scf.hpp"
#include "dft/synthetic.hpp"
#include "obs/obs.hpp"
#include "tddft/casida_isdf.hpp"
#include "tddft/lobpcg_tddft.hpp"

namespace lrt::tddft {

enum class Version {
  kNaive,
  kQrcpIsdf,
  kKmeansIsdf,
  kKmeansIsdfLobpcg,
  kImplicit,
};

const char* version_name(Version version);

/// Options of both drivers (solve_casida and solve_casida_distributed).
/// Every field must be uniform across ranks.
struct DriverOptions {
  Version version = Version::kImplicit;
  Index num_states = 3;  ///< excitation energies to report (k)
  /// Interpolation points; 0 derives Nμ = nmu_ratio * (Nv + Nc) as in the
  /// paper's Nμ ≈ c · Ne rule of thumb.
  Index nmu = 0;
  Real nmu_ratio = 6.0;
  bool include_xc = true;
  TddftEigenOptions eigen;
  /// Vhxc / M reduction of kNaive and kImplicit (kernel_projection): 0 is
  /// one allreduce; N > 0 reduces chunks of N rows to their row owners,
  /// then allgathers them (paper §5.3, Fig 4-5).
  Index pipeline_chunk = 0;
  /// Phase-granular restart of kImplicit (docs/RESILIENCE.md): when
  /// non-empty and the file exists, the K-Means result is loaded from it
  /// and the whole K-Means phase is skipped; otherwise rank 0 writes the
  /// result there once the phase completes.
  std::string checkpoint_path;
};

struct DriverResult {
  std::vector<Real> energies;    ///< lowest k excitation energies
  la::RealMatrix wavefunctions;  ///< Ncv x k
  /// Phase wall seconds, from spans. kNaive and kImplicit: the six Fig-8
  /// phases pair_product, kmeans, fft, mpi, gemm and diag. The ablation
  /// versions: every span the solve closed on the calling thread, by
  /// name: isdf.select_points, isdf.interp_vectors, pair_product, fft,
  /// gemm and diag among them.
  obs::PhaseAccumulator profiler;
  double seconds_total = 0;
  Index nmu_used = 0;
  double memory_bytes_estimate = 0;  ///< Table 4 closed-form estimate
  Index eigen_iterations = 0;        ///< LOBPCG iterations (0 for SYEV)
};

/// Interpolation point count shared by both drivers: `nmu` when positive,
/// else nmu_ratio * (Nv + Nc) rounded, capped by the pair rank and the
/// grid size. Throws lrt::Error when the result is < 1.
Index derive_nmu(Index nmu, Real nmu_ratio, const CasidaProblem& problem);

/// Runs one version end to end on a prepared problem.
DriverResult solve_casida(const CasidaProblem& problem,
                          const DriverOptions& options);

/// Builds the Casida inputs from a converged SCF, restricting to the top
/// `nv_use` valence and bottom `nc_use` conduction states (0 = all).
CasidaProblem make_problem_from_scf(const dft::KohnShamResult& ks,
                                    Index nv_use = 0, Index nc_use = 0);

/// Builds the Casida inputs from synthetic orbitals (scaling benches).
CasidaProblem make_problem_from_synthetic(const grid::RealSpaceGrid& grid,
                                          const dft::SyntheticOrbitals& orbs);

}  // namespace lrt::tddft
