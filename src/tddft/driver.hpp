// Serial LR-TDDFT driver: the five optimization levels of paper Table 4.
//
//   (1) kNaive              — explicit Pvc build + dense SYEV
//   (2) kQrcpIsdf           — QRCP-selected ISDF + explicit H + SYEV
//   (3) kKmeansIsdf         — K-Means-selected ISDF + explicit H + SYEV
//   (4) kKmeansIsdfLobpcg   — K-Means ISDF + explicit H + LOBPCG
//   (5) kImplicit           — K-Means ISDF + implicit factored H + LOBPCG
//
// The driver also estimates the per-version memory footprint with the
// closed forms of Table 4 so the benches can report both axes.
#pragma once

#include "dft/scf.hpp"
#include "dft/synthetic.hpp"
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

struct DriverOptions {
  Version version = Version::kImplicit;
  Index num_states = 3;  ///< excitation energies to report (k)
  /// Interpolation points; 0 derives Nμ = nmu_ratio * (Nv + Nc) as in the
  /// paper's Nμ ≈ c · Ne rule of thumb.
  Index nmu = 0;
  Real nmu_ratio = 6.0;
  bool include_xc = true;
  TddftEigenOptions eigen;
  isdf::IsdfOptions isdf;  ///< method field is overridden by `version`
};

struct DriverResult {
  std::vector<Real> energies;    ///< lowest k excitation energies
  la::RealMatrix wavefunctions;  ///< Ncv x k
  obs::WallProfiler profiler;         ///< phases: select_points, interp_vectors,
                                 ///< pair_product, fft, gemm, diag
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
