#include "tddft/driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "obs/phase_registry.hpp"
#include "par/runtime.hpp"
#include "tddft/dist_driver.hpp"

namespace lrt::tddft {
namespace {

/// Closed-form memory estimates of paper Table 4 (bytes, double words).
double memory_estimate(Version version, Index nr, Index nv, Index nc,
                       Index nmu) {
  const double w = sizeof(Real);
  const double ncv = double(nv) * double(nc);
  switch (version) {
    case Version::kNaive:
      // O(Nv²Nc² + Nr Nv Nc): explicit H plus the pair matrix.
      return w * (ncv * ncv + double(nr) * ncv);
    case Version::kQrcpIsdf:
    case Version::kKmeansIsdf:
    case Version::kKmeansIsdfLobpcg:
      // O(Nv²Nc² + Nμ Nv Nc): explicit H plus coefficients.
      return w * (ncv * ncv + double(nmu) * ncv);
    case Version::kImplicit:
      // O(Nμ² + Nμ(Nv+Nc)): kernel projection + sampled orbitals.
      return w * (double(nmu) * nmu + double(nmu) * (double(nv) + nc));
  }
  return 0;
}

/// The ablation versions (2)-(4): ISDF, then an explicit H solved by SYEV
/// or LOBPCG. The profiler collects every span closed on this thread.
void solve_ablation(const CasidaProblem& problem, const DriverOptions& options,
                    DriverResult& result) {
  const obs::PhaseScope phase_clock(result.profiler);
  const grid::GVectors gvectors(problem.grid);
  const HxcKernel kernel(problem.grid, gvectors, problem.ground_density,
                         options.include_xc);

  isdf::IsdfOptions isdf_opts;
  isdf_opts.nmu = derive_nmu(options.nmu, options.nmu_ratio, problem);
  isdf_opts.method = (options.version == Version::kQrcpIsdf)
                         ? isdf::PointMethod::kQrcp
                         : isdf::PointMethod::kKmeans;
  const isdf::IsdfResult decomposition = isdf_decompose(
      problem.grid, problem.psi_v.view(), problem.psi_c.view(), isdf_opts);
  result.nmu_used = decomposition.nmu();

  const la::RealMatrix h =
      build_hamiltonian_isdf(problem, decomposition, kernel);
  if (options.version == Version::kKmeansIsdfLobpcg) {
    TddftEigenOptions eig = options.eigen;
    eig.num_states = options.num_states;
    la::LobpcgResult sol;
    {
      const obs::Span span(obs::phase::kDiag);
      sol = solve_casida_lobpcg_dense(h, energy_differences(problem), eig);
    }
    result.energies = std::move(sol.eigenvalues);
    result.wavefunctions = std::move(sol.eigenvectors);
    result.eigen_iterations = sol.iterations;
  } else {
    CasidaSolution sol = diagonalize_dense(h, options.num_states);
    result.energies = std::move(sol.energies);
    result.wavefunctions = std::move(sol.wavefunctions);
  }
}

}  // namespace

Index derive_nmu(Index nmu, Real nmu_ratio, const CasidaProblem& problem) {
  if (nmu <= 0) {
    nmu = static_cast<Index>(std::llround(
        nmu_ratio * static_cast<Real>(problem.nv() + problem.nc())));
  }
  // Nμ can never exceed the pair rank or the grid size.
  nmu = std::min({nmu, problem.ncv(), problem.nr()});
  LRT_CHECK(nmu >= 1, "derived Nμ < 1");
  return nmu;
}

const char* version_name(Version version) {
  switch (version) {
    case Version::kNaive:
      return "Naive";
    case Version::kQrcpIsdf:
      return "QRCP-ISDF";
    case Version::kKmeansIsdf:
      return "Kmeans-ISDF";
    case Version::kKmeansIsdfLobpcg:
      return "Kmeans-ISDF-LOBPCG";
    case Version::kImplicit:
      return "Implicit-Kmeans-ISDF-LOBPCG";
  }
  return "?";
}

DriverResult solve_casida(const CasidaProblem& problem,
                          const DriverOptions& options) {
  LRT_CHECK(problem.nv() >= 1 && problem.nc() >= 1, "empty orbital blocks");
  LRT_CHECK(options.num_states >= 1 && options.num_states <= problem.ncv(),
            "bad num_states " << options.num_states);

  DriverResult result;
  Timer total;
  const Version version = options.version;
  if (version == Version::kNaive || version == Version::kImplicit) {
    // The paper's pipeline on one rank: par::run(1) runs inline on this
    // thread, and every collective is a no-op.
    DistDriverStats stats;
    par::run(1, [&](par::Comm& comm) {
      stats = solve_casida_distributed(comm, problem, options);
    });
    result.energies = std::move(stats.energies);
    result.wavefunctions = std::move(stats.wavefunctions);
    result.eigen_iterations = stats.eigen_iterations;
    for (const auto& [phase, seconds] : stats.phases) {
      result.profiler.add(phase, seconds);
    }
    if (version == Version::kImplicit) {
      result.nmu_used = derive_nmu(options.nmu, options.nmu_ratio, problem);
    }
  } else {
    solve_ablation(problem, options, result);
  }
  result.memory_bytes_estimate =
      memory_estimate(version, problem.nr(), problem.nv(), problem.nc(),
                      result.nmu_used);
  result.seconds_total = total.seconds();
  return result;
}

CasidaProblem make_problem_from_scf(const dft::KohnShamResult& ks,
                                    Index nv_use, Index nc_use) {
  const Index nv_all = ks.num_occupied;
  const Index nc_all = ks.orbitals.cols() - ks.num_occupied;
  if (nv_use <= 0) nv_use = nv_all;
  if (nc_use <= 0) nc_use = nc_all;
  LRT_CHECK(nv_use <= nv_all && nc_use <= nc_all,
            "requested more orbitals than the SCF produced");

  CasidaProblem problem;
  problem.grid = ks.grid;
  // Top nv_use valence states (closest to the gap).
  problem.psi_v = la::to_matrix<Real>(
      ks.orbitals.view().cols_block(nv_all - nv_use, nv_use));
  problem.psi_c = la::to_matrix<Real>(
      ks.orbitals.view().cols_block(nv_all, nc_use));
  problem.eps_v.assign(ks.eigenvalues.begin() + (nv_all - nv_use),
                       ks.eigenvalues.begin() + nv_all);
  problem.eps_c.assign(ks.eigenvalues.begin() + nv_all,
                       ks.eigenvalues.begin() + nv_all + nc_use);
  problem.ground_density = ks.density;
  return problem;
}

CasidaProblem make_problem_from_synthetic(const grid::RealSpaceGrid& grid,
                                          const dft::SyntheticOrbitals& orbs) {
  CasidaProblem problem;
  problem.grid = grid;
  problem.psi_v = la::to_matrix<Real>(orbs.psi_v.view());
  problem.psi_c = la::to_matrix<Real>(orbs.psi_c.view());
  problem.eps_v = orbs.eps_v;
  problem.eps_c = orbs.eps_c;
  // Ground density consistent with the valence block.
  const Index nr = grid.size();
  problem.ground_density.assign(static_cast<std::size_t>(nr), Real{0});
  for (Index j = 0; j < orbs.psi_v.cols(); ++j) {
    for (Index i = 0; i < nr; ++i) {
      problem.ground_density[static_cast<std::size_t>(i)] +=
          2 * orbs.psi_v(i, j) * orbs.psi_v(i, j);
    }
  }
  return problem;
}

}  // namespace lrt::tddft
