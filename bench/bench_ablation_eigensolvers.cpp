// Eigensolver ablation (DESIGN.md §5): dense SYEV vs LOBPCG (the paper's
// choice, Alg 2) vs block Davidson (the paper's cited alternative [8]),
// all on the same implicit ISDF Casida operator — iterations, operator
// applications, time, and agreement. Also TDA vs full linear response
// (paper Eq 1 vs Eq 2) on the same problem.
#include <cstdio>

#include "bench_util.hpp"
#include "tddft/casida_isdf.hpp"
#include "tddft/full_casida.hpp"
#include "tddft/lobpcg_tddft.hpp"

using namespace lrt;

int main() {
  const bench::Workload w{"Si27*", 32, 16, 14, 15.5, 27};
  const tddft::CasidaProblem problem = bench::make_workload(w);
  const grid::GVectors gv(problem.grid);
  const tddft::HxcKernel kernel(problem.grid, gv, problem.ground_density,
                                true);
  std::printf("system: Nr=%td Nv=%td Nc=%td (Ncv=%td)\n\n", problem.nr(),
              problem.nv(), problem.nc(), problem.ncv());

  isdf::IsdfOptions iopts;
  iopts.nmu = 4 * (problem.nv() + problem.nc());
  const isdf::IsdfResult dec = isdf_decompose(
      problem.grid, problem.psi_v.view(), problem.psi_c.view(), iopts);
  const la::RealMatrix m = tddft::build_kernel_projection(dec, kernel);
  const la::RealMatrix h_dense =
      tddft::build_hamiltonian_isdf(problem, dec, kernel);
  const tddft::ImplicitHamiltonian h = tddft::make_implicit_hamiltonian(
      tddft::energy_differences(problem), dec, la::to_matrix<Real>(m.view()));

  const Index k = 6;

  Timer t_dense;
  const tddft::CasidaSolution dense = tddft::diagonalize_dense(h_dense, k);
  const double dense_s = t_dense.seconds();

  tddft::TddftEigenOptions eopts;
  eopts.num_states = k;
  eopts.tolerance = 1e-9;

  Timer t_lobpcg;
  const la::LobpcgResult lobpcg = tddft::solve_casida_lobpcg(h, eopts);
  const double lobpcg_s = t_lobpcg.seconds();

  Timer t_davidson;
  const la::DavidsonResult dav = tddft::solve_casida_davidson(h, eopts);
  const double davidson_s = t_davidson.seconds();

  Table table("Eigensolver ablation on the implicit Casida operator",
              {"solver", "time [s]", "iterations", "H applies",
               "max |dE| vs dense"});
  auto max_diff = [&](const std::vector<Real>& e) {
    Real worst = 0;
    for (Index j = 0; j < k; ++j) {
      worst = std::max(worst,
                       std::abs(e[static_cast<std::size_t>(j)] -
                                dense.energies[static_cast<std::size_t>(j)]));
    }
    return worst;
  };
  table.row()
      .cell("dense SYEV (oracle)")
      .cell(dense_s, 4)
      .cell(Index{0})
      .cell(Index{0})
      .cell(0.0, 2);
  table.row()
      .cell("LOBPCG (paper Alg 2)")
      .cell(lobpcg_s, 4)
      .cell(lobpcg.iterations)
      .cell(lobpcg.iterations)  // one block apply per iteration
      .cell(format_real(max_diff(lobpcg.eigenvalues), 9));
  table.row()
      .cell("Davidson")
      .cell(davidson_s, 4)
      .cell(dav.iterations)
      .cell(dav.operator_applications)
      .cell(format_real(max_diff(dav.eigenvalues), 9));
  table.print();

  // ---- TDA vs full linear response ----------------------------------------
  const la::RealMatrix omega_dense =
      tddft::build_omega_isdf(problem, dec, kernel);
  const tddft::FullCasidaSolution full =
      tddft::solve_full_casida_dense(omega_dense, k);
  const tddft::ImplicitOmega omega(
      tddft::energy_differences(problem), la::to_matrix<Real>(m.view()),
      dec.psi_v_mu.view(), dec.psi_c_mu.view());
  Timer t_full;
  const tddft::FullCasidaSolution full_it =
      tddft::solve_full_casida_lobpcg(omega, eopts);
  const double full_s = t_full.seconds();

  Table tda("TDA (paper Eq 2) vs full response (paper Eq 1), lowest states [Ha]",
            {"state", "TDA", "full (dense)", "full (implicit LOBPCG)",
             "TDA - full"});
  for (Index j = 0; j < k; ++j) {
    tda.row()
        .cell(j + 1)
        .cell(dense.energies[static_cast<std::size_t>(j)], 6)
        .cell(full.energies[static_cast<std::size_t>(j)], 6)
        .cell(full_it.energies[static_cast<std::size_t>(j)], 6)
        .cell(dense.energies[static_cast<std::size_t>(j)] -
                  full.energies[static_cast<std::size_t>(j)],
              6);
  }
  tda.print();
  std::printf("\nfull-response implicit solve: %.3f s, %td iterations.\n"
              "Expected shape: TDA >= full response for every state, both\n"
              "iterative solvers at machine-precision agreement.\n",
              full_s, full_it.iterations);
  return 0;
}
