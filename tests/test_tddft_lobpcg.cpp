// Excited-state LOBPCG (paper Algorithm 2) vs dense diagonalization.
#include <gtest/gtest.h>

#include <cmath>

#include "dft/synthetic.hpp"
#include "la/blas.hpp"
#include "tddft/casida_isdf.hpp"
#include "tddft/driver.hpp"
#include "tddft/lobpcg_tddft.hpp"

namespace lrt::tddft {
namespace {

struct Solved {
  CasidaProblem problem;
  isdf::IsdfResult dec;
  la::RealMatrix h_explicit;
  la::RealMatrix m;
};

Solved make_solved(Index nv = 5, Index nc = 4, Index nmu = 20) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(8.0), {10, 10, 10});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  sopts.seed = 11;
  Solved s{make_problem_from_synthetic(
               g, dft::make_synthetic_orbitals(g, nv, nc, sopts)),
           {}, {}, {}};
  const grid::GVectors gv(s.problem.grid);
  const HxcKernel kernel(s.problem.grid, gv, s.problem.ground_density, true);
  isdf::IsdfOptions opts;
  opts.nmu = nmu;
  s.dec = isdf_decompose(s.problem.grid, s.problem.psi_v.view(),
                         s.problem.psi_c.view(), opts);
  s.h_explicit = build_hamiltonian_isdf(s.problem, s.dec, kernel);
  s.m = build_kernel_projection(s.dec, kernel);
  return s;
}

TEST(TddftLobpcg, ImplicitMatchesDenseEigenvalues) {
  Solved s = make_solved();
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(s.problem), s.dec, la::to_matrix<Real>(s.m.view()));

  TddftEigenOptions opts;
  opts.num_states = 4;
  opts.tolerance = 1e-9;
  const la::LobpcgResult iterative = solve_casida_lobpcg(h, opts);
  const CasidaSolution dense = diagonalize_dense(s.h_explicit, 4);

  EXPECT_TRUE(iterative.converged);
  for (Index j = 0; j < 4; ++j) {
    EXPECT_NEAR(iterative.eigenvalues[static_cast<std::size_t>(j)],
                dense.energies[static_cast<std::size_t>(j)], 1e-6)
        << "state " << j;
  }
}

TEST(TddftLobpcg, ReturnsExactlyNumStatesPairsMatchingDense) {
  // 20 pairs: the solve iterates 6 columns, 3 of them guard columns, and
  // hands back only the leading 3 pairs.
  Solved s = make_solved();
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(s.problem), s.dec, la::to_matrix<Real>(s.m.view()));
  TddftEigenOptions opts;
  opts.num_states = 3;
  opts.tolerance = 1e-9;
  const la::LobpcgResult r = solve_casida_lobpcg(h, opts);
  const CasidaSolution dense = diagonalize_dense(s.h_explicit, 3);

  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  ASSERT_EQ(r.residual_norms.size(), 3u);
  ASSERT_EQ(r.eigenvectors.rows(), s.problem.ncv());
  ASSERT_EQ(r.eigenvectors.cols(), 3);
  const la::RealMatrix hv = la::gemm(la::Trans::kNo, la::Trans::kNo,
                                     s.h_explicit.view(),
                                     r.eigenvectors.view());
  for (Index j = 0; j < 3; ++j) {
    const Real theta = r.eigenvalues[static_cast<std::size_t>(j)];
    EXPECT_NEAR(theta, dense.energies[static_cast<std::size_t>(j)], 1e-6)
        << "state " << j;
    Real residual = 0;
    for (Index i = 0; i < hv.rows(); ++i) {
      const Real e = hv(i, j) - theta * r.eigenvectors(i, j);
      residual += e * e;
    }
    EXPECT_LT(std::sqrt(residual), 1e-6) << "state " << j;
  }
}

TEST(TddftLobpcg, DenseOperatorVariantAgrees) {
  Solved s = make_solved();
  TddftEigenOptions opts;
  opts.num_states = 3;
  opts.tolerance = 1e-9;
  const la::LobpcgResult iterative = solve_casida_lobpcg_dense(
      s.h_explicit, energy_differences(s.problem), opts);
  const CasidaSolution dense = diagonalize_dense(s.h_explicit, 3);
  EXPECT_TRUE(iterative.converged);
  for (Index j = 0; j < 3; ++j) {
    EXPECT_NEAR(iterative.eigenvalues[static_cast<std::size_t>(j)],
                dense.energies[static_cast<std::size_t>(j)], 1e-6);
  }
}

TEST(TddftLobpcg, GapPreconditionerConvergesFastOnGappedSpectrum) {
  Solved s = make_solved(6, 5, 24);
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(s.problem), s.dec, la::to_matrix<Real>(s.m.view()));
  TddftEigenOptions opts;
  opts.num_states = 3;
  opts.tolerance = 1e-8;
  const la::LobpcgResult r = solve_casida_lobpcg(h, opts);
  EXPECT_TRUE(r.converged);
  // Physically-seeded start + gap preconditioner: well under the cap.
  EXPECT_LT(r.iterations, 150);
}

TEST(TddftLobpcg, ExcitationEnergiesArePositive) {
  Solved s = make_solved();
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(s.problem), s.dec, la::to_matrix<Real>(s.m.view()));
  TddftEigenOptions opts;
  opts.num_states = 3;
  const la::LobpcgResult r = solve_casida_lobpcg(h, opts);
  for (const Real e : r.eigenvalues) EXPECT_GT(e, 0.0);
}

}  // namespace
}  // namespace lrt::tddft
