// Distributed LOBPCG and the implicit Casida operator on a communicator.
#include <gtest/gtest.h>

#include <cmath>

#include "dft/synthetic.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "par/dist_lobpcg.hpp"
#include "par/layout.hpp"
#include "tddft/casida_isdf.hpp"
#include "tddft/driver.hpp"

namespace lrt {
namespace {

class DistLobpcgSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistLobpcgSweep, MatchesSerialEigenvaluesOnDenseOperator) {
  const int p = GetParam();
  const Index n = 60, k = 3;
  Rng rng(3);
  la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  const la::EigResult dense = la::syev(a.view());
  const la::RealMatrix x0_full = la::RealMatrix::random_normal(n, k, rng);

  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(n, comm.size());
    const Index off = part.offset(comm.rank());
    const Index cnt = part.count(comm.rank());

    // Dense distributed operator: y_local = (A x)_local needs the full x;
    // allgather the slabs (test-only operator).
    par::DistBlockOperator apply = [&](la::RealConstView x_loc,
                                       la::RealView y_loc) {
      la::RealMatrix x_full(n, x_loc.cols());
      std::vector<Index> counts(static_cast<std::size_t>(comm.size()));
      std::vector<Index> displs(static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        counts[static_cast<std::size_t>(r)] = part.count(r) * x_loc.cols();
        displs[static_cast<std::size_t>(r)] = part.offset(r) * x_loc.cols();
      }
      const la::RealMatrix x_copy = la::to_matrix(x_loc);
      comm.allgatherv(x_copy.data(), x_copy.size(), x_full.data(), counts,
                      displs);
      const la::RealMatrix y_full =
          la::gemm(la::Trans::kNo, la::Trans::kNo, a.view(), x_full.view());
      la::copy<Real>(y_full.view().rows_block(off, cnt), y_loc);
    };

    la::LobpcgOptions opts;
    opts.tolerance = 1e-9;
    opts.max_iterations = 400;
    const la::LobpcgResult r = par::dist_lobpcg(
        comm, apply, nullptr,
        la::to_matrix<Real>(x0_full.view().rows_block(off, cnt)), opts);

    EXPECT_TRUE(r.converged) << "p=" << comm.size();
    for (Index j = 0; j < k; ++j) {
      EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                  dense.values[static_cast<std::size_t>(j)], 1e-6);
    }
    EXPECT_EQ(r.eigenvectors.rows(), cnt);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistLobpcgSweep,
                         ::testing::Values(1, 2, 3, 4));

struct CasidaPieces {
  tddft::CasidaProblem problem;
  la::RealMatrix m;
  isdf::IsdfResult dec;
  std::vector<Real> d;
};

CasidaPieces make_pieces() {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(7.0), {8, 8, 8});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  sopts.seed = 17;
  CasidaPieces pieces{
      tddft::make_problem_from_synthetic(
          g, dft::make_synthetic_orbitals(g, 6, 4, sopts)),
      {}, {}, {}};
  const grid::GVectors gv(pieces.problem.grid);
  const tddft::HxcKernel kernel(pieces.problem.grid, gv,
                                pieces.problem.ground_density, true);
  isdf::IsdfOptions opts;
  opts.nmu = 20;
  pieces.dec = isdf_decompose(pieces.problem.grid,
                              pieces.problem.psi_v.view(),
                              pieces.problem.psi_c.view(), opts);
  pieces.m = tddft::build_kernel_projection(pieces.dec, kernel);
  pieces.d = tddft::energy_differences(pieces.problem);
  return pieces;
}

tddft::ImplicitHamiltonian make_operator(const CasidaPieces& pieces,
                                         par::Comm* comm) {
  return tddft::ImplicitHamiltonian(
      pieces.d, la::to_matrix<Real>(pieces.m.view()),
      pieces.dec.psi_v_mu.view(), pieces.dec.psi_c_mu.view(), comm);
}

TEST(DistImplicit, SolveWithoutCommIsBitIdenticalToOneRankSolve) {
  const CasidaPieces pieces = make_pieces();
  tddft::TddftEigenOptions eopts;
  eopts.num_states = 3;
  eopts.tolerance = 1e-9;
  const la::LobpcgResult serial =
      tddft::solve_casida_lobpcg(make_operator(pieces, nullptr), eopts);
  ASSERT_TRUE(serial.converged);

  la::LobpcgResult one_rank;
  par::run(1, [&](par::Comm& comm) {
    one_rank = tddft::solve_casida_lobpcg(make_operator(pieces, &comm), eopts);
  });
  EXPECT_EQ(one_rank.iterations, serial.iterations);
  EXPECT_EQ(one_rank.converged, serial.converged);
  EXPECT_EQ(one_rank.eigenvalues, serial.eigenvalues);
  EXPECT_EQ(one_rank.residual_norms, serial.residual_norms);
  ASSERT_EQ(one_rank.eigenvectors.rows(), serial.eigenvectors.rows());
  ASSERT_EQ(one_rank.eigenvectors.cols(), serial.eigenvectors.cols());
  EXPECT_EQ(la::max_abs_diff(one_rank.eigenvectors.view(),
                             serial.eigenvectors.view()),
            0.0);
}

class DistImplicitSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistImplicitSweep, ApplyMatchesSerialImplicit) {
  const int p = GetParam();
  const CasidaPieces pieces = make_pieces();
  const tddft::ImplicitHamiltonian serial = make_operator(pieces, nullptr);
  Rng rng(5);
  const la::RealMatrix x =
      la::RealMatrix::random_normal(pieces.problem.ncv(), 2, rng);
  la::RealMatrix y_serial(pieces.problem.ncv(), 2);
  serial.apply(x.view(), y_serial.view());

  par::run(p, [&](par::Comm& comm) {
    const tddft::ImplicitHamiltonian h = make_operator(pieces, &comm);
    const Index row0 = h.row_offset();
    const Index nl = h.local_dimension();
    la::RealMatrix y_local(nl, 2);
    h.apply(x.view().rows_block(row0, nl), y_local.view());
    EXPECT_LT(la::max_abs_diff(y_local.view(),
                               y_serial.view().rows_block(row0, nl)),
              1e-10);
  });
}

TEST_P(DistImplicitSweep, DistributedSolveMatchesSerialEnergies) {
  const int p = GetParam();
  const CasidaPieces pieces = make_pieces();
  tddft::TddftEigenOptions eopts;
  eopts.num_states = 3;
  eopts.tolerance = 1e-9;
  const la::LobpcgResult reference =
      tddft::solve_casida_lobpcg(make_operator(pieces, nullptr), eopts);

  par::run(p, [&](par::Comm& comm) {
    const tddft::ImplicitHamiltonian h = make_operator(pieces, &comm);
    const la::LobpcgResult sol = tddft::solve_casida_lobpcg(h, eopts);
    EXPECT_TRUE(sol.converged);
    ASSERT_EQ(sol.eigenvalues.size(), 3u);
    EXPECT_EQ(sol.eigenvectors.rows(), h.local_dimension());
    for (Index j = 0; j < 3; ++j) {
      EXPECT_NEAR(sol.eigenvalues[static_cast<std::size_t>(j)],
                  reference.eigenvalues[static_cast<std::size_t>(j)], 1e-7)
          << "p=" << comm.size();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistImplicitSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace lrt
