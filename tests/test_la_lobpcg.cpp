// Generic LOBPCG solver validated against the dense eigensolver.
#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/lobpcg.hpp"
#include "la/ortho.hpp"

namespace lrt::la {
namespace {

/// Dense symmetric test operator captured in a lambda.
BlockOperator dense_operator(const RealMatrix& a) {
  return [&a](RealConstView x, RealView y) {
    gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), x, 0.0, y);
  };
}

RealMatrix random_symmetric(Index n, Rng& rng) {
  RealMatrix a = RealMatrix::random_normal(n, n, rng);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  return a;
}

TEST(Lobpcg, DiagonalOperatorExact) {
  const Index n = 50;
  RealMatrix a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = static_cast<Real>(i + 1);
  Rng rng(1);
  LobpcgOptions opts;
  opts.tolerance = 1e-10;
  const LobpcgResult r = lobpcg(dense_operator(a), nullptr,
                                RealMatrix::random_normal(n, 4, rng), opts);
  EXPECT_TRUE(r.converged);
  for (Index j = 0; j < 4; ++j) {
    EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                static_cast<Real>(j + 1), 1e-7);
  }
}

class LobpcgSweep
    : public ::testing::TestWithParam<std::pair<Index, Index>> {};

TEST_P(LobpcgSweep, MatchesDenseLowestEigenvalues) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<unsigned>(n * 10 + k));
  const RealMatrix a = random_symmetric(n, rng);
  const EigResult dense = syev(a.view());

  LobpcgOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 400;
  const LobpcgResult r = lobpcg(dense_operator(a), nullptr,
                                RealMatrix::random_normal(n, k, rng), opts);
  EXPECT_TRUE(r.converged) << "n=" << n << " k=" << k;
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                dense.values[static_cast<std::size_t>(j)], 1e-6)
        << "pair " << j;
  }
  EXPECT_LT(orthogonality_error(r.eigenvectors.view()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, LobpcgSweep,
    ::testing::Values(std::make_pair<Index, Index>(30, 1),
                      std::make_pair<Index, Index>(40, 3),
                      std::make_pair<Index, Index>(80, 5),
                      std::make_pair<Index, Index>(120, 8)));

TEST(Lobpcg, PreconditionerAcceleratesDiagonal) {
  // Diagonally dominant operator with large spread: the Jacobi-like
  // preconditioner should reduce iteration count substantially.
  const Index n = 200;
  RealMatrix a(n, n);
  Rng rng(7);
  for (Index i = 0; i < n; ++i) a(i, i) = 1.0 + 100.0 * rng.uniform();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) {
      const Real v = 0.01 * rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }

  LobpcgOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 500;

  const LobpcgResult plain = lobpcg(
      dense_operator(a), nullptr, RealMatrix::random_normal(n, 3, rng), opts);

  BlockPreconditioner prec = [&a](RealView r, const std::vector<Real>& theta) {
    for (Index j = 0; j < r.cols(); ++j) {
      for (Index i = 0; i < r.rows(); ++i) {
        Real gap = a(i, i) - theta[static_cast<std::size_t>(j)];
        if (std::abs(gap) < 0.1) gap = gap < 0 ? -0.1 : 0.1;
        r(i, j) /= gap;
      }
    }
  };
  const LobpcgResult fast = lobpcg(
      dense_operator(a), prec, RealMatrix::random_normal(n, 3, rng), opts);

  EXPECT_TRUE(fast.converged);
  EXPECT_LE(fast.iterations, plain.iterations);
}

TEST(Lobpcg, RejectsOversizedBlock) {
  RealMatrix a = RealMatrix::identity(5);
  Rng rng(1);
  EXPECT_THROW(lobpcg(dense_operator(a), nullptr,
                      RealMatrix::random_normal(5, 2, rng), {}),
               Error);
}

TEST(Lobpcg, ConvergedColumnsGateOnlyLeadingColumns) {
  const Index n = 120, k = 6;
  Rng rng(5);
  const RealMatrix a = random_symmetric(n, rng);
  const RealMatrix x0 = RealMatrix::random_normal(n, k, rng);
  LobpcgOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 400;
  const LobpcgResult all = lobpcg(dense_operator(a), nullptr, x0, opts);
  opts.converged_columns = 2;
  const LobpcgResult leading = lobpcg(dense_operator(a), nullptr, x0, opts);

  ASSERT_TRUE(all.converged);
  ASSERT_TRUE(leading.converged);
  EXPECT_LT(leading.iterations, all.iterations);
  ASSERT_EQ(leading.residual_norms.size(), static_cast<std::size_t>(k));
  const auto within = [&](Index j) {
    const std::size_t c = static_cast<std::size_t>(j);
    return leading.residual_norms[c] <=
           opts.tolerance *
               std::max<Real>(1.0, std::abs(leading.eigenvalues[c]));
  };
  EXPECT_TRUE(within(0));
  EXPECT_TRUE(within(1));
  // The trailing columns stopped short of the tolerance and still passed.
  bool trailing_open = false;
  for (Index j = 2; j < k; ++j) trailing_open = trailing_open || !within(j);
  EXPECT_TRUE(trailing_open);
}

TEST(Lobpcg, ReportsResidualNorms) {
  const Index n = 40;
  Rng rng(3);
  const RealMatrix a = random_symmetric(n, rng);
  LobpcgOptions opts;
  opts.tolerance = 1e-9;
  const LobpcgResult r = lobpcg(dense_operator(a), nullptr,
                                RealMatrix::random_normal(n, 2, rng), opts);
  ASSERT_EQ(r.residual_norms.size(), 2u);
  for (const Real rn : r.residual_norms) {
    EXPECT_LT(rn, 1e-7 * std::max<Real>(1.0, std::abs(r.eigenvalues[0])));
  }
}

}  // namespace
}  // namespace lrt::la
