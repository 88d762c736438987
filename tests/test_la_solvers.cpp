// Cholesky, LU, and least-squares solver tests.
#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/lstsq.hpp"
#include "la/lu.hpp"

namespace lrt::la {
namespace {

RealMatrix random_spd(Index n, Rng& rng) {
  const RealMatrix a = RealMatrix::random_normal(n, n, rng);
  RealMatrix g = gram(a.view());
  for (Index i = 0; i < n; ++i) g(i, i) += static_cast<Real>(n);
  return g;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  const RealMatrix a = random_spd(8, rng);
  const RealMatrix l = cholesky(a.view());
  const RealMatrix llt = gemm(Trans::kNo, Trans::kYes, l.view(), l.view());
  EXPECT_LT(max_abs_diff(llt.view(), a.view()), 1e-10);
  // Strict upper triangle is zero.
  for (Index i = 0; i < 8; ++i) {
    for (Index j = i + 1; j < 8; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, IndefiniteThrows) {
  RealMatrix a{{1, 0}, {0, -1}};
  EXPECT_THROW(cholesky(a.view()), Error);
  RealMatrix l;
  EXPECT_FALSE(try_cholesky(a.view(), l));
}

TEST(Cholesky, RejectsPivotBelowRelativeThreshold) {
  // diag(1, 1e-17): the second pivot is positive but below n·ε·max A_ii,
  // so the matrix is numerically singular and try_cholesky must refuse it.
  const RealMatrix a{{1, 0}, {0, 1e-17}};
  RealMatrix l;
  EXPECT_FALSE(try_cholesky(a.view(), l));

  // solve_gram_from_right then takes its ridge path: X = B (A + s I)⁻¹
  // with s = ridge · trace / n, not B A⁻¹ (which would be ~3e17).
  const RealMatrix b{{2, 3}};
  const Real ridge = 1e-8;
  const Real shift = ridge * (1 + 1e-17) / 2;
  const RealMatrix x = solve_gram_from_right(b.view(), a.view(), ridge);
  EXPECT_NEAR(x(0, 0), 2 / (1 + shift), 1e-15);
  EXPECT_NEAR(x(0, 1), 3 / (1e-17 + shift), 1e-6 * (3 / shift));

  // The blocked factorization (order above the crossover) applies the
  // same threshold to a pivot in its last block.
  RealMatrix big = RealMatrix::identity(130);
  big(129, 129) = 1e-17;
  EXPECT_FALSE(try_cholesky(big.view(), l));
  big(129, 129) = 1e-10;
  EXPECT_TRUE(try_cholesky(big.view(), l));
}

TEST(Cholesky, SolveSpd) {
  Rng rng(2);
  const RealMatrix a = random_spd(10, rng);
  const RealMatrix x_true = RealMatrix::random_normal(10, 3, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = solve_spd(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-9);
}

TEST(Cholesky, SpdInverse) {
  Rng rng(3);
  const RealMatrix a = random_spd(6, rng);
  const RealMatrix inv = spd_inverse(a.view());
  const RealMatrix prod = gemm(Trans::kNo, Trans::kNo, a.view(), inv.view());
  EXPECT_LT(max_abs_diff(prod.view(), RealMatrix::identity(6).view()), 1e-10);
}

TEST(Lu, SolveGeneral) {
  Rng rng(4);
  const RealMatrix a = RealMatrix::random_normal(12, 12, rng);
  const RealMatrix x_true = RealMatrix::random_normal(12, 2, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = solve(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-8);
}

TEST(Lu, SingularThrows) {
  RealMatrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(lu_factor(a.view()), Error);
}

TEST(Lu, DeterminantKnownValues) {
  RealMatrix a{{2, 0}, {0, 3}};
  EXPECT_NEAR(determinant(a.view()), 6.0, 1e-12);
  RealMatrix b{{0, 1}, {1, 0}};  // permutation, det = -1
  EXPECT_NEAR(determinant(b.view()), -1.0, 1e-12);
}

TEST(Lstsq, QrSolvesConsistentSystemExactly) {
  Rng rng(5);
  const RealMatrix a = RealMatrix::random_normal(20, 6, rng);
  const RealMatrix x_true = RealMatrix::random_normal(6, 2, rng);
  const RealMatrix b = gemm(Trans::kNo, Trans::kNo, a.view(), x_true.view());
  const RealMatrix x = lstsq_qr(a.view(), b.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-10);
}

TEST(Lstsq, ResidualIsOrthogonalToRange) {
  // Least-squares optimality: Aᵀ(Ax - b) = 0.
  Rng rng(6);
  const RealMatrix a = RealMatrix::random_normal(15, 4, rng);
  const RealMatrix b = RealMatrix::random_normal(15, 1, rng);
  const RealMatrix x = lstsq_qr(a.view(), b.view());
  RealMatrix residual = b;
  gemm(Trans::kNo, Trans::kNo, -1.0, a.view(), x.view(), 1.0,
       residual.view());
  const RealMatrix atr =
      gemm(Trans::kYes, Trans::kNo, a.view(), residual.view());
  EXPECT_LT(max_abs(atr.view()), 1e-10);
}

TEST(Lstsq, SolveGramFromRightMatchesDirect) {
  // X (C Cᵀ) = B with well-conditioned C.
  Rng rng(7);
  const RealMatrix c = RealMatrix::random_normal(5, 30, rng);
  const RealMatrix cct = gemm(Trans::kNo, Trans::kYes, c.view(), c.view());
  const RealMatrix x_true = RealMatrix::random_normal(8, 5, rng);
  const RealMatrix b =
      gemm(Trans::kNo, Trans::kNo, x_true.view(), cct.view());
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-8);
}

TEST(Lstsq, SolveGramSurvivesRankDeficiency) {
  // Singular Gram matrix: the ridge fallback must not throw and must
  // satisfy the normal equations approximately.
  RealMatrix cct{{1, 1}, {1, 1}};  // rank 1
  RealMatrix b{{2, 2}};
  const RealMatrix x = solve_gram_from_right(b.view(), cct.view());
  const RealMatrix back =
      gemm(Trans::kNo, Trans::kNo, x.view(), cct.view());
  EXPECT_NEAR(back(0, 0), 2.0, 1e-5);
  EXPECT_NEAR(back(0, 1), 2.0, 1e-5);
}

}  // namespace
}  // namespace lrt::la
