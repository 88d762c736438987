// ISDF decomposition: pair products, point selection (QRCP plain vs
// randomized vs K-Means), interpolation vectors (fast vs direct), and the
// error-decay property that justifies the low-rank approximation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dft/synthetic.hpp"
#include "isdf/interpolation.hpp"
#include "isdf/isdf.hpp"
#include "isdf/pairproduct.hpp"
#include "la/blas.hpp"
#include "la/lstsq.hpp"
#include "obs/counters.hpp"

namespace lrt::isdf {
namespace {

struct OrbitalFixture {
  grid::RealSpaceGrid grid{grid::UnitCell::cubic(8.0), {10, 10, 10}};
  dft::SyntheticOrbitals orbs;
  OrbitalFixture() {
    dft::SyntheticOptions opts;
    opts.num_centers = 8;
    opts.seed = 77;
    orbs = dft::make_synthetic_orbitals(grid, 6, 4, opts);
  }
  la::RealConstView v() const { return orbs.psi_v.view(); }
  la::RealConstView c() const { return orbs.psi_c.view(); }
  /// Θ fitted on all rows at `points`.
  la::RealMatrix theta(const std::vector<Index>& points) const {
    return interpolation_vectors(v(), c(), sample_rows(v(), points).view(),
                                 sample_rows(c(), points).view());
  }
};

TEST(PairProduct, MatchesManualOuterProducts) {
  la::RealMatrix psi_v{{1, 2}, {3, 4}};
  la::RealMatrix psi_c{{5, 6, 7}, {8, 9, 10}};
  const la::RealMatrix z = pair_product_matrix(psi_v.view(), psi_c.view());
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 6);
  // Row 0: [1*5, 1*6, 1*7, 2*5, 2*6, 2*7].
  EXPECT_DOUBLE_EQ(z(0, 0), 5);
  EXPECT_DOUBLE_EQ(z(0, 2), 7);
  EXPECT_DOUBLE_EQ(z(0, 3), 10);
  EXPECT_DOUBLE_EQ(z(1, 5), 40);
  EXPECT_EQ(pair_index(1, 2, 3), 5);
}

TEST(PairProduct, CoefficientMatrixSamplesRows) {
  OrbitalFixture f;
  const std::vector<Index> points = {0, 5, 99};
  const la::RealMatrix z = pair_product_matrix(f.v(), f.c());
  const la::RealMatrix c = coefficient_matrix(f.v(), f.c(), points);
  for (std::size_t m = 0; m < points.size(); ++m) {
    for (Index j = 0; j < z.cols(); ++j) {
      EXPECT_DOUBLE_EQ(c(static_cast<Index>(m), j), z(points[m], j));
    }
  }
}

TEST(PairProduct, SampleRowsBoundsChecked) {
  OrbitalFixture f;
  EXPECT_THROW(sample_rows(f.v(), {f.grid.size()}), Error);
}

TEST(QrcpPoints, PlainAndRandomizedSelectValidPoints) {
  OrbitalFixture f;
  const Index nmu = 20;
  QrcpPointOptions plain;
  plain.randomized = false;
  const std::vector<Index> p1 = select_points_qrcp(f.v(), f.c(), nmu, plain);
  QrcpPointOptions rand_opts;
  rand_opts.randomized = true;
  const std::vector<Index> p2 =
      select_points_qrcp(f.v(), f.c(), nmu, rand_opts);

  for (const auto* pts : {&p1, &p2}) {
    EXPECT_EQ(pts->size(), static_cast<std::size_t>(nmu));
    std::set<Index> unique(pts->begin(), pts->end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(nmu));
    for (const Index p : *pts) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, f.grid.size());
    }
  }
}

TEST(QrcpPoints, RandomizedApproximatesPlainQuality) {
  // The two selections need not coincide, but the ISDF error they induce
  // must be comparable.
  OrbitalFixture f;
  const Index nmu = 18;
  QrcpPointOptions plain;
  plain.randomized = false;
  const auto p_plain = select_points_qrcp(f.v(), f.c(), nmu, plain);
  const auto p_rand = select_points_qrcp(f.v(), f.c(), nmu, {});
  const la::RealMatrix th_plain = f.theta(p_plain);
  const la::RealMatrix th_rand = f.theta(p_rand);
  const Real e_plain =
      isdf_relative_error(f.v(), f.c(), p_plain, th_plain.view());
  const Real e_rand =
      isdf_relative_error(f.v(), f.c(), p_rand, th_rand.view());
  EXPECT_LT(e_rand, std::max(2.0 * e_plain, 0.05));
}

TEST(Interpolation, FastMatchesDirect) {
  OrbitalFixture f;
  const auto points = select_points_qrcp(f.v(), f.c(), 15, {});
  const la::RealMatrix fast = f.theta(points);
  const la::RealMatrix direct =
      interpolation_vectors_direct(f.v(), f.c(), points);
  EXPECT_LT(la::max_abs_diff(fast.view(), direct.view()),
            1e-8 * (1.0 + la::max_abs(direct.view())));
}

TEST(Interpolation, ExactAtInterpolationPoints) {
  // The Galerkin solution reproduces Z exactly on the sampled rows when
  // the coefficient Gram matrix is well conditioned... in general it is a
  // least-squares fit; instead verify the stronger algebraic identity
  // (Θ C) Cᵀ = Z Cᵀ (the normal equations).
  OrbitalFixture f;
  const auto points = select_points_qrcp(f.v(), f.c(), 12, {});
  const la::RealMatrix theta = f.theta(points);
  const la::RealMatrix z = pair_product_matrix(f.v(), f.c());
  const la::RealMatrix c = coefficient_matrix(f.v(), f.c(), points);

  const la::RealMatrix zc =
      la::gemm(la::Trans::kNo, la::Trans::kYes, z.view(), c.view());
  const la::RealMatrix cct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
  const la::RealMatrix tcct =
      la::gemm(la::Trans::kNo, la::Trans::kNo, theta.view(), cct.view());
  EXPECT_LT(la::max_abs_diff(tcct.view(), zc.view()),
            1e-6 * (1.0 + la::max_abs(zc.view())));
}

TEST(Interpolation, InPlaceFitMatchesSeparableFormulaBitwise) {
  // The fit forms Z Cᵀ in its output, one conduction row chunk at a time,
  // and solves in place. Oracle: the whole-matrix formula it replaced.
  // 1000 rows leave a partial last chunk, and every product here is above
  // gemm's packed-path threshold, where chunked and whole gemms round
  // alike.
  OrbitalFixture f;
  const auto points = select_points_qrcp(f.v(), f.c(), 15, {});
  const la::RealMatrix vmu = sample_rows(f.v(), points);
  const la::RealMatrix cmu = sample_rows(f.c(), points);
  const la::RealMatrix av =
      la::gemm(la::Trans::kNo, la::Trans::kYes, f.v(), vmu.view());
  const la::RealMatrix ac =
      la::gemm(la::Trans::kNo, la::Trans::kYes, f.c(), cmu.view());
  la::RealMatrix zct(av.rows(), av.cols());
  for (Index r = 0; r < zct.rows(); ++r) {
    for (Index m = 0; m < zct.cols(); ++m) zct(r, m) = av(r, m) * ac(r, m);
  }
  const la::RealMatrix gv =
      la::gemm(la::Trans::kNo, la::Trans::kYes, vmu.view(), vmu.view());
  const la::RealMatrix gc =
      la::gemm(la::Trans::kNo, la::Trans::kYes, cmu.view(), cmu.view());
  la::RealMatrix cct(gv.rows(), gv.cols());
  for (Index m = 0; m < cct.rows(); ++m) {
    for (Index l = 0; l < cct.cols(); ++l) cct(m, l) = gv(m, l) * gc(m, l);
  }
  const la::RealMatrix want = la::solve_gram_from_right(zct.view(), cct.view());
  const la::RealMatrix got = f.theta(points);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (Index r = 0; r < want.rows(); ++r) {
    for (Index m = 0; m < want.cols(); ++m) {
      ASSERT_EQ(got(r, m), want(r, m)) << "(" << r << ", " << m << ")";
    }
  }
}

TEST(Interpolation, RidgeCounterCountsRefusedGramMatrices) {
  // A repeated interpolation point makes two rows of C equal, so C Cᵀ is
  // singular: try_cholesky refuses it and the ridge path runs once.
  OrbitalFixture f;
  obs::Counter& ridge = obs::counter("isdf.theta.ridge");
  const auto points = select_points_qrcp(f.v(), f.c(), 12, {});
  long long before = ridge.value();
  (void)f.theta(points);
  EXPECT_EQ(ridge.value() - before, 0) << "well-conditioned fit";

  std::vector<Index> repeated = points;
  repeated.back() = repeated.front();
  before = ridge.value();
  const la::RealMatrix theta = f.theta(repeated);
  EXPECT_EQ(ridge.value() - before, 1) << "repeated point";
  for (Index r = 0; r < theta.rows(); ++r) {
    for (Index m = 0; m < theta.cols(); ++m) {
      ASSERT_TRUE(std::isfinite(theta(r, m)));
    }
  }
}

TEST(Isdf, ErrorDecaysWithNmu) {
  // The core low-rank property (paper §4.1): more interpolation points,
  // smaller reconstruction error, reaching ~exact at Nμ = rank(Z) = Nv*Nc.
  OrbitalFixture f;
  Real previous = 1e9;
  for (const Index nmu : {6, 12, 24}) {
    const auto points = select_points_qrcp(f.v(), f.c(), nmu, {});
    const la::RealMatrix theta = f.theta(points);
    const Real error = isdf_relative_error(f.v(), f.c(), points, theta.view());
    EXPECT_LT(error, previous * 1.10) << "Nμ=" << nmu;
    previous = error;
  }
  // Near-full rank: error should be tiny (rank(Z) <= Nv*Nc = 24).
  QrcpPointOptions plain;
  plain.randomized = false;
  const auto points = select_points_qrcp(f.v(), f.c(), 24, plain);
  const la::RealMatrix theta = f.theta(points);
  EXPECT_LT(isdf_relative_error(f.v(), f.c(), points, theta.view()), 1e-6);
}

TEST(Isdf, KmeansAndQrcpReachSimilarAccuracy) {
  // The paper's claim: K-Means points are as good as QRCP points at a
  // fraction of the cost. Check the induced ISDF error is comparable.
  OrbitalFixture f;
  const Index nmu = 20;

  IsdfOptions qrcp_opts;
  qrcp_opts.nmu = nmu;
  qrcp_opts.method = PointMethod::kQrcp;
  const IsdfResult qrcp = isdf_decompose(f.grid, f.v(), f.c(), qrcp_opts);

  IsdfOptions km_opts;
  km_opts.nmu = nmu;
  km_opts.method = PointMethod::kKmeans;
  const IsdfResult km = isdf_decompose(f.grid, f.v(), f.c(), km_opts);

  const Real e_qrcp =
      isdf_relative_error(f.v(), f.c(), qrcp.points, qrcp.theta.view());
  const Real e_km =
      isdf_relative_error(f.v(), f.c(), km.points, km.theta.view());
  EXPECT_LT(e_qrcp, 0.3);
  EXPECT_LT(e_km, std::max(3.0 * e_qrcp, 0.3));
}

TEST(Isdf, DecomposeFillsAllFactors) {
  OrbitalFixture f;
  IsdfOptions opts;
  opts.nmu = 10;
  obs::PhaseAccumulator profiler;
  IsdfResult r;
  {
    const obs::PhaseScope scope(profiler);
    r = isdf_decompose(f.grid, f.v(), f.c(), opts);
  }
  EXPECT_EQ(r.nmu(), 10);
  EXPECT_EQ(r.c.rows(), 10);
  EXPECT_EQ(r.c.cols(), f.v().cols() * f.c().cols());
  EXPECT_EQ(r.theta.rows(), f.grid.size());
  EXPECT_EQ(r.theta.cols(), 10);
  EXPECT_EQ(r.psi_v_mu.rows(), 10);
  EXPECT_EQ(r.psi_c_mu.cols(), f.c().cols());
  EXPECT_GT(profiler.total("isdf.select_points"), 0.0);
  EXPECT_GT(profiler.total("isdf.interp_vectors"), 0.0);
}

}  // namespace
}  // namespace lrt::isdf
