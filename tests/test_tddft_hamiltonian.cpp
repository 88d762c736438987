// Casida Hamiltonian construction: naive vs ISDF vs implicit consistency
// — the central correctness chain of the reproduction.
#include <gtest/gtest.h>

#include <cmath>

#include "dft/synthetic.hpp"
#include "isdf/pairproduct.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "par/layout.hpp"
#include "par/runtime.hpp"
#include "tddft/casida_isdf.hpp"
#include "tddft/driver.hpp"
#include "tddft/implicit_hamiltonian.hpp"

namespace lrt::tddft {
namespace {

CasidaProblem make_test_problem(Index nv = 5, Index nc = 4) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(8.0), {10, 10, 10});
  dft::SyntheticOptions opts;
  opts.num_centers = 8;
  opts.seed = 42;
  return make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, nv, nc, opts));
}

HxcKernel make_kernel(const CasidaProblem& p, bool xc = true) {
  const grid::GVectors gv(p.grid);
  return HxcKernel(p.grid, gv, p.ground_density, xc);
}

TEST(EnergyDifferences, PairOrderingAndValues) {
  CasidaProblem p = make_test_problem(2, 3);
  p.eps_v = {-0.4, -0.2};
  p.eps_c = {0.1, 0.2, 0.5};
  const std::vector<Real> d = energy_differences(p);
  ASSERT_EQ(d.size(), 6u);
  EXPECT_DOUBLE_EQ(d[0], 0.5);   // (iv=0, ic=0)
  EXPECT_DOUBLE_EQ(d[2], 0.9);   // (iv=0, ic=2)
  EXPECT_DOUBLE_EQ(d[3], 0.3);   // (iv=1, ic=0)
  EXPECT_DOUBLE_EQ(d[5], 0.7);
}

TEST(NaiveHamiltonian, IsSymmetricWithDOnDiagonalTail) {
  const CasidaProblem p = make_test_problem();
  const HxcKernel kernel = make_kernel(p);
  obs::PhaseAccumulator profiler;
  la::RealMatrix h;
  {
    const obs::PhaseScope scope(profiler);
    h = build_hamiltonian_naive(p, kernel);
  }

  EXPECT_EQ(h.rows(), p.ncv());
  for (Index i = 0; i < h.rows(); ++i) {
    for (Index j = 0; j < i; ++j) {
      EXPECT_NEAR(h(i, j), h(j, i), 1e-10);
    }
  }
  // Diagonal dominated by D (the Hxc correction is a fraction of it).
  const std::vector<Real> d = energy_differences(p);
  for (Index i = 0; i < h.rows(); ++i) {
    EXPECT_NEAR(h(i, i), d[static_cast<std::size_t>(i)],
                0.8 * std::abs(d[static_cast<std::size_t>(i)]) + 0.3);
  }
  EXPECT_GT(profiler.total("pair_product"), 0.0);
  EXPECT_GT(profiler.total("fft"), 0.0);
  EXPECT_GT(profiler.total("gemm"), 0.0);
}

TEST(IsdfHamiltonian, ConvergesToNaiveAsNmuGrows) {
  // The headline accuracy claim: with enough interpolation points the
  // ISDF Hamiltonian reproduces the naive one.
  const CasidaProblem p = make_test_problem();
  const HxcKernel kernel = make_kernel(p);
  const la::RealMatrix h_naive = build_hamiltonian_naive(p, kernel);

  Real previous = 1e9;
  for (const Index nmu : {8, 14, 20}) {
    isdf::IsdfOptions opts;
    opts.nmu = nmu;
    opts.method = isdf::PointMethod::kQrcp;
    const isdf::IsdfResult dec =
        isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
    const la::RealMatrix h_isdf = build_hamiltonian_isdf(p, dec, kernel);
    const Real err = la::max_abs_diff(h_naive.view(), h_isdf.view()) /
                     la::max_abs(h_naive.view());
    EXPECT_LT(err, previous * 1.5) << "Nμ=" << nmu;
    previous = err;
  }
  // At Nμ = Ncv (full rank) the two must coincide to solver precision.
  isdf::IsdfOptions full;
  full.nmu = p.ncv();
  full.method = isdf::PointMethod::kQrcp;
  full.qrcp.randomized = false;
  const isdf::IsdfResult dec =
      isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), full);
  const la::RealMatrix h_isdf = build_hamiltonian_isdf(p, dec, kernel);
  EXPECT_LT(la::max_abs_diff(h_naive.view(), h_isdf.view()), 5e-4);
}

TEST(KernelProjection, IsSymmetric) {
  const CasidaProblem p = make_test_problem();
  const HxcKernel kernel = make_kernel(p);
  isdf::IsdfOptions opts;
  opts.nmu = 12;
  const isdf::IsdfResult dec =
      isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
  const la::RealMatrix m = build_kernel_projection(dec, kernel);
  EXPECT_EQ(m.rows(), 12);
  for (Index i = 0; i < 12; ++i) {
    for (Index j = 0; j < i; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
    }
  }
}

/// The unstreamed formula: the kernel on all columns, one gemm, and the
/// averaged, dv-scaled symmetrization.
la::RealMatrix unstreamed_projection(const HxcKernel& kernel,
                                     const la::RealMatrix& f) {
  la::RealMatrix kf(f.rows(), f.cols());
  kernel.apply(f.view(), kf.view());
  la::RealMatrix m =
      la::gemm(la::Trans::kYes, la::Trans::kNo, f.view(), kf.view());
  const Real dv = kernel.dv();
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = i; j < m.cols(); ++j) {
      const Real avg = Real{0.5} * dv * (m(i, j) + m(j, i));
      m(i, j) = avg;
      m(j, i) = avg;
    }
  }
  return m;
}

/// max |a - b| / max |b|.
Real relative_diff(const la::RealMatrix& a, const la::RealMatrix& b) {
  return la::max_abs_diff(a.view(), b.view()) / la::max_abs(b.view());
}

TEST(KernelProjection, StreamedMatchesUnstreamedBitwise) {
  // 13 columns: four slices of widths 4, 4, 2, 3 (the odd one last), so
  // the slices keep the whole-matrix FFT pairing. 13² x 1000 is above
  // gemm's packed-path threshold, where slice and whole gemms round alike.
  const CasidaProblem p = make_test_problem();
  const HxcKernel kernel = make_kernel(p);
  Rng rng(5);
  const la::RealMatrix f = la::RealMatrix::random_normal(p.nr(), 13, rng);
  const la::RealMatrix want = unstreamed_projection(kernel, f);
  const auto expect_bitwise = [&](const la::RealMatrix& got,
                                  const char* what) {
    ASSERT_EQ(got.rows(), 13);
    ASSERT_EQ(got.cols(), 13);
    for (Index i = 0; i < 13; ++i) {
      for (Index j = 0; j < 13; ++j) {
        ASSERT_EQ(got(i, j), want(i, j)) << what << " (" << i << ", " << j
                                         << ")";
      }
    }
  };
  expect_bitwise(kernel_projection(kernel, f.view()), "no communicator");
  la::RealMatrix one_rank;
  par::run(1, [&](par::Comm& comm) {
    one_rank = kernel_projection(kernel, f.view(), &comm);
  });
  expect_bitwise(one_rank, "one rank");
}

class KernelProjectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(KernelProjectionSweep, RowSlabsMatchSerialProjection) {
  // 13 columns and 25 pairs divide by none of p = 2, 3, 4, and some rank
  // holds an odd column count at each p.
  const int p = GetParam();
  const CasidaProblem problem = make_test_problem(5, 5);
  const HxcKernel kernel = make_kernel(problem);
  Rng rng(9);
  const la::RealMatrix theta =
      la::RealMatrix::random_normal(problem.nr(), 13, rng);
  const la::RealMatrix serial_m = kernel_projection(kernel, theta.view());
  const la::RealMatrix serial_h = build_hamiltonian_naive(problem, kernel);
  const la::RealMatrix pairs = isdf::pair_product_matrix(
      problem.psi_v.view(), problem.psi_c.view());
  for (const Index pipeline_chunk : {Index{0}, Index{2}}) {
    par::run(p, [&](par::Comm& comm) {
      const par::BlockPartition rows(problem.nr(), comm.size());
      const Index r0 = rows.offset(comm.rank());
      const Index nr = rows.count(comm.rank());
      const la::RealMatrix m = kernel_projection(
          kernel, theta.view().rows_block(r0, nr), &comm, pipeline_chunk);
      EXPECT_LE(relative_diff(m, serial_m), 1e-12)
          << "p=" << p << " chunk=" << pipeline_chunk;
      const la::RealMatrix h = casida_hamiltonian(
          kernel_projection(kernel, pairs.view().rows_block(r0, nr), &comm,
                            pipeline_chunk),
          energy_differences(problem));
      EXPECT_LE(relative_diff(h, serial_h), 1e-12)
          << "naive H, p=" << p << " chunk=" << pipeline_chunk;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KernelProjectionSweep,
                         ::testing::Values(2, 3, 4));

TEST(ImplicitHamiltonian, ApplyMatchesExplicitIsdfMatrix) {
  const CasidaProblem p = make_test_problem();
  const HxcKernel kernel = make_kernel(p);
  isdf::IsdfOptions opts;
  opts.nmu = 16;
  const isdf::IsdfResult dec =
      isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
  const la::RealMatrix h_explicit = build_hamiltonian_isdf(p, dec, kernel);
  const la::RealMatrix m = build_kernel_projection(dec, kernel);
  const ImplicitHamiltonian h_implicit =
      make_implicit_hamiltonian(energy_differences(p), dec, m);

  Rng rng(3);
  const la::RealMatrix x = la::RealMatrix::random_normal(p.ncv(), 3, rng);
  la::RealMatrix y_implicit(p.ncv(), 3);
  h_implicit.apply(x.view(), y_implicit.view());
  const la::RealMatrix y_explicit =
      la::gemm(la::Trans::kNo, la::Trans::kNo, h_explicit.view(), x.view());
  EXPECT_LT(la::max_abs_diff(y_implicit.view(), y_explicit.view()),
            1e-9 * (1 + la::max_abs(y_explicit.view())));
}

TEST(ImplicitHamiltonian, FactoredCApplicationsMatchExplicitC) {
  const CasidaProblem p = make_test_problem(4, 3);
  isdf::IsdfOptions opts;
  opts.nmu = 10;
  const isdf::IsdfResult dec =
      isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
  la::RealMatrix m = la::RealMatrix::identity(10);
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(p), dec, std::move(m));

  Rng rng(4);
  const la::RealMatrix x = la::RealMatrix::random_normal(p.ncv(), 2, rng);
  const la::RealMatrix cx = h.apply_c(x.view());
  const la::RealMatrix cx_explicit =
      la::gemm(la::Trans::kNo, la::Trans::kNo, dec.c.view(), x.view());
  EXPECT_LT(la::max_abs_diff(cx.view(), cx_explicit.view()), 1e-10);

  const la::RealMatrix w = la::RealMatrix::random_normal(10, 2, rng);
  const la::RealMatrix ctw = h.apply_ct(w.view());
  const la::RealMatrix ctw_explicit =
      la::gemm(la::Trans::kYes, la::Trans::kNo, dec.c.view(), w.view());
  EXPECT_LT(la::max_abs_diff(ctw.view(), ctw_explicit.view()), 1e-10);
}

TEST(ImplicitHamiltonian, MemoryFootprintIsFactored) {
  const CasidaProblem p = make_test_problem(6, 5);
  isdf::IsdfOptions opts;
  opts.nmu = 12;
  const isdf::IsdfResult dec =
      isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
  const ImplicitHamiltonian h = make_implicit_hamiltonian(
      energy_differences(p), dec, la::RealMatrix::identity(12));
  // Factored storage ≈ Nμ² + Nμ(Nv+Nc) + NvNc words — far below the
  // explicit (NvNc)² matrix.
  const double explicit_bytes =
      sizeof(Real) * double(p.ncv()) * double(p.ncv());
  EXPECT_LT(h.memory_bytes(), explicit_bytes);
  EXPECT_EQ(h.dimension(), p.ncv());
  EXPECT_EQ(h.nmu(), 12);
}

TEST(DenseDiagonalization, ReturnsLowestStates) {
  la::RealMatrix h{{2, 0, 0}, {0, 1, 0}, {0, 0, 3}};
  const CasidaSolution s = diagonalize_dense(h, 2);
  ASSERT_EQ(s.energies.size(), 2u);
  EXPECT_NEAR(s.energies[0], 1.0, 1e-12);
  EXPECT_NEAR(s.energies[1], 2.0, 1e-12);
  EXPECT_EQ(s.wavefunctions.cols(), 2);
}

}  // namespace
}  // namespace lrt::tddft
