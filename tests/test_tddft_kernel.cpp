// f_Hxc kernel application tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dft/xc.hpp"
#include "obs/counters.hpp"
#include "tddft/kernel.hpp"

namespace lrt::tddft {
namespace {

struct KernelFixture {
  grid::RealSpaceGrid grid{grid::UnitCell::cubic(8.0), {10, 10, 10}};
  grid::GVectors gvectors{grid};
  std::vector<Real> density;

  KernelFixture() {
    density.assign(static_cast<std::size_t>(grid.size()), 0.0);
    for (Index i = 0; i < grid.size(); ++i) {
      const grid::Vec3 r = grid.position(i);
      const grid::Vec3 d = grid.cell().minimum_image({4, 4, 4}, r);
      density[static_cast<std::size_t>(i)] =
          0.3 * std::exp(-grid::norm2(d) / 3.0) + 0.01;
    }
  }
};

TEST(HxcKernel, HartreeOnlyMatchesPoissonSolve) {
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density,
                         /*include_xc=*/false);
  // Apply to one test column.
  la::RealMatrix in(f.grid.size(), 1);
  for (Index i = 0; i < f.grid.size(); ++i) {
    in(i, 0) = f.density[static_cast<std::size_t>(i)];
  }
  la::RealMatrix out(f.grid.size(), 1);
  kernel.apply(in.view(), out.view());

  const fft::PoissonSolver poisson(
      fft::Fft3D(f.grid.shape()[0], f.grid.shape()[1], f.grid.shape()[2]),
      f.gvectors.g2_table());
  std::vector<Real> expected(static_cast<std::size_t>(f.grid.size()));
  poisson.solve(f.density.data(), expected.data());
  for (Index i = 0; i < f.grid.size(); i += 37) {
    EXPECT_NEAR(out(i, 0), expected[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(HxcKernel, XcPartIsDiagonalMultiply) {
  KernelFixture f;
  const HxcKernel with_xc(f.grid, f.gvectors, f.density, true);
  const HxcKernel without(f.grid, f.gvectors, f.density, false);

  Rng rng(1);
  la::RealMatrix in = la::RealMatrix::random_normal(f.grid.size(), 2, rng);
  la::RealMatrix out1(f.grid.size(), 2), out2(f.grid.size(), 2);
  with_xc.apply(in.view(), out1.view());
  without.apply(in.view(), out2.view());

  for (Index i = 0; i < f.grid.size(); i += 53) {
    for (Index j = 0; j < 2; ++j) {
      const Real fxc = dft::lda_fxc(f.density[static_cast<std::size_t>(i)]);
      EXPECT_NEAR(out1(i, j) - out2(i, j), fxc * in(i, j), 1e-10);
    }
  }
}

TEST(HxcKernel, OperatorIsSymmetricUnderGridInnerProduct) {
  // <f, K g> == <K f, g> — required for a symmetric Casida matrix.
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density, true);
  Rng rng(2);
  la::RealMatrix a = la::RealMatrix::random_normal(f.grid.size(), 1, rng);
  la::RealMatrix b = la::RealMatrix::random_normal(f.grid.size(), 1, rng);
  la::RealMatrix ka(f.grid.size(), 1), kb(f.grid.size(), 1);
  kernel.apply(a.view(), ka.view());
  kernel.apply(b.view(), kb.view());
  Real lhs = 0, rhs = 0;
  for (Index i = 0; i < f.grid.size(); ++i) {
    lhs += a(i, 0) * kb(i, 0);
    rhs += ka(i, 0) * b(i, 0);
  }
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1));
}

TEST(HxcKernel, PairedApplyMatchesPerColumnOracle) {
  // apply() pairs real columns in one complex transform; the oracle is
  // the per-column formula: one Poisson solve per column plus f_xc·f.
  KernelFixture f;
  const Index nr = f.grid.size();
  const fft::PoissonSolver poisson(
      fft::Fft3D(f.grid.shape()[0], f.grid.shape()[1], f.grid.shape()[2]),
      f.gvectors.g2_table());
  obs::Counter& calls = obs::counter("fft.fft3d.calls");
  Rng rng(3);
  for (const bool include_xc : {false, true}) {
    const HxcKernel kernel(f.grid, f.gvectors, f.density, include_xc);
    const std::vector<Real> fxc =
        include_xc ? dft::lda_fxc_array(f.density)
                   : std::vector<Real>(static_cast<std::size_t>(nr), 0.0);
    for (const Index k : {1, 2, 7, 108}) {
      // Both blocks sit inside wider storage (ld = k + 3).
      la::RealMatrix in_storage = la::RealMatrix::random_normal(nr, k + 3, rng);
      la::RealMatrix out_storage(nr, k + 3, -7.0);
      const la::RealConstView in = in_storage.view().block(0, 1, nr, k);
      const la::RealView out = out_storage.view().block(0, 2, nr, k);
      const long long before = calls.value();
      kernel.apply(in, out);
      EXPECT_EQ(calls.value() - before, 2 * ((k + 1) / 2))
          << "k=" << k << " xc=" << include_xc;

      std::vector<Real> column(static_cast<std::size_t>(nr));
      std::vector<Real> hartree(static_cast<std::size_t>(nr));
      Real worst = 0, scale = 0;
      for (Index j = 0; j < k; ++j) {
        for (Index i = 0; i < nr; ++i) {
          column[static_cast<std::size_t>(i)] = in(i, j);
        }
        poisson.solve(column.data(), hartree.data());
        for (Index i = 0; i < nr; ++i) {
          const std::size_t s = static_cast<std::size_t>(i);
          const Real want = hartree[s] + fxc[s] * column[s];
          worst = std::max(worst, std::abs(out(i, j) - want));
          scale = std::max(scale, std::abs(want));
        }
      }
      EXPECT_LE(worst, 1e-12 * scale) << "k=" << k << " xc=" << include_xc;
      for (Index i = 0; i < nr; ++i) {
        for (const Index j : {Index{0}, Index{1}, k + 2}) {
          ASSERT_EQ(out_storage(i, j), -7.0) << "padding (" << i << ", " << j
                                             << ")";
        }
      }
    }
  }
}

TEST(HxcKernel, InPlaceApplyIsBitIdentical) {
  // The streamed kernel projection applies the kernel in place on each
  // column slice. An odd column count leaves the last column unpaired.
  KernelFixture f;
  const Index nr = f.grid.size();
  Rng rng(11);
  for (const bool include_xc : {false, true}) {
    const HxcKernel kernel(f.grid, f.gvectors, f.density, include_xc);
    for (const Index k : {1, 5}) {
      const la::RealMatrix in = la::RealMatrix::random_normal(nr, k, rng);
      la::RealMatrix out(nr, k);
      kernel.apply(in.view(), out.view());
      la::RealMatrix in_place = in;
      kernel.apply(in_place.view(), in_place.view());
      for (Index i = 0; i < nr; ++i) {
        for (Index j = 0; j < k; ++j) {
          ASSERT_EQ(in_place(i, j), out(i, j))
              << "k=" << k << " xc=" << include_xc << " (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

TEST(HxcKernel, ShapeChecks) {
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density, true);
  la::RealMatrix in(5, 1), out(f.grid.size(), 1);
  EXPECT_THROW(kernel.apply(in.view(), out.view()), Error);
}

}  // namespace
}  // namespace lrt::tddft
