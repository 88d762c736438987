// Kohn-Sham Hamiltonian, band solver, SCF, and synthetic orbitals.
#include <gtest/gtest.h>

#include <cmath>

#include "dft/hamiltonian.hpp"
#include "dft/lobpcg_gs.hpp"
#include "dft/scf.hpp"
#include "dft/synthetic.hpp"
#include "la/blas.hpp"
#include "la/ortho.hpp"
#include "obs/counters.hpp"

namespace lrt::dft {
namespace {

TEST(KsHamiltonian, FreeElectronEigenvaluesAreHalfG2) {
  // Zero potential: the exact lowest eigenvalues are ½|G|² sorted.
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(2 * constants::kPi),
                              {8, 8, 8});
  const grid::GVectors gv(g);
  KsHamiltonian h(g, gv);

  BandSolveOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 300;
  const la::LobpcgResult bands = solve_bands(h, 5, la::RealMatrix(), opts);

  std::vector<Real> expected(gv.g2_table());
  std::sort(expected.begin(), expected.end());
  for (Index j = 0; j < 5; ++j) {
    EXPECT_NEAR(bands.eigenvalues[static_cast<std::size_t>(j)],
                0.5 * expected[static_cast<std::size_t>(j)], 1e-6);
  }
}

TEST(KsHamiltonian, ApplyIsSymmetric) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(6.0), {6, 6, 6});
  const grid::GVectors gv(g);
  KsHamiltonian h(g, gv);
  // Random potential.
  Rng rng(2);
  std::vector<Real> v(static_cast<std::size_t>(g.size()));
  for (auto& x : v) x = rng.normal();
  h.set_potential(v);

  const la::RealMatrix x = la::RealMatrix::random_normal(g.size(), 2, rng);
  const la::RealMatrix y = la::RealMatrix::random_normal(g.size(), 2, rng);
  la::RealMatrix hx(g.size(), 2), hy(g.size(), 2);
  h.apply(x.view(), hx.view());
  h.apply(y.view(), hy.view());
  // <y, Hx> == <Hy, x> column-wise.
  for (Index j = 0; j < 2; ++j) {
    Real a = 0, b = 0;
    for (Index i = 0; i < g.size(); ++i) {
      a += y(i, j) * hx(i, j);
      b += hy(i, j) * x(i, j);
    }
    EXPECT_NEAR(a, b, 1e-8 * std::abs(a) + 1e-10);
  }
}

TEST(KsHamiltonian, KineticEnergyOfPlaneWave) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(2 * constants::kPi),
                              {8, 8, 8});
  const grid::GVectors gv(g);
  const KsHamiltonian h(g, gv);
  // ψ ∝ cos(x): mixture of G = ±1, kinetic energy = ½ for l2-normalized.
  std::vector<Real> psi(static_cast<std::size_t>(g.size()));
  Real norm = 0;
  for (Index i = 0; i < g.size(); ++i) {
    const grid::Vec3 r = g.position(i);
    psi[static_cast<std::size_t>(i)] = std::cos(r[0]);
    norm += psi[static_cast<std::size_t>(i)] * psi[static_cast<std::size_t>(i)];
  }
  norm = std::sqrt(norm);
  for (auto& x : psi) x /= norm;
  EXPECT_NEAR(h.kinetic_energy(psi.data()), 0.5, 1e-10);
}

TEST(KsHamiltonian, PreconditionerDampsHighFrequencies) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(2 * constants::kPi),
                              {8, 8, 8});
  const grid::GVectors gv(g);
  const KsHamiltonian h(g, gv);
  // A pure high-G plane wave must shrink much more than a low-G one.
  la::RealMatrix r(g.size(), 2);
  for (Index i = 0; i < g.size(); ++i) {
    const grid::Vec3 pos = g.position(i);
    r(i, 0) = std::cos(pos[0]);          // |G| = 1
    r(i, 1) = std::cos(4.0 * pos[0]);    // |G| = 4 (Nyquist)
  }
  const Real low_before = la::nrm2(&r(0, 0), 1);  // just magnitudes later
  (void)low_before;
  la::RealMatrix before = r;
  h.precondition(r.view(), {1.0, 1.0});
  Real low_ratio = 0, high_ratio = 0, low_norm = 0, high_norm = 0;
  for (Index i = 0; i < g.size(); ++i) {
    low_ratio += r(i, 0) * before(i, 0);
    low_norm += before(i, 0) * before(i, 0);
    high_ratio += r(i, 1) * before(i, 1);
    high_norm += before(i, 1) * before(i, 1);
  }
  EXPECT_GT(low_ratio / low_norm, 3.0 * high_ratio / high_norm);
}

// ----- two real columns per complex transform ---------------------------

/// Orthorhombic grid with odd and even sides: the -G map wraps differently
/// on each axis and the even axes have Nyquist planes (G == -G).
struct PairFixture {
  grid::RealSpaceGrid g{grid::UnitCell({7.0, 6.0, 5.0}), {15, 12, 10}};
  grid::GVectors gv{g};
  KsHamiltonian h{g, gv};
  std::vector<Real> veff;

  PairFixture() {
    Rng rng(3);
    veff.resize(static_cast<std::size_t>(g.size()));
    for (auto& x : veff) x = rng.normal();
    h.set_potential(veff);
  }

  /// Column j filtered on its own: FFT(ψ_j + 0i), times f(G), IFFT, real.
  template <class F>
  la::RealMatrix per_column(const la::RealMatrix& x, F f) const {
    const fft::Fft3D fft(15, 12, 10);
    la::RealMatrix y(x.rows(), x.cols());
    std::vector<fft::Complex> z(static_cast<std::size_t>(g.size()));
    for (Index j = 0; j < x.cols(); ++j) {
      for (Index i = 0; i < g.size(); ++i) {
        z[static_cast<std::size_t>(i)] = fft::Complex(x(i, j), 0);
      }
      fft.forward(z.data());
      for (Index i = 0; i < g.size(); ++i) {
        z[static_cast<std::size_t>(i)] *= f(j, gv.g2(i));
      }
      fft.inverse(z.data());
      for (Index i = 0; i < g.size(); ++i) {
        y(i, j) = z[static_cast<std::size_t>(i)].real();
      }
    }
    return y;
  }
};

void expect_close(const la::RealMatrix& got, const la::RealMatrix& want) {
  Real scale = 1, worst = 0;
  for (Index i = 0; i < want.rows(); ++i) {
    for (Index j = 0; j < want.cols(); ++j) {
      scale = std::max(scale, std::abs(want(i, j)));
      worst = std::max(worst, std::abs(got(i, j) - want(i, j)));
    }
  }
  EXPECT_LE(worst, 1e-12 * scale);
}

TEST(KsHamiltonian, PairedApplyMatchesPerColumn) {
  const PairFixture fx;
  for (const Index k : {1, 5, 24}) {
    Rng rng(static_cast<unsigned>(k));
    const la::RealMatrix psi = la::RealMatrix::random_normal(fx.g.size(), k, rng);
    la::RealMatrix got(fx.g.size(), k);
    fx.h.apply(psi.view(), got.view());
    la::RealMatrix want =
        fx.per_column(psi, [](Index, Real g2) { return Real{0.5} * g2; });
    for (Index i = 0; i < fx.g.size(); ++i) {
      for (Index j = 0; j < k; ++j) {
        want(i, j) += fx.veff[static_cast<std::size_t>(i)] * psi(i, j);
      }
    }
    expect_close(got, want);
  }
}

TEST(KsHamiltonian, PairedPreconditionMatchesPerColumn) {
  const PairFixture fx;
  for (const Index k : {1, 5, 24}) {
    Rng rng(static_cast<unsigned>(k + 100));
    la::RealMatrix r = la::RealMatrix::random_normal(fx.g.size(), k, rng);
    // A different kinetic scale per column, one of them below the clamp.
    std::vector<Real> ekin(static_cast<std::size_t>(k));
    for (Index j = 0; j < k; ++j) {
      ekin[static_cast<std::size_t>(j)] = j == 2 ? 1e-5 : 0.3 + 0.7 * j;
    }
    const la::RealMatrix want = fx.per_column(r, [&](Index j, Real g2) {
      const Real x =
          Real{0.5} * g2 / std::max(ekin[static_cast<std::size_t>(j)], 1e-3);
      const Real num = 27 + 18 * x + 12 * x * x + 8 * x * x * x;
      return num / (num + 16 * x * x * x * x);
    });
    fx.h.precondition(r.view(), ekin);
    expect_close(r, want);
  }
}

TEST(KsHamiltonian, WeightedKineticEnergyMatchesPerColumn) {
  const PairFixture fx;
  Rng rng(9);
  la::RealMatrix psi = la::RealMatrix::random_normal(fx.g.size(), 6, rng);
  const std::vector<Real> weights = {2.0, 0.0, 1.5, 0.25, 1e-3, 2.0};
  Real want = 0;
  std::vector<Real> column(static_cast<std::size_t>(fx.g.size()));
  for (Index j = 0; j < 6; ++j) {
    Real norm = 0;
    for (Index i = 0; i < fx.g.size(); ++i) norm += psi(i, j) * psi(i, j);
    for (Index i = 0; i < fx.g.size(); ++i) {
      psi(i, j) /= std::sqrt(norm);
      column[static_cast<std::size_t>(i)] = psi(i, j);
    }
    want += weights[static_cast<std::size_t>(j)] *
            fx.h.kinetic_energy(column.data());
  }
  obs::Counter& calls = obs::counter("fft.fft3d.calls");
  const long long before = calls.value();
  const Real got = fx.h.kinetic_energy(psi.view(), weights);
  // Five non-zero weights: two pairs and one single column.
  EXPECT_EQ(calls.value() - before, 3);
  EXPECT_NEAR(got, want, 1e-12 * want);
}

TEST(KsHamiltonian, ApplyMakesTwoTransformsPerColumnPair) {
  const PairFixture fx;
  obs::Counter& calls = obs::counter("fft.fft3d.calls");
  for (const Index k : {1, 2, 5, 24}) {
    Rng rng(static_cast<unsigned>(k));
    la::RealMatrix psi = la::RealMatrix::random_normal(fx.g.size(), k, rng);
    la::RealMatrix out(fx.g.size(), k);
    const Index expected = 2 * ((k + 1) / 2);
    long long before = calls.value();
    fx.h.apply(psi.view(), out.view());
    EXPECT_EQ(calls.value() - before, expected) << "apply, k=" << k;
    before = calls.value();
    fx.h.precondition(psi.view(), std::vector<Real>(static_cast<std::size_t>(k), 1.0));
    EXPECT_EQ(calls.value() - before, expected) << "precondition, k=" << k;
  }
}

TEST(Scf, Silicon8ConvergesWithGapAndNegativeEnergy) {
  ScfOptions opts;
  opts.ecut = 5.0;
  opts.num_conduction = 6;  // headroom above the smeared frontier
  opts.smearing = 0.005;
  opts.max_iterations = 40;
  opts.density_tolerance = 1e-5;
  const KohnShamResult ks =
      solve_ground_state(grid::make_silicon_supercell(1), opts);

  EXPECT_TRUE(ks.converged);
  EXPECT_EQ(ks.num_occupied, 16);
  EXPECT_EQ(static_cast<Index>(ks.eigenvalues.size()), 22);
  // Eigenvalues ascending.
  for (std::size_t i = 1; i < ks.eigenvalues.size(); ++i) {
    EXPECT_LE(ks.eigenvalues[i - 1], ks.eigenvalues[i] + 1e-10);
  }
  // Silicon has a positive KS gap (loose bounds at this small cutoff).
  EXPECT_GT(ks.band_gap, 0.0);
  EXPECT_LT(ks.band_gap, 0.5);
  // Binding: total energy well below zero.
  EXPECT_LT(ks.total_energy, -10.0);

  // Density integrates to the electron count.
  Real total = 0;
  for (const Real n : ks.density) total += n;
  EXPECT_NEAR(total * ks.grid.dv(), 32.0, 1e-6);

  // Orbitals dv-orthonormal.
  const Real dv = ks.grid.dv();
  const la::RealMatrix overlap = la::gram(ks.orbitals.view());
  for (Index i = 0; i < overlap.rows(); ++i) {
    for (Index j = 0; j < overlap.cols(); ++j) {
      const Real expected = (i == j) ? 1.0 / dv : 0.0;
      EXPECT_NEAR(overlap(i, j), expected, 1e-4 / dv);
    }
  }
}

TEST(Synthetic, OrbitalsAreOrthonormalAndLaddersOrdered) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(8.0), {12, 12, 12});
  SyntheticOptions opts;
  opts.num_centers = 8;
  const SyntheticOrbitals orbs = make_synthetic_orbitals(g, 6, 4, opts);

  const Real dv = g.dv();
  // dv-orthonormality within each block.
  const la::RealMatrix gv = la::gram(orbs.psi_v.view());
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j < 6; ++j) {
      EXPECT_NEAR(gv(i, j) * dv, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
  // Cross-block orthogonality.
  const la::RealMatrix cross = la::gemm(
      la::Trans::kYes, la::Trans::kNo, orbs.psi_v.view(), orbs.psi_c.view());
  EXPECT_LT(la::max_abs(cross.view()) * dv, 1e-9);

  // Energy ladders: ascending, gap respected.
  for (std::size_t i = 1; i < orbs.eps_v.size(); ++i) {
    EXPECT_LE(orbs.eps_v[i - 1], orbs.eps_v[i]);
  }
  EXPECT_LT(orbs.eps_v.back(), 0.0);
  EXPECT_GT(orbs.eps_c.front(), 0.0);
}

TEST(Synthetic, DeterministicForFixedSeed) {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(6.0), {10, 10, 10});
  const SyntheticOrbitals a = make_synthetic_orbitals(g, 3, 2);
  const SyntheticOrbitals b = make_synthetic_orbitals(g, 3, 2);
  EXPECT_LT(la::max_abs_diff(a.psi_v.view(), b.psi_v.view()), 0.0 + 1e-15);
}

}  // namespace
}  // namespace lrt::dft
