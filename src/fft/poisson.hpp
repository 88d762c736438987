// Reciprocal-space Poisson (Hartree) solver.
//
// Given a charge density n(r) on the periodic grid, the Hartree potential
// solves ∇² v_H = -4π n, i.e. v_H(G) = 4π n(G) / |G|² with the G = 0
// component set to zero (charge-neutralizing background). The |G|² table
// in FFT index layout is supplied by the grid module, keeping this module
// independent of lattice details.
#pragma once

#include <vector>

#include "fft/fft3d.hpp"

namespace lrt::fft {

class PoissonSolver {
 public:
  /// `g2` holds |G|² for every grid point in FFT layout; g2[0] must be the
  /// G = 0 entry (it is ignored). Keeps a reference-free copy.
  PoissonSolver(Fft3D fft, std::vector<Real> g2);

  Index size() const { return fft_.size(); }
  const Fft3D& fft() const { return fft_; }
  const std::vector<Real>& g2() const { return g2_; }

  /// Computes v_H from density in place on real arrays.
  void solve(const Real* density, Real* potential) const;

  /// Applies the Hartree kernel to an already-transformed density:
  /// rho_g[i] *= 4π/g2[i] (G = 0 zeroed).
  void apply_kernel_g(Complex* rho_g) const;

  /// Hartree energy  E_H = ½ ∫ n v_H  given both arrays and the volume
  /// element dv = Ω/Nr.
  Real energy(const Real* density, const Real* potential, Real dv) const;

  /// The Hartree kernel at flat G index i: 4π/|G|², 0 at G = 0 (even in
  /// G, so fft::apply_real_multiplier can pair real columns with it).
  Real kernel(Index i) const;

 private:
  Fft3D fft_;
  std::vector<Real> g2_;
};

}  // namespace lrt::fft
