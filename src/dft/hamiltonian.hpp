// Kohn-Sham Hamiltonian on the plane-wave grid.
//
// H ψ = -½∇²ψ + V_eff(r) ψ with the kinetic term applied in reciprocal
// space (diagonal ½|G|²) and the effective potential in real space —
// the standard dual-space application that makes the FFT the workhorse.
// Orbitals are real-valued columns (Γ-point calculation), so apply() and
// precondition() filter two columns per complex transform
// (fft/real_columns.hpp) in the calling thread's work array.
#pragma once

#include <vector>

#include <memory>

#include "dft/pseudopotential.hpp"
#include "fft/fft3d.hpp"
#include "grid/gvectors.hpp"
#include "la/matrix.hpp"

namespace lrt::dft {

class KsHamiltonian {
 public:
  KsHamiltonian(const grid::RealSpaceGrid& grid,
                const grid::GVectors& gvectors);

  /// Sets the effective potential V_loc + V_H + V_xc (size Nr).
  void set_potential(std::vector<Real> veff);
  const std::vector<Real>& potential() const { return veff_; }

  /// Attaches the Kleinman-Bylander nonlocal part (may be null).
  void set_nonlocal(std::shared_ptr<const NonlocalProjectors> nonlocal) {
    nonlocal_ = std::move(nonlocal);
  }
  const NonlocalProjectors* nonlocal() const { return nonlocal_.get(); }

  Index grid_size() const { return nr_; }

  /// out = H * psi for a block of orbital columns (Nr x k).
  void apply(la::RealConstView psi, la::RealView out) const;

  /// Kinetic energy ⟨ψ|-½∇²|ψ⟩ of a single l2-normalized column.
  Real kinetic_energy(const Real* psi) const;

  /// Weighted kinetic energy Σ_j w_j ⟨ψ_j|-½∇²|ψ_j⟩ of l2-normalized
  /// columns (w_j >= 0; zero-weight columns are skipped), two columns per
  /// transform.
  Real kinetic_energy(la::RealConstView psi,
                      const std::vector<Real>& weights) const;

  /// Teter-Payne-Allan-style kinetic preconditioner applied to a residual
  /// block in place, with per-column kinetic scale `ekin`.
  void precondition(la::RealView r, const std::vector<Real>& ekin) const;

 private:
  Index nr_;
  fft::Fft3D fft_;
  std::vector<Real> half_g2_;  ///< ½|G|² table
  std::vector<Real> veff_;
  std::shared_ptr<const NonlocalProjectors> nonlocal_;

  /// Σ_j w_j ⟨ψ_j|-½∇²|ψ_j⟩ over k strided columns (element i of column
  /// j at psi[i * ld + j]).
  Real kinetic_sum(const Real* psi, Index k, Index ld,
                   const Real* weights) const;
};

}  // namespace lrt::dft
