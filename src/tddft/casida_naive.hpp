// The Casida/TDA problem definition and the naive explicit Hamiltonian
// (paper §3, Algorithm 1).
//
// Under the Tamm-Dancoff approximation the LR-TDDFT Hamiltonian is
//   H = D + 2 Vhxc,                         (Eq 2)
//   D(ij, ij) = ε_ic - ε_iv,
//   Vhxc = Pvcᵀ f_Hxc Pvc                    (Eq 3)
// with Pvc the pair-product (face-splitting) matrix. The naive build
// materializes Pvc (O(Nv Nc Nr) memory), applies the kernel to all Nv·Nc
// pair densities (Nv·Nc FFTs) and contracts with one big GEMM — exactly
// the costs of paper Table 2.
#pragma once

#include <vector>

#include "grid/rsgrid.hpp"
#include "tddft/kernel.hpp"

namespace lrt::tddft {

/// Inputs to an LR-TDDFT calculation (from dft::solve_ground_state or
/// dft::make_synthetic_orbitals).
struct CasidaProblem {
  grid::RealSpaceGrid grid;
  la::RealMatrix psi_v;        ///< Nr x Nv, ∫ψψ dv = δ
  la::RealMatrix psi_c;        ///< Nr x Nc
  std::vector<Real> eps_v;     ///< ascending
  std::vector<Real> eps_c;
  std::vector<Real> ground_density;  ///< for the ALDA kernel

  Index nv() const { return psi_v.cols(); }
  Index nc() const { return psi_c.cols(); }
  Index ncv() const { return nv() * nc(); }
  Index nr() const { return grid.size(); }
};

/// Diagonal D of orbital-energy differences, pair-ordered (iv*Nc + ic).
std::vector<Real> energy_differences(const CasidaProblem& problem);

/// Explicit Nv·Nc x Nv·Nc Hamiltonian via Algorithm 1. Spans:
/// "pair_product", "fft" (kernel), "gemm".
la::RealMatrix build_hamiltonian_naive(const CasidaProblem& problem,
                                       const HxcKernel& kernel);

/// H = D + 2 Vhxc (Eq 2) from Vhxc = kernel_projection of the pair
/// products and the pair-ordered energy differences d, in place.
la::RealMatrix casida_hamiltonian(la::RealMatrix vhxc,
                                  const std::vector<Real>& d);

/// Dense diagonalization returning the lowest `num_states` excitation
/// energies and eigenvectors (ScaLAPACK::SYEVD stand-in; paper Alg 1
/// line 11). Span: "diag".
struct CasidaSolution {
  std::vector<Real> energies;       ///< lowest k excitation energies
  la::RealMatrix wavefunctions;     ///< Ncv x k eigenvector columns
};

CasidaSolution diagonalize_dense(const la::RealMatrix& hamiltonian,
                                 Index num_states);

}  // namespace lrt::tddft
