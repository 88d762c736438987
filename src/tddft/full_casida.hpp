// Full linear-response Casida problem — beyond the Tamm-Dancoff
// approximation (paper Eq 1).
//
// The full response Hamiltonian couples excitations and de-excitations:
//   H = [  D + 2V   2W  ]      with W = V for a real adiabatic kernel.
//       [ -2W      -D - 2V ]
// For real orbitals this non-Hermitian problem collapses to the symmetric
// half-size eigenproblem (Casida's Ω-matrix):
//   Ω = D^{1/2} (D + 4V) D^{1/2},   Ω Z = ω² Z,
// because A - B = D is diagonal. Excitation energies are ω = √(eigenvalue).
// Both the dense build and the implicitly factored ISDF form
//   Ω x = D² x + 4 D^{1/2} Cᵀ (M (C (D^{1/2} x)))
// are provided; the latter keeps the paper's O(Nμ²) memory footprint.
#pragma once

#include "tddft/casida_isdf.hpp"
#include "tddft/lobpcg_tddft.hpp"

namespace lrt::tddft {

/// Dense Ω matrix via the naive (explicit pair product) path.
la::RealMatrix build_omega_naive(const CasidaProblem& problem,
                                 const HxcKernel& kernel,
                                 obs::WallProfiler* profiler = nullptr);

/// Dense Ω matrix from an ISDF decomposition.
la::RealMatrix build_omega_isdf(const CasidaProblem& problem,
                                const isdf::IsdfResult& isdf_result,
                                const HxcKernel& kernel,
                                obs::WallProfiler* profiler = nullptr);

/// Implicit Ω operator with the factored ISDF kernel.
class ImplicitOmega {
 public:
  ImplicitOmega(std::vector<Real> d, la::RealMatrix m,
                la::RealConstView psi_v_mu, la::RealConstView psi_c_mu);

  Index dimension() const { return implicit_.dimension(); }
  const std::vector<Real>& diagonal_d() const { return implicit_.diagonal_d(); }

  /// y = Ω x (block).
  void apply(la::RealConstView x, la::RealView y) const;

 private:
  ImplicitHamiltonian implicit_;  ///< carries C, M factors; D unused here
  std::vector<Real> d_;
  std::vector<Real> sqrt_d_;
};

struct FullCasidaSolution {
  std::vector<Real> energies;       ///< ω, ascending
  la::RealMatrix z_vectors;         ///< Ω eigenvectors (Ncv x k)
  Index iterations = 0;             ///< 0 for the dense path
};

/// Dense full-response solve (oracle / small systems).
FullCasidaSolution solve_full_casida_dense(const la::RealMatrix& omega,
                                           Index num_states);

/// Iterative LOBPCG solve of the implicit Ω (preconditioner (D² - θ)⁻¹).
FullCasidaSolution solve_full_casida_lobpcg(const ImplicitOmega& omega,
                                            const TddftEigenOptions& options);

}  // namespace lrt::tddft
