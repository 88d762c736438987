// Implicitly factored LR-TDDFT Hamiltonian (paper §4.3).
//
// H is never formed. Its action on a block X of trial excitation vectors
// (pair-ordered, Ncv x k) is
//   H X = D ∘ X + 2 Cᵀ (M (C X))
// and both C applications use the factored Khatri-Rao form of C
// (C = Ψ_μ ⊙ Φ_μ row-wise), so total storage is O(Nμ²) + O(Nμ(Nv+Nc))
// — the last line of paper Table 4.
//
//   (C x)(μ)   = Ψ_μ(μ,:) · Xmat · Φ_μ(μ,:)ᵀ     (Xmat: Nv x Nc reshape)
//   (Cᵀ w)     = Ψ_μᵀ diag(w) Φ_μ                (reshaped back to pairs)
//
// The pair space (iv, ic) may be partitioned over the ranks of a
// communicator by VALENCE blocks — rank r owns the pairs with iv in its
// block, all ic — so both factored applications stay local:
//   (C x)(μ)  = Σ_r Ψ_μ(:, block_r) Xmat_r Φ_μᵀ |_row μ   (one Allreduce)
//   (Cᵀ w)_r  = Ψ_μ(:, block_r)ᵀ diag(w) Φ_μ              (local)
// This distributes the excitation vectors X themselves — in the paper's
// large systems Nv·Nc reaches millions, so X cannot live on one rank.
// Without a communicator the caller holds every row; that is exactly the
// one-rank case.
#pragma once

#include <vector>

#include "isdf/isdf.hpp"
#include "la/matrix.hpp"
#include "par/comm.hpp"

namespace lrt::tddft {

class ImplicitHamiltonian {
 public:
  /// `d` is the full pair-ordered diagonal ε_c - ε_v (Nv·Nc); `m` the
  /// Nμ x Nμ kernel projection; the sampled orbitals (Nμ x Nv / Nc) are
  /// replicated. With `comm` this rank keeps its valence block of Ψ_μ and
  /// applies H to its pair rows only; collective by convention.
  ImplicitHamiltonian(std::vector<Real> d, la::RealMatrix m,
                      la::RealConstView psi_v_mu, la::RealConstView psi_c_mu,
                      par::Comm* comm = nullptr);

  /// Global pair dimension Nv·Nc.
  Index dimension() const { return static_cast<Index>(d_.size()); }
  /// Pair rows held by this rank, starting at global row `row_offset()`.
  Index local_dimension() const { return nv_local_ * nc(); }
  Index row_offset() const { return v_offset_ * nc(); }
  Index nmu() const { return m_.rows(); }
  Index nc() const { return psi_c_mu_.cols(); }
  /// Full (global) energy-difference diagonal.
  const std::vector<Real>& diagonal_d() const { return d_; }
  /// Null when this caller holds every row.
  par::Comm* comm() const { return comm_; }

  /// y_local = (H x)_local for a block of this rank's rows (local x k).
  void apply(la::RealConstView x, la::RealView y) const;

  /// w = C x (Nμ x k), summed over ranks; the first half of apply().
  la::RealMatrix apply_c(la::RealConstView x) const;

  /// This rank's rows of Cᵀ w (local x k); the second half of apply().
  la::RealMatrix apply_ct(la::RealConstView w) const;

  /// Estimated resident bytes of the factored representation.
  double memory_bytes() const;

 private:
  par::Comm* comm_;
  Index nv_local_ = 0;
  Index v_offset_ = 0;
  std::vector<Real> d_;
  la::RealMatrix m_;
  la::RealMatrix psi_v_mu_;  ///< Nμ x nv_local (this rank's columns)
  la::RealMatrix psi_c_mu_;  ///< Nμ x Nc
};

/// Convenience assembly from a decomposition + kernel projection.
ImplicitHamiltonian make_implicit_hamiltonian(
    std::vector<Real> d, const isdf::IsdfResult& isdf_result,
    la::RealMatrix m);

}  // namespace lrt::tddft
