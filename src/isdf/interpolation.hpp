// ISDF interpolation vectors (auxiliary basis functions).
//
// Given interpolation points, the vectors Θ = [ζ_1 … ζ_Nμ] solve the
// overdetermined system Z = Θ C in the least-squares (Galerkin) sense:
//   Θ = Z Cᵀ (C Cᵀ)⁻¹                                    (paper Eq 10)
// The separable structure of Z makes both products cheap without ever
// forming Z:
//   (Z Cᵀ)(r, μ)  = (Ψ Ψ_μᵀ)(r, μ) · (Φ Φ_μᵀ)(r, μ)
//   (C Cᵀ)(μ, ν) = (Ψ_μ Ψ_νᵀ)(μ, ν) · (Φ_μ Φ_νᵀ)(μ, ν)
// (elementwise products of thin GEMMs), the standard ISDF evaluation.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace lrt::isdf {

/// Fast separable evaluation of Θ for a row slab: `psi_v` / `psi_c` are
/// any contiguous rows of the orbitals (all Nr of them serially, a rank's
/// grid slab when distributed) and `psi_v_mu` / `psi_c_mu` the sampled
/// rows at the interpolation points (Nμ x Nv / Nc). Returns the matching
/// rows of Θ (slab rows x Nμ). C Cᵀ depends only on the samples, so every
/// slab solves against the same Gram matrix.
la::RealMatrix interpolation_vectors(la::RealConstView psi_v,
                                     la::RealConstView psi_c,
                                     la::RealConstView psi_v_mu,
                                     la::RealConstView psi_c_mu);

/// Reference implementation materializing Z (for validation tests).
la::RealMatrix interpolation_vectors_direct(la::RealConstView psi_v,
                                            la::RealConstView psi_c,
                                            const std::vector<Index>& points);

/// Relative Frobenius error ||Z - Θ C|| / ||Z|| of the decomposition,
/// evaluated column-exactly (forms Z; test/diagnostic use only).
Real isdf_relative_error(la::RealConstView psi_v, la::RealConstView psi_c,
                         const std::vector<Index>& points,
                         la::RealConstView theta);

}  // namespace lrt::isdf
