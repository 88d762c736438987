// Least-squares solvers.
//
// The ISDF interpolation vectors solve the overdetermined Galerkin system
// Θ = Z Cᵀ (C Cᵀ)⁻¹ (paper Eq 10). That normal-equations form is exposed
// directly (solve_normal_equations); a QR-based solver is provided for
// well-conditioned general problems and as the robust fallback.
#pragma once

#include "la/matrix.hpp"

namespace lrt::la {

/// Minimizes ||A X - B||_F via Householder QR (A is m x n, m >= n).
RealMatrix lstsq_qr(RealConstView a, RealConstView b);

/// Solves X (C Cᵀ) = B for X given C (i.e. X = B (C Cᵀ)⁻¹), regularizing
/// the Gram matrix with `ridge` * trace/n * I when Cholesky fails.
/// This matches the ISDF Eq (10) right-multiplication structure.
RealMatrix solve_gram_from_right(RealConstView b, RealConstView gram_matrix,
                                 Real ridge = 1e-12);

/// In-place form of solve_gram_from_right, bit for bit: overwrites `b`
/// with B G⁻¹ and keeps no copy of it. `gram` is G on entry; it is left
/// shifted by the ridge when that path runs. Returns true when
/// try_cholesky refused G and the ridge path ran.
bool solve_gram_from_right_in_place(RealView b, RealView gram,
                                    Real ridge = 1e-12);

}  // namespace lrt::la
