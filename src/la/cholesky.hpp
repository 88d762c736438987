// Cholesky factorization and SPD solves.
#pragma once

#include "la/matrix.hpp"

namespace lrt::la {

/// Factors a symmetric positive-definite matrix A = L Lᵀ. Returns the
/// lower-triangular L (strict upper part zeroed). Throws lrt::Error if a
/// non-positive pivot is met. The result depends only on the lower
/// triangle of A. Orders above kBlockedOrderCrossover (la/tuning.hpp)
/// run a blocked, left-looking factorization whose updates go through
/// gemm.
RealMatrix cholesky(RealConstView a);

/// The rank-revealing variant: like cholesky() but returns false instead
/// of throwing when the matrix is not numerically positive definite, i.e.
/// when a pivot is not above n·ε·max_i A_ii (element-wise and blocked
/// factorization alike); `l` is left unspecified then. The threshold
/// makes the verdict on a singular Gram matrix independent of roundoff.
bool try_cholesky(RealConstView a, RealMatrix& l);

/// Solves A X = B given L from cholesky(A); B is overwritten with X.
void cholesky_solve(RealConstView l, RealView b);

/// One-call SPD solve: returns X with A X = B.
RealMatrix solve_spd(RealConstView a, RealConstView b);

/// Inverse of an SPD matrix via Cholesky (used for small Nμ x Nμ systems).
RealMatrix spd_inverse(RealConstView a);

}  // namespace lrt::la
