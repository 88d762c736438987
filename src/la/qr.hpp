// Householder QR factorization (unpivoted).
//
// Factors are stored LAPACK-style: R in the upper triangle of `a`,
// Householder vectors below the diagonal with implicit unit leading entry,
// scalar factors in `tau`. H_j = I - tau_j v_j v_jᵀ and
// Q = H_0 H_1 ... H_{n-1}.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace lrt::la {

struct QrFactors {
  RealMatrix a;            ///< packed R + Householder vectors (m x n)
  std::vector<Real> tau;   ///< n scalar reflector factors
};

/// Factor an m x n matrix, m >= n required.
QrFactors qr_factor(RealConstView a);

/// Forms the leading `ncols` columns of Q (m x ncols). ncols <= m.
RealMatrix qr_form_q(const QrFactors& f, Index ncols);

/// Extracts the n x n upper-triangular R.
RealMatrix qr_form_r(const QrFactors& f);

/// Applies Qᵀ in place to an m x k right-hand-side block: b := Qᵀ b.
void qr_apply_qt(const QrFactors& f, RealView b);

/// Applies Q in place: b := Q b.
void qr_apply_q(const QrFactors& f, RealView b);

// Triangular solves. The left solves update whole rows of b
// (b_i += (-t_ip) * b_p, which rounds exactly like b_i - t_ip * b_p,
// then divide), so every inner loop is contiguous; each element of b
// sees the same operations, in the same order, as the textbook
// element-wise substitution.

/// Solves the n x n upper-triangular system R x = b in place on the
/// leading n rows of b (b has m >= n rows; trailing rows ignored).
void solve_upper_triangular(RealConstView r, RealView b);

/// Solves the lower-triangular system L x = b in place.
void solve_lower_triangular(RealConstView l, RealView b);

/// Solves Lᵀ x = b in place given lower-triangular L.
void solve_lower_transposed(RealConstView l, RealView b);

/// What solve_right applies to the rows of a.
enum class RightSolve {
  kLowerTransposed,  ///< a := a L⁻ᵀ
  kCholesky,         ///< a := a L⁻ᵀ L⁻¹ = a (L Lᵀ)⁻¹
};

/// Right-side solve with lower-triangular L (n x n) on an m x n block a,
/// in place. For n <= kBlockedOrderCrossover (la/tuning.hpp) bit for bit
/// the transpose of solve_lower_triangular(l, aᵀ) (followed, for
/// kCholesky, by solve_lower_transposed), without materializing aᵀ: rows
/// of a are substituted sixteen at a time through a small transposed
/// tile. Above it the sweeps are blocked: each block column of a takes a
/// gemm update from the columns already solved, and only the diagonal
/// blocks are substituted element-wise.
void solve_right(RealConstView l, RealView a, RightSolve what);

}  // namespace lrt::la
