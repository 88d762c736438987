#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/tuning.hpp"

namespace lrt::la {
namespace {

/// Element-wise (dot-product) Cholesky of the lower triangle of `a`, in
/// place; the strict upper triangle is neither read nor written. Fails on
/// a pivot that is not above `min_pivot`.
bool factor_elementwise(RealView a, Real min_pivot) {
  const Index n = a.rows();
  for (Index j = 0; j < n; ++j) {
    Real diag = a(j, j);
    for (Index k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (!(diag > min_pivot)) return false;
    const Real ljj = std::sqrt(diag);
    a(j, j) = ljj;
    const Real inv = Real{1} / ljj;
    for (Index i = j + 1; i < n; ++i) {
      Real sum = a(i, j);
      for (Index k = 0; k < j; ++k) sum -= a(i, k) * a(j, k);
      a(i, j) = sum * inv;
    }
  }
  return true;
}

/// Left-looking blocked Cholesky: each block column of width kOrderBlock
/// takes one gemm update from the factored columns to its left, then its
/// diagonal block is factored element-wise and the slab below that block
/// is solved against it (solve_right at order <= kOrderBlock, so
/// element-wise). Leaves update products in the strict upper triangle of
/// the diagonal blocks; the caller zeroes it.
bool factor_blocked(RealView a, Real min_pivot) {
  const Index n = a.rows();
  for (Index j0 = 0; j0 < n; j0 += kOrderBlock) {
    const Index w = std::min(kOrderBlock, n - j0);
    if (j0 > 0) {
      const RealConstView left = a.block(j0, 0, n - j0, j0);
      gemm(Trans::kNo, Trans::kYes, Real{-1}, left, left.rows_block(0, w),
           Real{1}, a.block(j0, j0, n - j0, w));
    }
    const RealView diag = a.block(j0, j0, w, w);
    if (!factor_elementwise(diag, min_pivot)) return false;
    if (j0 + w < n) {
      solve_right(diag, a.block(j0 + w, j0, n - j0 - w, w),
                  RightSolve::kLowerTransposed);
    }
  }
  return true;
}

/// Factors in place, failing on a pivot that is not above `min_pivot`.
bool factor_in_place(RealMatrix& a, Real min_pivot) {
  const Index n = a.rows();
  const bool ok = n > kBlockedOrderCrossover
                      ? factor_blocked(a.view(), min_pivot)
                      : factor_elementwise(a.view(), min_pivot);
  if (!ok) return false;
  // Zero the strict upper triangle so the result is exactly L.
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) a(i, j) = Real{0};
  }
  return true;
}

}  // namespace

RealMatrix cholesky(RealConstView a) {
  LRT_CHECK(a.rows() == a.cols(), "cholesky needs a square matrix");
  RealMatrix l = to_matrix(a);
  LRT_CHECK(factor_in_place(l, Real{0}), "matrix is not positive definite");
  return l;
}

bool try_cholesky(RealConstView a, RealMatrix& l) {
  LRT_CHECK(a.rows() == a.cols(), "cholesky needs a square matrix");
  // A pivot at or below n·ε·max_i A_ii is roundoff of a numerically
  // singular matrix, not positive definiteness: an exact zero in one build
  // comes out as +1e-15 in another. The bound is taken from the input's
  // diagonal, so the blocked and element-wise paths share it.
  const Index n = a.rows();
  Real max_diag = 0;
  for (Index i = 0; i < n; ++i) max_diag = std::max(max_diag, a(i, i));
  l = to_matrix(a);
  return factor_in_place(
      l, static_cast<Real>(n) * std::numeric_limits<Real>::epsilon() * max_diag);
}

void cholesky_solve(RealConstView l, RealView b) {
  solve_lower_triangular(l, b);
  solve_lower_transposed(l, b);
}

RealMatrix solve_spd(RealConstView a, RealConstView b) {
  const RealMatrix l = cholesky(a);
  RealMatrix x = to_matrix(b);
  cholesky_solve(l.view(), x.view());
  return x;
}

RealMatrix spd_inverse(RealConstView a) {
  const Index n = a.rows();
  return solve_spd(a, RealMatrix::identity(n).view());
}

}  // namespace lrt::la
