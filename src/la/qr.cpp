#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/tuning.hpp"

namespace lrt::la {
namespace {

/// Computes a Householder reflector for the column x (length len) such that
/// (I - tau v vᵀ) x = (beta, 0, ..., 0)ᵀ with v(0) = 1.
/// On exit x[0] = beta and x[1:] = v[1:]. Returns tau (0 if x is already
/// collinear with e1).
Real make_reflector(Real* x, Index len) {
  if (len <= 1) return Real{0};
  const Real alpha = x[0];
  const Real xnorm = nrm2(x + 1, len - 1);
  if (xnorm == Real{0}) return Real{0};
  Real beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const Real tau = (beta - alpha) / beta;
  const Real inv = Real{1} / (alpha - beta);
  for (Index i = 1; i < len; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

/// Applies H = I - tau v vᵀ (v packed in column `col` of `a`, rows
/// [col..m), implicit leading 1) to columns [c0, c1) of `a`.
void apply_reflector_to_block(RealView a, Index col, Real tau, Index c0,
                              Index c1) {
  if (tau == Real{0}) return;
  const Index m = a.rows();
  for (Index j = c0; j < c1; ++j) {
    // w = vᵀ a(:, j)
    Real w = a(col, j);
    for (Index i = col + 1; i < m; ++i) w += a(i, col) * a(i, j);
    w *= tau;
    a(col, j) -= w;
    for (Index i = col + 1; i < m; ++i) a(i, j) -= w * a(i, col);
  }
}

void divide_row(Real* bi, Real d, Index k) {
#pragma omp simd
  for (Index j = 0; j < k; ++j) bi[j] /= d;
}

/// Rows of a that solve_right substitutes together, one per SIMD lane:
/// enough independent subtract chains to hide their latency.
constexpr Index kRightLanes = 16;

/// One substitution step on a transposed tile: lane row `ti` becomes
/// (ti - sum_p coef[p] * row p of `rows`) / d, p ascending over
/// [p0, p1), which must not include ti's own row. `ti` is restrict, so
/// its lanes stay in registers across the p loop. The avx2 clone has no
/// FMA, so nothing contracts `ti - c * tp` and the result matches the
/// scalar substitution bit for bit (an avx512f clone would contract).
/// No clones under TSan: the multi-versioned symbol's IFUNC resolver runs
/// during relocation, before the TSan runtime is up, and segfaults every
/// binary that links this TU.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx2", "default")))
#endif
#endif
void substitute_lanes(Real* __restrict ti, const Real* __restrict rows,
                      const Real* __restrict coef, Index p0, Index p1,
                      Real d) {
  for (Index p = p0; p < p1; ++p) {
    const Real c = coef[p];
    const Real* tp = rows + p * kRightLanes;
#pragma omp simd
    for (Index t = 0; t < kRightLanes; ++t) ti[t] -= c * tp[t];
  }
#pragma omp simd
  for (Index t = 0; t < kRightLanes; ++t) ti[t] /= d;
}

/// The element-wise right solve: a := a L⁻ᵀ (`forward`), then
/// a := a L⁻¹ (`backward`, reading L's columns as rows of `lt` = Lᵀ), on
/// rows of a substituted kRightLanes at a time through `tile`
/// (n · kRightLanes values).
void substitute_right(RealConstView l, RealConstView lt, RealView a,
                      bool forward, bool backward, Real* tile) {
  const Index n = l.cols();
  const Index m = a.rows();
  // The tile holds rows [r0, r0 + kRightLanes) of a transposed: entry
  // (c, t) is a(r0 + t, c), so each substitution step updates
  // kRightLanes independent rows with contiguous vector operations. In
  // the last, partial tile the spare lanes keep earlier values; they are
  // never copied back.
  for (Index r0 = 0; r0 < m; r0 += kRightLanes) {
    const Index w = std::min(kRightLanes, m - r0);
    for (Index t = 0; t < w; ++t) {
      const Real* src = a.row_ptr(r0 + t);
      for (Index c = 0; c < n; ++c) tile[c * kRightLanes + t] = src[c];
    }
    if (forward) {
      for (Index i = 0; i < n; ++i) {
        substitute_lanes(tile + i * kRightLanes, tile, l.row_ptr(i), 0, i,
                         l(i, i));
      }
    }
    if (backward) {
      for (Index i = n - 1; i >= 0; --i) {
        substitute_lanes(tile + i * kRightLanes, tile, lt.row_ptr(i), i + 1,
                         n, l(i, i));
      }
    }
    for (Index t = 0; t < w; ++t) {
      Real* dst = a.row_ptr(r0 + t);
      for (Index c = 0; c < n; ++c) dst[c] = tile[c * kRightLanes + t];
    }
  }
}

}  // namespace

QrFactors qr_factor(RealConstView a) {
  LRT_CHECK(a.rows() >= a.cols(),
            "qr_factor requires m >= n, got " << a.rows() << "x" << a.cols());
  QrFactors f;
  f.a = to_matrix(a);
  const Index n = a.cols();
  f.tau.assign(static_cast<std::size_t>(n), Real{0});
  RealView packed = f.a.view();
  const Index m = a.rows();

  std::vector<Real> column(static_cast<std::size_t>(m));
  for (Index k = 0; k < n; ++k) {
    const Index len = m - k;
    for (Index i = 0; i < len; ++i) column[i] = packed(k + i, k);
    const Real tau = make_reflector(column.data(), len);
    for (Index i = 0; i < len; ++i) packed(k + i, k) = column[i];
    f.tau[static_cast<std::size_t>(k)] = tau;
    apply_reflector_to_block(packed, k, tau, k + 1, n);
  }
  return f;
}

RealMatrix qr_form_q(const QrFactors& f, Index ncols) {
  const Index m = f.a.rows();
  const Index n = f.a.cols();
  LRT_CHECK(ncols >= 0 && ncols <= m, "ncols out of range");
  RealMatrix q(m, ncols);
  for (Index j = 0; j < std::min(ncols, m); ++j) q(j, j) = Real{1};
  // Q = H_0 ... H_{n-1}; apply reflectors in reverse to the identity.
  for (Index k = n - 1; k >= 0; --k) {
    const Real tau = f.tau[static_cast<std::size_t>(k)];
    if (tau == Real{0}) continue;
    RealView qv = q.view();
    for (Index j = 0; j < ncols; ++j) {
      Real w = qv(k, j);
      for (Index i = k + 1; i < m; ++i) w += f.a(i, k) * qv(i, j);
      w *= tau;
      qv(k, j) -= w;
      for (Index i = k + 1; i < m; ++i) qv(i, j) -= w * f.a(i, k);
    }
  }
  return q;
}

RealMatrix qr_form_r(const QrFactors& f) {
  const Index n = f.a.cols();
  RealMatrix r(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) r(i, j) = f.a(i, j);
  }
  return r;
}

void qr_apply_qt(const QrFactors& f, RealView b) {
  LRT_CHECK(b.rows() == f.a.rows(), "qr_apply_qt row mismatch");
  const Index m = f.a.rows();
  const Index n = f.a.cols();
  const Index k = b.cols();
  // Qᵀ = H_{n-1} ... H_0.
  for (Index col = 0; col < n; ++col) {
    const Real tau = f.tau[static_cast<std::size_t>(col)];
    if (tau == Real{0}) continue;
    for (Index j = 0; j < k; ++j) {
      Real w = b(col, j);
      for (Index i = col + 1; i < m; ++i) w += f.a(i, col) * b(i, j);
      w *= tau;
      b(col, j) -= w;
      for (Index i = col + 1; i < m; ++i) b(i, j) -= w * f.a(i, col);
    }
  }
}

void qr_apply_q(const QrFactors& f, RealView b) {
  LRT_CHECK(b.rows() == f.a.rows(), "qr_apply_q row mismatch");
  const Index m = f.a.rows();
  const Index n = f.a.cols();
  const Index k = b.cols();
  for (Index col = n - 1; col >= 0; --col) {
    const Real tau = f.tau[static_cast<std::size_t>(col)];
    if (tau == Real{0}) continue;
    for (Index j = 0; j < k; ++j) {
      Real w = b(col, j);
      for (Index i = col + 1; i < m; ++i) w += f.a(i, col) * b(i, j);
      w *= tau;
      b(col, j) -= w;
      for (Index i = col + 1; i < m; ++i) b(i, j) -= w * f.a(i, col);
    }
  }
}

void solve_upper_triangular(RealConstView r, RealView b) {
  const Index n = r.cols();
  LRT_CHECK(r.rows() >= n, "triangular matrix too short");
  LRT_CHECK(b.rows() >= n, "rhs too short");
  const Index k = b.cols();
  for (Index i = n - 1; i >= 0; --i) {
    const Real rii = r(i, i);
    LRT_CHECK(std::abs(rii) > Real{0}, "singular triangular factor at " << i);
    Real* bi = b.row_ptr(i);
    for (Index p = i + 1; p < n; ++p) axpy(-r(i, p), b.row_ptr(p), bi, k);
    divide_row(bi, rii, k);
  }
}

void solve_lower_triangular(RealConstView l, RealView b) {
  const Index n = l.cols();
  LRT_CHECK(l.rows() >= n && b.rows() >= n, "shape mismatch");
  const Index k = b.cols();
  for (Index i = 0; i < n; ++i) {
    const Real lii = l(i, i);
    LRT_CHECK(std::abs(lii) > Real{0}, "singular triangular factor at " << i);
    Real* bi = b.row_ptr(i);
    for (Index p = 0; p < i; ++p) axpy(-l(i, p), b.row_ptr(p), bi, k);
    divide_row(bi, lii, k);
  }
}

void solve_lower_transposed(RealConstView l, RealView b) {
  const Index n = l.cols();
  LRT_CHECK(l.rows() >= n && b.rows() >= n, "shape mismatch");
  const Index k = b.cols();
  for (Index i = n - 1; i >= 0; --i) {
    const Real lii = l(i, i);
    LRT_CHECK(std::abs(lii) > Real{0}, "singular triangular factor at " << i);
    Real* bi = b.row_ptr(i);
    for (Index p = i + 1; p < n; ++p) axpy(-l(p, i), b.row_ptr(p), bi, k);
    divide_row(bi, lii, k);
  }
}

void solve_right(RealConstView l, RealView a, RightSolve what) {
  const Index n = l.cols();
  LRT_CHECK(l.rows() >= n && a.cols() == n, "shape mismatch");
  for (Index i = 0; i < n; ++i) {
    LRT_CHECK(std::abs(l(i, i)) > Real{0},
              "singular triangular factor at " << i);
  }
  if (a.rows() == 0 || n == 0) return;
  const bool backward = what == RightSolve::kCholesky;
  std::vector<Real> tile(static_cast<std::size_t>(n * kRightLanes));
  if (n <= kBlockedOrderCrossover) {
    // The backward sweep reads L by columns; one transposed copy makes
    // those reads contiguous too.
    const RealMatrix lt = backward ? transpose(l) : RealMatrix();
    substitute_right(l, lt.view(), a, true, backward, tile.data());
    return;
  }
  // Left-looking over block columns J of width kOrderBlock: the gemm
  // subtracts the already solved columns' contribution, then the diagonal
  // block (order <= kOrderBlock) is substituted element-wise.
  // Forward, a := a L⁻ᵀ: X_J = (A_J - X_{<J} L_{J,<J}ᵀ) L_JJ⁻ᵀ.
  for (Index j0 = 0; j0 < n; j0 += kOrderBlock) {
    const Index w = std::min(kOrderBlock, n - j0);
    const RealView xj = a.cols_block(j0, w);
    if (j0 > 0) {
      gemm(Trans::kNo, Trans::kYes, Real{-1}, a.cols_block(0, j0),
           l.block(j0, 0, w, j0), Real{1}, xj);
    }
    substitute_right(l.block(j0, j0, w, w), RealConstView(), xj, true, false,
                     tile.data());
  }
  if (!backward) return;
  // Backward, a := a L⁻¹, last block first:
  // Y_J = (X_J - Y_{>J} L_{>J,J}) L_JJ⁻¹.
  for (Index j0 = (n - 1) / kOrderBlock * kOrderBlock; j0 >= 0;
       j0 -= kOrderBlock) {
    const Index w = std::min(kOrderBlock, n - j0);
    const Index rest = n - j0 - w;
    const RealView yj = a.cols_block(j0, w);
    if (rest > 0) {
      gemm(Trans::kNo, Trans::kNo, Real{-1}, a.cols_block(j0 + w, rest),
           l.block(j0 + w, j0, rest, w), Real{1}, yj);
    }
    // Only the diagonal block is read by columns; transpose just that.
    const RealMatrix ltj = transpose(l.block(j0, j0, w, w));
    substitute_right(l.block(j0, j0, w, w), ltj.view(), yj, false, true,
                     tile.data());
  }
}

}  // namespace lrt::la
