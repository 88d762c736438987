#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/qr.hpp"

namespace lrt::la {
namespace {

/// (x, y) := (c x - s y, s x + c y), elementwise over n entries.
void rotate_rows(Real* __restrict x, Real* __restrict y, Real c, Real s,
                 Index n) {
#pragma omp simd
  for (Index k = 0; k < n; ++k) {
    const Real h = y[k];
    y[k] = s * x[k] + c * h;
    x[k] = c * x[k] - s * h;
  }
}

// Householder reduction of a real symmetric matrix to tridiagonal form
// with accumulated transformations. Ported from the Algol tred2 procedure
// (Bowdler, Martin, Reinsch, Wilkinson; Handbook for Automatic Computation)
// in its widely used C translation. On exit `v` holds the accumulated
// orthogonal matrix, `d` the diagonal and `e` the subdiagonal (e[0] = 0).
//
// The loops are reordered to walk rows of `v`: the symmetric product and
// the rank-2 update sweep row k of the lower triangle, and the
// accumulation runs the independent column reductions g[j] side by side.
// Every element still sees the textbook's operations in its order (sums
// over k ascending), so the result is bit for bit the column-oriented one.
void tred2(RealMatrix& v, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = v.rows();
  std::vector<Real> g(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (Index i = n - 1; i > 0; --i) {
    Real scale = 0.0;
    Real h = 0.0;
    for (Index k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (Index j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (Index k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      Real f = d[i - 1];
      const Real gi = f > 0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * gi;
      h -= f * gi;
      d[i - 1] = f - gi;

      // e := A d over the stored lower triangle, one row at a time: row k
      // finishes e[k] (its j < k part, then the diagonal) and adds its
      // j < k entries into e[j], which is e[j]'s next term in k order.
      for (Index k = 0; k < i; ++k) {
        v(k, i) = d[k];
        const Real* vk = v.row_ptr(k);
        Real sum = 0.0;
        for (Index j = 0; j < k; ++j) sum += vk[j] * d[j];
        e[k] = sum + vk[k] * d[k];
        const Real dk = d[k];
#pragma omp simd
        for (Index j = 0; j < k; ++j) e[j] += vk[j] * dk;
      }
      f = 0.0;
      for (Index j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const Real hh = f / (h + h);
      for (Index j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (Index k = 0; k < i; ++k) {
        Real* vk = v.row_ptr(k);
        const Real ek = e[k];
        const Real dk = d[k];
#pragma omp simd
        for (Index j = 0; j <= k; ++j) vk[j] -= (d[j] * ek + e[j] * dk);
      }
      for (Index j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (Index i = 0; i < n - 1; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const Real h = d[i + 1];
    if (h != 0.0) {
      for (Index k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      // g[j] = sum_k v(k, i+1) v(k, j) for every j <= i at once.
      std::fill(g.begin(), g.begin() + (i + 1), Real{0});
      for (Index k = 0; k <= i; ++k) {
        const Real* vk = v.row_ptr(k);
        const Real u = vk[i + 1];
#pragma omp simd
        for (Index j = 0; j <= i; ++j) g[j] += u * vk[j];
      }
      for (Index k = 0; k <= i; ++k) {
        Real* vk = v.row_ptr(k);
        const Real dk = d[k];
#pragma omp simd
        for (Index j = 0; j <= i; ++j) vk[j] -= g[j] * dk;
      }
    }
    for (Index k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (Index j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e), ported from the
// Algol tql2 procedure. `w` holds the eigenvectors as rows (w = vᵀ), so
// each plane rotation and the final sort move contiguous rows.
void tql2(RealMatrix& w, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = w.rows();
  for (Index i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  Real f = 0.0;
  Real tst1 = 0.0;
  const Real eps = std::numeric_limits<Real>::epsilon();

  for (Index l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    Index m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }

    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        LRT_CHECK(iter <= 60, "tql2 failed to converge at eigenvalue " << l);

        Real g = d[l];
        Real p = (d[l + 1] - g) / (2.0 * e[l]);
        Real r = std::hypot(p, Real{1});
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const Real dl1 = d[l + 1];
        Real h = g - d[l];
        for (Index i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        Real c = 1.0;
        Real c2 = c;
        Real c3 = c;
        const Real el1 = e[l + 1];
        Real s = 0.0;
        Real s2 = 0.0;
        for (Index i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          rotate_rows(w.row_ptr(i), w.row_ptr(i + 1), c, s, n);
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Sort eigenvalues ascending, permuting eigenvector rows alongside.
  for (Index i = 0; i < n - 1; ++i) {
    Index k = i;
    Real p = d[i];
    for (Index j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      std::swap_ranges(w.row_ptr(i), w.row_ptr(i) + n, w.row_ptr(k));
    }
  }
}

RealMatrix symmetrized_copy(RealConstView a) {
  LRT_CHECK(a.rows() == a.cols(), "syev needs a square matrix");
  RealMatrix m(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j <= i; ++j) {
      const Real avg = 0.5 * (a(i, j) + a(j, i));
      m(i, j) = avg;
      m(j, i) = avg;
    }
  }
  return m;
}

}  // namespace

EigResult syev(RealConstView a) {
  EigResult result;
  const Index n = a.rows();
  result.values.assign(static_cast<std::size_t>(n), Real{0});
  result.vectors = symmetrized_copy(a);
  if (n == 0) return result;
  if (n == 1) {
    result.values[0] = a(0, 0);
    result.vectors(0, 0) = 1.0;
    return result;
  }
  std::vector<Real> e(static_cast<std::size_t>(n), Real{0});
  tred2(result.vectors, result.values, e);
  RealMatrix w = transpose<Real>(result.vectors.view());
  tql2(w, result.values, e);
  result.vectors = transpose<Real>(w.view());
  return result;
}

std::vector<Real> syev_values(RealConstView a) { return syev(a).values; }

EigResult sygv(RealConstView a, RealConstView b) {
  LRT_CHECK(a.rows() == a.cols() && b.rows() == b.cols() &&
                a.rows() == b.rows(),
            "sygv shape mismatch");
  // B = L Lᵀ, solve (L⁻¹ A L⁻ᵀ) y = λ y, then x = L⁻ᵀ y.
  const RealMatrix l = cholesky(b);
  RealMatrix atilde = symmetrized_copy(a);
  // atilde := L⁻¹ atilde L⁻ᵀ
  solve_lower_triangular(l.view(), atilde.view());
  solve_right(l.view(), atilde.view(), RightSolve::kLowerTransposed);

  EigResult result = syev(atilde.view());
  // Back-transform eigenvectors: x = L⁻ᵀ y.
  solve_lower_transposed(l.view(), result.vectors.view());
  return result;
}

Real eig_residual(RealConstView a, const EigResult& result) {
  const Index n = a.rows();
  const Index k = result.vectors.cols();
  RealMatrix ax = gemm(Trans::kNo, Trans::kNo, a, result.vectors.view());
  Real worst = 0.0;
  for (Index j = 0; j < k; ++j) {
    Real sum = 0.0;
    for (Index i = 0; i < n; ++i) {
      const Real r = ax(i, j) - result.values[static_cast<std::size_t>(j)] *
                                    result.vectors(i, j);
      sum += r * r;
    }
    worst = std::max(worst, std::sqrt(sum));
  }
  return worst;
}

}  // namespace lrt::la
