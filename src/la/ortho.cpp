#include "la/ortho.hpp"

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/qr.hpp"

namespace lrt::la {

bool cholqr(RealView a) {
  const RealMatrix g = gram(a);
  RealMatrix l;
  if (!try_cholesky(g.view(), l)) {
    ortho_qr(a);
    return false;
  }
  solve_right(l.view(), a, RightSolve::kLowerTransposed);  // a := a L⁻ᵀ
  return true;
}

void cholqr2(RealView a) {
  cholqr(a);
  cholqr(a);
}

void ortho_qr(RealView a) {
  const QrFactors f = qr_factor(a);
  const RealMatrix q = qr_form_q(f, a.cols());
  copy(q.view(), a);
}

Real orthogonality_error(RealConstView q) {
  const RealMatrix g = gram(q);
  Real worst = 0.0;
  for (Index i = 0; i < g.rows(); ++i) {
    for (Index j = 0; j < g.cols(); ++j) {
      const Real target = (i == j) ? Real{1} : Real{0};
      worst = std::max(worst, std::abs(g(i, j) - target));
    }
  }
  return worst;
}

void project_out(RealConstView q, RealView x) {
  if (q.cols() == 0 || x.cols() == 0) return;
  LRT_CHECK(q.rows() == x.rows(), "project_out row mismatch");
  const RealMatrix coeff = gemm(Trans::kYes, Trans::kNo, q, x);
  gemm(Trans::kNo, Trans::kNo, Real{-1}, q, coeff.view(), Real{1}, x);
}

}  // namespace lrt::la
