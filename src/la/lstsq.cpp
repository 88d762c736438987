#include "la/lstsq.hpp"

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/qr.hpp"

namespace lrt::la {

RealMatrix lstsq_qr(RealConstView a, RealConstView b) {
  LRT_CHECK(a.rows() == b.rows(), "lstsq_qr row mismatch");
  LRT_CHECK(a.rows() >= a.cols(), "lstsq_qr needs m >= n");
  const QrFactors f = qr_factor(a);
  RealMatrix qtb = to_matrix(b);
  qr_apply_qt(f, qtb.view());
  const RealMatrix r = qr_form_r(f);
  RealView head = qtb.view().rows_block(0, a.cols());
  solve_upper_triangular(r.view(), head);
  return to_matrix<Real>(head);
}

RealMatrix solve_gram_from_right(RealConstView b, RealConstView gram_matrix,
                                 Real ridge) {
  LRT_CHECK(gram_matrix.rows() == gram_matrix.cols(),
            "gram matrix must be square");
  LRT_CHECK(b.cols() == gram_matrix.rows(), "shape mismatch");
  const Index n = gram_matrix.rows();

  RealMatrix g = to_matrix(gram_matrix);
  RealMatrix l;
  if (!try_cholesky(g.view(), l)) {
    // Tikhonov-regularize: the ISDF Gram matrix C Cᵀ can be numerically
    // rank-deficient when clusters collapse; a tiny ridge keeps the
    // least-squares solution stable without visibly moving Θ.
    Real trace = 0.0;
    for (Index i = 0; i < n; ++i) trace += g(i, i);
    const Real shift = ridge * (trace > Real{0} ? trace / Real(n) : Real{1});
    for (Index i = 0; i < n; ++i) g(i, i) += shift;
    l = cholesky(g.view());
  }
  // X G = B with G = L Lᵀ  =>  X = B L⁻ᵀ L⁻¹.
  RealMatrix x = to_matrix(b);
  solve_right(l.view(), x.view(), RightSolve::kCholesky);
  return x;
}

}  // namespace lrt::la
