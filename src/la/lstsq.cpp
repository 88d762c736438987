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
  RealMatrix x = to_matrix(b);
  RealMatrix g = to_matrix(gram_matrix);
  solve_gram_from_right_in_place(x.view(), g.view(), ridge);
  return x;
}

bool solve_gram_from_right_in_place(RealView b, RealView gram, Real ridge) {
  LRT_CHECK(gram.rows() == gram.cols(), "gram matrix must be square");
  LRT_CHECK(b.cols() == gram.rows(), "shape mismatch");
  const Index n = gram.rows();

  RealMatrix l;
  const bool refused = !try_cholesky(gram, l);
  if (refused) {
    // Tikhonov-regularize: the ISDF Gram matrix C Cᵀ can be numerically
    // rank-deficient when clusters collapse; a tiny ridge keeps the
    // least-squares solution stable without visibly moving Θ.
    Real trace = 0.0;
    for (Index i = 0; i < n; ++i) trace += gram(i, i);
    const Real shift = ridge * (trace > Real{0} ? trace / Real(n) : Real{1});
    for (Index i = 0; i < n; ++i) gram(i, i) += shift;
    l = cholesky(gram);
  }
  // X G = B with G = L Lᵀ  =>  X = B L⁻ᵀ L⁻¹.
  solve_right(l.view(), b, RightSolve::kCholesky);
  return refused;
}

}  // namespace lrt::la
