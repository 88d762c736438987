#include "isdf/interpolation.hpp"

#include <algorithm>

#include "isdf/pairproduct.hpp"
#include "la/blas.hpp"
#include "la/lstsq.hpp"
#include "obs/counters.hpp"

namespace lrt::isdf {

la::RealMatrix interpolation_vectors(la::RealConstView psi_v,
                                     la::RealConstView psi_c,
                                     la::RealConstView psi_v_mu,
                                     la::RealConstView psi_c_mu) {
  LRT_CHECK(psi_v.rows() == psi_c.rows(), "orbital grids differ");
  LRT_CHECK(psi_v_mu.rows() == psi_c_mu.rows() &&
                psi_v_mu.cols() == psi_v.cols() &&
                psi_c_mu.cols() == psi_c.cols(),
            "sampled orbital shapes do not match the orbitals");
  const Index nr = psi_v.rows();
  const Index nmu = psi_v_mu.rows();

  // Z Cᵀ via the separable Hadamard structure, formed in the output: the
  // valence factor Ψ Ψ_μᵀ first, then the conduction factor Φ Φ_μᵀ one row
  // chunk at a time, multiplied in. gemm_many always packs, so each chunk
  // rounds like the whole product's packed gemm.
  la::RealMatrix theta(nr, nmu);
  la::gemm(la::Trans::kNo, la::Trans::kYes, Real{1}, psi_v, psi_v_mu,
           Real{0}, theta.view());
  {
    constexpr Index kRowChunk = 128;
    la::RealMatrix ac(std::min(kRowChunk, nr), nmu);
    for (Index r0 = 0; r0 < nr; r0 += kRowChunk) {
      const Index rows = std::min(kRowChunk, nr - r0);
      const la::RealView ac_rows = ac.view().rows_block(0, rows);
      la::gemm_many(la::Trans::kNo, la::Trans::kYes, Real{1},
                    {{psi_c.rows_block(r0, rows), ac_rows}}, psi_c_mu,
                    Real{0});
      for (Index r = 0; r < rows; ++r) {
        const Real* c = ac_rows.row_ptr(r);
        Real* out = theta.row_ptr(r0 + r);
        for (Index m = 0; m < nmu; ++m) out[m] *= c[m];
      }
    }
  }

  // C Cᵀ likewise (Nμ x Nμ), formed in the valence factor.
  la::RealMatrix cct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, psi_v_mu, psi_v_mu);
  {
    const la::RealMatrix gc =
        la::gemm(la::Trans::kNo, la::Trans::kYes, psi_c_mu, psi_c_mu);
    for (Index m = 0; m < nmu; ++m) {
      for (Index l = 0; l < nmu; ++l) cct(m, l) *= gc(m, l);
    }
  }

  // Θ = (Z Cᵀ)(C Cᵀ)⁻¹ — SPD system solved from the right, in place.
  static obs::Counter& ridge = obs::counter("isdf.theta.ridge");
  if (la::solve_gram_from_right_in_place(theta.view(), cct.view())) {
    ridge.add(1);
  }
  return theta;
}

la::RealMatrix interpolation_vectors_direct(la::RealConstView psi_v,
                                            la::RealConstView psi_c,
                                            const std::vector<Index>& points) {
  const la::RealMatrix z = pair_product_matrix(psi_v, psi_c);
  const la::RealMatrix c = coefficient_matrix(psi_v, psi_c, points);
  const la::RealMatrix zct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, z.view(), c.view());
  const la::RealMatrix cct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
  return la::solve_gram_from_right(zct.view(), cct.view());
}

Real isdf_relative_error(la::RealConstView psi_v, la::RealConstView psi_c,
                         const std::vector<Index>& points,
                         la::RealConstView theta) {
  const la::RealMatrix z = pair_product_matrix(psi_v, psi_c);
  const la::RealMatrix c = coefficient_matrix(psi_v, psi_c, points);
  la::RealMatrix approx =
      la::gemm(la::Trans::kNo, la::Trans::kNo, theta, c.view());
  const Real denom = la::frobenius_norm(z.view());
  for (Index i = 0; i < z.rows(); ++i) {
    const Real* zr = z.row_ptr(i);
    Real* ar = approx.row_ptr(i);
    for (Index j = 0; j < z.cols(); ++j) ar[j] -= zr[j];
  }
  const Real num = la::frobenius_norm(approx.view());
  return denom > 0 ? num / denom : Real{0};
}

}  // namespace lrt::isdf
