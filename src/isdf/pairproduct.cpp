#include "isdf/pairproduct.hpp"

#include "common/error.hpp"

namespace lrt::isdf {

la::RealMatrix pair_product_matrix(la::RealConstView psi_v,
                                   la::RealConstView psi_c) {
  LRT_CHECK(psi_v.rows() == psi_c.rows(), "orbital grids differ");
  const Index nr = psi_v.rows();
  const Index nv = psi_v.cols();
  const Index nc = psi_c.cols();
  la::RealMatrix z(nr, nv * nc);
  for (Index r = 0; r < nr; ++r) {
    const Real* v = psi_v.row_ptr(r);
    const Real* c = psi_c.row_ptr(r);
    Real* out = z.row_ptr(r);
    for (Index iv = 0; iv < nv; ++iv) {
      const Real vv = v[iv];
      for (Index ic = 0; ic < nc; ++ic) {
        out[iv * nc + ic] = vv * c[ic];
      }
    }
  }
  return z;
}

la::RealMatrix coefficient_matrix(la::RealConstView psi_v,
                                  la::RealConstView psi_c,
                                  const std::vector<Index>& points) {
  LRT_CHECK(psi_v.rows() == psi_c.rows(), "orbital grids differ");
  const Index nmu = static_cast<Index>(points.size());
  const Index nv = psi_v.cols();
  const Index nc = psi_c.cols();
  la::RealMatrix c(nmu, nv * nc);
  for (Index m = 0; m < nmu; ++m) {
    const Index r = points[static_cast<std::size_t>(m)];
    LRT_CHECK(r >= 0 && r < psi_v.rows(), "point index out of grid");
    const Real* v = psi_v.row_ptr(r);
    const Real* cc = psi_c.row_ptr(r);
    Real* out = c.row_ptr(m);
    for (Index iv = 0; iv < nv; ++iv) {
      for (Index ic = 0; ic < nc; ++ic) {
        out[iv * nc + ic] = v[iv] * cc[ic];
      }
    }
  }
  return c;
}

la::RealMatrix sample_rows(la::RealConstView psi,
                           const std::vector<Index>& points) {
  const Index nmu = static_cast<Index>(points.size());
  la::RealMatrix s(nmu, psi.cols());
  for (Index m = 0; m < nmu; ++m) {
    const Index r = points[static_cast<std::size_t>(m)];
    LRT_CHECK(r >= 0 && r < psi.rows(), "point index out of grid");
    const Real* src = psi.row_ptr(r);
    Real* dst = s.row_ptr(m);
    for (Index j = 0; j < psi.cols(); ++j) dst[j] = src[j];
  }
  return s;
}

}  // namespace lrt::isdf
