#include "tddft/implicit_hamiltonian.hpp"

#include "common/error.hpp"
#include "la/blas.hpp"
#include "par/layout.hpp"

namespace lrt::tddft {

ImplicitHamiltonian::ImplicitHamiltonian(std::vector<Real> d, la::RealMatrix m,
                                         la::RealConstView psi_v_mu,
                                         la::RealConstView psi_c_mu,
                                         par::Comm* comm)
    : comm_(comm),
      nv_local_(psi_v_mu.cols()),
      d_(std::move(d)),
      m_(std::move(m)),
      psi_c_mu_(la::to_matrix<Real>(psi_c_mu)) {
  LRT_CHECK(m_.rows() == m_.cols(), "kernel projection must be square");
  LRT_CHECK(psi_v_mu.rows() == m_.rows() && psi_c_mu.rows() == m_.rows(),
            "sampled orbital row counts must equal Nμ");
  LRT_CHECK(static_cast<Index>(d_.size()) == psi_v_mu.cols() * nc(),
            "diagonal length must be Nv*Nc");
  if (comm_ != nullptr) {
    const par::BlockPartition part(psi_v_mu.cols(), comm_->size());
    nv_local_ = part.count(comm_->rank());
    v_offset_ = part.offset(comm_->rank());
  }
  psi_v_mu_ = la::to_matrix<Real>(psi_v_mu.cols_block(v_offset_, nv_local_));
}

// Both halves lay the k excitation columns side by side, so each tall
// contraction is one GEMM over the concatenated block: the per-column
// products are individually too small for the packed kernel and would run
// k scalar-fallback calls instead.

la::RealMatrix ImplicitHamiltonian::apply_c(la::RealConstView x) const {
  const Index nc = this->nc();
  const Index nmu = this->nmu();
  const Index k = x.cols();
  LRT_CHECK(x.rows() == local_dimension(), "apply_c: pair dimension mismatch");

  la::RealMatrix xmat_all(nv_local_, nc * k);
  for (Index l = 0; l < k; ++l) {
    for (Index iv = 0; iv < nv_local_; ++iv) {
      Real* dst = xmat_all.row_ptr(iv) + l * nc;
      for (Index ic = 0; ic < nc; ++ic) dst[ic] = x(iv * nc + ic, l);
    }
  }
  la::RealMatrix t_all(nmu, nc * k);
  la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, psi_v_mu_.view(),
           xmat_all.view(), Real{0}, t_all.view());
  la::RealMatrix w(nmu, k);
  for (Index l = 0; l < k; ++l) {
    for (Index mu = 0; mu < nmu; ++mu) {
      w(mu, l) = la::dot(t_all.row_ptr(mu) + l * nc, psi_c_mu_.row_ptr(mu), nc);
    }
  }
  if (comm_ != nullptr) {
    comm_->allreduce(w.data(), w.size(), par::ReduceOp::kSum);
  }
  return w;
}

la::RealMatrix ImplicitHamiltonian::apply_ct(la::RealConstView w) const {
  const Index nc = this->nc();
  const Index nmu = this->nmu();
  const Index k = w.cols();
  LRT_CHECK(w.rows() == nmu, "apply_ct: Nμ mismatch");

  la::RealMatrix scaled_all(nmu, nc * k);
  for (Index l = 0; l < k; ++l) {
    for (Index mu = 0; mu < nmu; ++mu) {
      const Real wl = w(mu, l);
      const Real* src = psi_c_mu_.row_ptr(mu);
      Real* dst = scaled_all.row_ptr(mu) + l * nc;
      for (Index ic = 0; ic < nc; ++ic) dst[ic] = wl * src[ic];
    }
  }
  const la::RealMatrix yv_all = la::gemm(
      la::Trans::kYes, la::Trans::kNo, psi_v_mu_.view(), scaled_all.view());
  la::RealMatrix x(local_dimension(), k);
  for (Index l = 0; l < k; ++l) {
    for (Index iv = 0; iv < nv_local_; ++iv) {
      const Real* src = yv_all.row_ptr(iv) + l * nc;
      for (Index ic = 0; ic < nc; ++ic) x(iv * nc + ic, l) = src[ic];
    }
  }
  return x;
}

void ImplicitHamiltonian::apply(la::RealConstView x, la::RealView y) const {
  const Index n = local_dimension();
  const Index k = x.cols();
  LRT_CHECK(x.rows() == n && y.rows() == n && y.cols() == k,
            "implicit apply shape mismatch");

  const la::RealMatrix cx = apply_c(x);
  const la::RealMatrix mcx =
      la::gemm(la::Trans::kNo, la::Trans::kNo, m_.view(), cx.view());
  const la::RealMatrix ct = apply_ct(mcx.view());
  const Real* d = d_.data() + row_offset();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < k; ++j) {
      y(i, j) = d[i] * x(i, j) + Real{2} * ct(i, j);
    }
  }
}

double ImplicitHamiltonian::memory_bytes() const {
  return sizeof(Real) *
         (static_cast<double>(m_.size()) + psi_v_mu_.size() +
          psi_c_mu_.size() + static_cast<double>(d_.size()));
}

ImplicitHamiltonian make_implicit_hamiltonian(
    std::vector<Real> d, const isdf::IsdfResult& isdf_result,
    la::RealMatrix m) {
  return ImplicitHamiltonian(std::move(d), std::move(m),
                             isdf_result.psi_v_mu.view(),
                             isdf_result.psi_c_mu.view());
}

}  // namespace lrt::tddft
