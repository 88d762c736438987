#include "tddft/dist_implicit.hpp"

#include <algorithm>
#include <cmath>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "par/dist_lobpcg.hpp"

namespace lrt::tddft {

DistImplicitHamiltonian::DistImplicitHamiltonian(
    par::Comm& comm, const std::vector<Real>& d_full, la::RealMatrix m,
    la::RealConstView psi_v_mu, la::RealConstView psi_c_mu)
    : comm_(&comm),
      nv_global_(psi_v_mu.cols()),
      nc_(psi_c_mu.cols()),
      m_(std::move(m)) {
  LRT_CHECK(static_cast<Index>(d_full.size()) == nv_global_ * nc_,
            "diagonal length must be Nv*Nc");
  LRT_CHECK(m_.rows() == psi_v_mu.rows() && m_.rows() == psi_c_mu.rows(),
            "sampled orbital Nμ mismatch");

  const par::BlockPartition part(nv_global_, comm.size());
  nv_local_ = part.count(comm.rank());
  v_offset_ = part.offset(comm.rank());

  psi_v_mu_local_ =
      la::to_matrix<Real>(psi_v_mu.cols_block(v_offset_, nv_local_));
  psi_c_mu_ = la::to_matrix<Real>(psi_c_mu);

  d_local_.assign(d_full.begin() + v_offset_ * nc_,
                  d_full.begin() + (v_offset_ + nv_local_) * nc_);
}

void DistImplicitHamiltonian::apply(la::RealConstView x_local,
                                    la::RealView y_local) const {
  const Index nl = local_dimension();
  const Index k = x_local.cols();
  const Index nmu = m_.rows();
  LRT_CHECK(x_local.rows() == nl && y_local.rows() == nl &&
                y_local.cols() == k,
            "distributed implicit apply shape mismatch");

  // w = C x: local contribution via the factored form, then Allreduce.
  // All k excitation columns are laid side by side so each of the two
  // tall contractions below is one GEMM over the concatenated block —
  // the per-column products are individually too small for the packed
  // kernel and would run k scalar-fallback calls instead.
  la::RealMatrix xmat_all(nv_local_, nc_ * k);
  for (Index l = 0; l < k; ++l) {
    for (Index iv = 0; iv < nv_local_; ++iv) {
      Real* dst = xmat_all.row_ptr(iv) + l * nc_;
      for (Index ic = 0; ic < nc_; ++ic) dst[ic] = x_local(iv * nc_ + ic, l);
    }
  }
  la::RealMatrix t_all(nmu, nc_ * k);
  la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, psi_v_mu_local_.view(),
           xmat_all.view(), Real{0}, t_all.view());
  la::RealMatrix w(nmu, k);
  for (Index l = 0; l < k; ++l) {
    for (Index mu = 0; mu < nmu; ++mu) {
      w(mu, l) =
          la::dot(t_all.row_ptr(mu) + l * nc_, psi_c_mu_.row_ptr(mu), nc_);
    }
  }
  comm_->allreduce(w.data(), w.size(), par::ReduceOp::kSum);

  // mw = M w (replicated small GEMM).
  const la::RealMatrix mw =
      la::gemm(la::Trans::kNo, la::Trans::kNo, m_.view(), w.view());

  // y = D∘x + 2 (Cᵀ mw)_local, all local.
  la::RealMatrix scaled_all(nmu, nc_ * k);
  for (Index l = 0; l < k; ++l) {
    for (Index mu = 0; mu < nmu; ++mu) {
      const Real wl = mw(mu, l);
      const Real* src = psi_c_mu_.row_ptr(mu);
      Real* dst = scaled_all.row_ptr(mu) + l * nc_;
      for (Index ic = 0; ic < nc_; ++ic) dst[ic] = wl * src[ic];
    }
  }
  const la::RealMatrix yv_all = la::gemm(
      la::Trans::kYes, la::Trans::kNo, psi_v_mu_local_.view(), scaled_all.view());
  for (Index l = 0; l < k; ++l) {
    for (Index iv = 0; iv < nv_local_; ++iv) {
      const Real* yv = yv_all.row_ptr(iv) + l * nc_;
      for (Index ic = 0; ic < nc_; ++ic) {
        const Index row = iv * nc_ + ic;
        y_local(row, l) = d_local_[static_cast<std::size_t>(row)] *
                              x_local(row, l) +
                          Real{2} * yv[ic];
      }
    }
  }
}

DistCasidaSolution solve_casida_lobpcg_distributed(
    par::Comm& comm, const DistImplicitHamiltonian& h,
    const TddftEigenOptions& options) {
  const Index k = options.num_states;
  const std::vector<Real>& d_local = h.local_d();
  const Index nl = h.local_dimension();

  // Global seeding identical on all ranks: gather the full diagonal,
  // pick the k smallest pairs, build the local slice of the unit-vector
  // + noise guess.
  const Index n_global = h.global_dimension();
  std::vector<Real> d_full(static_cast<std::size_t>(n_global));
  {
    const par::BlockPartition part(h.global_dimension() / h.nc(),
                                   comm.size());
    // Per-rank pair counts follow the valence-block partition.
    std::vector<Index> counts(static_cast<std::size_t>(comm.size()));
    std::vector<Index> displs(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      counts[static_cast<std::size_t>(r)] = part.count(r) * h.nc();
      displs[static_cast<std::size_t>(r)] = part.offset(r) * h.nc();
    }
    comm.allgatherv(d_local.data(), nl, d_full.data(), counts, displs);
  }
  std::vector<Index> order(static_cast<std::size_t>(n_global));
  for (Index i = 0; i < n_global; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return d_full[static_cast<std::size_t>(a)] <
           d_full[static_cast<std::size_t>(b)];
  });
  Rng rng(options.seed);
  const Index row0 = h.valence_offset() * h.nc();
  la::RealMatrix x0(nl, k);
  for (Index j = 0; j < k; ++j) {
    const Index hot = order[static_cast<std::size_t>(j)];
    for (Index gi = 0; gi < n_global; ++gi) {
      // Advance the RNG identically on every rank; keep local entries.
      const Real noise = Real{0.01} * rng.normal();
      if (gi >= row0 && gi < row0 + nl) {
        x0(gi - row0, j) = noise + (gi == hot ? Real{1} : Real{0});
      }
    }
  }

  par::DistBlockOperator apply = [&h](la::RealConstView x,
                                      la::RealView y) { h.apply(x, y); };
  par::DistBlockPreconditioner prec =
      [&d_local](la::RealView r, const std::vector<Real>& theta) {
        for (Index j = 0; j < r.cols(); ++j) {
          const Real t = theta[static_cast<std::size_t>(j)];
          for (Index i = 0; i < r.rows(); ++i) {
            Real gap = d_local[static_cast<std::size_t>(i)] - t;
            const Real floor = Real{1e-2};
            if (std::abs(gap) < floor) gap = gap < 0 ? -floor : floor;
            r(i, j) /= gap;
          }
        }
      };

  la::LobpcgOptions opts;
  opts.max_iterations = options.max_iterations;
  opts.tolerance = options.tolerance;
  la::LobpcgResult r =
      par::dist_lobpcg(comm, apply, prec, std::move(x0), opts);

  DistCasidaSolution solution;
  solution.energies = std::move(r.eigenvalues);
  solution.local_wavefunctions = std::move(r.eigenvectors);
  solution.iterations = r.iterations;
  solution.converged = r.converged;
  return solution;
}

}  // namespace lrt::tddft
