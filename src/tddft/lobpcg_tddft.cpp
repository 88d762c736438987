#include "tddft/lobpcg_tddft.hpp"

#include <algorithm>
#include <cmath>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "par/dist_lobpcg.hpp"

namespace lrt::tddft {
namespace {

/// Eq (17): divide each residual entry by (D_i - θ_j), regularized away
/// from zero so near-resonant entries do not explode. `d` points at the
/// diagonal entry of the caller's first row.
la::BlockPreconditioner make_gap_preconditioner(const Real* d) {
  return [d](la::RealView r, const std::vector<Real>& theta) {
    const Index n = r.rows();
    const Index k = r.cols();
    for (Index j = 0; j < k; ++j) {
      const Real t = theta[static_cast<std::size_t>(j)];
      for (Index i = 0; i < n; ++i) {
        Real gap = d[i] - t;
        const Real floor = Real{1e-2};
        if (std::abs(gap) < floor) gap = (gap < 0 ? -floor : floor);
        r(i, j) /= gap;
      }
    }
  };
}

/// LOBPCG on num_states plus up to as many guard columns (within the
/// 3k <= n limit, n global), trimmed to the leading num_states pairs. A
/// block edge that cuts a near-degenerate cluster (Si8's lowest six
/// excitations agree to 0.1 meV) makes the iteration count a roundoff
/// lottery; the guard columns keep the cluster inside the block, and only
/// the leading columns gate convergence. `d` is the full diagonal; the
/// operator acts on rows [row0, row0 + rows). With `comm` the solve is
/// par::dist_lobpcg over the ranks' row slabs, otherwise la::lobpcg.
la::LobpcgResult solve_guarded(const la::BlockOperator& apply,
                               const std::vector<Real>& d, Index row0,
                               Index rows, par::Comm* comm,
                               const TddftEigenOptions& options) {
  const Index k = options.num_states;
  const Index n = static_cast<Index>(d.size());
  const Index columns = std::max(k, std::min(2 * k, n / 3));
  la::LobpcgOptions opts;
  opts.max_iterations = options.max_iterations;
  opts.tolerance = options.tolerance;
  opts.converged_columns = k;
  la::RealMatrix x0 =
      casida_initial_guess(d, columns, options.seed, row0, rows);
  const la::BlockPreconditioner prec = make_gap_preconditioner(d.data() + row0);
  la::LobpcgResult r =
      comm != nullptr
          ? par::dist_lobpcg(*comm, apply, prec, std::move(x0), opts)
          : la::lobpcg(apply, prec, std::move(x0), opts);
  r.eigenvalues.resize(static_cast<std::size_t>(k));
  r.residual_norms.resize(static_cast<std::size_t>(k));
  r.eigenvectors = la::to_matrix<Real>(r.eigenvectors.view().cols_block(0, k));
  return r;
}

}  // namespace

la::RealMatrix casida_initial_guess(const std::vector<Real>& d, Index k,
                                    unsigned seed, Index row0, Index rows) {
  const Index n = static_cast<Index>(d.size());
  std::vector<Index> order(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return d[static_cast<std::size_t>(a)] < d[static_cast<std::size_t>(b)];
  });
  Rng rng(seed);
  la::RealMatrix x(rows, k);
  for (Index j = 0; j < k; ++j) {
    const Index hot = order[static_cast<std::size_t>(j)];
    for (Index i = 0; i < n; ++i) {
      const Real noise = Real{0.01} * rng.normal();
      if (i >= row0 && i < row0 + rows) {
        x(i - row0, j) = noise + (i == hot ? Real{1} : Real{0});
      }
    }
  }
  return x;
}

la::LobpcgResult solve_casida_lobpcg(const ImplicitHamiltonian& h,
                                     const TddftEigenOptions& options) {
  la::BlockOperator apply = [&h](la::RealConstView x, la::RealView y) {
    h.apply(x, y);
  };
  return solve_guarded(apply, h.diagonal_d(), h.row_offset(),
                       h.local_dimension(), h.comm(), options);
}

la::DavidsonResult solve_casida_davidson(const ImplicitHamiltonian& h,
                                         const TddftEigenOptions& options) {
  LRT_CHECK(h.comm() == nullptr, "the Davidson solve is serial only");
  const std::vector<Real>& d = h.diagonal_d();
  la::BlockOperator apply = [&h](la::RealConstView x, la::RealView y) {
    h.apply(x, y);
  };
  la::DavidsonOptions opts;
  opts.max_iterations = options.max_iterations;
  opts.tolerance = options.tolerance;
  return la::davidson(apply, make_gap_preconditioner(d.data()),
                      casida_initial_guess(d, options.num_states, options.seed,
                                           0, h.dimension()),
                      opts);
}

la::LobpcgResult solve_casida_lobpcg_dense(const la::RealMatrix& h,
                                           const std::vector<Real>& d,
                                           const TddftEigenOptions& options) {
  la::BlockOperator apply = [&h](la::RealConstView x, la::RealView y) {
    la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, h.view(), x, Real{0},
             y);
  };
  return solve_guarded(apply, d, 0, static_cast<Index>(d.size()), nullptr,
                       options);
}

}  // namespace lrt::tddft
