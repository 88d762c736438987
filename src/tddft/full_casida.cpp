#include "tddft/full_casida.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"

namespace lrt::tddft {
namespace {

/// Sandwiches a symmetric coupling matrix: Ω = D^{1/2}(D + 4V)D^{1/2}
/// given V (overwritten) and the diagonal D.
la::RealMatrix sandwich_omega(la::RealMatrix v, const std::vector<Real>& d) {
  const Index n = v.rows();
  std::vector<Real> sd(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const Real di = d[static_cast<std::size_t>(i)];
    LRT_CHECK(di > 0, "full Casida needs positive energy differences; pair "
                          << i << " has D = " << di);
    sd[static_cast<std::size_t>(i)] = std::sqrt(di);
  }
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      v(i, j) = sd[static_cast<std::size_t>(i)] * Real{4} * v(i, j) *
                sd[static_cast<std::size_t>(j)];
    }
    v(i, i) += d[static_cast<std::size_t>(i)] * d[static_cast<std::size_t>(i)];
  }
  return v;
}

/// Extracts the raw coupling V = Pᵀ f P dv from an already-built TDA
/// Hamiltonian H = D + 2V.
la::RealMatrix coupling_from_tda(const la::RealMatrix& h,
                                 const std::vector<Real>& d) {
  la::RealMatrix v = h;
  const Index n = v.rows();
  for (Index i = 0; i < n; ++i) v(i, i) -= d[static_cast<std::size_t>(i)];
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) v(i, j) *= Real{0.5};
  }
  return v;
}

}  // namespace

la::RealMatrix build_omega_naive(const CasidaProblem& problem,
                                 const HxcKernel& kernel,
                                 obs::WallProfiler* profiler) {
  const std::vector<Real> d = energy_differences(problem);
  const la::RealMatrix h = build_hamiltonian_naive(problem, kernel, profiler);
  return sandwich_omega(coupling_from_tda(h, d), d);
}

la::RealMatrix build_omega_isdf(const CasidaProblem& problem,
                                const isdf::IsdfResult& isdf_result,
                                const HxcKernel& kernel,
                                obs::WallProfiler* profiler) {
  const std::vector<Real> d = energy_differences(problem);
  const la::RealMatrix h =
      build_hamiltonian_isdf(problem, isdf_result, kernel, profiler);
  return sandwich_omega(coupling_from_tda(h, d), d);
}

ImplicitOmega::ImplicitOmega(std::vector<Real> d, la::RealMatrix m,
                             la::RealConstView psi_v_mu,
                             la::RealConstView psi_c_mu)
    : implicit_(d, std::move(m), psi_v_mu, psi_c_mu),
      d_(std::move(d)) {
  sqrt_d_.resize(d_.size());
  for (std::size_t i = 0; i < d_.size(); ++i) {
    LRT_CHECK(d_[i] > 0, "full Casida needs positive energy differences");
    sqrt_d_[i] = std::sqrt(d_[i]);
  }
}

void ImplicitOmega::apply(la::RealConstView x, la::RealView y) const {
  const Index n = dimension();
  const Index k = x.cols();
  LRT_CHECK(x.rows() == n && y.rows() == n && y.cols() == k,
            "implicit omega shape mismatch");

  // t = D^{1/2} x.
  la::RealMatrix t(n, k);
  for (Index i = 0; i < n; ++i) {
    const Real s = sqrt_d_[static_cast<std::size_t>(i)];
    for (Index j = 0; j < k; ++j) t(i, j) = s * x(i, j);
  }
  // Reuse the factored kernel through apply(): it returns D∘t + 2 CᵀMC t;
  // subtracting the diagonal part isolates the coupling term.
  la::RealMatrix full(n, k);
  implicit_.apply(t.view(), full.view());
  for (Index i = 0; i < n; ++i) {
    const Real di = d_[static_cast<std::size_t>(i)];
    const Real s = sqrt_d_[static_cast<std::size_t>(i)];
    for (Index j = 0; j < k; ++j) {
      const Real coupling = full(i, j) - di * t(i, j);  // = 2 CᵀMC t
      // Ω x = D² x + 4 D^{1/2} (CᵀMC) D^{1/2} x = D² x + 2 D^{1/2} coupling
      y(i, j) = di * di * x(i, j) + Real{2} * s * coupling;
    }
  }
}

FullCasidaSolution solve_full_casida_dense(const la::RealMatrix& omega,
                                           Index num_states) {
  LRT_CHECK(num_states >= 1 && num_states <= omega.rows(),
            "bad state count");
  const la::EigResult eig = la::syev(omega.view());
  FullCasidaSolution solution;
  for (Index i = 0; i < num_states; ++i) {
    const Real w2 = eig.values[static_cast<std::size_t>(i)];
    LRT_CHECK(w2 > 0, "negative ω² = " << w2
                                       << ": response instability (triplet "
                                          "or ghost state)");
    solution.energies.push_back(std::sqrt(w2));
  }
  solution.z_vectors =
      la::to_matrix<Real>(eig.vectors.view().cols_block(0, num_states));
  return solution;
}

FullCasidaSolution solve_full_casida_lobpcg(const ImplicitOmega& omega,
                                            const TddftEigenOptions& options) {
  const std::vector<Real>& d = omega.diagonal_d();
  const Index n = omega.dimension();

  la::BlockOperator apply = [&omega](la::RealConstView x, la::RealView y) {
    omega.apply(x, y);
  };
  // Preconditioner on the ω² scale: (D² - θ)⁻¹.
  la::BlockPreconditioner prec = [&d](la::RealView r,
                                      const std::vector<Real>& theta) {
    for (Index j = 0; j < r.cols(); ++j) {
      const Real t = theta[static_cast<std::size_t>(j)];
      for (Index i = 0; i < r.rows(); ++i) {
        const Real di = d[static_cast<std::size_t>(i)];
        Real gap = di * di - t;
        const Real floor = Real{1e-3};
        if (std::abs(gap) < floor) gap = gap < 0 ? -floor : floor;
        r(i, j) /= gap;
      }
    }
  };

  la::LobpcgOptions opts;
  opts.max_iterations = options.max_iterations;
  opts.tolerance = options.tolerance;
  // Seeded on the smallest D pairs, as in the TDA solver.
  const la::LobpcgResult r = la::lobpcg(
      apply, prec,
      casida_initial_guess(d, options.num_states, options.seed, 0, n), opts);

  FullCasidaSolution solution;
  for (const Real w2 : r.eigenvalues) {
    LRT_CHECK(w2 > 0, "negative ω² from iterative solve");
    solution.energies.push_back(std::sqrt(w2));
  }
  solution.z_vectors = la::to_matrix<Real>(r.eigenvectors.view());
  solution.iterations = r.iterations;
  return solution;
}

}  // namespace lrt::tddft
