#include "fft/poisson.hpp"

#include "common/error.hpp"
#include "fft/real_columns.hpp"

namespace lrt::fft {

PoissonSolver::PoissonSolver(Fft3D fft, std::vector<Real> g2)
    : fft_(std::move(fft)), g2_(std::move(g2)) {
  LRT_CHECK(static_cast<Index>(g2_.size()) == fft_.size(),
            "g2 table size " << g2_.size() << " != grid size " << fft_.size());
}

Real PoissonSolver::kernel(Index i) const {
  const Real g2 = g2_[static_cast<std::size_t>(i)];
  return i > 0 && g2 > Real{0} ? constants::kFourPi / g2 : Real{0};
}

void PoissonSolver::apply_kernel_g(Complex* rho_g) const {
  const Index n = fft_.size();
  for (Index i = 0; i < n; ++i) rho_g[i] *= kernel(i);
}

void PoissonSolver::solve(const Real* density, Real* potential) const {
  apply_real_multiplier(fft_, 1, density, 1, potential, 1,
                        [this](Index g) { return kernel(g); });
}

Real PoissonSolver::energy(const Real* density, const Real* potential,
                           Real dv) const {
  const Index n = fft_.size();
  Real sum = 0.0;
  for (Index i = 0; i < n; ++i) sum += density[i] * potential[i];
  return Real{0.5} * sum * dv;
}

}  // namespace lrt::fft
