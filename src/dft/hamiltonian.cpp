#include "dft/hamiltonian.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/real_columns.hpp"

namespace lrt::dft {

KsHamiltonian::KsHamiltonian(const grid::RealSpaceGrid& grid,
                             const grid::GVectors& gvectors)
    : nr_(grid.size()),
      fft_(grid.shape()[0], grid.shape()[1], grid.shape()[2]),
      half_g2_(static_cast<std::size_t>(nr_)),
      veff_(static_cast<std::size_t>(nr_), Real{0}) {
  for (Index i = 0; i < nr_; ++i) {
    half_g2_[static_cast<std::size_t>(i)] = Real{0.5} * gvectors.g2(i);
  }
}

void KsHamiltonian::set_potential(std::vector<Real> veff) {
  LRT_CHECK(static_cast<Index>(veff.size()) == nr_,
            "potential size mismatch");
  veff_ = std::move(veff);
}

void KsHamiltonian::apply(la::RealConstView psi, la::RealView out) const {
  LRT_CHECK(psi.rows() == nr_ && out.rows() == nr_ &&
                psi.cols() == out.cols(),
            "apply shape mismatch");
  // Kinetic: ½G² in reciprocal space, two columns per transform; the
  // local potential is the diagonal term of the same pass.
  fft::apply_real_multiplier(
      fft_, psi.cols(), psi.data(), psi.ld(), out.data(), out.ld(),
      [this](Index g) { return half_g2_[static_cast<std::size_t>(g)]; },
      veff_.data());
  if (nonlocal_) nonlocal_->accumulate(psi, out);
}

Real KsHamiltonian::kinetic_energy(const Real* psi) const {
  const Real one = 1;
  return kinetic_sum(psi, 1, 1, &one);
}

Real KsHamiltonian::kinetic_energy(la::RealConstView psi,
                                   const std::vector<Real>& weights) const {
  LRT_CHECK(psi.rows() == nr_ &&
                static_cast<Index>(weights.size()) >= psi.cols(),
            "kinetic_energy shape mismatch");
  return kinetic_sum(psi.data(), psi.cols(), psi.ld(), weights.data());
}

Real KsHamiltonian::kinetic_sum(const Real* psi, Index k, Index ld,
                                const Real* weights) const {
  // ⟨ψ|½G²|ψ⟩ in G space; forward FFT is unnormalized so divide by Nr
  // to get Parseval-consistent coefficients relative to l2-normalized ψ.
  return fft::weighted_spectral_sum(fft_, k, psi, ld, weights,
                                    [this](Index g) {
                                      return half_g2_[static_cast<std::size_t>(g)];
                                    }) /
         static_cast<Real>(nr_);
}

void KsHamiltonian::precondition(la::RealView r,
                                 const std::vector<Real>& ekin) const {
  const Index k = r.cols();
  LRT_CHECK(static_cast<Index>(ekin.size()) >= k, "ekin per column required");
  // Teter-Payne-Allan rational filter in x = T/E_kin, per column.
  fft::apply_real_multiplier(
      fft_, k, r.data(), r.ld(), r.data(), r.ld(), [&](Index j, Index g) {
        const Real scale =
            std::max(ekin[static_cast<std::size_t>(j)], Real{1e-3});
        const Real x = half_g2_[static_cast<std::size_t>(g)] / scale;
        const Real x2 = x * x;
        const Real x3 = x2 * x;
        const Real num = 27.0 + 18.0 * x + 12.0 * x2 + 8.0 * x3;
        const Real den = num + 16.0 * x3 * x;
        return num / den;
      });
}

}  // namespace lrt::dft
