// The Hartree-exchange-correlation kernel f_Hxc (paper Eq 4).
//
//   f_Hxc(r, r') = 1/|r - r'|  +  δV_xc[n](r)/δn(r')
//                = Hartree     +  ALDA: f_xc(n(r)) δ(r - r')
//
// Applied to pair densities / interpolation vectors, two real columns
// per complex transform: the Hartree piece through the reciprocal-space
// Poisson kernel 4π/G² (one forward + one inverse FFT per column pair —
// the "FFT" phase of the paper's Figure 8), the ALDA piece as a diagonal
// real-space multiply folded into the same pass.
#pragma once

#include <vector>

#include "common/timer.hpp"
#include "fft/poisson.hpp"
#include "grid/gvectors.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"

namespace lrt::tddft {

class HxcKernel {
 public:
  /// `ground_density` is the converged ground-state n(r) from which the
  /// ALDA kernel f_xc is evaluated; pass include_xc = false for a
  /// Hartree-only (RPA) kernel.
  HxcKernel(const grid::RealSpaceGrid& grid, const grid::GVectors& gvectors,
            std::vector<Real> ground_density, bool include_xc = true);

  Index grid_size() const { return nr_; }
  Real dv() const { return dv_; }
  const std::vector<Real>& fxc() const { return fxc_; }

  /// out(:, j) = (v_H + f_xc) f(:, j) for every column (`out` may alias
  /// `f`). Makes 2·⌈k/2⌉ 3-D transforms for k columns. `profiler`
  /// receives the "fft" phase.
  void apply(la::RealConstView f, la::RealView out,
             obs::WallProfiler* profiler = nullptr) const;

 private:
  Index nr_;
  Real dv_;
  fft::PoissonSolver poisson_;
  std::vector<Real> fxc_;  ///< zeros when include_xc == false
};

}  // namespace lrt::tddft
