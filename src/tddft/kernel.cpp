#include "tddft/kernel.hpp"

#include "common/error.hpp"
#include "dft/xc.hpp"
#include "fft/real_columns.hpp"

namespace lrt::tddft {

HxcKernel::HxcKernel(const grid::RealSpaceGrid& grid,
                     const grid::GVectors& gvectors,
                     std::vector<Real> ground_density, bool include_xc)
    : nr_(grid.size()),
      dv_(grid.dv()),
      poisson_(fft::Fft3D(grid.shape()[0], grid.shape()[1], grid.shape()[2]),
               gvectors.g2_table()) {
  LRT_CHECK(static_cast<Index>(ground_density.size()) == nr_,
            "density size mismatch");
  if (include_xc) {
    fxc_ = dft::lda_fxc_array(ground_density);
  } else {
    fxc_.assign(static_cast<std::size_t>(nr_), Real{0});
  }
}

void HxcKernel::apply(la::RealConstView f, la::RealView out,
                      obs::WallProfiler* profiler) const {
  LRT_CHECK(f.rows() == nr_ && out.rows() == nr_ && f.cols() == out.cols(),
            "kernel apply shape mismatch");
  Timer fft_timer;
  // Hartree through 4π/G², two real columns per transform, plus the
  // diagonal f_xc term in the same write-out pass.
  fft::apply_real_multiplier(
      poisson_.fft(), f.cols(), f.data(), f.ld(), out.data(), out.ld(),
      [this](Index g) { return poisson_.kernel(g); }, fxc_.data());
  if (profiler) profiler->add("fft", fft_timer.seconds());
}

}  // namespace lrt::tddft
