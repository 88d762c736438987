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

#include <functional>
#include <vector>

#include "common/timer.hpp"
#include "fft/poisson.hpp"
#include "grid/gvectors.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

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

/// Runs one step of kernel_projection under its Figure-8 phase
/// (obs::phase::kMpi, kFft or kGemm). The caller picks the clock and
/// where the seconds go; an empty runner just runs the step.
using PhaseRunner =
    std::function<void(const char* phase, const std::function<void()>& step)>;

/// M = sym(Fᵀ f_Hxc F)·dv for the columns of F (Nr x k): Θ for the ISDF
/// paths, the pair products P for the naive one. Replicated on return.
///
/// `rows` holds every row of F when `comm` is null, else this rank's
/// BlockPartition row slab. The kernel sandwich is streamed in four
/// column slices (par::ColumnSlices): per slice, the exchange to column
/// blocks, the kernel in place, the exchange back, and a GEMM into the
/// matching rows of this rank's partial (f_Hxc F)ᵀ F. Only one slice of
/// f_Hxc F is ever alive. The partial is reduced once at the end: one
/// allreduce, or with pipeline_chunk > 0 par::allreduce_via_row_owners
/// in chunks of that many rows. Without a communicator or with the
/// allreduce, M is bit for bit gemm(Fᵀ, f_Hxc F) reduced and symmetrized
/// whenever that gemm takes the packed path (k²·rows ≥ 24³).
la::RealMatrix kernel_projection(const HxcKernel& kernel,
                                 la::RealConstView rows,
                                 par::Comm* comm = nullptr,
                                 const PhaseRunner& phase = {},
                                 Index pipeline_chunk = 0);

/// A PhaseRunner adding each step's wall seconds to `profiler` (empty
/// for a null profiler).
PhaseRunner wall_phases(obs::WallProfiler* profiler);

}  // namespace lrt::tddft
