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

#include "fft/poisson.hpp"
#include "grid/gvectors.hpp"
#include "la/matrix.hpp"
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
  /// `f`). Makes 2·⌈k/2⌉ 3-D transforms for k columns. Opens no Figure-8
  /// span: the caller bills it (kernel_projection's "fft").
  void apply(la::RealConstView f, la::RealView out) const;

 private:
  Index nr_;
  Real dv_;
  fft::PoissonSolver poisson_;
  std::vector<Real> fxc_;  ///< zeros when include_xc == false
};

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
///
/// Each step runs under its Figure-8 span: the exchanges under "mpi",
/// the kernel under "fft", the GEMMs and the reduction under "gemm".
la::RealMatrix kernel_projection(const HxcKernel& kernel,
                                 la::RealConstView rows,
                                 par::Comm* comm = nullptr,
                                 Index pipeline_chunk = 0);

}  // namespace lrt::tddft
