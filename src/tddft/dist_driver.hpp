// Distributed LR-TDDFT driver (paper §5).
//
// Reproduces the parallel data flow of the paper on the thread-backed
// runtime:
//  - wavefunctions, pair products and Θ are ROW-BLOCK partitioned over
//    the real-space grid (Fig 3b) for face-splitting products and GEMMs;
//    the Θ fit runs in place on each rank's slab;
//  - tddft::kernel_projection streams the f_Hxc sandwich in four column
//    slices: per slice, MPI_Alltoall converts to COLUMN blocks (Fig 3a)
//    so each rank runs its FFTs on whole columns, in place, converts
//    back, and a GEMM adds the slice to this rank's partial of
//    Vhxc = Pᵀ f_Hxc P (naive) or M = Θᵀ f_Hxc Θ (ISDF). Only one
//    slice of f_Hxc F is alive at a time;
//  - the partial is reduced once: Allreduce, or the pipelined reduce to
//    the row owners plus an allgatherv of §5.3 (Fig 4-5);
//  - the naive path redistributes H to 2-D block-cyclic and calls the
//    dense eigensolver (Fig 3c); the ISDF paths run distributed K-Means
//    and keep the small factored Hamiltonian replicated for LOBPCG.
//
// Each rank accumulates wall time into the paper's Figure-8 phases
// (kmeans / fft / mpi / gemm); the returned stats carry the max across
// ranks plus the busy-time proxy used by the scaling benches (wall minus
// time blocked in communication; see DESIGN.md).
#pragma once

#include <string>

#include "kmeans/kmeans.hpp"
#include "par/comm.hpp"
#include "tddft/driver.hpp"

namespace lrt::tddft {

struct DistDriverOptions {
  /// kNaive or kImplicit (the end points of Table 4; the intermediate
  /// versions only differ serially).
  Version version = Version::kImplicit;
  Index num_states = 3;
  Index nmu = 0;
  Real nmu_ratio = 6.0;
  bool include_xc = true;
  TddftEigenOptions eigen;
  /// Distributed K-Means honours only top-weight seeding.
  kmeans::KMeansOptions kmeans = [] {
    kmeans::KMeansOptions top_weight;
    top_weight.seeding = kmeans::Seeding::kTopWeight;
    return top_weight;
  }();
  /// Vhxc / M reduction: chunks of pipeline_chunk rows reduced to their
  /// row owners, then an allgatherv (true), vs one Allreduce (false).
  bool pipelined_reduce = false;
  Index pipeline_chunk = 64;
  /// Phase-granular restart (docs/RESILIENCE.md): when non-empty and the
  /// file exists, the implicit path loads the distributed K-Means result
  /// from it and skips the whole K-Means phase; otherwise rank 0 writes
  /// the result there after the phase completes. Must be uniform across
  /// ranks (like every other option — the existence check is a branch
  /// around collectives).
  std::string checkpoint_path;
};

struct DistDriverStats {
  std::vector<Real> energies;   ///< replicated on every rank
  double wall_seconds = 0;      ///< max over ranks
  double comm_seconds = 0;      ///< max over ranks (blocked in comm calls)
  double busy_seconds = 0;      ///< max over ranks of wall - comm
  /// Phase seconds (max over ranks): kmeans, fft, mpi, gemm, diag,
  /// pair_product.
  std::vector<std::pair<std::string, double>> phases;
};

DistDriverStats solve_casida_distributed(par::Comm& comm,
                                         const CasidaProblem& problem,
                                         const DistDriverOptions& options);

}  // namespace lrt::tddft
