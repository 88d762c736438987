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
// One rank is the serial case: solve_casida runs kNaive and kImplicit
// through this driver under par::run(1). K-Means then seeds with weighted
// k-means++, whose spread-out points keep the Θ fit well conditioned;
// across ranks it seeds from the top-weight points, which need no Rng.
//
// Each rank opens one obs::Span per Figure-8 phase region (kmeans / fft /
// mpi / gemm / diag / pair_product) under an obs::PhaseScope, so the
// phase seconds are wall seconds, from spans — the same seconds a trace
// shows. The returned stats carry their max across ranks, plus the busy
// time: the one CPU column (this rank's thread CPU seconds, which leave
// out blocking waits and time descheduled; see DESIGN.md).
#pragma once

#include <string>

#include "par/comm.hpp"
#include "tddft/driver.hpp"

namespace lrt::tddft {

/// The older name of DriverOptions.
using DistDriverOptions = DriverOptions;

struct DistDriverStats {
  std::vector<Real> energies;   ///< replicated on every rank
  /// This rank's rows of the Ncv x k eigenvectors: its valence block of
  /// pairs (kImplicit) or its row block of H (kNaive); every row at one
  /// rank.
  la::RealMatrix wavefunctions;
  Index eigen_iterations = 0;   ///< Casida LOBPCG iterations (0 for kNaive)
  double wall_seconds = 0;      ///< max over ranks
  double comm_seconds = 0;      ///< max over ranks (blocked in comm calls)
  /// Max over ranks of the rank thread's CPU seconds: the only CPU
  /// column; every other field is wall.
  double busy_seconds = 0;
  /// Phase wall seconds, from spans (max over ranks), in this fixed
  /// order: pair_product, kmeans, fft, mpi, gemm, diag.
  std::vector<std::pair<std::string, double>> phases;
};

/// Collective. `options.version` must be kNaive or kImplicit (the end
/// points of Table 4; the intermediate versions only differ serially).
DistDriverStats solve_casida_distributed(par::Comm& comm,
                                         const CasidaProblem& problem,
                                         const DriverOptions& options);

}  // namespace lrt::tddft
