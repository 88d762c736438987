// Locally Optimal Block Preconditioned Conjugate Gradient (LOBPCG).
//
// Generic blocked eigensolver for the lowest k eigenpairs of a symmetric
// operator given only as a block apply Y = H X. Its callers in this
// library, matching the paper:
//  - ground-state Kohn-Sham bands (dft/lobpcg_gs) with a kinetic-energy
//    preconditioner,
//  - the full-response Ω of tddft/full_casida, and
//  - the LR-TDDFT Casida problem (tddft/lobpcg_tddft, paper Algorithm 2)
//    with the orbital-energy-gap preconditioner of Eq (17), where H is the
//    *implicitly factored* ISDF Hamiltonian; with all rows on one caller
//    (la::lobpcg) or row-slab distributed over ranks (par::dist_lobpcg).
//
// The iteration keeps the subspace S = [X, W, P] (current block,
// preconditioned residuals, previous search directions), solves the
// 3k x 3k projected problem Hs C = Θ Gs C (paper Eq 15-18), and never
// re-applies H to X or P — their images are updated by the same linear
// combinations, so each iteration costs exactly one block apply. All
// callers run the one body, lobpcg_iterate(); a distributed caller passes
// a sum-reduction hook, and every inner product of the tall blocks travels
// in one of three reduction rounds per iteration (docs/PERFORMANCE.md §5).
#pragma once

#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace lrt::la {

/// Complete iteration state of a (distributed: per-rank row slab of a)
/// LOBPCG run, snapshotted at the end of an iteration. The maintained
/// images HX / HP are linear-combination updates, not recomputable
/// bitwise from X and P alone, so they are part of the state: restoring a
/// snapshot and running the remaining iterations is bit-identical to
/// never having stopped (docs/RESILIENCE.md). Serialized to the lrt.ckpt/1
/// format by ft::save_lobpcg / ft::load_lobpcg.
struct LobpcgCheckpoint {
  RealMatrix x;   ///< current block (n x k, orthonormal columns)
  RealMatrix hx;  ///< maintained image H X
  RealMatrix p;   ///< previous search directions (may be 0 x 0)
  RealMatrix hp;  ///< maintained image H P
  std::vector<Real> eigenvalues;
  /// lrt.ckpt/1 field, written as the current eigenvalues.
  std::vector<Real> previous_values;
  std::vector<Real> residual_norms;   ///< informational (recomputed on resume)
  Index iteration = 0;  ///< iterations completed when the snapshot was taken
};

struct LobpcgOptions {
  Index max_iterations = 200;
  /// Convergence: ||H x - θ x|| <= tolerance * max(1, |θ|) per column.
  Real tolerance = 1e-6;
  /// Only the leading `converged_columns` columns gate convergence (0 =
  /// all). The trailing ones are guard columns: they keep a near-degenerate
  /// cluster inside the block without having to converge themselves.
  Index converged_columns = 0;
  /// Checkpoint/restart (docs/RESILIENCE.md): every `checkpoint_interval`
  /// completed iterations the solver hands a snapshot to
  /// `checkpoint_sink` (0 disables). `restore` resumes from a snapshot,
  /// skipping the initial orthonormalization and Rayleigh-Ritz. Plain
  /// std::function + value types so la stays below ft in the layer DAG;
  /// file serialization lives in ft/checkpoint.hpp.
  Index checkpoint_interval = 0;
  std::function<void(const LobpcgCheckpoint&)> checkpoint_sink;
  const LobpcgCheckpoint* restore = nullptr;
};

struct LobpcgResult {
  std::vector<Real> eigenvalues;   ///< ascending, size k
  RealMatrix eigenvectors;         ///< n x k, orthonormal columns
  Index iterations = 0;
  bool converged = false;
  std::vector<Real> residual_norms;  ///< per eigenpair at exit
};

/// Block operator: writes H * x into y (both n x k column blocks).
using BlockOperator = std::function<void(RealConstView x, RealView y)>;

/// In-place preconditioner on the residual block; `theta` holds the
/// current Ritz values (one per column).
using BlockPreconditioner =
    std::function<void(RealView r, const std::vector<Real>& theta)>;

/// Sums `count` partial inner products in place across every holder of a
/// row slab of the tall blocks (Comm::allreduce(kSum) in par::dist_lobpcg).
/// Empty when the caller holds all rows.
using SumReduction = std::function<void(Real* data, Index count)>;

/// Computes the lowest x0.cols() eigenpairs. `x0` provides the initial
/// guess (need not be orthonormal); pass an empty preconditioner for
/// unpreconditioned iteration. Requires 3 * x0.cols() <= x0.rows().
LobpcgResult lobpcg(const BlockOperator& apply_h,
                    const BlockPreconditioner& preconditioner, RealMatrix x0,
                    const LobpcgOptions& options = {});

/// The iteration behind lobpcg() and par::dist_lobpcg(), without their
/// spans and counters. `x0` is this caller's row slab of the initial
/// block; the operator and preconditioner act on slabs, and `reduce_sum`
/// completes every inner product of the tall blocks. The projected
/// problem and the coefficient updates are replicated, so every slab
/// holder must pass the same options. With an empty hook the result is
/// bit for bit a single-rank distributed solve.
LobpcgResult lobpcg_iterate(const BlockOperator& apply_h,
                            const BlockPreconditioner& preconditioner,
                            RealMatrix x0, const LobpcgOptions& options,
                            const SumReduction& reduce_sum);

}  // namespace lrt::la
