// Distributed LOBPCG: the paper's Algorithm 2 with the long (pair-space)
// dimension row-block partitioned over ranks.
//
// Each rank owns a contiguous row slab of every tall block (X, W, P and
// their operator images); the 3k x 3k projected problem, its
// eigendecomposition and all coefficient updates are replicated. The
// iteration is la::lobpcg_iterate with Comm::allreduce(kSum) as its
// reduction hook: three allreduce rounds per iteration, one of them inside
// the operator (docs/PERFORMANCE.md §5).
#pragma once

#include "la/lobpcg.hpp"
#include "par/comm.hpp"

namespace lrt::par {

/// Applies the operator to this rank's row slab: y_local = (H x)_local.
/// Implementations communicate internally if H mixes rows (the implicit
/// Casida operator does, through the Nμ-space contraction).
using DistBlockOperator = la::BlockOperator;

/// In-place preconditioner on the local residual slab.
using DistBlockPreconditioner = la::BlockPreconditioner;

/// Lowest-k eigenpairs; `x0_local` is this rank's slab of the initial
/// block (global row count implied by the sum over ranks). The returned
/// eigenvectors are this rank's slab. Deterministic across rank counts up
/// to roundoff; at one rank bit for bit la::lobpcg. Collective: every
/// rank must pass the same options.
la::LobpcgResult dist_lobpcg(Comm& comm, const DistBlockOperator& apply_h,
                             const DistBlockPreconditioner& preconditioner,
                             la::RealMatrix x0_local,
                             const la::LobpcgOptions& options = {});

}  // namespace lrt::par
