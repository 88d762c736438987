// GEMM + reduction strategies for assembling Vhxc (paper §5.3, Fig 4-5).
//
// Baseline: each rank multiplies its full local slabs and an Allreduce
// replicates the complete Vhxc on every rank — simple, but memory and
// communication scale with the whole matrix.
//
// Optimized: the output rows are block-partitioned over ranks; the local
// GEMM is split into row chunks and each finished chunk is immediately
// MPI_Reduce'd to its owning rank only. Each rank stores just its slice
// and the wire volume drops from p copies to one.
#pragma once

#include "la/blas.hpp"
#include "par/comm.hpp"
#include "par/layout.hpp"

namespace lrt::par {

/// Baseline (Algorithm 1 lines 7-8): returns the full k x n product
/// Aᵀ B replicated on every rank.
la::RealMatrix gram_reduce_monolithic(Comm& comm, la::RealConstView a_local,
                                      la::RealConstView b_local);

struct PipelineResult {
  la::RealMatrix local_rows;  ///< this rank's block of C's rows
  Index row_offset = 0;       ///< global row index of local_rows(0, :)
};

/// Pipelined GEMM + Reduce: computes the same Aᵀ B but leaves C row-block
/// distributed. `chunk_rows` controls the pipeline granularity (how many
/// C rows are multiplied before their Reduce is issued).
PipelineResult gram_reduce_pipelined(Comm& comm, la::RealConstView a_local,
                                     la::RealConstView b_local,
                                     Index chunk_rows = 64);

/// Sums `c` (same shape on every rank) over ranks in place, delivered
/// the pipelined way for a product assembled up front: chunks of
/// `chunk_rows` rows are reduced to the rank owning them (BlockPartition
/// of the rows), then one allgatherv replicates the owned rows. Makes
/// the reduce and allgatherv calls of gram_reduce_pipelined followed by
/// an allgatherv of its rows.
void allreduce_via_row_owners(Comm& comm, la::RealMatrix& c,
                              Index chunk_rows = 64);

}  // namespace lrt::par
