// Pipelined reduction for assembling Vhxc / M (paper §5.3, Fig 4-5).
//
// Baseline: one Allreduce replicates the complete matrix on every rank.
// Pipelined: the rows are block-partitioned over ranks and each chunk of
// rows is MPI_Reduce'd to its owning rank only, then one allgatherv
// replicates the owned rows. tddft::kernel_projection takes either, by
// its pipeline_chunk argument.
#pragma once

#include "la/matrix.hpp"
#include "par/comm.hpp"
#include "par/layout.hpp"

namespace lrt::par {

/// Sums `c` (same shape on every rank) over ranks in place, delivered
/// the pipelined way for a product assembled up front: chunks of
/// `chunk_rows` rows are reduced to the rank owning them (BlockPartition
/// of the rows), then one allgatherv replicates the owned rows.
void allreduce_via_row_owners(Comm& comm, la::RealMatrix& c,
                              Index chunk_rows = 64);

}  // namespace lrt::par
