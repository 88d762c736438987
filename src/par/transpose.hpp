// Row-block <-> column-block redistribution of a dense matrix
// (the MPI_Alltoall steps around the FFT in paper Algorithm 1 / Fig 3).
//
// Faster than the generic DistMatrix redistribute: block intersections of
// the two 1-D partitions are contiguous rectangles, so payloads carry no
// per-element indices.
#pragma once

#include "la/matrix.hpp"
#include "par/comm.hpp"
#include "par/layout.hpp"

namespace lrt::par {

/// Input: this rank's row block (local_rows x n_cols) of an
/// (n_rows x n_cols) global matrix, rows partitioned by BlockPartition.
/// Output: this rank's column block (n_rows x local_cols).
la::RealMatrix row_block_to_col_block(Comm& comm,
                                      la::RealConstView local_rows,
                                      Index n_rows, Index n_cols);

/// Inverse conversion.
la::RealMatrix col_block_to_row_block(Comm& comm,
                                      la::RealConstView local_cols,
                                      Index n_rows, Index n_cols);

/// Communication-overlapped variant: the global column range is sliced
/// into `chunks` contiguous sub-exchanges, each posted as a nonblocking
/// alltoallv (Comm::i_alltoallv); slice s+1 is packed while slice s is in
/// flight, double-buffered. Pure data movement, so the result is bitwise
/// identical to row_block_to_col_block. chunks <= 1 degenerates to one
/// nonblocking round with nothing overlapped.
la::RealMatrix row_block_to_col_block_overlapped(Comm& comm,
                                                 la::RealConstView local_rows,
                                                 Index n_rows, Index n_cols,
                                                 Index chunks = 4);

/// Inverse conversion, same overlap scheme.
la::RealMatrix col_block_to_row_block_overlapped(Comm& comm,
                                                 la::RealConstView local_cols,
                                                 Index n_rows, Index n_cols,
                                                 Index chunks = 4);

}  // namespace lrt::par
