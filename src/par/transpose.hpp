// Row-block <-> column-block redistribution of a dense matrix, one column
// slice at a time (the MPI_Alltoall steps around the FFT in paper
// Algorithm 1 / Fig 3, streamed).
//
// Faster than the generic DistMatrix redistribute: block intersections of
// the two 1-D partitions are contiguous rectangles, so payloads carry no
// per-element indices. Only one slice of the column layout is alive at a
// time, so a kernel sandwich needs buffers for that slice alone.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "par/comm.hpp"
#include "par/layout.hpp"

namespace lrt::par {

/// Cuts every rank's column block (BlockPartition of n_cols over the
/// ranks) into `slices` runs; slice s is the union over ranks of their
/// run s. Each run starts at an even offset inside its block and has an
/// even width, except that an odd block's last column ends its last run.
/// A consumer that pairs columns two by two within a block (two real
/// columns per complex FFT) therefore pairs them exactly as over the
/// whole block.
class ColumnSlices {
 public:
  ColumnSlices(Index n_cols, int ranks, Index slices);

  Index n_cols() const { return cols_.n; }
  int ranks() const { return cols_.parts; }
  Index slices() const { return slices_; }

  /// Global first column and width of rank q's run in slice s.
  Index offset(int q, Index s) const;
  Index count(int q, Index s) const;

  /// Columns slice s spans over all ranks: Σ_q count(q, s).
  Index width(Index s) const;

 private:
  BlockPartition cols_;
  Index slices_;
};

/// Streams a row-block distributed n_rows x n_cols matrix through its
/// column blocks one slice at a time: one alltoallv each way per slice.
/// Buffers grow to the widest slice and are reused, so a slice loop
/// allocates once. Pure data movement: every value arrives bit for bit.
class SliceExchange {
 public:
  /// Rows are partitioned by BlockPartition(n_rows, comm.size());
  /// `slices.ranks()` must equal comm.size().
  SliceExchange(Comm& comm, Index n_rows, const ColumnSlices& slices);

  /// Row -> column exchange of slice s. `local_rows` is this rank's row
  /// block with all n_cols columns. Returns this rank's run of slice s on
  /// all n_rows rows (n_rows x count(rank, s), contiguous), valid and
  /// writable until the next call.
  la::RealView to_cols(Index s, la::RealConstView local_rows);

  /// Column -> row exchange of slice s. `cols` is this rank's run
  /// (n_rows x count(rank, s), contiguous rows), e.g. the view to_cols
  /// returned. Returns this rank's rows of the slice (local rows x
  /// width(s)): rank 0's run, then rank 1's, and so on. Valid until the
  /// next call.
  la::RealConstView to_rows(Index s, la::RealConstView cols);

 private:
  /// Fills the per-rank counts/displacements of slice s on both sides;
  /// returns the row-side total.
  Index plan(Index s);

  Comm* comm_;
  BlockPartition rows_;
  ColumnSlices slices_;
  // Row side: this rank's rows x each rank's run, packed rank by rank.
  // Column side: each rank's rows x this rank's run (row-major).
  std::vector<Index> row_counts_, row_displs_, col_counts_, col_displs_;
  std::vector<Real> row_buf_, col_buf_, rows_buf_;
};

}  // namespace lrt::par
