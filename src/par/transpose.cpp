#include "par/transpose.hpp"

#include "obs/obs.hpp"

namespace lrt::par {

ColumnSlices::ColumnSlices(Index n_cols, int ranks, Index slices)
    : cols_(n_cols, ranks), slices_(slices) {
  LRT_CHECK(slices >= 1, "need at least one column slice");
}

Index ColumnSlices::offset(int q, Index s) const {
  const BlockPartition pairs(cols_.count(q) / 2, static_cast<int>(slices_));
  return cols_.offset(q) + 2 * pairs.offset(static_cast<int>(s));
}

Index ColumnSlices::count(int q, Index s) const {
  const BlockPartition pairs(cols_.count(q) / 2, static_cast<int>(slices_));
  const Index odd_tail = s + 1 == slices_ ? cols_.count(q) % 2 : 0;
  return 2 * pairs.count(static_cast<int>(s)) + odd_tail;
}

Index ColumnSlices::width(Index s) const {
  Index w = 0;
  for (int q = 0; q < ranks(); ++q) w += count(q, s);
  return w;
}

SliceExchange::SliceExchange(Comm& comm, Index n_rows,
                             const ColumnSlices& slices)
    : comm_(&comm), rows_(n_rows, comm.size()), slices_(slices) {
  LRT_CHECK(slices.ranks() == comm.size(),
            "column slices planned for " << slices.ranks() << " ranks, comm has "
                                         << comm.size());
  const auto p = static_cast<std::size_t>(comm.size());
  row_counts_.resize(p);
  row_displs_.resize(p);
  col_counts_.resize(p);
  col_displs_.resize(p);
}

Index SliceExchange::plan(Index s) {
  const int me = comm_->rank();
  const Index my_rows = rows_.count(me);
  const Index my_cols = slices_.count(me, s);
  Index row_total = 0;
  for (int q = 0; q < comm_->size(); ++q) {
    const auto qi = static_cast<std::size_t>(q);
    // Row side: my rows x q's run, packed rank by rank.
    row_counts_[qi] = my_rows * slices_.count(q, s);
    row_displs_[qi] = row_total;
    row_total += row_counts_[qi];
    // Column side: q's rows x my run, which is already row-major order.
    col_counts_[qi] = rows_.count(q) * my_cols;
    col_displs_[qi] = rows_.offset(q) * my_cols;
  }
  return row_total;
}

la::RealView SliceExchange::to_cols(Index s, la::RealConstView local_rows) {
  const obs::Span span("par.transpose");
  const int me = comm_->rank();
  LRT_CHECK(local_rows.rows() == rows_.count(me) &&
                local_rows.cols() == slices_.n_cols(),
            "SliceExchange::to_cols: bad local shape");
  const Index my_cols = slices_.count(me, s);
  row_buf_.resize(static_cast<std::size_t>(plan(s)));
  col_buf_.resize(static_cast<std::size_t>(rows_.n * my_cols));
  Real* out = row_buf_.data();
  for (int q = 0; q < comm_->size(); ++q) {
    const Index c0 = slices_.offset(q, s);
    const Index nc = slices_.count(q, s);
    for (Index i = 0; i < local_rows.rows(); ++i) {
      const Real* src = local_rows.row_ptr(i) + c0;
      for (Index j = 0; j < nc; ++j) *out++ = src[j];
    }
  }
  comm_->alltoallv(row_buf_.data(), row_counts_, row_displs_, col_buf_.data(),
                   col_counts_, col_displs_);
  return la::RealView(col_buf_.data(), rows_.n, my_cols, my_cols);
}

la::RealConstView SliceExchange::to_rows(Index s, la::RealConstView cols) {
  const obs::Span span("par.transpose");
  const int me = comm_->rank();
  const Index my_cols = slices_.count(me, s);
  LRT_CHECK(cols.rows() == rows_.n && cols.cols() == my_cols &&
                (my_cols == 0 || cols.ld() == my_cols),
            "SliceExchange::to_rows: bad column-slice shape");
  row_buf_.resize(static_cast<std::size_t>(plan(s)));
  comm_->alltoallv(cols.data(), col_counts_, col_displs_, row_buf_.data(),
                   row_counts_, row_displs_);
  // Unpack rank by rank into local rows x width(s), row-major.
  const Index my_rows = rows_.count(me);
  const Index width = slices_.width(s);
  rows_buf_.resize(static_cast<std::size_t>(my_rows * width));
  const Real* in = row_buf_.data();
  Index c0 = 0;
  for (int q = 0; q < comm_->size(); ++q) {
    const Index nc = slices_.count(q, s);
    for (Index i = 0; i < my_rows; ++i) {
      Real* dst = rows_buf_.data() + i * width + c0;
      for (Index j = 0; j < nc; ++j) dst[j] = *in++;
    }
    c0 += nc;
  }
  return la::RealConstView(rows_buf_.data(), my_rows, width, width);
}

}  // namespace lrt::par
