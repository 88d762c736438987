#include "par/transpose.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace lrt::par {
namespace {

/// Shared core: exchanges rectangular intersections of (row part) x
/// (col part). `to_cols` chooses the direction.
la::RealMatrix exchange(Comm& comm, la::RealConstView local, Index n_rows,
                        Index n_cols, bool to_cols) {
  const obs::Span span("par.transpose");
  const int p = comm.size();
  const int me = comm.rank();
  const BlockPartition rows(n_rows, p);
  const BlockPartition cols(n_cols, p);

  // Validate the local shape.
  if (to_cols) {
    LRT_CHECK(local.rows() == rows.count(me) && local.cols() == n_cols,
              "row_block_to_col_block: bad local shape");
  } else {
    LRT_CHECK(local.rows() == n_rows && local.cols() == cols.count(me),
              "col_block_to_row_block: bad local shape");
  }

  // Pack: for destination rank q, the intersection rectangle is
  // (my rows x q's cols) when to_cols, else (q's rows x my cols).
  std::vector<Index> send_counts(static_cast<std::size_t>(p));
  std::vector<Index> send_displs(static_cast<std::size_t>(p));
  std::vector<Index> recv_counts(static_cast<std::size_t>(p));
  std::vector<Index> recv_displs(static_cast<std::size_t>(p));
  Index send_total = 0, recv_total = 0;
  for (int q = 0; q < p; ++q) {
    const Index sc = to_cols ? rows.count(me) * cols.count(q)
                             : rows.count(q) * cols.count(me);
    const Index rc = to_cols ? rows.count(q) * cols.count(me)
                             : rows.count(me) * cols.count(q);
    send_counts[static_cast<std::size_t>(q)] = sc;
    recv_counts[static_cast<std::size_t>(q)] = rc;
    send_displs[static_cast<std::size_t>(q)] = send_total;
    recv_displs[static_cast<std::size_t>(q)] = recv_total;
    send_total += sc;
    recv_total += rc;
  }

  std::vector<Real> send_buf(static_cast<std::size_t>(send_total));
  for (int q = 0; q < p; ++q) {
    Real* out = send_buf.data() + send_displs[static_cast<std::size_t>(q)];
    if (to_cols) {
      const Index c0 = cols.offset(q);
      const Index nc = cols.count(q);
      for (Index i = 0; i < local.rows(); ++i) {
        const Real* src = local.row_ptr(i) + c0;
        for (Index j = 0; j < nc; ++j) *out++ = src[j];
      }
    } else {
      const Index r0 = rows.offset(q);
      const Index nr = rows.count(q);
      for (Index i = 0; i < nr; ++i) {
        const Real* src = local.row_ptr(r0 + i);
        for (Index j = 0; j < local.cols(); ++j) *out++ = src[j];
      }
    }
  }

  std::vector<Real> recv_buf(static_cast<std::size_t>(recv_total));
  comm.alltoallv(send_buf.data(), send_counts, send_displs, recv_buf.data(),
                 recv_counts, recv_displs);

  // Unpack.
  la::RealMatrix result;
  if (to_cols) {
    result.resize(n_rows, cols.count(me));
    for (int q = 0; q < p; ++q) {
      const Real* in =
          recv_buf.data() + recv_displs[static_cast<std::size_t>(q)];
      const Index r0 = rows.offset(q);
      const Index nr = rows.count(q);
      for (Index i = 0; i < nr; ++i) {
        Real* dst = result.row_ptr(r0 + i);
        for (Index j = 0; j < result.cols(); ++j) dst[j] = *in++;
      }
    }
  } else {
    result.resize(rows.count(me), n_cols);
    for (int q = 0; q < p; ++q) {
      const Real* in =
          recv_buf.data() + recv_displs[static_cast<std::size_t>(q)];
      const Index c0 = cols.offset(q);
      const Index nc = cols.count(q);
      for (Index i = 0; i < result.rows(); ++i) {
        Real* dst = result.row_ptr(i) + c0;
        for (Index j = 0; j < nc; ++j) dst[j] = *in++;
      }
    }
  }
  return result;
}

/// One column-range slice [c0, c0+cn) of the exchange: counts, packing and
/// unpacking are the full exchange's restricted to the columns each rank's
/// partition block intersects with the slice.
struct ChunkPlan {
  std::vector<Index> send_counts, send_displs;
  std::vector<Index> recv_counts, recv_displs;
  Index send_total = 0, recv_total = 0;
};

/// Columns of partition block q that fall inside [c0, c0+cn), as a
/// (global offset, count) pair.
std::pair<Index, Index> intersect(const BlockPartition& cols, int q, Index c0,
                                  Index cn) {
  const Index lo = std::max(cols.offset(q), c0);
  const Index hi = std::min(cols.offset(q) + cols.count(q), c0 + cn);
  return {lo, std::max(Index{0}, hi - lo)};
}

ChunkPlan plan_chunk(const BlockPartition& rows, const BlockPartition& cols,
                     int p, int me, bool to_cols, Index c0, Index cn) {
  ChunkPlan plan;
  plan.send_counts.resize(static_cast<std::size_t>(p));
  plan.send_displs.resize(static_cast<std::size_t>(p));
  plan.recv_counts.resize(static_cast<std::size_t>(p));
  plan.recv_displs.resize(static_cast<std::size_t>(p));
  const Index my_chunk_cols = intersect(cols, me, c0, cn).second;
  for (int q = 0; q < p; ++q) {
    const Index q_chunk_cols = intersect(cols, q, c0, cn).second;
    const Index sc = to_cols ? rows.count(me) * q_chunk_cols
                             : rows.count(q) * my_chunk_cols;
    const Index rc = to_cols ? rows.count(q) * my_chunk_cols
                             : rows.count(me) * q_chunk_cols;
    plan.send_counts[static_cast<std::size_t>(q)] = sc;
    plan.recv_counts[static_cast<std::size_t>(q)] = rc;
    plan.send_displs[static_cast<std::size_t>(q)] = plan.send_total;
    plan.recv_displs[static_cast<std::size_t>(q)] = plan.recv_total;
    plan.send_total += sc;
    plan.recv_total += rc;
  }
  return plan;
}

void pack_chunk(la::RealConstView local, const BlockPartition& rows,
                const BlockPartition& cols, int p, int me, bool to_cols,
                Index c0, Index cn, const ChunkPlan& plan, Real* send_buf) {
  const obs::Span span("par.overlap.pack");
  for (int q = 0; q < p; ++q) {
    Real* out = send_buf + plan.send_displs[static_cast<std::size_t>(q)];
    if (to_cols) {
      const auto [qc0, qcn] = intersect(cols, q, c0, cn);
      for (Index i = 0; i < local.rows(); ++i) {
        const Real* src = local.row_ptr(i) + qc0;
        for (Index j = 0; j < qcn; ++j) *out++ = src[j];
      }
    } else {
      const auto [mc0, mcn] = intersect(cols, me, c0, cn);
      const Index local_c0 = mc0 - cols.offset(me);
      const Index r0 = rows.offset(q);
      const Index nr = rows.count(q);
      for (Index i = 0; i < nr; ++i) {
        const Real* src = local.row_ptr(r0 + i) + local_c0;
        for (Index j = 0; j < mcn; ++j) *out++ = src[j];
      }
    }
  }
}

void unpack_chunk(la::RealView result, const BlockPartition& rows,
                  const BlockPartition& cols, int p, int me, bool to_cols,
                  Index c0, Index cn, const ChunkPlan& plan,
                  const Real* recv_buf) {
  for (int q = 0; q < p; ++q) {
    const Real* in = recv_buf + plan.recv_displs[static_cast<std::size_t>(q)];
    if (to_cols) {
      const auto [mc0, mcn] = intersect(cols, me, c0, cn);
      const Index local_c0 = mc0 - cols.offset(me);
      const Index r0 = rows.offset(q);
      const Index nr = rows.count(q);
      for (Index i = 0; i < nr; ++i) {
        Real* dst = result.row_ptr(r0 + i) + local_c0;
        for (Index j = 0; j < mcn; ++j) dst[j] = *in++;
      }
    } else {
      const auto [qc0, qcn] = intersect(cols, q, c0, cn);
      for (Index i = 0; i < result.rows(); ++i) {
        Real* dst = result.row_ptr(i) + qc0;
        for (Index j = 0; j < qcn; ++j) dst[j] = *in++;
      }
    }
  }
}

la::RealMatrix exchange_overlapped(Comm& comm, la::RealConstView local,
                                   Index n_rows, Index n_cols, bool to_cols,
                                   Index chunks) {
  const obs::Span span("par.transpose");
  const int p = comm.size();
  const int me = comm.rank();
  const BlockPartition rows(n_rows, p);
  const BlockPartition cols(n_cols, p);

  if (to_cols) {
    LRT_CHECK(local.rows() == rows.count(me) && local.cols() == n_cols,
              "row_block_to_col_block: bad local shape");
  } else {
    LRT_CHECK(local.rows() == n_rows && local.cols() == cols.count(me),
              "col_block_to_row_block: bad local shape");
  }

  la::RealMatrix result;
  if (to_cols) {
    result.resize(n_rows, cols.count(me));
  } else {
    result.resize(rows.count(me), n_cols);
  }

  const Index s_count = std::clamp(chunks, Index{1}, std::max(n_cols, Index{1}));
  const BlockPartition slices(n_cols, static_cast<int>(s_count));

  // Pipeline: pack slice s+1 while slice s's exchange is in flight. Sends
  // copy into mailboxes at issue time, so a send buffer is reusable as
  // soon as the issue returns; receive buffers stay pinned until wait(),
  // so both sides are double-buffered.
  std::vector<ChunkPlan> plans(static_cast<std::size_t>(s_count));
  std::vector<Real> send_buf[2], recv_buf[2];
  Comm::Request reqs[2];

  const auto issue = [&](Index s) {
    const std::size_t b = static_cast<std::size_t>(s % 2);
    const int si = static_cast<int>(s);
    const ChunkPlan& plan =
        (plans[static_cast<std::size_t>(s)] = plan_chunk(
             rows, cols, p, me, to_cols, slices.offset(si), slices.count(si)));
    send_buf[b].resize(static_cast<std::size_t>(plan.send_total));
    recv_buf[b].resize(static_cast<std::size_t>(plan.recv_total));
    pack_chunk(local, rows, cols, p, me, to_cols, slices.offset(si),
               slices.count(si), plan, send_buf[b].data());
    reqs[b] = comm.i_alltoallv(send_buf[b].data(), plan.send_counts,
                               plan.send_displs, recv_buf[b].data(),
                               plan.recv_counts, plan.recv_displs);
  };

  issue(0);
  for (Index s = 0; s < s_count; ++s) {
    if (s + 1 < s_count) issue(s + 1);
    const std::size_t b = static_cast<std::size_t>(s % 2);
    reqs[b].wait();
    const int si = static_cast<int>(s);
    unpack_chunk(result.view(), rows, cols, p, me, to_cols, slices.offset(si),
                 slices.count(si), plans[static_cast<std::size_t>(s)],
                 recv_buf[b].data());
  }
  return result;
}

}  // namespace

la::RealMatrix row_block_to_col_block(Comm& comm,
                                      la::RealConstView local_rows,
                                      Index n_rows, Index n_cols) {
  return exchange(comm, local_rows, n_rows, n_cols, /*to_cols=*/true);
}

la::RealMatrix col_block_to_row_block(Comm& comm,
                                      la::RealConstView local_cols,
                                      Index n_rows, Index n_cols) {
  return exchange(comm, local_cols, n_rows, n_cols, /*to_cols=*/false);
}

la::RealMatrix row_block_to_col_block_overlapped(Comm& comm,
                                                 la::RealConstView local_rows,
                                                 Index n_rows, Index n_cols,
                                                 Index chunks) {
  return exchange_overlapped(comm, local_rows, n_rows, n_cols,
                             /*to_cols=*/true, chunks);
}

la::RealMatrix col_block_to_row_block_overlapped(Comm& comm,
                                                 la::RealConstView local_cols,
                                                 Index n_rows, Index n_cols,
                                                 Index chunks) {
  return exchange_overlapped(comm, local_cols, n_rows, n_cols,
                             /*to_cols=*/false, chunks);
}

}  // namespace lrt::par
