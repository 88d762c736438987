#include "par/pipeline.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace lrt::par {

la::RealMatrix gram_reduce_monolithic(Comm& comm, la::RealConstView a_local,
                                      la::RealConstView b_local) {
  const obs::Span span("par.gram_reduce.monolithic");
  LRT_CHECK(a_local.rows() == b_local.rows(), "local row blocks must align");
  la::RealMatrix c =
      la::gemm(la::Trans::kYes, la::Trans::kNo, a_local, b_local);
  comm.allreduce(c.data(), c.size(), ReduceOp::kSum);
  return c;
}

PipelineResult gram_reduce_pipelined(Comm& comm, la::RealConstView a_local,
                                     la::RealConstView b_local,
                                     Index chunk_rows) {
  const obs::Span span("par.gram_reduce.pipelined");
  LRT_CHECK(a_local.rows() == b_local.rows(), "local row blocks must align");
  LRT_CHECK(chunk_rows >= 1, "chunk_rows must be positive");
  const Index k = a_local.cols();  // global rows of C
  const Index n = b_local.cols();
  const int p = comm.size();
  const int me = comm.rank();
  const BlockPartition part(k, p);

  PipelineResult result;
  result.row_offset = part.offset(me);
  result.local_rows.resize(part.count(me), n);

  // Walk the owner blocks; within each, multiply-and-reduce chunk by chunk.
  // The GEMM for chunk i+1 only starts after chunk i's Reduce has been
  // issued, so on a real network the send of chunk i overlaps the compute
  // of chunk i+1 (Fig 5); with the thread transport sends complete eagerly,
  // which models the same ordering.
  la::RealMatrix partial;
  for (int owner = 0; owner < p; ++owner) {
    const Index block_begin = part.offset(owner);
    const Index block_rows = part.count(owner);
    for (Index c0 = 0; c0 < block_rows; c0 += chunk_rows) {
      const Index rows = std::min(chunk_rows, block_rows - c0);
      const Index global_row = block_begin + c0;
      // C[global_row : global_row+rows, :] = A[:, those cols]ᵀ B.
      partial.resize(rows, n);
      la::gemm(la::Trans::kYes, la::Trans::kNo, Real{1},
               a_local.cols_block(global_row, rows), b_local, Real{0},
               partial.view());
      comm.reduce(partial.data(), partial.size(), ReduceOp::kSum, owner);
      if (owner == me) {
        la::copy<Real>(partial.view(),
                       result.local_rows.view().rows_block(c0, rows));
      }
    }
  }
  return result;
}

void allreduce_via_row_owners(Comm& comm, la::RealMatrix& c,
                              Index chunk_rows) {
  const obs::Span span("par.gram_reduce.pipelined");
  LRT_CHECK(chunk_rows >= 1, "chunk_rows must be positive");
  const Index n = c.cols();
  const int p = comm.size();
  const BlockPartition part(c.rows(), p);
  // Reduce clobbers the non-root buffers with partial sums; the
  // allgatherv below overwrites every row this rank does not own.
  for (int owner = 0; owner < p; ++owner) {
    const Index block_begin = part.offset(owner);
    const Index block_rows = part.count(owner);
    for (Index c0 = 0; c0 < block_rows; c0 += chunk_rows) {
      const Index rows = std::min(chunk_rows, block_rows - c0);
      comm.reduce(c.row_ptr(block_begin + c0), rows * n, ReduceOp::kSum,
                  owner);
    }
  }
  std::vector<Index> counts(static_cast<std::size_t>(p));
  std::vector<Index> displs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = part.count(r) * n;
    displs[static_cast<std::size_t>(r)] = part.offset(r) * n;
  }
  const int me = comm.rank();
  comm.allgatherv(c.data() + displs[static_cast<std::size_t>(me)],
                  counts[static_cast<std::size_t>(me)], c.data(), counts,
                  displs);
}

}  // namespace lrt::par
