#include "par/pipeline.hpp"

#include <algorithm>

namespace lrt::par {

void allreduce_via_row_owners(Comm& comm, la::RealMatrix& c,
                              Index chunk_rows) {
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
