// Paper §5.3 / Figures 4-5: reducing the Vhxc / M partials with one
// MPI_Allreduce vs the pipelined MPI_Reduce of row chunks to their owners.
//
// Times tddft::kernel_projection, the driver's streamed f_Hxc sandwich
// over a row-distributed Θ, at pipeline_chunk 0 (one allreduce of the
// whole partial) and 32 (chunks of 32 rows reduced to their row owners,
// then one allgatherv), on 2, 4 and 8 ranks. Both end with M replicated
// on every rank, as the driver needs it. Reports the slowest rank's
// seconds and the most bytes any rank sent: in total, and in the
// reduction alone (the exchanges around the FFTs are the same both ways).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "grid/gvectors.hpp"
#include "par/layout.hpp"
#include "par/runtime.hpp"
#include "tddft/kernel.hpp"

using namespace lrt;

namespace {

/// Bytes this rank sent in the reduction collectives so far.
long long reduction_bytes(const par::Comm& comm) {
  return comm.bytes_sent(par::Traffic::kAllreduce) +
         comm.bytes_sent(par::Traffic::kReduce) +
         comm.bytes_sent(par::Traffic::kAllgatherv);
}

}  // namespace

int main() {
  const bench::Workload w = bench::silicon_ladder().back();
  const tddft::CasidaProblem problem = bench::make_workload(w);
  const grid::GVectors gvectors(problem.grid);
  const tddft::HxcKernel kernel(problem.grid, gvectors,
                                problem.ground_density);
  const Index nmu = 256;
  Rng rng(7);
  const la::RealMatrix theta =
      la::RealMatrix::random_normal(problem.nr(), nmu, rng);
  constexpr int kReps = 3;

  std::printf("M = Θᵀ f_Hxc Θ dv: Θ %td x %td, row-distributed (%s grid), "
              "best of %d\n\n",
              problem.nr(), nmu, w.label.c_str(), kReps);
  Table table("Fig 5: kernel_projection, Allreduce vs pipelined Reduce",
              {"ranks", "reduction", "time [s]", "MB sent/rank",
               "reduction MB/rank"});
  for (const int ranks : {2, 4, 8}) {
    for (const Index chunk : {Index{0}, Index{32}}) {
      // [seconds, total bytes, reduction bytes], max over ranks.
      double maxima[3] = {0, 0, 0};
      par::run(ranks, [&](par::Comm& comm) {
        const par::BlockPartition rows(problem.nr(), comm.size());
        const la::RealConstView mine = theta.view().rows_block(
            rows.offset(comm.rank()), rows.count(comm.rank()));
        double local[3] = {1e300, 0, 0};
        for (int rep = 0; rep < kReps; ++rep) {
          comm.barrier();
          const long long total0 = comm.bytes_sent();
          const long long reduce0 = reduction_bytes(comm);
          Timer timer;
          const la::RealMatrix m =
              tddft::kernel_projection(kernel, mine, &comm, chunk);
          local[0] = std::min(local[0], timer.seconds());
          local[1] = static_cast<double>(comm.bytes_sent() - total0);
          local[2] = static_cast<double>(reduction_bytes(comm) - reduce0);
        }
        comm.allreduce(local, 3, par::ReduceOp::kMax);
        if (comm.rank() == 0) std::copy(local, local + 3, maxima);
      });
      table.row()
          .cell(ranks)
          .cell(chunk == 0 ? "one Allreduce" : "Reduce to owners, 32 rows")
          .cell(maxima[0], 4)
          .cell(maxima[1] / 1e6, 2)
          .cell(maxima[2] / 1e6, 2);
    }
  }
  table.print();
  std::printf(
      "\npaper reference (§5.3): reducing each chunk to its owner sends it\n"
      "once instead of replicating it through every rank; the allgatherv\n"
      "that replicates M afterwards costs the same on both rows.\n");
  return 0;
}
