// Paper Figure 7: strong scaling of three code versions (Naive, ISDF,
// ISDF-LOBPCG) with parallel efficiency bars.
//
// Ranks are threads of the message-passing runtime on a single-core
// container, so wall clock cannot shrink with rank count. Following the
// substitution documented in DESIGN.md, efficiency is computed on the
// max-per-rank BUSY time (wall minus time blocked in communication):
// busy(R)·R / busy(1) measures how evenly the fixed work divides and how
// much extra compute parallelization introduces — the quantity whose
// decay the paper's Figure 7 plots. Communication volume is also shown
// (it grows with R — the reason the paper's efficiency falls).
#include <cstdio>
#include <utility>

#include "bench_util.hpp"
#include "tddft/dist_driver.hpp"

using namespace lrt;

namespace {

void sweep(const char* name, const tddft::Version version,
           const tddft::CasidaProblem& problem) {
  Table table(std::string("Fig 7 (scaled): strong scaling — ") + name,
              {"ranks", "busy max [s]", "comm max [s]", "efficiency",
               "MB sent/rank"});
  double busy1 = 0;
  for (const int ranks : {1, 2, 4, 8}) {
    tddft::DistDriverStats stats;
    long long bytes = 0;
    par::run(ranks, [&](par::Comm& comm) {
      tddft::DistDriverOptions opts;
      opts.version = version;
      opts.num_states = 4;
      opts.nmu_ratio = 4.0;
      tddft::DistDriverStats mine =
          tddft::solve_casida_distributed(comm, problem, opts);
      // Every rank returns the same max-over-ranks stats; one writes them.
      if (comm.rank() == 0) {
        stats = std::move(mine);
        bytes = comm.bytes_sent();
      }
    });
    if (ranks == 1) busy1 = stats.busy_seconds;
    const double efficiency = busy1 / (stats.busy_seconds * ranks);
    table.row()
        .cell(ranks)
        .cell(stats.busy_seconds, 3)
        .cell(stats.comm_seconds, 3)
        .cell(format_real(100.0 * efficiency, 1) + "%")
        .cell(double(bytes) / 1e6, 2);
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  const bench::Workload w{"Si16*", 24, 16, 14, 13.0, 16};
  const tddft::CasidaProblem problem = bench::make_workload(w);
  std::printf("system: Nr=%td Nv=%td Nc=%td\n\n", problem.nr(), problem.nv(),
              problem.nc());

  sweep("Naive (version 1)", tddft::Version::kNaive, problem);
  sweep("Implicit-Kmeans-ISDF-LOBPCG (version 5)", tddft::Version::kImplicit,
        problem);

  std::printf(
      "paper reference (Fig 7): parallel efficiency stays above ~50%% to\n"
      "2048 cores for the naive version; the ISDF versions trade a little\n"
      "strong-scaling efficiency for the 10x absolute speedup.\n");
  return 0;
}
