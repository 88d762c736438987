// Parallel driver demo: run the distributed LR-TDDFT solver on a chosen
// number of simulated ranks and print the paper-style phase breakdown
// (K-Means / FFT / MPI / GEMM, Fig 8 categories).
//
// Ranks are threads of the message-passing runtime (see DESIGN.md); on a
// single-core container the interesting output is the per-rank busy time
// and communication volume, not the wall clock.
//
//   ./parallel_scaling [--ranks 4] [--nv 10] [--nc 8] [--grid 12]
//                      [--version implicit] [--pipeline-chunk 0]
#include <cstdio>
#include <utility>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/obs.hpp"
#include "tddft/dist_driver.hpp"

using namespace lrt;

int main(int argc, char** argv) {
  CliParser cli("Distributed LR-TDDFT demo with phase breakdown");
  cli.add("ranks", "4", "simulated MPI ranks (threads)")
      .add("nv", "10", "valence orbitals")
      .add("nc", "8", "conduction orbitals")
      .add("grid", "12", "grid points per axis")
      .add("version", "implicit", "naive | implicit")
      .add("pipeline-chunk", "0",
           "rows per pipelined reduce to the row owners (Fig 5); 0 = one "
           "allreduce");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const Index n = cli.get_index("grid");
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(9.0), {n, n, n});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  const dft::SyntheticOrbitals orbs = dft::make_synthetic_orbitals(
      g, cli.get_index("nv"), cli.get_index("nc"), sopts);
  const tddft::CasidaProblem problem =
      tddft::make_problem_from_synthetic(g, orbs);

  tddft::DriverOptions opts;
  opts.version = cli.get("version") == "naive" ? tddft::Version::kNaive
                                               : tddft::Version::kImplicit;
  opts.num_states = 3;
  opts.pipeline_chunk = cli.get_index("pipeline-chunk");

  const int ranks = static_cast<int>(cli.get_index("ranks"));
  // Record spans so we can report per-rank load imbalance afterwards
  // (aggregated from the same trace LRT_TRACE would export).
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::reset_trace();
  tddft::DistDriverStats stats;
  par::run(ranks, [&](par::Comm& comm) {
    tddft::DistDriverStats mine =
        tddft::solve_casida_distributed(comm, problem, opts);
    // Every rank returns the same max-over-ranks stats; one writes them.
    if (comm.rank() == 0) stats = std::move(mine);
  });

  std::printf("version: %s on %d ranks\n", tddft::version_name(opts.version),
              ranks);
  std::printf("energies:");
  for (const Real e : stats.energies) std::printf("  %.6f", e);
  std::printf(" Ha\n\n");

  Table table("Per-phase wall time (max over ranks)",
              {"phase", "seconds"});
  for (const auto& [name, seconds] : stats.phases) {
    table.row().cell(name).cell(seconds, 4);
  }
  table.row().cell("TOTAL wall").cell(stats.wall_seconds, 4);
  table.row().cell("comm (blocked)").cell(stats.comm_seconds, 4);
  table.row().cell("busy (thread CPU)").cell(stats.busy_seconds, 4);
  table.print();

  // Per-rank imbalance from the span trace: for every phase, compare the
  // busiest rank against the mean (1.00 = perfectly balanced).
  std::printf("\n");
  Table imbalance("Per-rank load imbalance (from span trace)",
                  {"phase", "count", "ranks", "total [s]", "min [s]",
                   "max [s]", "mean [s]", "max/mean"});
  for (const obs::PhaseStats& s : obs::aggregate_phases()) {
    imbalance.row()
        .cell(s.name)
        .cell(static_cast<Index>(s.count))
        .cell(static_cast<Index>(s.ranks))
        .cell(s.total_seconds, 4)
        .cell(s.min_rank_seconds, 4)
        .cell(s.max_rank_seconds, 4)
        .cell(s.mean_rank_seconds, 4)
        .cell(s.imbalance, 2);
  }
  imbalance.print();
  if (!was_enabled) {
    obs::set_tracing_enabled(false);
  }
  return 0;
}
