// Paper Figure 8: strong-scaling breakdown of the Hamiltonian-construction
// phases — K-Means, FFT, MPI, GEMM(+Allreduce) — for the accelerated
// version, across rank counts.
//
// Flags:
//   --smoke                          ranks {1, 8} only (CI bench-smoke);
//   --gate-max-collective-calls N    fail unless reduce + bcast + allreduce
//                                    calls at the largest rank count <= N
//                                    (0 disables; the comm-budget gate).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "tddft/dist_driver.hpp"

using namespace lrt;

namespace {

/// Sum of the rank-visible collective invocations the fused schedules
/// target: legacy reduce + bcast pairs plus single-round allreduces.
long long collective_calls() {
  long long total = 0;
  for (const auto& [name, value] : obs::snapshot_counters()) {
    if (name == "comm.reduce.calls" || name == "comm.bcast.calls" ||
        name == "comm.allreduce.calls") {
      total += value;
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  long long gate = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate-max-collective-calls") == 0 &&
               i + 1 < argc) {
      gate = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig8_breakdown [--smoke] "
                   "[--gate-max-collective-calls N]\n");
      return 2;
    }
  }

  const bench::Workload w{"Si16*", 24, 16, 14, 13.0, 16};
  const tddft::CasidaProblem problem = bench::make_workload(w);
  std::printf("system: Nr=%td Nv=%td Nc=%td  (implicit version)\n\n",
              problem.nr(), problem.nv(), problem.nc());

  obs::BenchReport report("fig8");
  report.meta("workload", w.label);
  report.meta("figure", "8");

  Table table("Fig 8 (scaled): construction phase seconds (max over ranks)",
              {"ranks", "kmeans", "fft", "mpi", "gemm", "diag",
               "gemm+mpi share", "speedup", "coll calls"});
  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  double wall_1rank = 0;
  long long gated_calls = 0;
  int gated_ranks = 0;
  for (const int ranks : rank_counts) {
    // Isolate this rank count's counter snapshot (bytes per collective
    // kind, FFT/GEMM totals) from the previous runs'.
    obs::reset_counters();
    tddft::DistDriverStats stats;
    par::run(ranks, [&](par::Comm& comm) {
      tddft::DistDriverOptions opts;
      opts.version = tddft::Version::kImplicit;
      opts.num_states = 4;
      opts.nmu_ratio = 4.0;
      tddft::DistDriverStats mine =
          tddft::solve_casida_distributed(comm, problem, opts);
      // Every rank returns the same max-over-ranks stats; one writes them.
      if (comm.rank() == 0) stats = std::move(mine);
    });
    const long long calls = collective_calls();
    gated_calls = calls;
    gated_ranks = ranks;
    double phase[6] = {0, 0, 0, 0, 0, 0};
    double total = 0;
    for (const auto& [name, seconds] : stats.phases) {
      if (name == "kmeans") phase[0] = seconds;
      if (name == "fft") phase[1] = seconds;
      if (name == "mpi") phase[2] = seconds;
      if (name == "gemm") phase[3] = seconds;
      if (name == "diag") phase[4] = seconds;
      total += seconds;
    }
    const double share =
        total > 0 ? 100.0 * (phase[2] + phase[3]) / total : 0.0;
    if (ranks == 1) wall_1rank = stats.wall_seconds;
    const double speedup =
        stats.wall_seconds > 0 ? wall_1rank / stats.wall_seconds : 0.0;
    const double efficiency = 100.0 * speedup / ranks;
    table.row()
        .cell(ranks)
        .cell(phase[0], 3)
        .cell(phase[1], 3)
        .cell(phase[2], 3)
        .cell(phase[3], 3)
        .cell(phase[4], 3)
        .cell(format_real(share, 1) + "%")
        .cell(format_real(speedup, 2) + "x")
        .cell(static_cast<Index>(calls));

    obs::BenchReport::Record& record =
        report.record("ranks=" + std::to_string(ranks));
    record.param("ranks", static_cast<long long>(ranks))
        .param("nr", static_cast<long long>(problem.nr()))
        .param("nv", static_cast<long long>(problem.nv()))
        .param("nc", static_cast<long long>(problem.nc()))
        .metric("wall_seconds", stats.wall_seconds)
        .metric("comm_seconds", stats.comm_seconds)
        .metric("busy_seconds", stats.busy_seconds)
        .metric("gemm_mpi_share_pct", share)
        .metric("speedup_vs_1rank", speedup)
        .metric("parallel_efficiency_pct", efficiency);
    for (const auto& [name, seconds] : stats.phases) {
      record.phase(name, seconds);
    }
    record.counters_from_registry();
  }
  table.print();
  if (report.write()) {
    std::printf("\nwrote %s\n", report.default_path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n",
                 report.default_path().c_str());
    return 1;
  }
  if (gate > 0) {
    std::printf("\ncomm budget: %lld reduce+bcast+allreduce calls at %d "
                "ranks (gate: <= %lld)\n",
                gated_calls, gated_ranks, gate);
    if (gated_calls > gate) {
      std::fprintf(stderr,
                   "fig8: comm-budget gate FAILED: %lld collective calls "
                   "> %lld at %d ranks\n",
                   gated_calls, gate, gated_ranks);
      return 1;
    }
  }
  std::printf(
      "\npaper reference (Fig 8): K-Means, FFT and GEMM scale almost\n"
      "ideally while the MPI share grows with rank count; GEMM+Allreduce\n"
      "stays a small fraction (12.87%% in the paper's test).\n");
  return 0;
}
