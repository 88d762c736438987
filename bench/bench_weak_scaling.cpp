// Paper §6.4: weak scaling — growing system size at a fixed rank count
// (the paper runs Si512..Si4096 on 1024 cores: 3.58, 10.23, 26.95, 35.58,
// 41.89 s). The shape to reproduce: time grows polynomially but gently
// with the system (the accelerated method's cost model), staying within
// "interactive" range as the problem quadruples.
#include <cstdio>
#include <utility>

#include "bench_util.hpp"
#include "tddft/dist_driver.hpp"

using namespace lrt;

int main() {
  constexpr int kRanks = 4;
  std::printf("fixed ranks: %d (implicit ISDF-LOBPCG version)\n\n", kRanks);

  Table table("Weak scaling (scaled ladder) at 4 ranks",
              {"system", "Nv", "Nc", "Nr", "busy max [s]", "comm max [s]",
               "t / t_first"});
  double first = 0;
  for (const bench::Workload& w : bench::silicon_ladder()) {
    const tddft::CasidaProblem problem = bench::make_workload(w);
    tddft::DistDriverStats stats;
    par::run(kRanks, [&](par::Comm& comm) {
      tddft::DriverOptions opts;
      opts.version = tddft::Version::kImplicit;
      opts.num_states = 4;
      opts.nmu_ratio = 4.0;
      tddft::DistDriverStats mine =
          tddft::solve_casida_distributed(comm, problem, opts);
      // Every rank returns the same max-over-ranks stats; one writes them.
      if (comm.rank() == 0) stats = std::move(mine);
    });
    if (first == 0) first = stats.busy_seconds;
    table.row()
        .cell(w.label)
        .cell(w.nv)
        .cell(w.nc)
        .cell(problem.nr())
        .cell(stats.busy_seconds, 3)
        .cell(stats.comm_seconds, 3)
        .cell(stats.busy_seconds / first, 2);
  }
  table.print();
  std::printf(
      "\npaper reference (§6.4): 3.58 -> 41.89 s (11.7x) as the system\n"
      "grows 8x in atoms on fixed cores — 'suits the computational\n"
      "complexity well'. Compare the t/t_first trend.\n");
  return 0;
}
