// Quickstart: solve one LR-TDDFT problem five ways.
//
// Generates a synthetic set of localized Kohn-Sham orbitals (no SCF —
// this keeps the example fast) and runs every optimization level of the
// paper's Table 4, printing the lowest excitation energies, timings and
// memory estimates side by side.
//
//   ./quickstart [--nv 8] [--nc 6] [--grid 12] [--states 3] [--nmu 0]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "tddft/driver.hpp"

using namespace lrt;

int main(int argc, char** argv) {
  CliParser cli(
      "LR-TDDFT quickstart: all five optimization levels on one problem");
  cli.add("nv", "8", "number of valence orbitals")
      .add("nc", "6", "number of conduction orbitals")
      .add("grid", "12", "real-space grid points per axis")
      .add("states", "3", "excitation states to report")
      .add("nmu", "0", "ISDF interpolation points (0 = auto rule of thumb)");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const Index n = cli.get_index("grid");
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(8.0), {n, n, n});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  const dft::SyntheticOrbitals orbs = dft::make_synthetic_orbitals(
      g, cli.get_index("nv"), cli.get_index("nc"), sopts);
  const tddft::CasidaProblem problem =
      tddft::make_problem_from_synthetic(g, orbs);

  std::printf("problem: Nr=%td  Nv=%td  Nc=%td  (pair space %td)\n\n",
              problem.nr(), problem.nv(), problem.nc(), problem.ncv());

  const tddft::Version versions[] = {
      tddft::Version::kNaive, tddft::Version::kQrcpIsdf,
      tddft::Version::kKmeansIsdf, tddft::Version::kKmeansIsdfLobpcg,
      tddft::Version::kImplicit};

  Table table("Lowest excitation energies (Hartree) by version",
              {"version", "E1", "E2", "E3", "time [s]", "memory est [MB]",
               "Nmu"});
  for (const tddft::Version v : versions) {
    tddft::DriverOptions opts;
    opts.version = v;
    opts.num_states = cli.get_index("states");
    opts.nmu = cli.get_index("nmu");
    const tddft::DriverResult r = tddft::solve_casida(problem, opts);
    table.row()
        .cell(tddft::version_name(v))
        .cell(r.energies[0], 6)
        .cell(r.energies.size() > 1 ? r.energies[1] : 0.0, 6)
        .cell(r.energies.size() > 2 ? r.energies[2] : 0.0, 6)
        .cell(r.seconds_total, 3)
        .cell(r.memory_bytes_estimate / 1e6, 2)
        .cell(r.nmu_used);
  }
  table.print();
  std::printf(
      "\nAll ISDF versions should agree with Naive to ~1%% — the low-rank\n"
      "error floor — while Implicit-Kmeans-ISDF-LOBPCG is fastest and\n"
      "smallest (paper Table 4, version 5).\n");
  return 0;
}
