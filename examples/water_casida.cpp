// Full first-principles chain on one water molecule (paper Table 5 setup):
// plane-wave Kohn-Sham SCF in a vacuum box, then Casida LR-TDDFT with the
// naive explicit build and with the accelerated ISDF-LOBPCG version,
// comparing the lowest excitation energies.
//
//   ./water_casida [--box 16.0] [--ecut 8] [--states 3]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "tddft/driver.hpp"

using namespace lrt;

int main(int argc, char** argv) {
  CliParser cli("H2O-in-a-box LR-TDDFT accuracy demo");
  cli.add("box", "16.0", "cubic box edge (Bohr)")
      .add("ecut", "8.0", "kinetic cutoff (Hartree)")
      .add("states", "3", "excitation states to report")
      .add("nc", "4", "conduction orbitals to converge");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const grid::Structure water = grid::make_water_box(cli.get_real("box"));
  std::printf("H2O in a %.1f Bohr box: %td atoms, %.0f electrons\n",
              cli.get_real("box"), water.num_atoms(), water.num_electrons());

  dft::ScfOptions scf;
  scf.ecut = cli.get_real("ecut");
  scf.num_conduction = cli.get_index("nc");
  scf.smearing = 0.0;  // large-gap molecule: integer occupations
  scf.density_tolerance = 1e-6;
  const dft::KohnShamResult ks = dft::solve_ground_state(water, scf);
  std::printf("SCF: %s after %td iterations, Etot = %.6f Ha, gap = %.3f eV\n",
              ks.converged ? "converged" : "NOT converged", ks.iterations,
              ks.total_energy, ks.band_gap * units::kHartreeToEv);
  std::printf("grid: %td points (%td x %td x %td)\n\n", ks.grid.size(),
              ks.grid.shape()[0], ks.grid.shape()[1], ks.grid.shape()[2]);

  const tddft::CasidaProblem problem = tddft::make_problem_from_scf(ks);

  tddft::DriverOptions naive;
  naive.version = tddft::Version::kNaive;
  naive.num_states = cli.get_index("states");
  const tddft::DriverResult reference = tddft::solve_casida(problem, naive);

  tddft::DriverOptions fast;
  fast.version = tddft::Version::kImplicit;
  fast.num_states = cli.get_index("states");
  const tddft::DriverResult accel = tddft::solve_casida(problem, fast);

  Table table("Lowest excitation energies of H2O (Hartree)",
              {"state", "Naive (LR-TDDFT)", "ISDF-LOBPCG", "rel. error"});
  for (std::size_t i = 0; i < reference.energies.size(); ++i) {
    const Real e0 = reference.energies[i];
    const Real e1 = accel.energies[i];
    table.row()
        .cell(static_cast<Index>(i + 1))
        .cell(e0, 6)
        .cell(e1, 6)
        .cell(format_real(100.0 * (e0 - e1) / e0, 4) + "%");
  }
  table.print();
  std::printf("\nnaive: %.2f s   ISDF-LOBPCG: %.2f s  (Nmu = %td)\n",
              reference.seconds_total, accel.seconds_total, accel.nmu_used);
  return 0;
}
