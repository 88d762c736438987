// Bilayer-graphene application (MATBG analog of paper Fig 9).
//
// Computes ground-state DOS for two interlayer distances (D = 2.6 Å and
// 4.0 Å) and the excitation-energy DOS at the smaller distance, writing
// three CSV curves. The paper's observation — interlayer-coupling-induced
// states near the Fermi level at small D that vanish at large D, and a
// cluster of low-lying excitations — is reproduced in shape at patch scale
// (see DESIGN.md for the MATBG substitution).
//
//   ./matbg_dos [--nx 1] [--ny 1] [--ecut 6] [--out-prefix matbg]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "io/cube.hpp"
#include "tddft/driver.hpp"
#include "tddft/spectrum.hpp"

using namespace lrt;

namespace {

dft::KohnShamResult run_scf(const grid::Structure& s, Real ecut) {
  dft::ScfOptions scf;
  scf.ecut = ecut;
  scf.num_conduction = 8;
  scf.smearing = 0.005;  // graphene-like systems are (semi)metallic
  scf.density_tolerance = 5e-5;
  scf.max_iterations = 60;
  return dft::solve_ground_state(s, scf);
}

void write_dos_csv(const std::string& path, const std::vector<Real>& grid_ev,
                   const std::vector<Real>& dos, const char* title) {
  Table t(title, {"energy_eV", "dos"});
  for (std::size_t i = 0; i < grid_ev.size(); ++i) {
    t.row().cell(grid_ev[i], 4).cell(dos[i], 6);
  }
  t.write_csv(path);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), grid_ev.size());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Bilayer graphene ground/excited DOS (Fig 9 analog)");
  cli.add("nx", "1", "graphene cells along x (per layer)")
      .add("ny", "1", "graphene cells along y")
      .add("ecut", "6.0", "kinetic cutoff (Hartree)")
      .add("vacuum", "5.0", "vacuum padding (Bohr)")
      .add("out-prefix", "matbg", "CSV output prefix");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const Real d_small = 2.6 * units::kAngstromToBohr;
  const Real d_large = 4.0 * units::kAngstromToBohr;
  const Index nx = cli.get_index("nx");
  const Index ny = cli.get_index("ny");
  const Real vacuum = cli.get_real("vacuum");
  const std::string prefix = cli.get("out-prefix");

  // ---- ground-state DOS at both distances ---------------------------------
  std::vector<Real> fermi(2);
  for (int which = 0; which < 2; ++which) {
    const Real dz = which == 0 ? d_small : d_large;
    const grid::Structure s =
        grid::make_bilayer_graphene(nx, ny, dz, vacuum);
    std::printf("D = %.1f Angstrom: %td C atoms ... ",
                dz * units::kBohrToAngstrom, s.num_atoms());
    std::fflush(stdout);
    const dft::KohnShamResult ks = run_scf(s, cli.get_real("ecut"));
    std::printf("SCF %s (%td iters), EF = %.3f eV\n",
                ks.converged ? "ok" : "unconverged", ks.iterations,
                ks.fermi_level * units::kHartreeToEv);
    fermi[static_cast<std::size_t>(which)] = ks.fermi_level;

    // DOS relative to the Fermi level, in eV.
    std::vector<Real> ev;
    for (const Real e : ks.eigenvalues) {
      ev.push_back((e - ks.fermi_level) * units::kHartreeToEv);
    }
    const std::vector<Real> egrid = tddft::linspace(-8.0, 8.0, 321);
    const std::vector<Real> dos = tddft::gaussian_dos(ev, egrid, 0.25);
    write_dos_csv(prefix + (which == 0 ? "_dos_d2.6.csv" : "_dos_d4.0.csv"),
                  egrid, dos, "ground-state DOS (E - EF, eV)");

    // Volumetric density for VMD/VESTA (the isosurface insets of Fig 9).
    const std::string cube_path =
        prefix + (which == 0 ? "_density_d2.6.cube" : "_density_d4.0.cube");
    io::write_cube_file(cube_path, "bilayer graphene ground-state density",
                        ks.grid, s, ks.density);
    std::printf("wrote %s\n", cube_path.c_str());
  }

  // ---- excitation DOS at the small distance --------------------------------
  {
    const grid::Structure s =
        grid::make_bilayer_graphene(nx, ny, d_small, vacuum);
    const dft::KohnShamResult ks = run_scf(s, cli.get_real("ecut"));
    const Index nv_use = std::min<Index>(8, ks.num_occupied);
    const Index nc_use = std::min<Index>(
        6, ks.orbitals.cols() - ks.num_occupied);
    const tddft::CasidaProblem problem =
        tddft::make_problem_from_scf(ks, nv_use, nc_use);

    tddft::DriverOptions opts;
    opts.version = tddft::Version::kImplicit;
    opts.num_states = std::min<Index>(8, problem.ncv());
    const tddft::DriverResult r = tddft::solve_casida(problem, opts);

    std::vector<Real> ev;
    for (const Real e : r.energies) ev.push_back(e * units::kHartreeToEv);
    const std::vector<Real> egrid = tddft::linspace(0.0, 3.0, 151);
    const std::vector<Real> dos = tddft::gaussian_dos(ev, egrid, 0.1);
    write_dos_csv(prefix + "_excitation_dos_d2.6.csv", egrid, dos,
                  "excitation-energy DOS (eV)");
    std::printf("lowest excitation: %.3f eV\n", ev.front());
  }
  return 0;
}
