// RT-TDDFT vs LR-TDDFT cross-validation (paper Table 1 context: the same
// PWDFT code family ships both).
//
// Runs the full chain on one water molecule: SCF ground state, then
// (a) LR-TDDFT excitation energies + oscillator strengths, and
// (b) real-time propagation after a δ-kick with the dipole spectrum.
// The RT absorption peaks should line up with the bright LR excitations —
// two completely different algorithms agreeing on the same physics.
//
//   ./rt_absorption [--box 12] [--ecut 5] [--steps 1500] [--dt 0.08]
#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dft/pseudopotential.hpp"
#include "tddft/driver.hpp"
#include "tddft/rt_propagation.hpp"
#include "tddft/spectrum.hpp"

using namespace lrt;

int main(int argc, char** argv) {
  CliParser cli("RT-TDDFT dipole spectrum vs LR-TDDFT excitations (H2O)");
  cli.add("box", "12.0", "cubic box edge (Bohr)")
      .add("ecut", "5.0", "kinetic cutoff (Hartree)")
      .add("steps", "1500", "propagation steps")
      .add("dt", "0.08", "time step (a.u.)")
      .add("kick", "0.002", "delta-kick strength")
      .add("out", "rt_spectrum.csv", "spectrum CSV path");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const grid::Structure water = grid::make_water_box(cli.get_real("box"));
  dft::ScfOptions scf;
  scf.ecut = cli.get_real("ecut");
  scf.num_conduction = 4;
  scf.smearing = 0.0;
  scf.density_tolerance = 1e-6;
  const dft::KohnShamResult ks = dft::solve_ground_state(water, scf);
  std::printf("SCF %s (%td iters), gap %.2f eV, grid %td points\n",
              ks.converged ? "converged" : "UNCONVERGED", ks.iterations,
              ks.band_gap * units::kHartreeToEv, ks.grid.size());

  // ---- LR-TDDFT reference ---------------------------------------------------
  const tddft::CasidaProblem problem = tddft::make_problem_from_scf(ks);
  tddft::DriverOptions opts;
  opts.version = tddft::Version::kNaive;
  opts.num_states = std::min<Index>(6, problem.ncv());
  const tddft::DriverResult lr = tddft::solve_casida(problem, opts);
  const tddft::Spectrum lr_spec = tddft::oscillator_spectrum(
      problem, lr.energies, lr.wavefunctions.view());

  Table lr_table("LR-TDDFT excitations", {"state", "E [eV]", "f_osc"});
  for (std::size_t i = 0; i < lr_spec.energies.size(); ++i) {
    lr_table.row()
        .cell(static_cast<Index>(i + 1))
        .cell(lr_spec.energies[i] * units::kHartreeToEv, 3)
        .cell(lr_spec.strengths[i], 5);
  }
  lr_table.print();

  // ---- RT-TDDFT propagation -------------------------------------------------
  const grid::GVectors gvectors(ks.grid);
  const std::vector<Real> vloc =
      dft::build_local_potential(ks.grid, gvectors, water);

  tddft::RtOptions rt;
  rt.dt = cli.get_real("dt");
  rt.steps = cli.get_index("steps");
  rt.kick = cli.get_real("kick");
  rt.kick_axis = 2;  // water dipole axis (z in the built geometry)
  std::printf("\npropagating %td steps of dt=%.3f (T = %.1f a.u.) ...\n",
              rt.steps, rt.dt, rt.dt * static_cast<Real>(rt.steps));
  const tddft::RtResult dynamics = tddft::propagate(
      ks.grid, gvectors, water, ks.valence(),
      std::vector<Real>(ks.occupations.begin(),
                        ks.occupations.begin() + ks.num_occupied),
      vloc, rt);
  std::printf("max norm drift: %.2e\n",
              *std::max_element(dynamics.norm_drift.begin(),
                                dynamics.norm_drift.end()));

  // Spectrum over the LR energy window.
  const Real emax = 1.6 * lr_spec.energies.back();
  std::vector<Real> omegas;
  for (Real w = 0.02; w < emax; w += 0.002) omegas.push_back(w);
  const std::vector<Real> sigma =
      tddft::dipole_spectrum(dynamics.time, dynamics.dipole, omegas, 0.02);

  Table csv("RT dipole spectrum", {"omega_eV", "intensity"});
  for (std::size_t i = 0; i < omegas.size(); ++i) {
    csv.row().cell(omegas[i] * units::kHartreeToEv, 4).cell(sigma[i], 8);
  }
  csv.write_csv(cli.get("out"));
  std::printf("wrote %s\n", cli.get("out").c_str());

  // Report the dominant RT peak vs the strongest LR transition.
  const auto peak_it = std::max_element(sigma.begin(), sigma.end());
  const Real rt_peak = omegas[static_cast<std::size_t>(
      peak_it - sigma.begin())];
  std::size_t brightest = 0;
  for (std::size_t i = 1; i < lr_spec.strengths.size(); ++i) {
    if (lr_spec.strengths[i] > lr_spec.strengths[brightest]) brightest = i;
  }
  std::printf(
      "\nRT dominant peak: %.3f eV   brightest LR excitation: %.3f eV\n"
      "(agreement within the spectral resolution 2π/T = %.3f eV validates\n"
      "the two solvers against each other)\n",
      rt_peak * units::kHartreeToEv,
      lr_spec.energies[brightest] * units::kHartreeToEv,
      constants::kTwoPi / (rt.dt * static_cast<Real>(rt.steps)) *
          units::kHartreeToEv);
  return 0;
}
