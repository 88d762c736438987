#include "dft/scf.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/log.hpp"
#include "dft/ewald.hpp"
#include "dft/hartree.hpp"
#include "dft/lobpcg_gs.hpp"
#include "dft/pseudopotential.hpp"
#include "dft/xc.hpp"
#include "fft/real_columns.hpp"
#include "la/lu.hpp"

namespace lrt::dft {
namespace {

/// Fermi-Dirac occupations (0..2 per band) for `total_electrons`, with the
/// chemical potential found by bisection. width == 0 gives integer filling.
std::vector<Real> fermi_occupations(const std::vector<Real>& eigenvalues,
                                    Real total_electrons, Real width,
                                    Real* fermi_out) {
  const std::size_t nb = eigenvalues.size();
  std::vector<Real> occ(nb, 0.0);
  if (width <= 0) {
    const Index filled = static_cast<Index>(std::llround(total_electrons / 2));
    for (Index i = 0; i < filled; ++i) occ[static_cast<std::size_t>(i)] = 2.0;
    if (fermi_out) {
      *fermi_out = filled > 0 ? eigenvalues[static_cast<std::size_t>(filled - 1)]
                              : 0.0;
    }
    return occ;
  }
  auto count = [&](Real mu) {
    Real sum = 0;
    for (const Real e : eigenvalues) {
      sum += 2.0 / (1.0 + std::exp((e - mu) / width));
    }
    return sum;
  };
  Real lo = eigenvalues.front() - 20 * width;
  Real hi = eigenvalues.back() + 20 * width;
  for (int it = 0; it < 200; ++it) {
    const Real mid = 0.5 * (lo + hi);
    if (count(mid) < total_electrons) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const Real mu = 0.5 * (lo + hi);
  for (std::size_t i = 0; i < nb; ++i) {
    occ[i] = 2.0 / (1.0 + std::exp((eigenvalues[i] - mu) / width));
  }
  if (fermi_out) *fermi_out = mu;
  return occ;
}

/// Density from l2-normalized orbital columns with per-band occupations:
/// n(r) = Σ_b f_b |ψ_b(r)|² / dv.
std::vector<Real> density_from_orbitals(la::RealConstView orbitals,
                                        const std::vector<Real>& occupations,
                                        Real dv) {
  const Index nr = orbitals.rows();
  std::vector<Real> n(static_cast<std::size_t>(nr), Real{0});
  for (Index j = 0; j < orbitals.cols(); ++j) {
    const Real f = occupations[static_cast<std::size_t>(j)];
    if (f < 1e-12) continue;
    for (Index i = 0; i < nr; ++i) {
      n[static_cast<std::size_t>(i)] += f * orbitals(i, j) * orbitals(i, j);
    }
  }
  const Real scale = Real{1} / dv;
  for (Real& v : n) v *= scale;
  return n;
}

/// Pulay (DIIS) mixer over Kerker-filtered residuals.
class PulayMixer {
 public:
  /// `target_sum` is the exact electron count the output density must
  /// integrate to (with volume element `dv`): the nonnegativity clamp can
  /// add charge, and the Kerker filter (zero at G = 0) cannot remove it,
  /// so the mixer renormalizes explicitly.
  PulayMixer(Index history, Real alpha, Real target_sum, Real dv)
      : history_(history), alpha_(alpha), target_sum_(target_sum), dv_(dv) {}

  /// Computes the next input density from (n_in, filtered residual).
  std::vector<Real> next(const std::vector<Real>& n_in,
                         const std::vector<Real>& residual) {
    const std::size_t n = n_in.size();

    // Stagnation / blow-up guards: if the residual norm stopped improving
    // (degenerate history makes the DIIS system singular and the update
    // collapses onto the fixed point) or grew sharply, restart from a
    // plain damped step.
    Real norm = 0;
    for (const Real r : residual) norm += r * r;
    norm = std::sqrt(norm);
    if (!history_norms_.empty()) {
      const Real best =
          *std::min_element(history_norms_.begin(), history_norms_.end());
      if (norm > 2.0 * best || norm > 0.999 * last_norm_) {
        ++stall_count_;
      } else {
        stall_count_ = 0;
      }
      if (stall_count_ >= 2) {
        inputs_.clear();
        residuals_.clear();
        history_norms_.clear();
        stall_count_ = 0;
      }
    }
    last_norm_ = norm;

    inputs_.push_back(n_in);
    residuals_.push_back(residual);
    history_norms_.push_back(norm);
    if (static_cast<Index>(inputs_.size()) > history_) {
      inputs_.pop_front();
      residuals_.pop_front();
      history_norms_.pop_front();
    }
    const Index m = static_cast<Index>(inputs_.size());

    std::vector<Real> coeff(static_cast<std::size_t>(m), Real{0});
    if (m == 1) {
      coeff[0] = 1.0;
    } else {
      // Minimize ||Σ c_i R_i||² subject to Σ c_i = 1 via the bordered
      // normal-equation system, with a small Tikhonov ridge so nearly
      // collinear histories stay solvable.
      la::RealMatrix a(m + 1, m + 1);
      la::RealMatrix b(m + 1, 1);
      Real max_diag = 0;
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j <= i; ++j) {
          Real dot = 0;
          const auto& ri = residuals_[static_cast<std::size_t>(i)];
          const auto& rj = residuals_[static_cast<std::size_t>(j)];
          for (std::size_t k = 0; k < n; ++k) dot += ri[k] * rj[k];
          a(i, j) = dot;
          a(j, i) = dot;
        }
        max_diag = std::max(max_diag, a(i, i));
        a(i, m) = 1.0;
        a(m, i) = 1.0;
      }
      for (Index i = 0; i < m; ++i) a(i, i) += 1e-10 * max_diag;
      b(m, 0) = 1.0;
      bool solved = true;
      la::RealMatrix x;
      try {
        x = la::solve(a.view(), b.view());
      } catch (const Error&) {
        solved = false;
      }
      // Reject wild extrapolations (|c| explosion from near-singularity).
      Real coeff_norm = 0;
      if (solved) {
        for (Index i = 0; i < m; ++i) {
          coeff_norm = std::max(coeff_norm, std::abs(x(i, 0)));
        }
      }
      if (solved && coeff_norm < 50.0) {
        for (Index i = 0; i < m; ++i) coeff[static_cast<std::size_t>(i)] = x(i, 0);
      } else {
        coeff.back() = 1.0;  // plain damped step on the newest pair
      }
    }

    std::vector<Real> next_density(n, Real{0});
    for (Index i = 0; i < m; ++i) {
      const Real c = coeff[static_cast<std::size_t>(i)];
      const auto& ni = inputs_[static_cast<std::size_t>(i)];
      const auto& ri = residuals_[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < n; ++k) {
        next_density[k] += c * (ni[k] + alpha_ * ri[k]);
      }
    }
    // Numerical guards: densities must stay nonnegative and integrate to
    // the exact electron count.
    for (Real& v : next_density) v = std::max(v, Real{0});
    Real total = 0;
    for (const Real v : next_density) total += v;
    total *= dv_;
    if (total > 0) {
      const Real scale = target_sum_ / total;
      for (Real& v : next_density) v *= scale;
    }
    return next_density;
  }

 private:
  Index history_;
  Real alpha_;
  Real target_sum_;
  Real dv_;
  std::deque<std::vector<Real>> inputs_;
  std::deque<std::vector<Real>> residuals_;
  std::deque<Real> history_norms_;
  Real last_norm_ = 1e30;
  int stall_count_ = 0;
};

}  // namespace

KohnShamResult solve_ground_state(const grid::Structure& structure,
                                  const ScfOptions& options) {
  KohnShamResult result;
  result.grid = grid::RealSpaceGrid::from_cutoff(structure.cell, options.ecut);
  const grid::RealSpaceGrid& g = result.grid;
  const grid::GVectors gvectors(g);
  const Real dv = g.dv();
  const Index nr = g.size();

  const Index nv = structure.num_occupied();
  const Index nb = nv + options.num_conduction;
  const Real total_electrons = structure.num_electrons();
  LRT_CHECK(3 * nb <= nr, "grid too small for " << nb << " bands (Nr=" << nr
                                                << "); raise ecut");

  const std::vector<Real> vloc =
      build_local_potential(g, gvectors, structure);
  const fft::PoissonSolver poisson = make_poisson_solver(g, gvectors);
  KsHamiltonian h(g, gvectors);
  auto nonlocal = std::make_shared<const NonlocalProjectors>(g, structure);
  h.set_nonlocal(nonlocal);

  std::vector<Real> density = initial_density(g, structure);
  std::vector<Real> vhartree(static_cast<std::size_t>(nr));

  la::RealMatrix orbitals;  // warm start carrier, l2-normalized columns
  std::vector<Real> eigenvalues;
  std::vector<Real> occupations;

  // Kerker filter applied to the raw residual n_out - n_in before it
  // enters the Pulay mixer (G = 0 untouched: filter value 0 preserves the
  // electron count exactly).
  const auto shape = g.shape();
  fft::Fft3D mixer_fft(shape[0], shape[1], shape[2]);
  auto kerker_filter = [&](std::vector<Real>& delta) {
    if (options.kerker_q0 <= 0) return;
    const Real q02 = options.kerker_q0 * options.kerker_q0;
    fft::apply_real_multiplier(mixer_fft, 1, delta.data(), 1, delta.data(), 1,
                               [&](Index g) {
                                 const Real g2 = gvectors.g2(g);
                                 return g2 / (g2 + q02);
                               });
  };

  PulayMixer mixer(std::max<Index>(1, options.pulay_history), options.mixing,
                   total_electrons, dv);
  Real residual = 1e9;

  for (Index iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Effective potential from the current density.
    poisson.solve(density.data(), vhartree.data());
    const std::vector<Real> vxc = lda_vxc_array(density);
    std::vector<Real> veff(static_cast<std::size_t>(nr));
    for (Index i = 0; i < nr; ++i) {
      veff[static_cast<std::size_t>(i)] = vloc[static_cast<std::size_t>(i)] +
                                          vhartree[static_cast<std::size_t>(i)] +
                                          vxc[static_cast<std::size_t>(i)];
    }
    h.set_potential(std::move(veff));

    // Lowest nb bands, warm-started; band tolerance tracks the density
    // residual (solving bands to 1e-7 under a potential that is still off
    // by 1e-1 is wasted work).
    BandSolveOptions band_opts;
    band_opts.max_iterations = options.band_iterations;
    band_opts.tolerance = std::clamp(Real{1e-3} * residual,
                                     options.band_tolerance, Real{1e-4});
    band_opts.seed = options.seed;
    la::LobpcgResult bands =
        solve_bands(h, nb, std::move(orbitals), band_opts);
    orbitals = std::move(bands.eigenvectors);
    eigenvalues = bands.eigenvalues;

    occupations = fermi_occupations(eigenvalues, total_electrons,
                                    options.smearing, &result.fermi_level);
    if (iter == 0 && !occupations.empty() && occupations.back() > 0.05) {
      log::warn("highest computed band carries occupation ",
                occupations.back(),
                "; the smearing tail is truncated — raise "
                "ScfOptions::num_conduction or lower the smearing width, "
                "or the SCF may stall");
    }
    std::vector<Real> new_density =
        density_from_orbitals(orbitals.view(), occupations, dv);

    std::vector<Real> delta(static_cast<std::size_t>(nr));
    residual = 0;
    for (Index i = 0; i < nr; ++i) {
      delta[static_cast<std::size_t>(i)] =
          new_density[static_cast<std::size_t>(i)] -
          density[static_cast<std::size_t>(i)];
      residual += delta[static_cast<std::size_t>(i)] *
                  delta[static_cast<std::size_t>(i)];
    }
    residual = std::sqrt(residual * dv);

    if (options.verbose) {
      log::info("SCF iter ", iter + 1, "  |dn|=", residual,
                "  eps0=", eigenvalues.empty() ? 0.0 : eigenvalues[0]);
    }

    if (residual < options.density_tolerance) {
      density = std::move(new_density);
      result.converged = true;
      break;
    }

    kerker_filter(delta);
    density = mixer.next(density, delta);
  }

  // Final quantities at the converged density.
  poisson.solve(density.data(), vhartree.data());
  const std::vector<Real> vxc = lda_vxc_array(density);
  std::vector<Real> veff(static_cast<std::size_t>(nr));
  for (Index i = 0; i < nr; ++i) {
    veff[static_cast<std::size_t>(i)] = vloc[static_cast<std::size_t>(i)] +
                                        vhartree[static_cast<std::size_t>(i)] +
                                        vxc[static_cast<std::size_t>(i)];
  }

  // Total energy: E = T_s + E_nl + ∫V_loc n + E_H + E_xc + E_II.
  Real kinetic = 0;
  {
    std::vector<Real> weights(static_cast<std::size_t>(nb), Real{0});
    std::vector<Real> column(static_cast<std::size_t>(nr));
    for (Index j = 0; j < nb; ++j) {
      const Real f = occupations[static_cast<std::size_t>(j)];
      if (f < 1e-12) continue;
      weights[static_cast<std::size_t>(j)] = f;
      for (Index i = 0; i < nr; ++i) {
        column[static_cast<std::size_t>(i)] = orbitals(i, j);
      }
      // Columns are l2-normalized here; NonlocalProjectors::energy is
      // quadratic in the dv-metric coefficient, so divide by dv once.
      kinetic += f * nonlocal->energy(column.data()) / dv;
    }
    kinetic += h.kinetic_energy(orbitals.view(), weights);
  }
  Real e_ext = 0;
  for (Index i = 0; i < nr; ++i) {
    e_ext += vloc[static_cast<std::size_t>(i)] *
             density[static_cast<std::size_t>(i)];
  }
  e_ext *= dv;
  const Real e_hartree = poisson.energy(density.data(), vhartree.data(), dv);
  const Real e_xc = lda_exc_energy(density, dv);
  const Real e_ii = ewald_energy(structure);
  result.total_energy = kinetic + e_ext + e_hartree + e_xc + e_ii;

  // Convert orbitals to the physical dv metric: ψ_phys = ψ_l2 / sqrt(dv).
  const Real to_physical = Real{1} / std::sqrt(dv);
  for (Index i = 0; i < nr; ++i) {
    for (Index j = 0; j < orbitals.cols(); ++j) {
      orbitals(i, j) *= to_physical;
    }
  }

  result.orbitals = std::move(orbitals);
  result.eigenvalues = std::move(eigenvalues);
  result.occupations = std::move(occupations);
  result.num_occupied = nv;
  result.density = std::move(density);
  result.veff = std::move(veff);
  if (static_cast<Index>(result.eigenvalues.size()) > nv && nv > 0) {
    result.band_gap = result.eigenvalues[static_cast<std::size_t>(nv)] -
                      result.eigenvalues[static_cast<std::size_t>(nv - 1)];
  }
  return result;
}

}  // namespace lrt::dft
