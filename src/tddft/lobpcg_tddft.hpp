// Excited-state LOBPCG (paper Algorithm 2).
//
// Solves for the k lowest excitation energies of the Casida problem with
// the generic LOBPCG core and the paper's Eq (17) preconditioner
//   K = (ε_ic - ε_iv) - θ   (applied as the diagonal inverse, regularized)
// — the energy-difference diagonal is an excellent approximation of H far
// from the targeted eigenvalue, so K⁻¹ r is a cheap quasi-Newton step.
#pragma once

#include "la/davidson.hpp"
#include "la/lobpcg.hpp"
#include "tddft/implicit_hamiltonian.hpp"

namespace lrt::tddft {

/// Iterative eigensolver family (paper §1 cites both Davidson [8] and
/// LOBPCG [11]; the implementation uses LOBPCG, Davidson is provided for
/// the ablation bench).
enum class EigenMethod { kLobpcg, kDavidson };

struct TddftEigenOptions {
  Index num_states = 3;
  Index max_iterations = 300;
  Real tolerance = 1e-8;
  unsigned seed = 7;
  EigenMethod method = EigenMethod::kLobpcg;
};

/// Initial guess: unit vectors on the k smallest energy-difference pairs
/// of the full diagonal `d` plus a small random perturbation (the
/// physically dominant transitions). Order and noise are the same on every
/// rank; the caller keeps its `rows` rows starting at global row `row0`.
la::RealMatrix casida_initial_guess(const std::vector<Real>& d, Index k,
                                    unsigned seed, Index row0, Index rows);

/// Implicit-operator path (Table 4 version (5), paper Algorithm 2).
/// Iterates up to 2 * num_states columns, the trailing ones as guard
/// columns that need not converge, and returns exactly the num_states
/// lowest pairs. When `h` was built on a communicator the solve is
/// par::dist_lobpcg over the ranks' pair rows and the returned
/// eigenvectors are this rank's rows; otherwise la::lobpcg. A one-rank
/// communicator gives the same result bit for bit.
la::LobpcgResult solve_casida_lobpcg(const ImplicitHamiltonian& h,
                                     const TddftEigenOptions& options);

/// Explicit-matrix path (Table 4 version (4)): same iteration, H stored.
/// `d` supplies the preconditioner diagonal.
la::LobpcgResult solve_casida_lobpcg_dense(const la::RealMatrix& h,
                                           const std::vector<Real>& d,
                                           const TddftEigenOptions& options);

/// Davidson variant on the implicit operator (ablation; same
/// preconditioner and physically seeded start). Serial only: `h` must
/// hold every row.
la::DavidsonResult solve_casida_davidson(const ImplicitHamiltonian& h,
                                         const TddftEigenOptions& options);

}  // namespace lrt::tddft
