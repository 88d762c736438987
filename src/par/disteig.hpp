// Distributed symmetric eigensolve (ScaLAPACK SYEVD stand-in).
//
// The naive LR-TDDFT path redistributes the explicit Hamiltonian to a 2-D
// block-cyclic layout and calls SYEVD. Our stand-in reproduces the data
// movement (redistribute -> solve -> redistribute back) while the numeric
// factorization itself is gathered to rank 0 — on a single-core container
// a truly distributed tridiagonalization would be pure ceremony; the
// communication pattern and interfaces are what the scaling benches need.
#pragma once

#include "la/eig.hpp"
#include "par/distmatrix.hpp"

namespace lrt::par {

struct DistEigResult {
  std::vector<Real> values;  ///< replicated on all ranks, ascending
  DistMatrix vectors;        ///< eigenvector columns in the input layout
};

/// Solves the symmetric eigenproblem of a distributed matrix. `a` may be in
/// any layout; internally converts to 2-D block-cyclic (as the paper does
/// before SYEVD), factorizes, and returns vectors in `a`'s layout.
DistEigResult dist_syev(Comm& comm, const DistMatrix& a);

}  // namespace lrt::par
