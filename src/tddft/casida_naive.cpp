#include "tddft/casida_naive.hpp"

#include "common/error.hpp"
#include "isdf/pairproduct.hpp"
#include "la/eig.hpp"

namespace lrt::tddft {

std::vector<Real> energy_differences(const CasidaProblem& problem) {
  const Index nv = problem.nv();
  const Index nc = problem.nc();
  LRT_CHECK(static_cast<Index>(problem.eps_v.size()) == nv &&
                static_cast<Index>(problem.eps_c.size()) == nc,
            "energy array sizes do not match orbital counts");
  std::vector<Real> d(static_cast<std::size_t>(nv * nc));
  for (Index iv = 0; iv < nv; ++iv) {
    for (Index ic = 0; ic < nc; ++ic) {
      d[static_cast<std::size_t>(iv * nc + ic)] =
          problem.eps_c[static_cast<std::size_t>(ic)] -
          problem.eps_v[static_cast<std::size_t>(iv)];
    }
  }
  return d;
}

la::RealMatrix build_hamiltonian_naive(const CasidaProblem& problem,
                                       const HxcKernel& kernel,
                                       obs::WallProfiler* profiler) {
  // Line 2 of Algorithm 1: the face-splitting product.
  la::RealMatrix pvc;
  {
    Timer t;
    pvc = isdf::pair_product_matrix(problem.psi_v.view(),
                                    problem.psi_c.view());
    if (profiler) profiler->add("pair_product", t.seconds());
  }

  // Lines 4-7: Vhxc = Pvcᵀ (K Pvc) dv, the kernel streamed over column
  // slices of Pvc (Nv*Nc FFTs) into GEMMs; line 10: H = D + 2 Vhxc.
  return casida_hamiltonian(
      kernel_projection(kernel, pvc.view(), nullptr, wall_phases(profiler)),
      energy_differences(problem));
}

la::RealMatrix casida_hamiltonian(la::RealMatrix vhxc,
                                  const std::vector<Real>& d) {
  const Index n = vhxc.rows();
  LRT_CHECK(vhxc.cols() == n && static_cast<Index>(d.size()) == n,
            "Vhxc / energy-difference shape mismatch");
  for (Index i = 0; i < n; ++i) {
    Real* row = vhxc.row_ptr(i);
    for (Index j = 0; j < n; ++j) row[j] *= Real{2};
    row[i] += d[static_cast<std::size_t>(i)];
  }
  return vhxc;
}

CasidaSolution diagonalize_dense(const la::RealMatrix& hamiltonian,
                                 Index num_states, obs::WallProfiler* profiler) {
  const Index n = hamiltonian.rows();
  LRT_CHECK(num_states >= 1 && num_states <= n,
            "bad state count " << num_states);
  Timer t;
  la::EigResult eig = la::syev(hamiltonian.view());
  if (profiler) profiler->add("diag", t.seconds());

  CasidaSolution solution;
  solution.energies.assign(eig.values.begin(),
                           eig.values.begin() + num_states);
  solution.wavefunctions =
      la::to_matrix<Real>(eig.vectors.view().cols_block(0, num_states));
  return solution;
}

}  // namespace lrt::tddft
