#include "tddft/casida_isdf.hpp"

#include "la/blas.hpp"

namespace lrt::tddft {

la::RealMatrix build_kernel_projection(const isdf::IsdfResult& isdf_result,
                                       const HxcKernel& kernel,
                                       obs::WallProfiler* profiler) {
  return kernel_projection(kernel, isdf_result.theta.view(), nullptr,
                           wall_phases(profiler));
}

la::RealMatrix build_hamiltonian_isdf(const CasidaProblem& problem,
                                      const isdf::IsdfResult& isdf_result,
                                      const HxcKernel& kernel,
                                      obs::WallProfiler* profiler) {
  LRT_CHECK(!isdf_result.c.empty(),
            "build_hamiltonian_isdf needs the explicit coefficient matrix");
  const la::RealMatrix m =
      build_kernel_projection(isdf_result, kernel, profiler);

  Timer t;
  // Vhxc = Cᵀ M C via two thin GEMMs.
  const la::RealMatrix mc =
      la::gemm(la::Trans::kNo, la::Trans::kNo, m.view(), isdf_result.c.view());
  la::RealMatrix h =
      la::gemm(la::Trans::kYes, la::Trans::kNo, isdf_result.c.view(),
               mc.view());
  const std::vector<Real> d = energy_differences(problem);
  const Index ncv = problem.ncv();
  LRT_CHECK(h.rows() == ncv, "coefficient matrix pair count mismatch");
  for (Index i = 0; i < ncv; ++i) {
    for (Index j = i; j < ncv; ++j) {
      const Real avg = h(i, j) + h(j, i);  // 2 * symmetrized Vhxc
      h(i, j) = avg;
      h(j, i) = avg;
    }
    h(i, i) += d[static_cast<std::size_t>(i)];
  }
  if (profiler) profiler->add("gemm", t.seconds());
  return h;
}

}  // namespace lrt::tddft
