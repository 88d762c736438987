#include "isdf/isdf.hpp"

#include "isdf/interpolation.hpp"
#include "isdf/pairproduct.hpp"
#include "obs/obs.hpp"

namespace lrt::isdf {

IsdfResult isdf_decompose(const grid::RealSpaceGrid& grid,
                          la::RealConstView psi_v, la::RealConstView psi_c,
                          const IsdfOptions& options, obs::WallProfiler* profiler) {
  LRT_CHECK(options.nmu >= 1, "IsdfOptions::nmu must be set");
  LRT_CHECK(grid.size() == psi_v.rows(), "grid/orbital size mismatch");

  IsdfResult result;
  {
    const obs::Span span("isdf.select_points");
    Timer timer;
    switch (options.method) {
      case PointMethod::kQrcp:
        result.points =
            select_points_qrcp(psi_v, psi_c, options.nmu, options.qrcp);
        break;
      case PointMethod::kKmeans:
        result.points =
            select_points_kmeans(grid, psi_v, psi_c, options.nmu,
                                 options.kmeans)
                .points;
        break;
    }
    if (profiler) profiler->add("select_points", timer.seconds());
  }

  {
    const obs::Span span("isdf.interp_vectors");
    Timer timer;
    result.psi_v_mu = sample_rows(psi_v, result.points);
    result.psi_c_mu = sample_rows(psi_c, result.points);
    if (options.build_coefficients) {
      result.c = coefficient_matrix(psi_v, psi_c, result.points);
    }
    result.theta = interpolation_vectors(psi_v, psi_c, result.psi_v_mu.view(),
                                         result.psi_c_mu.view());
    if (profiler) profiler->add("interp_vectors", timer.seconds());
  }
  return result;
}

}  // namespace lrt::isdf
