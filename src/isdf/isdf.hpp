// ISDF decomposition driver: point selection + interpolation vectors.
//
// IsdfResult carries everything downstream LR-TDDFT needs:
//  - points:      Nμ interpolation grid indices r̂_μ
//  - c:           coefficient matrix C (Nμ x Nv·Nc), the transposed block
//                 face-splitting product of the sampled orbitals
//  - psi_v_mu / psi_c_mu: sampled orbitals (Nμ x Nv / Nc) so C·x can be
//                 applied in factored form without materializing C
//  - theta:       interpolation vectors Θ (Nr x Nμ)
#pragma once

#include <vector>

#include "isdf/kmeans_points.hpp"
#include "isdf/qrcp_points.hpp"

namespace lrt::isdf {

enum class PointMethod { kQrcp, kKmeans };

struct IsdfOptions {
  Index nmu = 0;  ///< required; paper rule of thumb Nμ ≈ 8-12 x Ne
  PointMethod method = PointMethod::kKmeans;
  QrcpPointOptions qrcp;
  kmeans::KMeansOptions kmeans;
};

struct IsdfResult {
  std::vector<Index> points;
  la::RealMatrix c;         ///< Nμ x Nv·Nc
  la::RealMatrix psi_v_mu;  ///< Nμ x Nv
  la::RealMatrix psi_c_mu;  ///< Nμ x Nc
  la::RealMatrix theta;     ///< Nr x Nμ

  Index nmu() const { return static_cast<Index>(points.size()); }
};

/// Full decomposition. Spans: "isdf.select_points" and
/// "isdf.interp_vectors" (profiler keys of the driver's ablation versions).
IsdfResult isdf_decompose(const grid::RealSpaceGrid& grid,
                          la::RealConstView psi_v, la::RealConstView psi_c,
                          const IsdfOptions& options);

}  // namespace lrt::isdf
