// ISDF-accelerated explicit Hamiltonian (paper Eq 6-7).
//
//   Vhxc ≈ Cᵀ (Θᵀ f_Hxc Θ) C = Cᵀ M C
// with M the Nμ x Nμ kernel projection onto the interpolation vectors.
// Only Nμ kernel FFTs (instead of Nv·Nc) and thin GEMMs remain.
#pragma once

#include "isdf/isdf.hpp"
#include "tddft/casida_naive.hpp"

namespace lrt::tddft {

/// M = Θᵀ (v_H + f_xc) Θ dv (symmetrized): kernel_projection of Θ.
/// Spans: "fft", "gemm".
la::RealMatrix build_kernel_projection(const isdf::IsdfResult& isdf_result,
                                       const HxcKernel& kernel);

/// Explicit H = D + 2 Cᵀ M C (paper Eq 6) for versions (2)/(3)/(4) of
/// Table 4. Spans: "fft", "gemm".
la::RealMatrix build_hamiltonian_isdf(const CasidaProblem& problem,
                                      const isdf::IsdfResult& isdf_result,
                                      const HxcKernel& kernel);

}  // namespace lrt::tddft
