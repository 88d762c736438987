// Dense BLAS-style kernels (levels 1-3) on row-major views.
//
// These stand in for the MKL calls the paper's implementation makes.
// gemm runs a packed, register-tiled micro-kernel (BLIS-style blocking,
// single-threaded, SIMD via runtime ISA dispatch) above a small flop
// threshold and a branch-free scalar fallback below it; the pre-packing
// blocked kernel survives as gemm_reference for tests and the
// `bench_micro_substrates --compare` baseline. See docs/PERFORMANCE.md.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace lrt::la {

enum class Trans { kNo, kYes };

// ----- level 1 ------------------------------------------------------------

/// <x, y> over n contiguous elements.
Real dot(const Real* x, const Real* y, Index n);

/// Euclidean norm of n contiguous elements (no overflow guard; values in
/// this library are O(1) by construction).
Real nrm2(const Real* x, Index n);

/// y += alpha * x.
void axpy(Real alpha, const Real* x, Real* y, Index n);

/// x *= alpha.
void scal(Real alpha, Real* x, Index n);

// ----- level 2 ------------------------------------------------------------

/// y = alpha * op(A) * x + beta * y.
void gemv(Trans trans, Real alpha, RealConstView a, const Real* x, Real beta,
          Real* y);

// ----- level 3 ------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, Real alpha, RealConstView a, RealConstView b,
          Real beta, RealView c);

/// Convenience: returns op(A) * op(B).
RealMatrix gemm(Trans ta, Trans tb, RealConstView a, RealConstView b);

/// The pre-micro-kernel blocked scalar gemm, preserved as a comparison
/// baseline (tests, bench --compare). Same contract as gemm().
void gemm_reference(Trans ta, Trans tb, Real alpha, RealConstView a,
                    RealConstView b, Real beta, RealView c);

/// One (A_i, C_i) pair of a gemm_many batch; every item shares op(B).
struct GemmBatchItem {
  RealConstView a;
  RealView c;
};

/// C_i = alpha * op(A_i) * op(B) + beta * C_i for every item. op(B) is
/// packed (or read in place) once per cache block and all A panels
/// stream through the packed micro-kernel, amortizing the packing cost
/// that sends individually small gemm calls to the scalar fallback.
/// Always takes the packed path; each item's result is bitwise identical
/// to a packed gemm() of the same shapes, since both follow the packed
/// path's per-element summation (la/tuning.hpp).
void gemm_many(Trans ta, Trans tb, Real alpha,
               const std::vector<GemmBatchItem>& items, RealConstView b,
               Real beta);

/// Gram matrix Aᵀ A (n x n for an m x n input). Computes only the tiles
/// that touch the lower triangle and mirrors them; the result is exactly
/// symmetric and bit for bit gemm(kYes, kNo, A, A), which the kernels
/// already make symmetric. Billed to la.gemm.* as that full gemm.
RealMatrix gram(RealConstView a);

// ----- norms / comparisons -------------------------------------------------

Real frobenius_norm(RealConstView a);

/// max_ij |a_ij - b_ij|; shapes must match.
Real max_abs_diff(RealConstView a, RealConstView b);

/// max_ij |a_ij|.
Real max_abs(RealConstView a);

/// Number of flops of a gemm with these shapes (2 m n k), for bench reports.
double gemm_flops(Index m, Index n, Index k);

}  // namespace lrt::la
