// Size thresholds that choose between the dense kernels' code paths.
// Internal to la/ (and its tests); docs/PERFORMANCE.md §1 and §7 give
// the measurements behind each value.
#pragma once

#include "common/config.hpp"

namespace lrt::la {

/// Below this flop count gemm's packed path does not amortize its
/// pack/unpack overhead; a branch-free scalar fallback runs instead.
inline constexpr double kPackedFlopThreshold = 2.0 * 24 * 24 * 24;

/// gemm reads a full micro-panel in place, not packed, when at most this
/// many micro-tiles use it: a copy does not pay for itself over so few
/// reads. The SCF LOBPCG's 1728 x 24 operands are used at most three
/// times each.
inline constexpr Index kInPlacePanelMaxUses = 8;

/// When all op(B) micro-panels of one block fit in this many bytes (an
/// L1 share), gemm sweeps C one A panel at a time across them.
inline constexpr Index kL1BlockBytes = 32 * 1024;

/// Whether the packed GEMM kernel this process dispatched to fuses each
/// multiply-add into one rounding (FMA). Every packed gemm, gemm_many
/// and gram element is, per 256-deep block of the reduction in order, a
/// zero-started chain over ascending p of (alpha a) b, fused exactly when
/// this is true, and each block's partial is then added to C.
bool gemm_fuses_multiply_add();

/// Matrix order above which cholesky/try_cholesky and solve_right run
/// blocked, left-looking algorithms whose updates go through gemm, which
/// rounds differently. At and below it the element-wise kernels run;
/// every order the SCF and the LOBPCG Gram factors use (<= 72) stays
/// there.
inline constexpr Index kBlockedOrderCrossover = 128;

/// Block-column width of the blocked paths. The diagonal blocks go
/// through the element-wise kernels, so it must not exceed the crossover.
inline constexpr Index kOrderBlock = 64;
static_assert(kOrderBlock <= kBlockedOrderCrossover);

}  // namespace lrt::la
