// Size thresholds that choose between the dense kernels' code paths.
// Internal to la/ (and its tests); docs/PERFORMANCE.md §1 and §7 give
// the measurements behind each value.
#pragma once

#include "common/config.hpp"

namespace lrt::la {

/// Below this flop count gemm's packed path does not amortize its
/// pack/unpack overhead; a branch-free scalar fallback runs instead.
inline constexpr double kPackedFlopThreshold = 2.0 * 24 * 24 * 24;

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
