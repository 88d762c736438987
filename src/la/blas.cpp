#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "la/tuning.hpp"
#include "obs/counters.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace lrt::la {
namespace {

// ---------------------------------------------------------------------------
// Packed micro-kernel GEMM (docs/PERFORMANCE.md §1).
//
// BLIS-style blocking: op(B) panels of kc x nc are packed once into
// column micro-panels of width kNr, op(A) blocks of mc x kc are packed
// (alpha folded in) into row micro-panels of height kMr, and a register-
// tiled kMr x kNr micro-kernel accumulates C. Packing absorbs all four
// transpose cases, so nn/tn/nt/tt share one inner kernel. Block sizes
// are picked once at runtime from the machine's cache sizes.
// ---------------------------------------------------------------------------

constexpr Index kMr = 6;  ///< micro-tile rows (C register rows)
constexpr Index kNr = 8;  ///< micro-tile cols (one or two SIMD vectors)

struct Blocking {
  Index mc;  ///< rows of the packed A block (held in L2)
  Index kc;  ///< reduction depth of one packing pass
  Index nc;  ///< cols of the packed B panel (held in L3)
};

Index round_down_multiple(Index v, Index m) { return std::max(m, v - v % m); }

/// One-time runtime pick of the L2/L3 block parameters. Falls back to
/// conservative defaults when the cache hierarchy is not reported.
Blocking pick_blocking() {
  long long l2 = 0, l3 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  if (l2 <= 0) l2 = 512 * 1024;
  if (l3 <= 0) l3 = 8 * 1024 * 1024;
  Blocking b;
  b.kc = 256;
  // The packed A block (mc x kc doubles) should fill about half of L2,
  // leaving room for the streaming B micro-panel and C rows.
  const Index mc_fit = static_cast<Index>(
      l2 / 2 / (b.kc * static_cast<Index>(sizeof(Real))));
  b.mc = std::clamp(round_down_multiple(mc_fit, kMr), kMr, Index{512});
  // The packed B panel (kc x nc) targets half of L3.
  const Index nc_fit = static_cast<Index>(
      l3 / 2 / (b.kc * static_cast<Index>(sizeof(Real))));
  b.nc = std::clamp(round_down_multiple(nc_fit, kNr), kNr, Index{8192});
  return b;
}

const Blocking& blocking() {
  static const Blocking b = pick_blocking();
  return b;
}

/// Packs one mr x kcur micro-panel of alpha * op(A) (zero-padded to kMr
/// rows) as kcur groups of kMr consecutive values.
void pack_a_panel(RealConstView a, bool trans, Index i0, Index mr, Index p0,
                  Index kcur, Real alpha, Real* dst) {
  if (!trans) {
    for (Index i = 0; i < mr; ++i) {
      const Real* src = a.row_ptr(i0 + i) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * kMr + i] = alpha * src[p];
    }
    for (Index i = mr; i < kMr; ++i) {
      for (Index p = 0; p < kcur; ++p) dst[p * kMr + i] = Real{0};
    }
  } else {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = a.row_ptr(p0 + p) + i0;
      Real* d = dst + p * kMr;
      for (Index i = 0; i < mr; ++i) d[i] = alpha * src[i];
      for (Index i = mr; i < kMr; ++i) d[i] = Real{0};
    }
  }
}

/// Packs one kcur x nr micro-panel of op(B) (zero-padded to kNr cols) as
/// kcur groups of kNr consecutive values.
void pack_b_panel(RealConstView b, bool trans, Index p0, Index kcur, Index j0,
                  Index nr, Real* dst) {
  if (!trans) {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = b.row_ptr(p0 + p) + j0;
      Real* d = dst + p * kNr;
      for (Index j = 0; j < nr; ++j) d[j] = src[j];
      for (Index j = nr; j < kNr; ++j) d[j] = Real{0};
    }
  } else {
    for (Index j = 0; j < nr; ++j) {
      const Real* src = b.row_ptr(j0 + j) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * kNr + j] = src[p];
    }
    for (Index j = nr; j < kNr; ++j) {
      for (Index p = 0; p < kcur; ++p) dst[p * kNr + j] = Real{0};
    }
  }
}

/// Register-tiled kMr x kNr accumulation over a packed panel pair. The
/// accumulator array is small enough to live entirely in SIMD registers;
/// target_clones picks the widest ISA the machine actually has (the
/// baseline build stays generic x86-64, so the pick happens at load
/// time, not compile time). Disabled under TSan: the multi-versioned
/// symbol's IFUNC resolver runs during relocation, before the TSan
/// runtime has initialized, and segfaults every binary linking this TU.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx512f", "avx2,fma", "default")))
#endif
#endif
void micro_kernel(Index kcur, const Real* __restrict ap,
                  const Real* __restrict bp,
                  Real* __restrict acc /* kMr * kNr */) {
  for (Index p = 0; p < kcur; ++p) {
    const Real a0 = ap[0];
    const Real a1 = ap[1];
    const Real a2 = ap[2];
    const Real a3 = ap[3];
    const Real a4 = ap[4];
    const Real a5 = ap[5];
#pragma omp simd
    for (Index j = 0; j < kNr; ++j) {
      const Real bj = bp[j];
      acc[0 * kNr + j] += a0 * bj;
      acc[1 * kNr + j] += a1 * bj;
      acc[2 * kNr + j] += a2 * bj;
      acc[3 * kNr + j] += a3 * bj;
      acc[4 * kNr + j] += a4 * bj;
      acc[5 * kNr + j] += a5 * bj;
    }
    ap += kMr;
    bp += kNr;
  }
}

/// One (jc, pc) block step for rows [ic, ic + mcur) of C: packs those
/// rows of alpha * op(A) and adds their product with the npanels packed B
/// panels at `bpack` (columns from jc) into C. With `lower_only`, micro-
/// tiles lying entirely above C's diagonal are skipped.
void multiply_block(RealConstView a, bool ta, Real alpha, Index ic,
                    Index mcur, Index pc, Index kcur, const Real* bpack,
                    Index jc, Index npanels, RealView c, Real* apack,
                    bool lower_only) {
  const Index m = c.rows(), n = c.cols();
  const Index mpanels = (mcur + kMr - 1) / kMr;
  for (Index ip = 0; ip < mpanels; ++ip) {
    const Index i0 = ic + ip * kMr;
    pack_a_panel(a, ta, i0, std::min(kMr, m - i0), pc, kcur, alpha,
                 apack + ip * kcur * kMr);
  }
  for (Index jp = 0; jp < npanels; ++jp) {
    const Real* bpan = bpack + jp * kcur * kNr;
    const Index j0 = jc + jp * kNr;
    const Index nr = std::min(kNr, n - j0);
    for (Index ip = 0; ip < mpanels; ++ip) {
      const Index i0 = ic + ip * kMr;
      const Index mr = std::min(kMr, m - i0);
      if (lower_only && i0 + mr <= j0) continue;
      Real acc[kMr * kNr] = {};
      micro_kernel(kcur, apack + ip * kcur * kMr, bpan, acc);
      if (mr == kMr && nr == kNr) {
        for (Index i = 0; i < kMr; ++i) {
          Real* ci = c.row_ptr(i0 + i) + j0;
          const Real* ai = acc + i * kNr;
#pragma omp simd
          for (Index j = 0; j < kNr; ++j) ci[j] += ai[j];
        }
      } else {
        for (Index i = 0; i < mr; ++i) {
          Real* ci = c.row_ptr(i0 + i) + j0;
          const Real* ai = acc + i * kNr;
          for (Index j = 0; j < nr; ++j) ci[j] += ai[j];
        }
      }
    }
  }
}

/// C_i += alpha * op(A_i) op(B) through the packed micro-kernel for
/// every item: each op(B) panel is packed once and shared by all items.
/// With `lower_only` (square C), only micro-tiles that touch C's lower
/// triangle are computed; the strict upper triangle is left partial.
void gemm_packed(bool ta, bool tb, Real alpha,
                 std::span<const GemmBatchItem> items, RealConstView b,
                 bool lower_only = false) {
  const Index n = tb ? b.rows() : b.cols();
  const Index k = tb ? b.cols() : b.rows();
  Index m_max = 0;
  for (const GemmBatchItem& item : items) {
    m_max = std::max(m_max, item.c.rows());
  }
  const Blocking& blk = blocking();

  const Index nc_max = std::min(((n + kNr - 1) / kNr) * kNr, blk.nc);
  const Index mc_max = std::min(((m_max + kMr - 1) / kMr) * kMr, blk.mc);
  const Index kc_max = std::min(k, blk.kc);
  std::vector<Real> bpack(static_cast<std::size_t>(nc_max * kc_max));
  std::vector<Real> apack(static_cast<std::size_t>(mc_max * kc_max));
  for (Index jc = 0; jc < n; jc += blk.nc) {
    const Index ncur = std::min(blk.nc, n - jc);
    const Index npanels = (ncur + kNr - 1) / kNr;
    for (Index pc = 0; pc < k; pc += blk.kc) {
      const Index kcur = std::min(blk.kc, k - pc);
      for (Index jp = 0; jp < npanels; ++jp) {
        const Index j0 = jc + jp * kNr;
        pack_b_panel(b, tb, pc, kcur, j0, std::min(kNr, n - j0),
                     bpack.data() + jp * kcur * kNr);
      }
      for (const GemmBatchItem& item : items) {
        const Index m = item.c.rows();
        for (Index ic = 0; ic < m; ic += blk.mc) {
          multiply_block(item.a, ta, alpha, ic, std::min(blk.mc, m - ic), pc,
                         kcur, bpack.data(), jc, npanels, item.c,
                         apack.data(), lower_only);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Branch-free scalar fallback for shapes too small to amortize packing.
// alpha is applied once per (i, kk) pair, never in the innermost loop,
// and there is no data-dependent branch in any loop body.
// ---------------------------------------------------------------------------

void gemm_small_nn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i = 0; i < m; ++i) {
    Real* ci = c.row_ptr(i);
    const Real* ai = a.row_ptr(i);
    for (Index kk = 0; kk < k; ++kk) {
      const Real aik = alpha * ai[kk];
      const Real* bk = b.row_ptr(kk);
#pragma omp simd
      for (Index j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_small_tn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // C = Aᵀ B: C[i,:] += A[kk,i] * B[kk,:]
  const Index m = c.rows(), n = c.cols(), k = a.rows();
  for (Index kk = 0; kk < k; ++kk) {
    const Real* ak = a.row_ptr(kk);
    const Real* bk = b.row_ptr(kk);
    for (Index i = 0; i < m; ++i) {
      const Real aki = alpha * ak[i];
      Real* ci = c.row_ptr(i);
#pragma omp simd
      for (Index j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

void gemm_small_nt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // C[i,j] += alpha * dot(A[i,:], B[j,:]) — both rows contiguous; alpha
  // multiplies the finished dot product, outside the reduction loop.
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i = 0; i < m; ++i) {
    const Real* ai = a.row_ptr(i);
    Real* ci = c.row_ptr(i);
    for (Index j = 0; j < n; ++j) {
      ci[j] += alpha * dot(ai, b.row_ptr(j), k);
    }
  }
}

void gemm_small_tt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  // Rare and only hit at tiny sizes: materialize Bᵀ and reuse TN.
  const RealMatrix bt = transpose(b);
  gemm_small_tn(alpha, a, bt.view(), c);
}

// ---------------------------------------------------------------------------
// Reference kernels: the pre-micro-kernel blocked scalar implementation,
// kept verbatim (including its per-element zero test) as the comparison
// baseline for tests and `bench_micro_substrates --compare`.
// ---------------------------------------------------------------------------

constexpr Index kRefKBlock = 256;
constexpr Index kRefIBlock = 64;

void ref_nn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i0 = 0; i0 < m; i0 += kRefIBlock) {
    const Index i1 = std::min(i0 + kRefIBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kRefKBlock) {
      const Index k1 = std::min(k0 + kRefKBlock, k);
      for (Index i = i0; i < i1; ++i) {
        Real* ci = c.row_ptr(i);
        const Real* ai = a.row_ptr(i);
        for (Index kk = k0; kk < k1; ++kk) {
          const Real aik = alpha * ai[kk];
          if (aik == Real{0}) continue;
          const Real* bk = b.row_ptr(kk);
          for (Index j = 0; j < n; ++j) ci[j] += aik * bk[j];
        }
      }
    }
  }
}

void ref_tn(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.rows();
  for (Index i0 = 0; i0 < m; i0 += kRefIBlock) {
    const Index i1 = std::min(i0 + kRefIBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kRefKBlock) {
      const Index k1 = std::min(k0 + kRefKBlock, k);
      for (Index kk = k0; kk < k1; ++kk) {
        const Real* ak = a.row_ptr(kk);
        const Real* bk = b.row_ptr(kk);
        for (Index i = i0; i < i1; ++i) {
          const Real aki = alpha * ak[i];
          if (aki == Real{0}) continue;
          Real* ci = c.row_ptr(i);
          for (Index j = 0; j < n; ++j) ci[j] += aki * bk[j];
        }
      }
    }
  }
}

void ref_nt(Real alpha, RealConstView a, RealConstView b, RealView c) {
  const Index m = c.rows(), n = c.cols(), k = a.cols();
  for (Index i = 0; i < m; ++i) {
    const Real* ai = a.row_ptr(i);
    Real* ci = c.row_ptr(i);
    for (Index j = 0; j < n; ++j) {
      ci[j] += alpha * dot(ai, b.row_ptr(j), k);
    }
  }
}

void check_gemm_shapes(Trans ta, Trans tb, RealConstView a, RealConstView b,
                       RealView c, Index& m, Index& n, Index& k) {
  m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index ka = (ta == Trans::kNo) ? a.cols() : a.rows();
  const Index kb = (tb == Trans::kNo) ? b.rows() : b.cols();
  n = (tb == Trans::kNo) ? b.cols() : b.rows();
  LRT_CHECK(ka == kb, "gemm inner dimension mismatch: " << ka << " vs " << kb);
  LRT_CHECK(c.rows() == m && c.cols() == n,
            "gemm output shape mismatch: want " << m << "x" << n << ", got "
                                                << c.rows() << "x" << c.cols());
  k = ka;
}

/// Bills one gemm of these shapes to the la.gemm.* counters and returns
/// whether it takes the packed path. No span here — gemm is called far
/// too often for per-call trace events; the FLOP counter gives the
/// aggregate view instead.
bool count_gemm(Index m, Index n, Index k) {
  static obs::Counter& calls = obs::counter("la.gemm.calls");
  static obs::Counter& flops = obs::counter("la.gemm.flops");
  static obs::Counter& packed = obs::counter("la.gemm.packed_calls");
  static obs::Counter& fallback = obs::counter("la.gemm.fallback_calls");
  calls.add(1);
  flops.add(2ll * m * n * k);
  const bool use_packed =
      2.0 * double(m) * double(n) * double(k) >= kPackedFlopThreshold;
  (use_packed ? packed : fallback).add(1);
  return use_packed;
}

void scale_c(Real beta, RealView c) {
  if (beta == Real{0}) {
    c.fill(Real{0});
  } else if (beta != Real{1}) {
    for (Index i = 0; i < c.rows(); ++i) scal(beta, c.row_ptr(i), c.cols());
  }
}

}  // namespace

Real dot(const Real* x, const Real* y, Index n) {
  Real sum = 0.0;
#pragma omp simd reduction(+ : sum)
  for (Index i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

Real nrm2(const Real* x, Index n) { return std::sqrt(dot(x, x, n)); }

void axpy(Real alpha, const Real* x, Real* y, Index n) {
#pragma omp simd
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(Real alpha, Real* x, Index n) {
#pragma omp simd
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

void gemv(Trans trans, Real alpha, RealConstView a, const Real* x, Real beta,
          Real* y) {
  if (trans == Trans::kNo) {
    const Index m = a.rows(), n = a.cols();
    for (Index i = 0; i < m; ++i) {
      y[i] = beta * y[i] + alpha * dot(a.row_ptr(i), x, n);
    }
  } else {
    const Index m = a.rows(), n = a.cols();
    for (Index j = 0; j < n; ++j) y[j] *= beta;
    for (Index i = 0; i < m; ++i) {
      axpy(alpha * x[i], a.row_ptr(i), y, n);
    }
  }
}

void gemm(Trans ta, Trans tb, Real alpha, RealConstView a, RealConstView b,
          Real beta, RealView c) {
  Index m, n, k;
  check_gemm_shapes(ta, tb, a, b, c, m, n, k);
  scale_c(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == Real{0}) return;

  if (count_gemm(m, n, k)) {
    const GemmBatchItem item{a, c};
    gemm_packed(ta == Trans::kYes, tb == Trans::kYes, alpha, {&item, 1}, b);
    return;
  }
  if (ta == Trans::kNo && tb == Trans::kNo) {
    gemm_small_nn(alpha, a, b, c);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    gemm_small_tn(alpha, a, b, c);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    gemm_small_nt(alpha, a, b, c);
  } else {
    gemm_small_tt(alpha, a, b, c);
  }
}

void gemm_many(Trans ta, Trans tb, Real alpha,
               const std::vector<GemmBatchItem>& items, RealConstView b,
               Real beta) {
  if (items.empty()) return;
  const bool tab = ta == Trans::kYes;
  const bool tbb = tb == Trans::kYes;
  const Index n = tbb ? b.rows() : b.cols();
  const Index k = tbb ? b.cols() : b.rows();

  double total_flops = 0;
  Index m_max = 0;
  for (const GemmBatchItem& item : items) {
    Index m, ni, ki;
    check_gemm_shapes(ta, tb, item.a, b, item.c, m, ni, ki);
    scale_c(beta, item.c);
    total_flops += 2.0 * double(m) * double(n) * double(k);
    m_max = std::max(m_max, m);
  }

  static obs::Counter& batched_calls = obs::counter("la.gemm.batched_calls");
  static obs::Counter& batched_items = obs::counter("la.gemm.batched_items");
  static obs::Counter& calls = obs::counter("la.gemm.calls");
  static obs::Counter& flops = obs::counter("la.gemm.flops");
  static obs::Counter& packed = obs::counter("la.gemm.packed_calls");
  batched_calls.add(1);
  batched_items.add(static_cast<long long>(items.size()));
  calls.add(static_cast<long long>(items.size()));
  flops.add(static_cast<long long>(total_flops));
  packed.add(static_cast<long long>(items.size()));
  if (m_max == 0 || n == 0 || k == 0 || alpha == Real{0}) return;

  gemm_packed(tab, tbb, alpha, items, b);
}

void gemm_reference(Trans ta, Trans tb, Real alpha, RealConstView a,
                    RealConstView b, Real beta, RealView c) {
  Index m, n, k;
  check_gemm_shapes(ta, tb, a, b, c, m, n, k);
  scale_c(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == Real{0}) return;
  if (ta == Trans::kNo && tb == Trans::kNo) {
    ref_nn(alpha, a, b, c);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    ref_tn(alpha, a, b, c);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    ref_nt(alpha, a, b, c);
  } else {
    const RealMatrix bt = transpose(b);
    ref_tn(alpha, a, bt.view(), c);
  }
}

RealMatrix gemm(Trans ta, Trans tb, RealConstView a, RealConstView b) {
  const Index m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index n = (tb == Trans::kNo) ? b.cols() : b.rows();
  RealMatrix c(m, n);
  gemm(ta, tb, Real{1}, a, b, Real{0}, c.view());
  return c;
}

RealMatrix gram(RealConstView a) {
  const Index m = a.rows(), n = a.cols();
  RealMatrix g(n, n);
  if (m == 0 || n == 0) return g;
  // Billed as the full Aᵀ A gemm it replaces, although only the tiles
  // touching the lower triangle are computed.
  if (count_gemm(n, n, m)) {
    const GemmBatchItem item{a, g.view()};
    gemm_packed(true, false, Real{1}, {&item, 1}, a, /*lower_only=*/true);
  } else {
    // gemm_small_tn restricted to j <= i.
    for (Index kk = 0; kk < m; ++kk) {
      const Real* ak = a.row_ptr(kk);
      for (Index i = 0; i < n; ++i) {
        const Real aki = ak[i];
        Real* gi = g.row_ptr(i);
#pragma omp simd
        for (Index j = 0; j <= i; ++j) gi[j] += aki * ak[j];
      }
    }
  }
  // Both kernels form g(i, j) and g(j, i) from the same products in the
  // same order, so the full product is already exactly symmetric and the
  // mirror equals it bit for bit.
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) g(i, j) = g(j, i);
  }
  return g;
}

Real frobenius_norm(RealConstView a) {
  Real sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* r = a.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) sum += r[j] * r[j];
  }
  return std::sqrt(sum);
}

Real max_abs_diff(RealConstView a, RealConstView b) {
  LRT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "max_abs_diff shape mismatch");
  Real best = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* ra = a.row_ptr(i);
    const Real* rb = b.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) {
      best = std::max(best, std::abs(ra[j] - rb[j]));
    }
  }
  return best;
}

Real max_abs(RealConstView a) {
  Real best = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const Real* r = a.row_ptr(i);
    for (Index j = 0; j < a.cols(); ++j) best = std::max(best, std::abs(r[j]));
  }
  return best;
}

double gemm_flops(Index m, Index n, Index k) {
  return 2.0 * double(m) * double(n) * double(k);
}

}  // namespace lrt::la
