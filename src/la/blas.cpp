#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
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
// BLIS-style blocking: op(B) is cut into kc x nc blocks of Nr-wide column
// micro-panels, op(A) into mc x kc blocks of Mr-tall row micro-panels, and
// a register-tiled Mr x Nr micro-kernel adds the product of each panel
// pair into C. A full panel whose layout already gives the kernel unit-
// stride vectors is read in place when few tiles use it (A's only when
// alpha = +-1); any other panel is packed into a contiguous, zero-padded
// buffer, alpha folded into A's. All four transpose cases share the one
// kernel. Block sizes follow the machine's cache sizes.
//
// The bit contract, which no tile shape or panel source changes: per kc
// block in order, each C element gets a zero-started chain over ascending
// p of (alpha a) b, fused exactly when gemm_fuses_multiply_add() says so,
// and that block partial is then added to C.
// ---------------------------------------------------------------------------

constexpr Index kKc = 256;  ///< reduction depth of one block

// The kernel ISA is picked at runtime; the baseline build stays generic
// x86-64. The TSan flavor builds only the generic kernel, so CI also
// checks the contract of the path that does not fuse.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target)
#define LRT_GEMM_ISA_DISPATCH 1
#endif
#endif

/// One micro-tile: element (r, p) of the A panel is a[r * a_rs + p * a_ps],
/// element (p, j) of the B panel is b[p * b_ps + j], and the tile's live
/// mr x nr part is added into C at c (row stride ldc).
struct TileArgs {
  Index kcur;
  const Real* a;
  Index a_rs, a_ps;
  const Real* b;
  Index b_ps;
  Real* c;
  Index ldc, mr, nr;
};
using TileFn = void (*)(const TileArgs&);

/// The Mr x Nr register tile over W-wide vectors. kUnitRows fixes
/// a_rs = 1 (packed panels, and op(A) = Aᵀ in place). kNeg applies
/// alpha = -1 to an in-place A panel by subtracting each product:
/// (-a) b rounds to -(a b), fused or not, so every chain is unchanged.
template <Index Mr, Index Nr, Index W, bool kUnitRows, bool kNeg>
[[gnu::always_inline]] inline void tile_body(const TileArgs& t) {
  typedef Real Vec __attribute__((vector_size(W * sizeof(Real))));
  constexpr Index kVecs = Nr / W;
  Vec acc[Mr][kVecs] = {};
  const Index rs = kUnitRows ? 1 : t.a_rs;
  const Real* a = t.a;
  const Real* b = t.b;
  for (Index p = 0; p < t.kcur; ++p) {
    Vec bv[kVecs];
#pragma GCC unroll 4
    for (Index v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], b + v * W, sizeof(Vec));
    }
#pragma GCC unroll 8
    for (Index r = 0; r < Mr; ++r) {
      const Real ar = a[r * rs];
#pragma GCC unroll 4
      for (Index v = 0; v < kVecs; ++v) {
        if constexpr (kNeg) {
          acc[r][v] -= ar * bv[v];
        } else {
          acc[r][v] += ar * bv[v];
        }
      }
    }
    a += t.a_ps;
    b += t.b_ps;
  }
  if (t.nr == Nr) {
#pragma GCC unroll 8
    for (Index r = 0; r < Mr; ++r) {
      if (r == t.mr) break;
      Real* cr = t.c + r * t.ldc;
#pragma GCC unroll 4
      for (Index v = 0; v < kVecs; ++v) {
        Vec cv;
        std::memcpy(&cv, cr + v * W, sizeof(Vec));
        cv += acc[r][v];
        std::memcpy(cr + v * W, &cv, sizeof(Vec));
      }
    }
  } else {
    Real tile[Mr][Nr];
    std::memcpy(tile, acc, sizeof tile);
    for (Index r = 0; r < t.mr; ++r) {
      for (Index j = 0; j < t.nr; ++j) t.c[r * t.ldc + j] += tile[r][j];
    }
  }
}

/// The four tile functions of one shape: [A rows at unit stride][products
/// subtracted].
struct TileSet {
  Index mr, nr;
  TileFn fn[2][2];
};

#ifdef LRT_GEMM_ISA_DISPATCH
// AVX-512: an 8 x 24 tile keeps 24 zmm accumulators, 24 independent FMA
// chains, and loads three B vectors and eight A values per 24 FMAs; an
// 8 x 8 tile serves products narrower than 24 columns. AVX2's 16 ymm
// registers hold a 6 x 8 tile.
template <Index Nr, bool kUnitRows, bool kNeg>
__attribute__((target("avx512f"))) void tile_avx512(const TileArgs& t) {
  tile_body<8, Nr, 8, kUnitRows, kNeg>(t);
}
template <bool kUnitRows, bool kNeg>
__attribute__((target("avx2,fma"))) void tile_avx2(const TileArgs& t) {
  tile_body<6, 8, 4, kUnitRows, kNeg>(t);
}
#endif
template <bool kUnitRows, bool kNeg>
void tile_generic(const TileArgs& t) {
  tile_body<6, 8, 2, kUnitRows, kNeg>(t);
}

/// The micro-kernel of this process: a tile for products at least
/// `wide.nr` columns wide and one for narrower products (the same tile
/// where the ISA has one).
struct Kernel {
  bool fused;  ///< each multiply-add rounds once
  TileSet wide, narrow;
};

Kernel pick_kernel() {
#ifdef LRT_GEMM_ISA_DISPATCH
  if (__builtin_cpu_supports("avx512f")) {
    return {true,
            {8, 24,
             {{tile_avx512<24, false, false>, tile_avx512<24, false, true>},
              {tile_avx512<24, true, false>, tile_avx512<24, true, true>}}},
            {8, 8,
             {{tile_avx512<8, false, false>, tile_avx512<8, false, true>},
              {tile_avx512<8, true, false>, tile_avx512<8, true, true>}}}};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    const TileSet avx2{6, 8,
                       {{tile_avx2<false, false>, tile_avx2<false, true>},
                        {tile_avx2<true, false>, tile_avx2<true, true>}}};
    return {true, avx2, avx2};
  }
#endif
#ifdef __FP_FAST_FMA
  constexpr bool kBaselineFma = true;  // the compiler contracts a * b + c
#else
  constexpr bool kBaselineFma = false;
#endif
  const TileSet generic{6, 8,
                        {{tile_generic<false, false>, tile_generic<false, true>},
                         {tile_generic<true, false>, tile_generic<true, true>}}};
  return {kBaselineFma, generic, generic};
}

const Kernel& kernel() {
  static const Kernel k = pick_kernel();
  return k;
}

struct Blocking {
  Index mc;  ///< rows of an op(A) block (held in L2)
  Index nc;  ///< cols of an op(B) block (held in L3)
};

Index round_down_multiple(Index v, Index m) { return std::max(m, v - v % m); }
Index round_up_multiple(Index v, Index m) { return (v + m - 1) / m * m; }

/// L2 and L3 bytes, read once. Falls back to conservative defaults when
/// the cache hierarchy is not reported.
const std::pair<Index, Index>& cache_bytes() {
  static const std::pair<Index, Index> bytes = [] {
    long long l2 = 0, l3 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
    l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
    l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
    return std::pair<Index, Index>{l2 > 0 ? l2 : 512 * 1024,
                                   l3 > 0 ? l3 : 8 * 1024 * 1024};
  }();
  return bytes;
}

/// Block sizes for an Mr x Nr tile.
Blocking blocking(Index mr, Index nr) {
  constexpr Index kPanelBytes = kKc * static_cast<Index>(sizeof(Real));
  const auto [l2, l3] = cache_bytes();
  // The packed A block (mc x kc doubles) should fill about half of L2,
  // leaving room for the streaming B micro-panel and C rows; the packed B
  // block (kc x nc) targets half of L3.
  return {std::clamp(round_down_multiple(l2 / 2 / kPanelBytes, mr), mr,
                     round_down_multiple(512, mr)),
          std::clamp(round_down_multiple(l3 / 2 / kPanelBytes, nr), nr,
                     round_down_multiple(8192, nr))};
}

/// Packs one mr x kcur micro-panel of alpha * op(A) (zero-padded to Mr
/// rows) as kcur groups of Mr consecutive values.
template <Index Mr>
void pack_a_panel(RealConstView a, bool trans, Index i0, Index mr, Index p0,
                  Index kcur, Real alpha, Real* dst) {
  if (!trans) {
    for (Index i = 0; i < mr; ++i) {
      const Real* src = a.row_ptr(i0 + i) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * Mr + i] = alpha * src[p];
    }
    for (Index i = mr; i < Mr; ++i) {
      for (Index p = 0; p < kcur; ++p) dst[p * Mr + i] = Real{0};
    }
  } else if (mr == Mr) {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = a.row_ptr(p0 + p) + i0;
      Real* d = dst + p * Mr;
#pragma omp simd
      for (Index i = 0; i < Mr; ++i) d[i] = alpha * src[i];
    }
  } else {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = a.row_ptr(p0 + p) + i0;
      Real* d = dst + p * Mr;
      for (Index i = 0; i < mr; ++i) d[i] = alpha * src[i];
      for (Index i = mr; i < Mr; ++i) d[i] = Real{0};
    }
  }
}

/// Packs one kcur x nr micro-panel of op(B) (zero-padded to Nr cols) as
/// kcur groups of Nr consecutive values.
template <Index Nr>
void pack_b_panel(RealConstView b, bool trans, Index p0, Index kcur, Index j0,
                  Index nr, Real* dst) {
  if (!trans && nr == Nr) {
    for (Index p = 0; p < kcur; ++p) {
      std::memcpy(dst + p * Nr, b.row_ptr(p0 + p) + j0, Nr * sizeof(Real));
    }
  } else if (!trans) {
    for (Index p = 0; p < kcur; ++p) {
      const Real* src = b.row_ptr(p0 + p) + j0;
      Real* d = dst + p * Nr;
      for (Index j = 0; j < nr; ++j) d[j] = src[j];
      for (Index j = nr; j < Nr; ++j) d[j] = Real{0};
    }
  } else {
    for (Index j = 0; j < nr; ++j) {
      const Real* src = b.row_ptr(j0 + j) + p0;
      for (Index p = 0; p < kcur; ++p) dst[p * Nr + j] = src[p];
    }
    for (Index j = nr; j < Nr; ++j) {
      for (Index p = 0; p < kcur; ++p) dst[p * Nr + j] = Real{0};
    }
  }
}

/// Where the kernel reads one A micro-panel, and how (see TileArgs).
struct APanel {
  const Real* ptr;
  Index rs, ps;
  TileFn tile;
};

/// Where the kernel reads one B micro-panel (see TileArgs).
struct BPanel {
  const Real* ptr;
  Index ps;
};

/// C_i += alpha * op(A_i) op(B) with Mr x Nr tiles for every item: each
/// op(B) panel is packed (or found in place) once and shared by all
/// items. `gram` (one item, A = B, ta, alpha = 1) computes only the
/// micro-tiles that touch C's lower triangle, leaving the strict upper
/// triangle partial, and with square tiles takes each A panel from the
/// matching B panel, so A is packed at most once.
template <Index Mr, Index Nr>
void gemm_tiles(const TileSet& tiles, bool ta, bool tb, Real alpha,
                std::span<const GemmBatchItem> items, RealConstView b,
                bool gram) {
  const Index n = tb ? b.rows() : b.cols();
  const Index k = tb ? b.cols() : b.rows();
  Index m_max = 0, a_panels = 0;
  for (const GemmBatchItem& item : items) {
    m_max = std::max(m_max, item.c.rows());
    a_panels += (item.c.rows() + Mr - 1) / Mr;
  }
  const Blocking blk = blocking(Mr, Nr);
  // A full panel is read in place when few tiles use it: an A panel when
  // the kernel can apply alpha, a B panel when its columns are contiguous.
  const bool b_in_place = !tb && a_panels <= kInPlacePanelMaxUses;
  const bool a_in_place = (alpha == Real{1} || alpha == Real{-1}) &&
                          (n + Nr - 1) / Nr <= kInPlacePanelMaxUses;
  const TileFn in_place_tile = tiles.fn[ta][alpha == Real{-1}];
  const TileFn packed_tile = tiles.fn[1][0];
  const bool share = gram && Mr == Nr && n <= blk.nc;

  const Index nc_max = std::min(round_up_multiple(n, Nr), blk.nc);
  const Index mc_max = std::min(round_up_multiple(m_max, Mr), blk.mc);
  const Index kc_max = std::min(k, kKc);
  // Packing buffers are per call and allocated at first use.
  std::unique_ptr<Real[]> bpack, apack;
  std::vector<BPanel> bpanels(static_cast<std::size_t>(nc_max / Nr));
  std::vector<APanel> apanels(static_cast<std::size_t>(mc_max / Mr));
  for (Index jc = 0; jc < n; jc += blk.nc) {
    const Index ncur = std::min(blk.nc, n - jc);
    const Index npanels = (ncur + Nr - 1) / Nr;
    for (Index pc = 0; pc < k; pc += kKc) {
      const Index kcur = std::min(kKc, k - pc);
      for (Index jp = 0; jp < npanels; ++jp) {
        const Index j0 = jc + jp * Nr;
        const Index nr = std::min(Nr, n - j0);
        if (b_in_place && nr == Nr) {
          bpanels[jp] = {b.row_ptr(pc) + j0, b.ld()};
          continue;
        }
        if (!bpack) bpack = std::make_unique_for_overwrite<Real[]>(
                        static_cast<std::size_t>(nc_max * kc_max));
        Real* dst = bpack.get() + jp * kcur * Nr;
        pack_b_panel<Nr>(b, tb, pc, kcur, j0, nr, dst);
        bpanels[jp] = {dst, Nr};
      }
      for (const GemmBatchItem& item : items) {
        const RealConstView a = item.a;
        const RealView c = item.c;
        const Index m = c.rows();
        for (Index ic = 0; ic < m; ic += blk.mc) {
          const Index mpanels = (std::min(blk.mc, m - ic) + Mr - 1) / Mr;
          for (Index ip = 0; ip < mpanels; ++ip) {
            const Index i0 = ic + ip * Mr;
            const Index mr = std::min(Mr, m - i0);
            if (share) {
              const BPanel& bp = bpanels[i0 / Nr];
              apanels[ip] = {bp.ptr, 1, bp.ps, packed_tile};
              continue;
            }
            if (a_in_place && mr == Mr) {
              apanels[ip] = ta ? APanel{a.row_ptr(pc) + i0, 1, a.ld(),
                                        in_place_tile}
                               : APanel{a.row_ptr(i0) + pc, a.ld(), 1,
                                        in_place_tile};
              continue;
            }
            if (!apack) apack = std::make_unique_for_overwrite<Real[]>(
                            static_cast<std::size_t>(mc_max * kc_max));
            Real* dst = apack.get() + ip * kcur * Mr;
            pack_a_panel<Mr>(a, ta, i0, mr, pc, kcur, alpha, dst);
            apanels[ip] = {dst, 1, Mr, packed_tile};
          }
          const auto tile = [&](Index ip, Index jp) {
            const Index i0 = ic + ip * Mr;
            const Index j0 = jc + jp * Nr;
            const Index mr = std::min(Mr, m - i0);
            if (gram && i0 + mr <= j0) return;
            const APanel& ap = apanels[ip];
            const BPanel& bp = bpanels[jp];
            ap.tile({kcur, ap.ptr, ap.rs, ap.ps, bp.ptr, bp.ps,
                     c.row_ptr(i0) + j0, c.ld(), mr, std::min(Nr, n - j0)});
          };
          if (npanels * kcur * Nr * Index{sizeof(Real)} <= kL1BlockBytes) {
            // Skinny op(B): its panels stay in L1 together, so C is swept
            // one A panel at a time and each A panel is read once.
            for (Index ip = 0; ip < mpanels; ++ip) {
              for (Index jp = 0; jp < npanels; ++jp) tile(ip, jp);
            }
          } else {
            // One B panel stays in L1 while the A block streams from L2.
            for (Index jp = 0; jp < npanels; ++jp) {
              for (Index ip = 0; ip < mpanels; ++ip) tile(ip, jp);
            }
          }
        }
      }
    }
  }
}

/// gemm_tiles with the process's tile for this product; the packing
/// layout follows the tile, so a call picks both together. `gram` takes
/// the narrow tile: square tiles skip more of the upper triangle and
/// share their panels between A and B.
void gemm_packed(bool ta, bool tb, Real alpha,
                 std::span<const GemmBatchItem> items, RealConstView b,
                 bool gram = false) {
  const Kernel& kern = kernel();
  const Index n = tb ? b.rows() : b.cols();
  const TileSet& tiles =
      gram || n < kern.wide.nr ? kern.narrow : kern.wide;
  if (tiles.nr == 24) {
    gemm_tiles<8, 24>(tiles, ta, tb, alpha, items, b, gram);
  } else if (tiles.mr == 8) {
    gemm_tiles<8, 8>(tiles, ta, tb, alpha, items, b, gram);
  } else {
    gemm_tiles<6, 8>(tiles, ta, tb, alpha, items, b, gram);
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

bool gemm_fuses_multiply_add() { return kernel().fused; }

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
    gemm_packed(true, false, Real{1}, {&item, 1}, a, /*gram=*/true);
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
