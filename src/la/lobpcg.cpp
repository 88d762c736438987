#include "la/lobpcg.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace lrt::la {
namespace {

/// Three column blocks of equal row count; a zero-width block is absent.
using Blocks = std::array<RealConstView, 3>;

/// Cholesky of a (possibly rank-deficient) Gram matrix: regularizes the
/// diagonal instead of a QR fallback (which would need the full block on
/// one rank). Any positive pivot is accepted, so a nearly dependent block
/// is still normalized; try_cholesky's rank test would refuse it.
RealMatrix gram_cholesky(const RealMatrix& g) {
  try {
    return cholesky(g.view());
  } catch (const Error&) {
    RealMatrix g2 = g;
    Real trace = 0;
    for (Index i = 0; i < g2.rows(); ++i) trace += g2(i, i);
    for (Index i = 0; i < g2.rows(); ++i) {
      g2(i, i) += 1e-12 * std::max(trace, Real{1});
    }
    return cholesky(g2.view());
  }
}

void symmetrize(RealView a) {
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i + 1; j < a.cols(); ++j) {
      const Real avg = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = avg;
      a(j, i) = avg;
    }
  }
}

/// Local partial of Aᵀ B for A = [A_0 A_1 A_2] and B = [B_0 B_1 B_2], each
/// B_i as wide as A_i, written into `out`. Every caller's product is
/// symmetric in exact arithmetic, so only the upper block triangle is
/// formed and then mirrored. `b == nullptr` means B = A: a Gram matrix,
/// whose diagonal blocks go through la::gram.
void local_products(const Blocks& a, const Blocks* b, RealView out) {
  std::array<Index, 3> offset{};
  Index m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    offset[i] = m;
    m += a[i].cols();
  }
  LRT_ASSERT(out.rows() == m && out.cols() == m,
             "lobpcg: product block is " << out.rows() << "x" << out.cols()
                                         << ", expected " << m << "x" << m);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Index wi = a[i].cols();
    if (wi == 0) continue;
    for (std::size_t j = i; j < a.size(); ++j) {
      const Index wj = a[j].cols();
      if (wj == 0) continue;
      const RealView blk = out.block(offset[i], offset[j], wi, wj);
      if (b == nullptr && i == j) {
        copy<Real>(gram(a[i]).view(), blk);
      } else {
        gemm(Trans::kYes, Trans::kNo, Real{1}, a[i], b ? (*b)[j] : a[j],
             Real{0}, blk);
      }
      if (i == j) continue;
      for (Index r = 0; r < wi; ++r) {
        for (Index c = 0; c < wj; ++c) {
          out(offset[j] + c, offset[i] + r) = blk(r, c);
        }
      }
    }
  }
}

/// Orthonormalizes X by one CholQR pass, re-applies H and rotates both
/// onto the Ritz vectors of span(X); returns the Ritz values. The set-up
/// and the periodic drift control: two reductions plus the operator's.
std::vector<Real> reset_block(const BlockOperator& apply_h,
                              const SumReduction& reduce, RealMatrix& x,
                              RealMatrix& hx) {
  RealMatrix g = gram(x.view());
  reduce(g.data(), g.size());
  solve_right(gram_cholesky(g).view(), x.view(),
              RightSolve::kLowerTransposed);

  hx.resize(x.rows(), x.cols());
  apply_h(x.view(), hx.view());

  RealMatrix xhx = gemm(Trans::kYes, Trans::kNo, x.view(), hx.view());
  reduce(xhx.data(), xhx.size());
  EigResult rr = syev(xhx.view());
  x = gemm(Trans::kNo, Trans::kNo, x.view(), rr.vectors.view());
  hx = gemm(Trans::kNo, Trans::kNo, hx.view(), rr.vectors.view());
  return rr.values;
}

}  // namespace

LobpcgResult lobpcg(const BlockOperator& apply_h,
                    const BlockPreconditioner& preconditioner, RealMatrix x0,
                    const LobpcgOptions& options) {
  const obs::Span span("la.lobpcg");
  LRT_CHECK(3 * x0.cols() <= x0.rows(),
            "lobpcg: block size " << x0.cols() << " too large for dimension "
                                  << x0.rows() << " (needs 3k <= n)");
  LobpcgResult result =
      lobpcg_iterate(apply_h, preconditioner, std::move(x0), options, {});
  static obs::Counter& iterations = obs::counter("la.lobpcg.iterations");
  iterations.add(result.iterations);
  return result;
}

/// Three reduction rounds per iteration:
///
///   round 1  [residual norms | Gram of the basis [X P W]]
///   round 2  the operator application (reduces internally if it must)
///   round 3  [projected operator matrix S'HS | overlap S'S], S = [X W P]
///
/// The orthogonalization of W consumes round 1's Gram matrix for both the
/// classical Gram-Schmidt coefficients against X and P and the CholQR
/// factor of the projected residual (assembled algebraically from the same
/// blocks), so it needs no reduction of its own.
LobpcgResult lobpcg_iterate(const BlockOperator& apply_h,
                            const BlockPreconditioner& preconditioner,
                            RealMatrix x0, const LobpcgOptions& options,
                            const SumReduction& reduce_sum) {
  const Index n_local = x0.rows();
  const Index k = x0.cols();
  LRT_CHECK(k > 0, "lobpcg: empty initial block");
  const SumReduction reduce =
      reduce_sum ? reduce_sum : [](Real* /*data*/, Index /*count*/) {};
  const Index gated = options.converged_columns > 0
                          ? std::min(options.converged_columns, k)
                          : k;

  LobpcgResult result;
  result.eigenvalues.assign(static_cast<std::size_t>(k), Real{0});
  result.residual_norms.assign(static_cast<std::size_t>(k), Real{0});

  RealMatrix x;
  RealMatrix hx;
  RealMatrix p;   // previous direction block (empty in iteration 0)
  RealMatrix hp;  // H * P maintained alongside
  Index start_iter = 0;

  if (options.restore != nullptr) {
    // Resume mid-run: the snapshot holds the full end-of-iteration state
    // (X, HX, P, HP, values), so the set-up is skipped and the loop
    // continues where it stopped — bit-identically, see
    // docs/RESILIENCE.md.
    const LobpcgCheckpoint& ck = *options.restore;
    LRT_CHECK(ck.x.rows() == n_local && ck.x.cols() == k,
              "lobpcg restore: snapshot block is "
                  << ck.x.rows() << "x" << ck.x.cols() << ", expected "
                  << n_local << "x" << k);
    x = ck.x;
    hx = ck.hx;
    p = ck.p;
    hp = ck.hp;
    result.eigenvalues = ck.eigenvalues;
    start_iter = ck.iteration;
  } else {
    // Single-pass CholQR suffices: the basis is re-orthogonalized every
    // iteration.
    x = std::move(x0);
    result.eigenvalues = reset_block(apply_h, reduce, x, hx);
  }

  for (Index iter = start_iter; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Residual block R = HX - X Θ.
    RealMatrix r = to_matrix<Real>(hx.view());
    for (Index j = 0; j < k; ++j) {
      const Real theta = result.eigenvalues[static_cast<std::size_t>(j)];
      for (Index i = 0; i < n_local; ++i) r(i, j) -= theta * x(i, j);
    }

    // Round 1: residual norms and the basis Gram matrix share one
    // reduction, so the preconditioner (paper Eq 16-17) runs before the
    // convergence verdict is known; on the final iteration that work is
    // simply discarded.
    const Index kp = p.cols();
    const Index m = 2 * k + kp;
    std::vector<Real> round1(static_cast<std::size_t>(k + m * m), Real{0});
    for (Index j = 0; j < k; ++j) {
      Real sum = 0;
      for (Index i = 0; i < n_local; ++i) sum += r(i, j) * r(i, j);
      round1[static_cast<std::size_t>(j)] = sum;
    }
    if (preconditioner) preconditioner(r.view(), result.eigenvalues);
    local_products({x.view(), p.view(), r.view()}, nullptr,
                   RealView(round1.data() + k, m, m, m));
    reduce(round1.data(), static_cast<Index>(round1.size()));

    bool all_converged = true;
    for (Index j = 0; j < k; ++j) {
      const Real norm = std::sqrt(round1[static_cast<std::size_t>(j)]);
      result.residual_norms[static_cast<std::size_t>(j)] = norm;
      const Real scale = std::max(
          Real{1}, std::abs(result.eigenvalues[static_cast<std::size_t>(j)]));
      if (j < gated && norm > options.tolerance * scale) {
        all_converged = false;
      }
    }
    if (all_converged) {
      result.converged = true;
      break;
    }

    // Orthogonalize the preconditioned residual against [X P] and
    // normalize it, all against round 1's Gram matrix. Blocks of G in
    // basis order [X P W]: X at 0, P at k, W at k+kp.
    const RealConstView g(round1.data() + k, m, m, m);
    const Index kq = k + kp;  // columns of the projector basis [X P]
    const Index ow = k + kp;  // offset of the W (= residual) block
    RealMatrix cproj(kq, k);
    copy<Real>(g.block(0, ow, k, k), cproj.view().rows_block(0, k));
    if (kp > 0) {
      // Both Gram-Schmidt stages ride the same reduction: the coefficient
      // against P is corrected for the X projection already applied,
      // C_p = P'(W - X C_x) = G_pw - G_px C_x.
      copy<Real>(g.block(k, ow, kp, k), cproj.view().rows_block(k, kp));
      gemm(Trans::kNo, Trans::kNo, Real{-1}, g.block(k, 0, kp, k),
           cproj.view().rows_block(0, k), Real{1},
           cproj.view().rows_block(k, kp));
    }
    gemm(Trans::kNo, Trans::kNo, Real{-1}, x.view(),
         cproj.view().rows_block(0, k), Real{1}, r.view());
    if (kp > 0) {
      gemm(Trans::kNo, Trans::kNo, Real{-1}, p.view(),
           cproj.view().rows_block(k, kp), Real{1}, r.view());
    }

    // CholQR of the projected residual without another reduction:
    // (W - QC)'(W - QC) = G_ww - G_wq C - C'G_qw + C'G_qq C with Q = [X P].
    RealMatrix g2 = to_matrix<Real>(g.block(ow, ow, k, k));
    gemm(Trans::kNo, Trans::kNo, Real{-1}, g.block(ow, 0, k, kq),
         cproj.view(), Real{1}, g2.view());
    gemm(Trans::kYes, Trans::kNo, Real{-1}, cproj.view(),
         g.block(0, ow, kq, k), Real{1}, g2.view());
    const RealMatrix gqq_c =
        gemm(Trans::kNo, Trans::kNo, g.block(0, 0, kq, kq), cproj.view());
    gemm(Trans::kYes, Trans::kNo, Real{1}, cproj.view(), gqq_c.view(),
         Real{1}, g2.view());
    symmetrize(g2.view());
    solve_right(gram_cholesky(g2).view(), r.view(),
                RightSolve::kLowerTransposed);

    // Round 2: the operator.
    RealMatrix hr(n_local, k);
    apply_h(r.view(), hr.view());

    // Round 3: projected problem on S = [X W P] (Eq 15), Hs C = Θ Gs C,
    // operator matrix and overlap in one reduction.
    std::vector<Real> round3(static_cast<std::size_t>(2 * m * m), Real{0});
    const Blocks s{x.view(), r.view(), p.view()};
    const Blocks hs_blocks{hx.view(), hr.view(), hp.view()};
    local_products(s, &hs_blocks, RealView(round3.data(), m, m, m));
    local_products(s, nullptr, RealView(round3.data() + m * m, m, m, m));
    reduce(round3.data(), 2 * m * m);
    const RealConstView hs_c(round3.data(), m, m, m);
    const RealConstView gs_c(round3.data() + m * m, m, m, m);
    RealMatrix hs = to_matrix<Real>(hs_c);
    RealMatrix gs = to_matrix<Real>(gs_c);
    symmetrize(hs.view());

    EigResult small;
    bool used_p = kp > 0;
    try {
      small = sygv(hs.view(), gs.view());
    } catch (const Error&) {
      // Gs numerically singular: drop P (soft restart). [X W] lead the
      // basis ordering, so the retry takes the leading 2k x 2k of the
      // already-reduced matrices and costs no extra reduction.
      hs = to_matrix<Real>(hs_c.block(0, 0, 2 * k, 2 * k));
      gs = to_matrix<Real>(gs_c.block(0, 0, 2 * k, 2 * k));
      symmetrize(hs.view());
      small = sygv(hs.view(), gs.view());
      used_p = false;
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    // Coefficients of the k lowest Ritz vectors, partitioned into the
    // X / W / P blocks (C1, C2, C3 in Eq 15).
    RealMatrix c1(k, k), c2(k, k), c3(used_p ? k : 0, used_p ? k : 0);
    for (Index j = 0; j < k; ++j) {
      for (Index i = 0; i < k; ++i) c1(i, j) = small.vectors(i, j);
      for (Index i = 0; i < k; ++i) c2(i, j) = small.vectors(k + i, j);
      if (used_p) {
        for (Index i = 0; i < k; ++i) c3(i, j) = small.vectors(2 * k + i, j);
      }
    }

    // P = W C2 + P C3 and X = X C1 + P (Eq 18), images likewise, in
    // shared-B pairs: each small coefficient matrix is packed once and
    // both tall slabs stream through it.
    RealMatrix new_x(n_local, k), new_hx(n_local, k);
    RealMatrix new_p(n_local, k), new_hp(n_local, k);
    gemm_many(Trans::kNo, Trans::kNo, Real{1},
              {{x.view(), new_x.view()}, {hx.view(), new_hx.view()}},
              c1.view(), Real{0});
    gemm_many(Trans::kNo, Trans::kNo, Real{1},
              {{r.view(), new_p.view()}, {hr.view(), new_hp.view()}},
              c2.view(), Real{0});
    if (used_p) {
      gemm_many(Trans::kNo, Trans::kNo, Real{1},
                {{p.view(), new_p.view()}, {hp.view(), new_hp.view()}},
                c3.view(), Real{1});
    }
    for (Index i = 0; i < n_local; ++i) {
      for (Index j = 0; j < k; ++j) {
        new_x(i, j) += new_p(i, j);
        new_hx(i, j) += new_hp(i, j);
      }
    }
    x = std::move(new_x);
    hx = std::move(new_hx);
    p = std::move(new_p);
    hp = std::move(new_hp);

    for (Index j = 0; j < k; ++j) {
      result.eigenvalues[static_cast<std::size_t>(j)] =
          small.values[static_cast<std::size_t>(j)];
    }

    // Drift control every 20 iterations: re-orthonormalize X, refresh HX
    // and restart without P — keeps long runs stable.
    if ((iter + 1) % 20 == 0) {
      result.eigenvalues = reset_block(apply_h, reduce, x, hx);
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    // Snapshot *after* the drift-control block: it rewrites X/HX and
    // drops P, all of which must land in the checkpoint for a resumed run
    // to replay bit-identically.
    if (options.checkpoint_interval > 0 && options.checkpoint_sink &&
        (iter + 1) % options.checkpoint_interval == 0) {
      LobpcgCheckpoint ck;
      ck.x = x;
      ck.hx = hx;
      ck.p = p;
      ck.hp = hp;
      ck.eigenvalues = result.eigenvalues;
      ck.previous_values = result.eigenvalues;
      ck.residual_norms = result.residual_norms;
      ck.iteration = iter + 1;
      options.checkpoint_sink(ck);
    }
  }

  result.eigenvectors = std::move(x);
  return result;
}

}  // namespace lrt::la
