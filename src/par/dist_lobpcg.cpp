#include "par/dist_lobpcg.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "par/distblas.hpp"

namespace lrt::par {
namespace {

/// Cholesky of a (possibly rank-deficient) Gram matrix: regularizes the
/// diagonal instead of a QR fallback (which would need the full matrix on
/// one rank).
la::RealMatrix gram_cholesky(const la::RealMatrix& g) {
  la::RealMatrix l;
  if (!la::try_cholesky(g.view(), l)) {
    la::RealMatrix g2 = g;
    Real trace = 0;
    for (Index i = 0; i < g2.rows(); ++i) trace += g2(i, i);
    for (Index i = 0; i < g2.rows(); ++i) {
      g2(i, i) += 1e-12 * std::max(trace, Real{1});
    }
    l = la::cholesky(g2.view());
  }
  return l;
}

/// One distributed CholQR pass (one Gram allreduce).
void cholqr_pass(Comm& comm, la::RealView a_local) {
  const la::RealMatrix g = dist_gram(comm, a_local);
  // a := a L⁻ᵀ (local rows; the triangular factor is replicated).
  la::solve_right(gram_cholesky(g).view(), a_local,
                  la::RightSolve::kLowerTransposed);
}

/// Distributed CholQR²: orthonormalizes the global columns of a
/// row-slab-distributed block in place.
void dist_cholqr2(Comm& comm, la::RealView a_local) {
  for (int pass = 0; pass < 2; ++pass) cholqr_pass(comm, a_local);
}

/// x_local := x_local - q_local (qᵀ x) with the dot products reduced.
void dist_project_out(Comm& comm, la::RealConstView q_local,
                      la::RealView x_local) {
  if (q_local.cols() == 0 || x_local.cols() == 0) return;
  const la::RealMatrix coeff = dist_gemm_tn(comm, q_local, x_local);
  la::gemm(la::Trans::kNo, la::Trans::kNo, Real{-1}, q_local, coeff.view(),
           Real{1}, x_local);
}

la::RealMatrix hcat(la::RealConstView a, la::RealConstView b,
                    la::RealConstView c) {
  const Index n = a.rows();
  const Index k = a.cols() + b.cols() + c.cols();
  la::RealMatrix s(n, k);
  la::copy<Real>(a, s.view().cols_block(0, a.cols()));
  if (b.cols() > 0) {
    la::copy<Real>(b, s.view().cols_block(a.cols(), b.cols()));
  }
  if (c.cols() > 0) {
    la::copy<Real>(c, s.view().cols_block(a.cols() + b.cols(), c.cols()));
  }
  return s;
}

void symmetrize(la::RealView a) {
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i + 1; j < a.cols(); ++j) {
      const Real avg = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = avg;
      a(j, i) = avg;
    }
  }
}

/// The communication-avoiding iteration (GramReduction::kPerBlock and
/// kFused). Three reduction rounds per iteration instead of legacy's seven:
///
///   round 1  [residual norms | Gram of the concatenated basis [X P W]]
///   round 2  the operator application (reduces internally)
///   round 3  [projected operator matrix S'HS | overlap S'S]
///
/// The orthogonalization consumes round 1's Gram matrix for everything the
/// legacy path bought with separate reductions: the classical Gram-Schmidt
/// coefficients against X and P, and the CholQR factor of the projected
/// residual (assembled algebraically from the same blocks). `fused` only
/// controls whether each round's blocks travel in one allreduce or one per
/// block — the summed values are elementwise identical either way, which is
/// what makes kPerBlock a bitwise reference twin for kFused.
la::LobpcgResult dist_lobpcg_ca(Comm& comm, const DistBlockOperator& apply_h,
                                const DistBlockPreconditioner& preconditioner,
                                la::RealMatrix x0_local,
                                const la::LobpcgOptions& options, bool fused) {
  const Index n_local = x0_local.rows();
  const Index k = x0_local.cols();
  LRT_CHECK(k > 0, "dist_lobpcg: empty block");

  la::LobpcgResult result;
  result.eigenvalues.assign(static_cast<std::size_t>(k), Real{0});
  result.residual_norms.assign(static_cast<std::size_t>(k), Real{0});

  la::RealMatrix x;
  la::RealMatrix hx;
  la::RealMatrix p;
  la::RealMatrix hp;
  Index start_iter = 0;

  if (options.restore != nullptr) {
    const la::LobpcgCheckpoint& ck = *options.restore;
    LRT_CHECK(ck.x.rows() == n_local && ck.x.cols() == k,
              "dist_lobpcg restore: snapshot slab is "
                  << ck.x.rows() << "x" << ck.x.cols() << ", expected "
                  << n_local << "x" << k);
    x = ck.x;
    hx = ck.hx;
    p = ck.p;
    hp = ck.hp;
    result.eigenvalues = ck.eigenvalues;
    start_iter = ck.iteration;
  } else {
    // Setup in three rounds: single-pass CholQR (the basis is used once
    // and re-orthogonalized every iteration, so the second pass legacy
    // pays for buys nothing here), the operator, and the Rayleigh quotient.
    x = std::move(x0_local);
    cholqr_pass(comm, x.view());

    hx.resize(n_local, k);
    apply_h(x.view(), hx.view());

    const la::RealMatrix xhx = dist_gemm_tn(comm, x.view(), hx.view());
    la::EigResult rr = la::syev(xhx.view());
    x = la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(), rr.vectors.view());
    hx = la::gemm(la::Trans::kNo, la::Trans::kNo, hx.view(),
                  rr.vectors.view());
    result.eigenvalues = rr.values;
  }

  for (Index iter = start_iter; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    la::RealMatrix r = la::to_matrix<Real>(hx.view());
    for (Index j = 0; j < k; ++j) {
      const Real theta = result.eigenvalues[static_cast<std::size_t>(j)];
      for (Index i = 0; i < n_local; ++i) r(i, j) -= theta * x(i, j);
    }

    // Round 1: residual norms and the basis Gram matrix share one
    // reduction, so the preconditioner runs before the convergence verdict
    // is known; on the final iteration that work is simply discarded.
    const Index kp = p.cols();
    const Index m = 2 * k + kp;
    std::vector<Real> round1(static_cast<std::size_t>(k + m * m), Real{0});
    for (Index j = 0; j < k; ++j) {
      Real sum = 0;
      for (Index i = 0; i < n_local; ++i) sum += r(i, j) * r(i, j);
      round1[static_cast<std::size_t>(j)] = sum;
    }
    if (preconditioner) preconditioner(r.view(), result.eigenvalues);

    const la::RealMatrix basis = hcat(x.view(), p.view(), r.view());
    local_gram_tn_blocks({x.view(), p.view(), r.view()}, basis.view(),
                         la::RealView(round1.data() + k, m, m, m));
    if (fused) {
      comm.allreduce(round1.data(), static_cast<Index>(round1.size()),
                     ReduceOp::kSum);
    } else {
      comm.allreduce(round1.data(), k, ReduceOp::kSum);
    }

    bool all_converged = true;
    for (Index j = 0; j < k; ++j) {
      const Real norm = std::sqrt(round1[static_cast<std::size_t>(j)]);
      result.residual_norms[static_cast<std::size_t>(j)] = norm;
      const Real scale = std::max(
          Real{1}, std::abs(result.eigenvalues[static_cast<std::size_t>(j)]));
      if (norm > options.tolerance * scale) all_converged = false;
    }
    if (all_converged) {
      result.converged = true;
      break;
    }
    if (!fused) comm.allreduce(round1.data() + k, m * m, ReduceOp::kSum);

    // Orthogonalize the preconditioned residual against [X P] and
    // normalize it, all against round 1's Gram matrix. Blocks of G in
    // basis order [X P W]: X at 0, P at k, W at k+kp.
    const la::RealConstView g(round1.data() + k, m, m, m);
    const Index kq = k + kp;   // columns of the projector basis [X P]
    const Index ow = k + kp;   // offset of the W (= residual) block
    const la::RealMatrix c_x = la::to_matrix<Real>(g.block(0, ow, k, k));
    la::RealMatrix cproj(kq, k);
    la::copy<Real>(c_x.view(), cproj.view().rows_block(0, k));
    if (kp > 0) {
      // Both Gram-Schmidt stages ride the same reduction: the coefficient
      // against P is corrected for the X projection already applied,
      // C_p = P'(W - X C_x) = G_pw - G_px C_x.
      la::copy<Real>(g.block(k, ow, kp, k), cproj.view().rows_block(k, kp));
      la::gemm(la::Trans::kNo, la::Trans::kNo, Real{-1}, g.block(k, 0, kp, k),
               c_x.view(), Real{1}, cproj.view().rows_block(k, kp));
    }
    la::gemm(la::Trans::kNo, la::Trans::kNo, Real{-1},
             basis.view().cols_block(0, kq), cproj.view(), Real{1}, r.view());

    // CholQR of the projected residual without another reduction:
    // (W - QC)'(W - QC) = G_ww - G_wq C - C'G_qw + C'G_qq C with Q = [X P].
    la::RealMatrix g2 = la::to_matrix<Real>(g.block(ow, ow, k, k));
    la::gemm(la::Trans::kNo, la::Trans::kNo, Real{-1}, g.block(ow, 0, k, kq),
             cproj.view(), Real{1}, g2.view());
    la::gemm(la::Trans::kYes, la::Trans::kNo, Real{-1}, cproj.view(),
             g.block(0, ow, kq, k), Real{1}, g2.view());
    const la::RealMatrix gqq_c = la::gemm(
        la::Trans::kNo, la::Trans::kNo, g.block(0, 0, kq, kq), cproj.view());
    la::gemm(la::Trans::kYes, la::Trans::kNo, Real{1}, cproj.view(),
             gqq_c.view(), Real{1}, g2.view());
    symmetrize(g2.view());
    la::solve_right(gram_cholesky(g2).view(), r.view(),
                    la::RightSolve::kLowerTransposed);

    // Round 2: the operator reduces internally.
    la::RealMatrix hr(n_local, k);
    apply_h(r.view(), hr.view());

    // Round 3: projected operator matrix and overlap in one reduction.
    const la::RealMatrix s = hcat(x.view(), r.view(), p.view());
    const la::RealMatrix hs_blocks = hcat(hx.view(), hr.view(), hp.view());
    std::vector<Real> round3(static_cast<std::size_t>(2 * m * m), Real{0});
    local_gram_tn_blocks({x.view(), r.view(), p.view()}, hs_blocks.view(),
                         la::RealView(round3.data(), m, m, m));
    local_gram_tn_blocks({x.view(), r.view(), p.view()}, s.view(),
                         la::RealView(round3.data() + m * m, m, m, m));
    if (fused) {
      comm.allreduce(round3.data(), 2 * m * m, ReduceOp::kSum);
    } else {
      comm.allreduce(round3.data(), m * m, ReduceOp::kSum);
      comm.allreduce(round3.data() + m * m, m * m, ReduceOp::kSum);
    }
    const la::RealConstView hs_c(round3.data(), m, m, m);
    const la::RealConstView gs_c(round3.data() + m * m, m, m, m);
    la::RealMatrix hs = la::to_matrix<Real>(hs_c);
    la::RealMatrix gs = la::to_matrix<Real>(gs_c);
    symmetrize(hs.view());

    la::EigResult small;
    bool used_p = kp > 0;
    try {
      small = la::sygv(hs.view(), gs.view());
    } catch (const Error&) {
      // Drop P by extracting the leading 2k x 2k of the already-reduced
      // matrices — [X W] lead the basis ordering, so unlike legacy the
      // retry costs no extra reduction round.
      hs = la::to_matrix<Real>(hs_c.block(0, 0, 2 * k, 2 * k));
      gs = la::to_matrix<Real>(gs_c.block(0, 0, 2 * k, 2 * k));
      symmetrize(hs.view());
      small = la::sygv(hs.view(), gs.view());
      used_p = false;
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    la::RealMatrix c1(k, k), c2(k, k), c3(used_p ? k : 0, used_p ? k : 0);
    for (Index j = 0; j < k; ++j) {
      for (Index i = 0; i < k; ++i) c1(i, j) = small.vectors(i, j);
      for (Index i = 0; i < k; ++i) c2(i, j) = small.vectors(k + i, j);
      if (used_p) {
        for (Index i = 0; i < k; ++i) c3(i, j) = small.vectors(2 * k + i, j);
      }
    }

    // Coefficient updates in shared-B pairs: each small coefficient matrix
    // is packed once and both tall slabs stream through it.
    la::RealMatrix new_x(n_local, k), new_hx(n_local, k);
    la::RealMatrix new_p(n_local, k), new_hp(n_local, k);
    la::gemm_many(la::Trans::kNo, la::Trans::kNo, Real{1},
                  {{x.view(), new_x.view()}, {hx.view(), new_hx.view()}},
                  c1.view(), Real{0});
    la::gemm_many(la::Trans::kNo, la::Trans::kNo, Real{1},
                  {{r.view(), new_p.view()}, {hr.view(), new_hp.view()}},
                  c2.view(), Real{0});
    if (used_p) {
      la::gemm_many(la::Trans::kNo, la::Trans::kNo, Real{1},
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

    if ((iter + 1) % 20 == 0) {
      cholqr_pass(comm, x.view());
      apply_h(x.view(), hx.view());
      const la::RealMatrix xhx = dist_gemm_tn(comm, x.view(), hx.view());
      la::EigResult rr = la::syev(xhx.view());
      x = la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(),
                   rr.vectors.view());
      hx = la::gemm(la::Trans::kNo, la::Trans::kNo, hx.view(),
                    rr.vectors.view());
      result.eigenvalues = rr.values;
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    // Per-rank slab snapshot, taken after the drift-control block for the
    // same bit-replay reason as the serial solver (la/lobpcg.cpp).
    if (options.checkpoint_interval > 0 && options.checkpoint_sink &&
        (iter + 1) % options.checkpoint_interval == 0) {
      la::LobpcgCheckpoint ck;
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
  static obs::Counter& iterations = obs::counter("par.dist_lobpcg.iterations");
  iterations.add(result.iterations);
  return result;
}

}  // namespace

la::LobpcgResult dist_lobpcg(Comm& comm, const DistBlockOperator& apply_h,
                             const DistBlockPreconditioner& preconditioner,
                             la::RealMatrix x0_local,
                             const la::LobpcgOptions& options,
                             GramReduction reduction) {
  const obs::Span span("par.dist_lobpcg");
  if (reduction != GramReduction::kLegacy) {
    return dist_lobpcg_ca(comm, apply_h, preconditioner, std::move(x0_local),
                          options, reduction == GramReduction::kFused);
  }
  const Index n_local = x0_local.rows();
  const Index k = x0_local.cols();
  LRT_CHECK(k > 0, "dist_lobpcg: empty block");

  la::LobpcgResult result;
  result.eigenvalues.assign(static_cast<std::size_t>(k), Real{0});
  result.residual_norms.assign(static_cast<std::size_t>(k), Real{0});

  la::RealMatrix x;
  la::RealMatrix hx;
  la::RealMatrix p;
  la::RealMatrix hp;
  Index start_iter = 0;

  // Resume from a per-rank slab snapshot or run the setup phase; every
  // rank must agree on which branch it takes (same options on all ranks),
  // exactly like the uniform-options contract of the collectives below.
  if (options.restore != nullptr) {
    const la::LobpcgCheckpoint& ck = *options.restore;
    LRT_CHECK(ck.x.rows() == n_local && ck.x.cols() == k,
              "dist_lobpcg restore: snapshot slab is "
                  << ck.x.rows() << "x" << ck.x.cols() << ", expected "
                  << n_local << "x" << k);
    x = ck.x;
    hx = ck.hx;
    p = ck.p;
    hp = ck.hp;
    result.eigenvalues = ck.eigenvalues;
    start_iter = ck.iteration;
  } else {
    x = std::move(x0_local);
    dist_cholqr2(comm, x.view());

    hx.resize(n_local, k);
    apply_h(x.view(), hx.view());

    const la::RealMatrix xhx = dist_gemm_tn(comm, x.view(), hx.view());
    la::EigResult rr = la::syev(xhx.view());
    x = la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(), rr.vectors.view());
    hx = la::gemm(la::Trans::kNo, la::Trans::kNo, hx.view(),
                  rr.vectors.view());
    result.eigenvalues = rr.values;
  }

  for (Index iter = start_iter; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    la::RealMatrix r = la::to_matrix<Real>(hx.view());
    for (Index j = 0; j < k; ++j) {
      const Real theta = result.eigenvalues[static_cast<std::size_t>(j)];
      for (Index i = 0; i < n_local; ++i) r(i, j) -= theta * x(i, j);
    }

    // Global residual norms (column-wise) in one reduction.
    std::vector<Real> norms(static_cast<std::size_t>(k), Real{0});
    for (Index j = 0; j < k; ++j) {
      for (Index i = 0; i < n_local; ++i) {
        norms[static_cast<std::size_t>(j)] += r(i, j) * r(i, j);
      }
    }
    comm.allreduce(norms.data(), k, ReduceOp::kSum);
    bool all_converged = true;
    for (Index j = 0; j < k; ++j) {
      const Real norm = std::sqrt(norms[static_cast<std::size_t>(j)]);
      result.residual_norms[static_cast<std::size_t>(j)] = norm;
      const Real scale = std::max(
          Real{1}, std::abs(result.eigenvalues[static_cast<std::size_t>(j)]));
      if (norm > options.tolerance * scale) all_converged = false;
    }
    if (all_converged) {
      result.converged = true;
      break;
    }

    if (preconditioner) preconditioner(r.view(), result.eigenvalues);
    dist_project_out(comm, x.view(), r.view());
    if (p.cols() > 0) dist_project_out(comm, p.view(), r.view());
    dist_cholqr2(comm, r.view());

    la::RealMatrix hr(n_local, k);
    apply_h(r.view(), hr.view());

    const la::RealMatrix s = hcat(x.view(), r.view(), p.view());
    const la::RealMatrix hs_blocks = hcat(hx.view(), hr.view(), hp.view());
    la::RealMatrix hs = dist_gemm_tn(comm, s.view(), hs_blocks.view());
    la::RealMatrix gs = dist_gram(comm, s.view());
    const Index m = s.cols();
    for (Index i = 0; i < m; ++i) {
      for (Index j = i + 1; j < m; ++j) {
        const Real avg = 0.5 * (hs(i, j) + hs(j, i));
        hs(i, j) = avg;
        hs(j, i) = avg;
      }
    }

    la::EigResult small;
    bool used_p = p.cols() > 0;
    try {
      small = la::sygv(hs.view(), gs.view());
    } catch (const Error&) {
      const la::RealMatrix s2 =
          hcat(x.view(), r.view(), la::RealMatrix().view());
      const la::RealMatrix hs2 =
          hcat(hx.view(), hr.view(), la::RealMatrix().view());
      hs = dist_gemm_tn(comm, s2.view(), hs2.view());
      gs = dist_gram(comm, s2.view());
      small = la::sygv(hs.view(), gs.view());
      used_p = false;
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    la::RealMatrix c1(k, k), c2(k, k), c3(used_p ? k : 0, used_p ? k : 0);
    for (Index j = 0; j < k; ++j) {
      for (Index i = 0; i < k; ++i) c1(i, j) = small.vectors(i, j);
      for (Index i = 0; i < k; ++i) c2(i, j) = small.vectors(k + i, j);
      if (used_p) {
        for (Index i = 0; i < k; ++i) c3(i, j) = small.vectors(2 * k + i, j);
      }
    }

    la::RealMatrix new_p =
        la::gemm(la::Trans::kNo, la::Trans::kNo, r.view(), c2.view());
    la::RealMatrix new_hp =
        la::gemm(la::Trans::kNo, la::Trans::kNo, hr.view(), c2.view());
    if (used_p) {
      la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, p.view(), c3.view(),
               Real{1}, new_p.view());
      la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, hp.view(), c3.view(),
               Real{1}, new_hp.view());
    }
    la::RealMatrix new_x =
        la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(), c1.view());
    la::RealMatrix new_hx =
        la::gemm(la::Trans::kNo, la::Trans::kNo, hx.view(), c1.view());
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

    if ((iter + 1) % 20 == 0) {
      dist_cholqr2(comm, x.view());
      apply_h(x.view(), hx.view());
      const la::RealMatrix xhx = dist_gemm_tn(comm, x.view(), hx.view());
      la::EigResult rr = la::syev(xhx.view());
      x = la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(),
                   rr.vectors.view());
      hx = la::gemm(la::Trans::kNo, la::Trans::kNo, hx.view(),
                    rr.vectors.view());
      result.eigenvalues = rr.values;
      p.resize(0, 0);
      hp.resize(0, 0);
    }

    // Per-rank slab snapshot, taken after the drift-control block for the
    // same bit-replay reason as the serial solver (la/lobpcg.cpp).
    if (options.checkpoint_interval > 0 && options.checkpoint_sink &&
        (iter + 1) % options.checkpoint_interval == 0) {
      la::LobpcgCheckpoint ck;
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
  static obs::Counter& iterations = obs::counter("par.dist_lobpcg.iterations");
  iterations.add(result.iterations);
  return result;
}

}  // namespace lrt::par
