// Hot-kernel performance layer exactness tests (docs/PERFORMANCE.md):
//  - packed micro-kernel GEMM vs. a naive triple loop over odd shapes,
//    all transpose combinations, strided views and aliased inputs, and
//    gemm/gemm_many/gram vs. a scalar oracle of the bit contract,
//    asserted BITWISE;
//  - the row-oriented dense small kernels (triangular solves, the
//    right-side solve, gram, solve_gram_from_right) vs. the element-wise
//    formulas they replaced, asserted BITWISE, and syev/sygv accuracy;
//  - batched FFT (forward_many/inverse_many) vs. the per-line plan,
//    asserted BITWISE, and the rewritten Fft3D vs. a copy of the old
//    per-line algorithm, also bitwise;
//  - pruned (Elkan-lite) K-Means vs. the exact full-scan assignment,
//    asserted bit-identical for the serial and distributed variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "kmeans/kmeans.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/lstsq.hpp"
#include "la/qr.hpp"
#include "la/tuning.hpp"
#include "obs/counters.hpp"
#include "par/layout.hpp"

namespace lrt {
namespace {

// ----- GEMM ----------------------------------------------------------------

la::RealMatrix naive_gemm(la::Trans ta, la::Trans tb, Real alpha,
                          const la::RealMatrix& a, const la::RealMatrix& b,
                          Real beta, const la::RealMatrix& c0) {
  const Index m = (ta == la::Trans::kNo) ? a.rows() : a.cols();
  const Index k = (ta == la::Trans::kNo) ? a.cols() : a.rows();
  const Index n = (tb == la::Trans::kNo) ? b.cols() : b.rows();
  la::RealMatrix c = c0;
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real sum = 0;
      for (Index p = 0; p < k; ++p) {
        const Real av = (ta == la::Trans::kNo) ? a(i, p) : a(p, i);
        const Real bv = (tb == la::Trans::kNo) ? b(p, j) : b(j, p);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c(i, j);
    }
  }
  return c;
}

struct PackedGemmCase {
  Index m, n, k;
};

class PackedGemmSweep : public ::testing::TestWithParam<PackedGemmCase> {};

TEST_P(PackedGemmSweep, AllTransposesMatchNaive) {
  const PackedGemmCase shape = GetParam();
  Rng rng(static_cast<unsigned>(shape.m * 977 + shape.n * 31 + shape.k));
  for (const la::Trans ta : {la::Trans::kNo, la::Trans::kYes}) {
    for (const la::Trans tb : {la::Trans::kNo, la::Trans::kYes}) {
      for (const auto& [alpha, beta] : {std::pair<Real, Real>{1.0, 0.0},
                                        std::pair<Real, Real>{-0.75, 1.5}}) {
        const la::RealMatrix a =
            (ta == la::Trans::kNo)
                ? la::RealMatrix::random_uniform(shape.m, shape.k, rng)
                : la::RealMatrix::random_uniform(shape.k, shape.m, rng);
        const la::RealMatrix b =
            (tb == la::Trans::kNo)
                ? la::RealMatrix::random_uniform(shape.k, shape.n, rng)
                : la::RealMatrix::random_uniform(shape.n, shape.k, rng);
        la::RealMatrix c = la::RealMatrix::random_uniform(shape.m, shape.n, rng);
        const la::RealMatrix expected = naive_gemm(ta, tb, alpha, a, b, beta, c);

        la::RealMatrix got = c;
        la::gemm(ta, tb, alpha, a.view(), b.view(), beta, got.view());
        // Different summation order than the naive loop, so compare with a
        // k-scaled tolerance, not bitwise.
        const Real tol =
            1e-13 * static_cast<Real>(shape.k + 8) * std::max(Real{1}, la::max_abs(expected.view()));
        EXPECT_LE(la::max_abs_diff(got.view(), expected.view()), tol)
            << "ta=" << (ta == la::Trans::kYes) << " tb="
            << (tb == la::Trans::kYes) << " alpha=" << alpha;

        // The preserved baseline must satisfy the same contract.
        la::RealMatrix ref = c;
        la::gemm_reference(ta, tb, alpha, a.view(), b.view(), beta, ref.view());
        EXPECT_LE(la::max_abs_diff(ref.view(), expected.view()), tol);
      }
    }
  }
}

// Odd primes, micro-tile remainders, degenerate dims, and shapes big
// enough to take the packed path (2mnk >= 2*24^3).
INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemmSweep,
    ::testing::Values(PackedGemmCase{37, 53, 29}, PackedGemmCase{129, 65, 127},
                      PackedGemmCase{64, 64, 64}, PackedGemmCase{6, 8, 300},
                      PackedGemmCase{61, 7, 83}, PackedGemmCase{1, 1, 1},
                      PackedGemmCase{1, 96, 96}, PackedGemmCase{96, 1, 96},
                      PackedGemmCase{96, 96, 1}, PackedGemmCase{23, 24, 25}));

TEST(PackedGemm, StridedViewsMatchNaive) {
  Rng rng(11);
  const la::RealMatrix big_a = la::RealMatrix::random_uniform(80, 90, rng);
  const la::RealMatrix big_b = la::RealMatrix::random_uniform(90, 70, rng);
  la::RealMatrix big_c = la::RealMatrix::random_uniform(80, 70, rng);
  // Interior blocks: ld exceeds cols on every operand.
  const la::RealConstView a = big_a.view().block(3, 5, 50, 40);
  const la::RealConstView b = big_b.view().block(7, 2, 40, 60);
  const la::RealView c = big_c.view().block(11, 4, 50, 60);

  const la::RealMatrix expected =
      naive_gemm(la::Trans::kNo, la::Trans::kNo, 2.0, la::to_matrix(a),
                 la::to_matrix(b), -1.0, la::to_matrix(la::RealConstView(c)));
  la::gemm(la::Trans::kNo, la::Trans::kNo, 2.0, a, b, -1.0, c);
  EXPECT_LE(la::max_abs_diff(c, expected.view()), 1e-11);
}

TEST(PackedGemm, AliasedGramInputsMatchNaive) {
  Rng rng(12);
  const la::RealMatrix a = la::RealMatrix::random_uniform(90, 45, rng);
  la::RealMatrix c(45, 45);
  // C = Aᵀ A with the SAME view passed for both operands.
  la::gemm(la::Trans::kYes, la::Trans::kNo, 1.0, a.view(), a.view(), 0.0,
           c.view());
  const la::RealMatrix expected =
      naive_gemm(la::Trans::kYes, la::Trans::kNo, 1.0, a, a, 0.0,
                 la::RealMatrix(45, 45));
  EXPECT_LE(la::max_abs_diff(c.view(), expected.view()),
            1e-13 * 90 * la::max_abs(expected.view()));
}

// ----- GEMM bit contract -----------------------------------------------------

/// The packed path's contract (la/tuning.hpp): C is beta-scaled, then per
/// 256-deep block of the reduction, in order, each element adds a zero-
/// started chain over ascending p of (alpha a) b, fused exactly when the
/// dispatched kernel fuses. Tile shape and packing must not show.
la::RealMatrix contract_gemm(la::Trans ta, la::Trans tb, Real alpha,
                             la::RealConstView a, la::RealConstView b,
                             Real beta, la::RealConstView c0) {
  constexpr Index kBlock = 256;
  const bool fused = la::gemm_fuses_multiply_add();
  // Rows of alpha op(A) and of op(B)ᵀ, so the chains read contiguously.
  la::RealMatrix sa =
      ta == la::Trans::kNo ? la::to_matrix(a) : la::transpose<Real>(a);
  const la::RealMatrix bt =
      tb == la::Trans::kNo ? la::transpose<Real>(b) : la::to_matrix(b);
  for (Index i = 0; i < sa.rows(); ++i) {
    for (Index p = 0; p < sa.cols(); ++p) sa(i, p) = alpha * sa(i, p);
  }
  const Index k = sa.cols();
  la::RealMatrix c = la::to_matrix(c0);
  for (Index i = 0; i < c.rows(); ++i) {
    Real* ci = c.view().row_ptr(i);
    for (Index j = 0; j < c.cols(); ++j) {
      ci[j] = beta == Real{0}   ? Real{0}
              : beta == Real{1} ? ci[j]
                                : beta * ci[j];
    }
  }
  for (Index p0 = 0; p0 < k; p0 += kBlock) {
    const Index p1 = std::min(k, p0 + kBlock);
    for (Index i = 0; i < c.rows(); ++i) {
      const Real* ai = sa.view().row_ptr(i);
      for (Index j = 0; j < c.cols(); ++j) {
        const Real* bj = bt.view().row_ptr(j);
        Real sum = 0;
        for (Index p = p0; p < p1; ++p) {
          sum = fused ? std::fma(ai[p], bj[p], sum) : sum + ai[p] * bj[p];
        }
        c(i, j) += sum;
      }
    }
  }
  return c;
}

/// Asserts equal bit patterns (so +0 and -0 differ), naming the first
/// element that differs and how many do.
void expect_same_bits(la::RealConstView got, la::RealConstView want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  Index bad = 0, first_i = -1, first_j = -1;
  for (Index i = 0; i < got.rows(); ++i) {
    for (Index j = 0; j < got.cols(); ++j) {
      if (std::memcmp(&got(i, j), &want(i, j), sizeof(Real)) == 0) continue;
      if (bad++ == 0) first_i = i, first_j = j;
    }
  }
  EXPECT_EQ(bad, 0) << what << ": first at (" << first_i << ", " << first_j
                    << ")";
}

la::RealMatrix random_op(la::Trans t, Index rows, Index cols, Rng& rng) {
  return t == la::Trans::kNo ? la::RealMatrix::random_uniform(rows, cols, rng)
                             : la::RealMatrix::random_uniform(cols, rows, rng);
}

using TransPair = std::pair<la::Trans, la::Trans>;
using ScalePair = std::pair<Real, Real>;  // alpha, beta

const std::vector<TransPair> kAllTransposes = {
    {la::Trans::kNo, la::Trans::kNo},
    {la::Trans::kYes, la::Trans::kNo},
    {la::Trans::kNo, la::Trans::kYes},
    {la::Trans::kYes, la::Trans::kYes}};

std::vector<ScalePair> all_scales() {
  std::vector<ScalePair> out;
  for (const Real alpha : {1.0, -1.0, 0.75}) {
    for (const Real beta : {0.0, 1.0, 1.5}) out.emplace_back(alpha, beta);
  }
  return out;
}

/// gemm (when it takes the packed path) and a two-item gemm_many sharing
/// op(B) against the oracle.
void check_contract(Index m, Index n, Index k,
                    const std::vector<TransPair>& transposes,
                    const std::vector<ScalePair>& scales, Rng& rng) {
  const bool packed =
      2.0 * double(m) * double(n) * double(k) >= la::kPackedFlopThreshold;
  for (const auto& [ta, tb] : transposes) {
    const la::RealMatrix a = random_op(ta, m, k, rng);
    const la::RealMatrix a2 = random_op(ta, m + 3, k, rng);
    const la::RealMatrix b = random_op(tb, k, n, rng);
    const la::RealMatrix c = la::RealMatrix::random_uniform(m, n, rng);
    const la::RealMatrix c2 = la::RealMatrix::random_uniform(m + 3, n, rng);
    for (const auto& [alpha, beta] : scales) {
      std::ostringstream what;
      what << m << "x" << n << "x" << k << " ta=" << int(ta)
           << " tb=" << int(tb) << " alpha=" << alpha << " beta=" << beta;
      const la::RealMatrix want =
          contract_gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
      if (packed) {
        la::RealMatrix got = c;
        la::gemm(ta, tb, alpha, a.view(), b.view(), beta, got.view());
        expect_same_bits(got.view(), want.view(), "gemm " + what.str());
      }
      la::RealMatrix got = c, got2 = c2;
      la::gemm_many(ta, tb, alpha,
                    {{a.view(), got.view()}, {a2.view(), got2.view()}},
                    b.view(), beta);
      expect_same_bits(got.view(), want.view(), "gemm_many " + what.str());
      expect_same_bits(got2.view(),
                       contract_gemm(ta, tb, alpha, a2.view(), b.view(), beta,
                                     c2.view())
                           .view(),
                       "gemm_many item 2 " + what.str());
    }
  }
}

TEST(GemmContract, TileRemaindersAreBitwiseTheScalarOracle) {
  Rng rng(41);
  // Rows and cols on both sides of the 6- and 8-row tiles and the 8- and
  // 24-col panels; k = 600 spans three reduction blocks, the last one
  // partial.
  for (const Index m : {1, 5, 7, 8, 9, 13, 24}) {
    for (const Index n : {1, 5, 7, 8, 9, 13, 24, 25, 47}) {
      check_contract(m, n, 600, kAllTransposes, all_scales(), rng);
    }
  }
}

TEST(GemmContract, LobpcgShapesAreBitwiseTheScalarOracle) {
  Rng rng(42);
  // The SCF band LOBPCG's block products at n = 1728: Xᵀ Y (w x w) and
  // X C (n x w), for block widths w = 24 (every case) and 72 (the
  // transposes and scalings the LOBPCG uses).
  check_contract(24, 24, 1728, kAllTransposes, all_scales(), rng);
  check_contract(1728, 24, 24, kAllTransposes, all_scales(), rng);
  check_contract(72, 72, 1728, {{la::Trans::kYes, la::Trans::kNo}},
                 {{1.0, 0.0}}, rng);
  check_contract(1728, 72, 72, {{la::Trans::kNo, la::Trans::kNo}},
                 {{1.0, 0.0}, {-1.0, 1.0}}, rng);
}

TEST(GemmContract, GramIsBitwiseTheScalarOracle) {
  Rng rng(43);
  const struct {
    Index m, n;
  } shapes[] = {{600, 5}, {600, 9}, {1100, 7}, {300, 13},
                {300, 24}, {1728, 24}, {1728, 72}};
  for (const auto& shape : shapes) {
    ASSERT_GE(2.0 * double(shape.n) * double(shape.n) * double(shape.m),
              la::kPackedFlopThreshold);
    const la::RealMatrix a =
        la::RealMatrix::random_uniform(shape.m, shape.n, rng);
    const la::RealMatrix zero(shape.n, shape.n);
    std::ostringstream what;
    what << "gram " << shape.m << "x" << shape.n;
    expect_same_bits(la::gram(a.view()).view(),
                     contract_gemm(la::Trans::kYes, la::Trans::kNo, 1.0,
                                   a.view(), a.view(), 0.0, zero.view())
                         .view(),
                     what.str());
  }
}

TEST(GemmContract, KernelProjectionBatchIsBitwiseTheScalarOracle) {
  Rng rng(44);
  // The Casida kernel projection's batch at 4 ranks: four 27-row slices
  // of the image against one 1024 x 432 operand, views into wider
  // buffers.
  const la::RealMatrix image = la::RealMatrix::random_uniform(1024, 108, rng);
  const la::RealMatrix rows = la::RealMatrix::random_uniform(1024, 432, rng);
  la::RealMatrix got(108, 432);
  std::vector<la::GemmBatchItem> items;
  for (Index q = 0; q < 4; ++q) {
    items.push_back({image.view().cols_block(27 * q, 27),
                     got.view().rows_block(27 * q, 27)});
  }
  la::gemm_many(la::Trans::kYes, la::Trans::kNo, 1.0, items, rows.view(),
                0.0);
  for (Index q = 0; q < 4; ++q) {
    const la::RealMatrix zero(27, 432);
    expect_same_bits(got.view().rows_block(27 * q, 27),
                     contract_gemm(la::Trans::kYes, la::Trans::kNo, 1.0,
                                   image.view().cols_block(27 * q, 27),
                                   rows.view(), 0.0, zero.view())
                         .view(),
                     "slice " + std::to_string(q));
  }
}

// ----- dense small kernels -------------------------------------------------
//
// The oracles below are the element-wise, column-walking formulas the
// row-oriented kernels replaced, written out here so the bitwise contract
// ("each element sees the same operations in the same order") is checked
// against the old code rather than against itself.

void old_solve_lower(const la::RealMatrix& l, la::RealMatrix& b) {
  const Index n = l.cols();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      Real sum = b(i, j);
      for (Index p = 0; p < i; ++p) sum -= l(i, p) * b(p, j);
      b(i, j) = sum / l(i, i);
    }
  }
}

void old_solve_lower_transposed(const la::RealMatrix& l, la::RealMatrix& b) {
  const Index n = l.cols();
  for (Index i = n - 1; i >= 0; --i) {
    for (Index j = 0; j < b.cols(); ++j) {
      Real sum = b(i, j);
      for (Index p = i + 1; p < n; ++p) sum -= l(p, i) * b(p, j);
      b(i, j) = sum / l(i, i);
    }
  }
}

void old_solve_upper(const la::RealMatrix& r, la::RealMatrix& b) {
  const Index n = r.cols();
  for (Index i = n - 1; i >= 0; --i) {
    for (Index j = 0; j < b.cols(); ++j) {
      Real sum = b(i, j);
      for (Index p = i + 1; p < n; ++p) sum -= r(i, p) * b(p, j);
      b(i, j) = sum / r(i, i);
    }
  }
}

/// A well-conditioned lower-triangular factor with mixed-sign entries.
la::RealMatrix random_lower(Index n, Rng& rng) {
  la::RealMatrix l(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) l(i, j) = rng.uniform() - 0.5;
    l(i, i) = 1.0 + rng.uniform();
  }
  return l;
}

void expect_bitwise(la::RealConstView got, la::RealConstView want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (Index i = 0; i < got.rows(); ++i) {
    for (Index j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got(i, j), want(i, j)) << "element (" << i << ", " << j << ")";
    }
  }
}

/// A random m x n block viewed inside a wider buffer (ld = n + 3): one
/// padding column on the left, two on the right.
struct PaddedBlock {
  la::RealMatrix storage;
  la::RealView view;
  PaddedBlock(Index m, Index n, Rng& rng)
      : storage(la::RealMatrix::random_uniform(m, n + 3, rng)),
        view(storage.view().block(0, 1, m, n)) {}

  /// The padding columns still hold what `before` (a copy of storage)
  /// held.
  void expect_padding_untouched(const la::RealMatrix& before) const {
    const Index last = storage.cols() - 1;
    for (Index i = 0; i < storage.rows(); ++i) {
      for (const Index j : {Index{0}, last - 1, last}) {
        ASSERT_EQ(storage(i, j), before(i, j)) << "padding (" << i << ", "
                                               << j << ")";
      }
    }
  }
};

TEST(DenseKernels, LeftSolvesMatchElementwiseSubstitution) {
  Rng rng(31);
  for (const Index n : {1, 2, 9, 40}) {
    for (const Index k : {1, 7, 33}) {
      const la::RealMatrix l = random_lower(n, rng);
      const la::RealMatrix u = la::transpose<Real>(l.view());
      using Solver = void (*)(la::RealConstView, la::RealView);
      using Oracle = void (*)(const la::RealMatrix&, la::RealMatrix&);
      const struct {
        Solver solve;
        Oracle oracle;
        const la::RealMatrix& factor;
      } cases[] = {{la::solve_lower_triangular, old_solve_lower, l},
                   {la::solve_lower_transposed, old_solve_lower_transposed, l},
                   {la::solve_upper_triangular, old_solve_upper, u}};
      for (const auto& c : cases) {
        // Two extra rows below the system are ignored by every solver.
        PaddedBlock b(n + 2, k, rng);
        const la::RealMatrix before = b.storage;
        la::RealMatrix want = la::to_matrix<Real>(b.view);
        c.oracle(c.factor, want);
        c.solve(c.factor.view(), b.view);
        expect_bitwise(b.view, want.view());
        b.expect_padding_untouched(before);
      }
    }
  }
}

TEST(DenseKernels, RightSolveMatchesTransposeFormula) {
  Rng rng(32);
  // Row counts straddle the 16-row tile (1, 15, 16, 17, 40); n = 1 is
  // the scalar edge.
  for (const Index n : {1, 5, 33}) {
    for (const Index m : {1, 15, 16, 17, 40}) {
      const la::RealMatrix l = random_lower(n, rng);
      for (const la::RightSolve what :
           {la::RightSolve::kLowerTransposed, la::RightSolve::kCholesky}) {
        PaddedBlock a(m, n, rng);
        const la::RealMatrix before = a.storage;
        la::RealMatrix at = la::transpose<Real>(la::RealConstView(a.view));
        old_solve_lower(l, at);
        if (what == la::RightSolve::kCholesky) {
          old_solve_lower_transposed(l, at);
        }
        const la::RealMatrix want = la::transpose<Real>(at.view());
        la::solve_right(l.view(), a.view, what);
        expect_bitwise(a.view, want.view());
        a.expect_padding_untouched(before);
      }
    }
  }
}

/// The gram() formula before it computed only the lower triangle: the
/// full gemm, then symmetrized by averaging.
la::RealMatrix old_gram(la::RealConstView a) {
  la::RealMatrix g = la::gemm(la::Trans::kYes, la::Trans::kNo, a, a);
  for (Index i = 0; i < g.rows(); ++i) {
    for (Index j = i + 1; j < g.cols(); ++j) {
      const Real avg = 0.5 * (g(i, j) + g(j, i));
      g(i, j) = avg;
      g(j, i) = avg;
    }
  }
  return g;
}

TEST(DenseKernels, GramMatchesSymmetrizedGemm) {
  Rng rng(33);
  // Fallback shapes (2 m n² < 2·24³) and packed ones, with micro-tile
  // remainders on both sides of the diagonal.
  const struct {
    Index m, n;
  } shapes[] = {{1, 1}, {5, 4}, {10, 3}, {3, 17}, {90, 45},
                {200, 37}, {64, 64}, {31, 100}};
  for (const auto& shape : shapes) {
    const PaddedBlock a(shape.m, shape.n, rng);
    const la::RealMatrix got = la::gram(a.view);
    expect_bitwise(got.view(), old_gram(a.view).view());
  }
}

/// solve_gram_from_right before solve_right: transpose, Cholesky solve,
/// transpose back, with the same ridge fallback.
la::RealMatrix old_solve_gram_from_right(const la::RealMatrix& b,
                                         const la::RealMatrix& gram,
                                         Real ridge) {
  const Index n = gram.rows();
  la::RealMatrix g = gram;
  la::RealMatrix l;
  if (!la::try_cholesky(g.view(), l)) {
    Real trace = 0.0;
    for (Index i = 0; i < n; ++i) trace += g(i, i);
    const Real shift = ridge * (trace > Real{0} ? trace / Real(n) : Real{1});
    for (Index i = 0; i < n; ++i) g(i, i) += shift;
    l = la::cholesky(g.view());
  }
  la::RealMatrix xt = la::transpose<Real>(b.view());
  old_solve_lower(l, xt);
  old_solve_lower_transposed(l, xt);
  return la::transpose<Real>(xt.view());
}

TEST(DenseKernels, SolveGramFromRightMatchesTransposeFormula) {
  Rng rng(34);
  for (const Index n : {1, 6, 24}) {
    const la::RealMatrix c = la::RealMatrix::random_uniform(n, 3 * n + 5, rng);
    const la::RealMatrix cct =
        la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
    const la::RealMatrix b = la::RealMatrix::random_uniform(19, n, rng);
    expect_bitwise(la::solve_gram_from_right(b.view(), cct.view()).view(),
                   old_solve_gram_from_right(b, cct, 1e-12).view());
  }
  // Ridge path: two identical interpolation rows make C Cᵀ singular.
  la::RealMatrix c = la::RealMatrix::random_uniform(8, 30, rng);
  for (Index j = 0; j < c.cols(); ++j) c(5, j) = c(2, j);
  const la::RealMatrix cct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
  la::RealMatrix probe;
  ASSERT_FALSE(la::try_cholesky(cct.view(), probe));
  const la::RealMatrix b = la::RealMatrix::random_uniform(13, 8, rng);
  expect_bitwise(la::solve_gram_from_right(b.view(), cct.view(), 1e-8).view(),
                 old_solve_gram_from_right(b, cct, 1e-8).view());
}

/// A random symmetric matrix with entries in [-1, 1) / n (norm O(1)).
la::RealMatrix random_symmetric(Index n, Rng& rng) {
  la::RealMatrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      a(i, j) = (2 * rng.uniform() - 1) / Real(n);
      a(j, i) = a(i, j);
    }
  }
  return a;
}

/// max |Qᵀ M Q - I| over the eigenvector columns Q (M = I when null).
Real orthogonality(const la::RealMatrix& q, const la::RealMatrix* m) {
  const la::RealMatrix mq =
      m ? la::gemm(la::Trans::kNo, la::Trans::kNo, m->view(), q.view()) : q;
  const la::RealMatrix g =
      la::gemm(la::Trans::kYes, la::Trans::kNo, q.view(), mq.view());
  Real worst = 0;
  for (Index i = 0; i < g.rows(); ++i) {
    for (Index j = 0; j < g.cols(); ++j) {
      worst = std::max(worst, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

TEST(DenseKernels, SyevAndSygvResidualAndOrthogonality) {
  Rng rng(35);
  for (const Index n : {1, 2, 12, 72}) {
    const la::RealMatrix a = random_symmetric(n, rng);
    const la::EigResult eig = la::syev(a.view());
    EXPECT_LE(la::eig_residual(a.view(), eig), 1e-12) << "syev n=" << n;
    EXPECT_LE(orthogonality(eig.vectors, nullptr), 1e-12) << "syev n=" << n;
    for (Index k = 1; k < n; ++k) {
      EXPECT_LE(eig.values[static_cast<std::size_t>(k - 1)],
                eig.values[static_cast<std::size_t>(k)]);
    }

    // B = I + Xᵀ X / (2n): SPD with condition number O(1).
    const la::RealMatrix x = la::RealMatrix::random_uniform(2 * n, n, rng);
    la::RealMatrix b = la::gram(x.view());
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) b(i, j) /= Real(2 * n);
      b(i, i) += 1.0;
    }
    const la::EigResult gen = la::sygv(a.view(), b.view());
    const la::RealMatrix ax =
        la::gemm(la::Trans::kNo, la::Trans::kNo, a.view(), gen.vectors.view());
    const la::RealMatrix bx =
        la::gemm(la::Trans::kNo, la::Trans::kNo, b.view(), gen.vectors.view());
    Real residual = 0;
    for (Index j = 0; j < n; ++j) {
      Real sum = 0;
      for (Index i = 0; i < n; ++i) {
        const Real r = ax(i, j) - gen.values[static_cast<std::size_t>(j)] *
                                      bx(i, j);
        sum += r * r;
      }
      residual = std::max(residual, std::sqrt(sum));
    }
    EXPECT_LE(residual, 1e-12) << "sygv n=" << n;
    EXPECT_LE(orthogonality(gen.vectors, &b), 1e-12) << "sygv n=" << n;
  }
}

// ----- blocked Cholesky and right solve ------------------------------------

/// The element-wise Cholesky that runs at and below the crossover.
la::RealMatrix elementwise_cholesky(const la::RealMatrix& a) {
  const Index n = a.rows();
  la::RealMatrix l = a;
  for (Index j = 0; j < n; ++j) {
    Real diag = l(j, j);
    for (Index k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    const Real ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const Real inv = Real{1} / ljj;
    for (Index i = j + 1; i < n; ++i) {
      Real sum = l(i, j);
      for (Index k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum * inv;
    }
  }
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) l(i, j) = 0;
  }
  return l;
}

/// A = I + Xᵀ X / (2n): SPD, entries O(1), condition number O(n).
la::RealMatrix well_conditioned_spd(Index n, Rng& rng) {
  const la::RealMatrix x = la::RealMatrix::random_uniform(2 * n, n, rng);
  la::RealMatrix a = la::gram(x.view());
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) /= Real(2 * n);
    a(i, i) += 1.0;
  }
  return a;
}

/// Orders just below, at and above the crossover, a ragged last block
/// (kOrderBlock does not divide 2·kOrderBlock + 7 or 432) and the Θ-fit
/// order Nμ = 432 of the Si64* analog.
std::vector<Index> blocked_orders() {
  return {la::kBlockedOrderCrossover - 1, la::kBlockedOrderCrossover,
          la::kBlockedOrderCrossover + 1,
          la::kBlockedOrderCrossover + la::kOrderBlock + 7, 432};
}

/// max |x op(l) - b| for op = Lᵀ (kLowerTransposed) or L Lᵀ (kCholesky).
Real right_solve_residual(const la::RealMatrix& l, const la::RealMatrix& x,
                          const la::RealMatrix& b, la::RightSolve what) {
  const la::RealMatrix xl =
      what == la::RightSolve::kCholesky
          ? la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(), l.view())
          : x;
  const la::RealMatrix prod =
      la::gemm(la::Trans::kNo, la::Trans::kYes, xl.view(), l.view());
  return la::max_abs_diff(prod.view(), b.view());
}

TEST(BlockedKernels, CholeskyResidualAndStructure) {
  Rng rng(41);
  for (const Index n : blocked_orders()) {
    const la::RealMatrix a = well_conditioned_spd(n, rng);
    const la::RealMatrix l = la::cholesky(a.view());
    Index bad_entries = 0;  // non-positive pivots, non-zero upper entries
    for (Index i = 0; i < n; ++i) {
      if (!(l(i, i) > 0.0)) ++bad_entries;
      for (Index j = i + 1; j < n; ++j) {
        if (l(i, j) != 0.0) ++bad_entries;
      }
    }
    EXPECT_EQ(bad_entries, 0) << "n=" << n;
    const la::RealMatrix llt =
        la::gemm(la::Trans::kNo, la::Trans::kYes, l.view(), l.view());
    EXPECT_LE(la::max_abs_diff(llt.view(), a.view()),
              1e-13 * la::max_abs(a.view()))
        << "n=" << n;
    // try_cholesky takes the same path.
    la::RealMatrix l2;
    ASSERT_TRUE(la::try_cholesky(a.view(), l2));
    expect_bitwise(l2.view(), l.view());
    // A pivot that turns negative in the last block is reported, not
    // factored.
    la::RealMatrix bad = a;
    bad(n - 1, n - 1) = -1.0;
    EXPECT_FALSE(la::try_cholesky(bad.view(), l2)) << "n=" << n;
    EXPECT_THROW(la::cholesky(bad.view()), Error) << "n=" << n;
  }
}

TEST(BlockedKernels, RightSolveResidual) {
  Rng rng(42);
  for (const Index n : blocked_orders()) {
    const la::RealMatrix l = la::cholesky(well_conditioned_spd(n, rng).view());
    for (const la::RightSolve what :
         {la::RightSolve::kLowerTransposed, la::RightSolve::kCholesky}) {
      // 37 rows: two full 16-row tiles and a partial one.
      PaddedBlock a(37, n, rng);
      const la::RealMatrix before = a.storage;
      const la::RealMatrix b = la::to_matrix<Real>(a.view);
      la::solve_right(l.view(), a.view, what);
      const la::RealMatrix x = la::to_matrix<Real>(a.view);
      EXPECT_LE(right_solve_residual(l, x, b, what), 1e-13)
          << "n=" << n << " cholesky=" << (what == la::RightSolve::kCholesky);
      a.expect_padding_untouched(before);
    }
  }
}

TEST(BlockedKernels, AtTheCrossoverResultsAreElementwiseBitwise) {
  Rng rng(43);
  const Index n = la::kBlockedOrderCrossover;
  const la::RealMatrix a = well_conditioned_spd(n, rng);
  const la::RealMatrix l = la::cholesky(a.view());
  expect_bitwise(l.view(), elementwise_cholesky(a).view());
  for (const la::RightSolve what :
       {la::RightSolve::kLowerTransposed, la::RightSolve::kCholesky}) {
    PaddedBlock x(21, n, rng);
    la::RealMatrix at = la::transpose<Real>(la::RealConstView(x.view));
    old_solve_lower(l, at);
    if (what == la::RightSolve::kCholesky) old_solve_lower_transposed(l, at);
    la::solve_right(l.view(), x.view, what);
    expect_bitwise(x.view, la::transpose<Real>(at.view()).view());
  }
}

TEST(BlockedKernels, SolveGramFromRightAtThetaFitOrder) {
  // X (C Cᵀ) = B at Nμ = 432, as in the Θ fit of the Si64* analog.
  Rng rng(44);
  const Index nmu = 432;
  const la::RealMatrix b = la::RealMatrix::random_uniform(40, nmu, rng);
  auto residual = [&](const la::RealMatrix& x, const la::RealMatrix& g) {
    const la::RealMatrix xg =
        la::gemm(la::Trans::kNo, la::Trans::kNo, x.view(), g.view());
    return la::max_abs_diff(xg.view(), b.view());
  };
  la::RealMatrix c = la::RealMatrix::random_uniform(nmu, 700, rng);
  const la::RealMatrix cct =
      la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
  const la::RealMatrix x = la::solve_gram_from_right(b.view(), cct.view());
  EXPECT_LE(residual(x, cct), 1e-11);

  // Ridge path: interpolation rows 200..239 duplicate rows 0..39, in a
  // later block than their twins, so C Cᵀ is singular.
  for (Index r = 200; r < 240; ++r) {
    for (Index j = 0; j < c.cols(); ++j) c(r, j) = c(r - 200, j);
  }
  la::RealMatrix g =
      la::gemm(la::Trans::kNo, la::Trans::kYes, c.view(), c.view());
  la::RealMatrix probe;
  ASSERT_FALSE(la::try_cholesky(g.view(), probe));
  const Real ridge = 1e-8;
  const la::RealMatrix xr = la::solve_gram_from_right(b.view(), g.view(), ridge);
  Real trace = 0;
  for (Index i = 0; i < nmu; ++i) trace += g(i, i);
  for (Index i = 0; i < nmu; ++i) g(i, i) += ridge * trace / Real(nmu);
  // Backward error: the residual is roundoff relative to |X| |G|.
  EXPECT_LE(residual(xr, g),
            1e-13 * la::max_abs(xr.view()) * la::max_abs(g.view()));
}

// ----- batched FFT ---------------------------------------------------------

std::vector<fft::Complex> random_lines(Index total, unsigned seed) {
  Rng rng(seed);
  std::vector<fft::Complex> data(static_cast<std::size_t>(total));
  for (auto& v : data) {
    v = fft::Complex(rng.uniform() * 2 - 1, rng.uniform() * 2 - 1);
  }
  return data;
}

struct BatchLayout {
  Index count, stride, dist;
};

void expect_bitwise_equal(const std::vector<fft::Complex>& got,
                          const std::vector<fft::Complex>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].real(), want[i].real()) << "element " << i;
    ASSERT_EQ(got[i].imag(), want[i].imag()) << "element " << i;
  }
}

class BatchedFftSweep : public ::testing::TestWithParam<Index> {};

TEST_P(BatchedFftSweep, ForwardManyIsBitwisePerLine) {
  const Index n = GetParam();
  const fft::Fft1D plan(n);
  for (const BatchLayout layout :
       {BatchLayout{37, 1, n},          // packed contiguous lines
        BatchLayout{37, 1, n + 3},      // padded line distance
        BatchLayout{24, 24, 1},         // fully interleaved (transposed)
        BatchLayout{1, 5, 1}}) {        // single strided line
    // Buffer large enough for the furthest element of the last line.
    const Index total =
        (layout.count - 1) * layout.dist + (n - 1) * layout.stride + 1;
    const std::vector<fft::Complex> input =
        random_lines(total, static_cast<unsigned>(n * 7 + layout.count));

    std::vector<fft::Complex> batched = input;
    plan.forward_many(batched.data(), layout.count, layout.stride,
                      layout.dist);

    std::vector<fft::Complex> per_line = input;
    std::vector<fft::Complex> line(static_cast<std::size_t>(n));
    for (Index t = 0; t < layout.count; ++t) {
      fft::Complex* base = per_line.data() + t * layout.dist;
      for (Index j = 0; j < n; ++j) {
        line[static_cast<std::size_t>(j)] = base[j * layout.stride];
      }
      plan.forward(line.data());
      for (Index j = 0; j < n; ++j) {
        base[j * layout.stride] = line[static_cast<std::size_t>(j)];
      }
    }
    expect_bitwise_equal(batched, per_line);

    // Inverse: batched inverse must bitwise-match per-line inverse, and
    // (for the power-of-two path) round-trip the input bitwise is NOT
    // expected — only equality between the two implementations is.
    plan.inverse_many(batched.data(), layout.count, layout.stride,
                      layout.dist);
    for (Index t = 0; t < layout.count; ++t) {
      fft::Complex* base = per_line.data() + t * layout.dist;
      for (Index j = 0; j < n; ++j) {
        line[static_cast<std::size_t>(j)] = base[j * layout.stride];
      }
      plan.inverse(line.data());
      for (Index j = 0; j < n; ++j) {
        base[j * layout.stride] = line[static_cast<std::size_t>(j)];
      }
    }
    expect_bitwise_equal(batched, per_line);
  }
}

// Power-of-two radix-2 sizes, Stockham mixed-radix sizes (12, 21 and the
// smooth lengths after them) and Bluestein sizes (17, and 104 the
// paper's grid flavor).
INSTANTIATE_TEST_SUITE_P(Sizes, BatchedFftSweep,
                         ::testing::Values<Index>(1, 2, 8, 64, 12, 21, 6, 10,
                                                  14, 15, 18, 20, 24, 28, 30,
                                                  36, 45, 60, 84, 120, 17,
                                                  104));

/// The pre-PR Fft3D::transform algorithm, kept verbatim as the bitwise
/// reference: per-line scalar transforms with an element-by-element
/// strided gather for axes 1 and 0.
void reference_fft3d(const fft::Fft1D& plan0, const fft::Fft1D& plan1,
                     const fft::Fft1D& plan2, Index n0, Index n1, Index n2,
                     fft::Complex* x, bool inverse) {
  for (Index i0 = 0; i0 < n0; ++i0) {
    for (Index i1 = 0; i1 < n1; ++i1) {
      fft::Complex* line = x + (i0 * n1 + i1) * n2;
      if (inverse) {
        plan2.inverse(line);
      } else {
        plan2.forward(line);
      }
    }
  }
  std::vector<fft::Complex> buffer(
      static_cast<std::size_t>(std::max(n0, n1)));
  for (Index i0 = 0; i0 < n0; ++i0) {
    fft::Complex* slab = x + i0 * n1 * n2;
    for (Index i2 = 0; i2 < n2; ++i2) {
      for (Index i1 = 0; i1 < n1; ++i1) {
        buffer[static_cast<std::size_t>(i1)] = slab[i1 * n2 + i2];
      }
      if (inverse) {
        plan1.inverse(buffer.data());
      } else {
        plan1.forward(buffer.data());
      }
      for (Index i1 = 0; i1 < n1; ++i1) {
        slab[i1 * n2 + i2] = buffer[static_cast<std::size_t>(i1)];
      }
    }
  }
  const Index stride0 = n1 * n2;
  for (Index rem = 0; rem < stride0; ++rem) {
    for (Index i0 = 0; i0 < n0; ++i0) {
      buffer[static_cast<std::size_t>(i0)] = x[i0 * stride0 + rem];
    }
    if (inverse) {
      plan0.inverse(buffer.data());
    } else {
      plan0.forward(buffer.data());
    }
    for (Index i0 = 0; i0 < n0; ++i0) {
      x[i0 * stride0 + rem] = buffer[static_cast<std::size_t>(i0)];
    }
  }
}

TEST(Fft3DBatched, BitwiseMatchesOldPerLineAlgorithm) {
  struct Shape {
    Index n0, n1, n2;
  };
  for (const Shape s : {Shape{8, 8, 8}, Shape{4, 6, 5}, Shape{1, 8, 3},
                        Shape{16, 1, 1}, Shape{12, 10, 21},
                        Shape{12, 12, 12}, Shape{14, 14, 14}}) {
    const fft::Fft3D fft3(s.n0, s.n1, s.n2);
    const fft::Fft1D plan0(s.n0), plan1(s.n1), plan2(s.n2);
    const std::vector<fft::Complex> input = random_lines(
        s.n0 * s.n1 * s.n2, static_cast<unsigned>(s.n0 * 100 + s.n2));

    for (const bool inverse : {false, true}) {
      std::vector<fft::Complex> batched = input;
      if (inverse) {
        fft3.inverse(batched.data());
      } else {
        fft3.forward(batched.data());
      }
      std::vector<fft::Complex> reference = input;
      reference_fft3d(plan0, plan1, plan2, s.n0, s.n1, s.n2,
                      reference.data(), inverse);
      expect_bitwise_equal(batched, reference);
    }
  }
}

// ----- pruned K-Means ------------------------------------------------------

struct KmeansFixture {
  std::vector<grid::Vec3> points;
  std::vector<Real> weights;
  grid::UnitCell cell = grid::UnitCell::cubic(10.0);
};

/// Uniform random positions and weights in a 10^3 box.
KmeansFixture random_fixture(Index n, unsigned seed) {
  KmeansFixture f;
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) {
    f.points.push_back(
        {rng.uniform() * 10, rng.uniform() * 10, rng.uniform() * 10});
    f.weights.push_back(rng.uniform() + 1e-3);
  }
  return f;
}

/// Tight weight blobs: the pruning-friendly regime (most points far from
/// every center but their own).
KmeansFixture clustered_fixture(Index n, unsigned seed) {
  KmeansFixture f;
  Rng rng(seed);
  const grid::Vec3 centers[4] = {
      {2, 2, 2}, {8, 8, 2}, {2, 8, 8}, {8, 2, 5}};
  for (Index i = 0; i < n; ++i) {
    const grid::Vec3& c = centers[i % 4];
    f.points.push_back({c[0] + rng.uniform() - 0.5, c[1] + rng.uniform() - 0.5,
                        c[2] + rng.uniform() - 0.5});
    f.weights.push_back(rng.uniform() * rng.uniform() + 1e-4);
  }
  return f;
}

void expect_kmeans_bit_identical(const kmeans::KMeansResult& exact,
                                 const kmeans::KMeansResult& pruned) {
  EXPECT_EQ(exact.iterations, pruned.iterations);
  EXPECT_EQ(exact.objective, pruned.objective);  // bitwise
  EXPECT_EQ(exact.assignment, pruned.assignment);
  EXPECT_EQ(exact.interpolation_points, pruned.interpolation_points);
  EXPECT_EQ(exact.kept_points, pruned.kept_points);
  ASSERT_EQ(exact.centroids.size(), pruned.centroids.size());
  for (std::size_t c = 0; c < exact.centroids.size(); ++c) {
    for (int ax = 0; ax < 3; ++ax) {
      EXPECT_EQ(exact.centroids[c][static_cast<std::size_t>(ax)],
                pruned.centroids[c][static_cast<std::size_t>(ax)]);
    }
  }
}

class PrunedKmeansSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrunedKmeansSweep, BitIdenticalToExactScan) {
  // The objective is one running sum in point order and the per-point
  // terms are bit-identical by construction.
  const auto seeding = static_cast<kmeans::Seeding>(GetParam());
  for (const bool clustered : {false, true}) {
    for (const bool periodic : {false, true}) {
      const KmeansFixture f = clustered ? clustered_fixture(1500, 3)
                                        : random_fixture(1500, 4);
      kmeans::KMeansOptions opts;
      opts.seeding = seeding;
      opts.seed = 17;
      opts.periodic_cell = periodic ? &f.cell : nullptr;

      opts.pruned_assignment = false;
      const kmeans::KMeansResult exact =
          kmeans::weighted_kmeans(f.points, f.weights, 12, opts);

      const long long skipped_before =
          obs::counter("kmeans.assign.skipped").value();
      opts.pruned_assignment = true;
      const kmeans::KMeansResult pruned =
          kmeans::weighted_kmeans(f.points, f.weights, 12, opts);

      expect_kmeans_bit_identical(exact, pruned);
      // The pruning must actually fire, not just agree.
      EXPECT_GT(obs::counter("kmeans.assign.skipped").value(),
                skipped_before);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seedings, PrunedKmeansSweep,
    ::testing::Values(static_cast<int>(kmeans::Seeding::kWeightedKpp),
                      static_cast<int>(kmeans::Seeding::kTopWeight),
                      static_cast<int>(kmeans::Seeding::kUniformRandom)));

class PrunedDistKmeansSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrunedDistKmeansSweep, BitIdenticalToExactScan) {
  const int p = GetParam();
  const KmeansFixture f = clustered_fixture(1200, 5);
  const Index n = static_cast<Index>(f.points.size());
  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(n, comm.size());
    const Index off = part.offset(comm.rank());
    const Index cnt = part.count(comm.rank());
    const std::vector<grid::Vec3> local_points(
        f.points.begin() + off, f.points.begin() + off + cnt);
    const std::vector<Real> local_weights(
        f.weights.begin() + off, f.weights.begin() + off + cnt);

    kmeans::KMeansOptions opts;
    opts.seeding = kmeans::Seeding::kTopWeight;
    opts.pruned_assignment = false;
    const kmeans::KMeansResult exact = kmeans::weighted_kmeans(
        local_points, local_weights, 10, opts, &comm, off);
    opts.pruned_assignment = true;
    const kmeans::KMeansResult pruned = kmeans::weighted_kmeans(
        local_points, local_weights, 10, opts, &comm, off);

    EXPECT_EQ(exact.iterations, pruned.iterations);
    EXPECT_EQ(exact.objective, pruned.objective);  // bitwise
    EXPECT_EQ(exact.interpolation_points, pruned.interpolation_points);
    ASSERT_EQ(exact.centroids.size(), pruned.centroids.size());
    for (std::size_t c = 0; c < exact.centroids.size(); ++c) {
      for (int ax = 0; ax < 3; ++ax) {
        EXPECT_EQ(exact.centroids[c][static_cast<std::size_t>(ax)],
                  pruned.centroids[c][static_cast<std::size_t>(ax)]);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PrunedDistKmeansSweep,
                         ::testing::Values(1, 3));

}  // namespace
}  // namespace lrt
