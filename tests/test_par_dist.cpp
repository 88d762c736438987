// Distributed matrix machinery: scatter/gather, redistribute (pdgemr2d
// analog), row<->column transposes and the distributed eigensolver.
#include <gtest/gtest.h>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "par/disteig.hpp"
#include "par/distmatrix.hpp"
#include "par/transpose.hpp"

namespace lrt::par {
namespace {

la::RealMatrix numbered_matrix(Index m, Index n) {
  la::RealMatrix a(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = 100.0 * i + j;
  }
  return a;
}

class DistSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistSweep, FillGatherRoundTrip) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Layout layout = Layout::block_row(10, 6, p);
    DistMatrix m(layout, comm.rank());
    m.fill_global([](Index i, Index j) { return 100.0 * i + j; });
    const la::RealMatrix full = m.gather(comm, 0);
    if (comm.rank() == 0) {
      const la::RealMatrix expected = numbered_matrix(10, 6);
      EXPECT_LT(la::max_abs_diff(full.view(), expected.view()), 1e-14);
    }
  });
}

TEST_P(DistSweep, ScatterThenAllgatherFull) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Layout layout = Layout::block_col(7, 9, p);
    la::RealMatrix global;
    if (comm.rank() == 0) global = numbered_matrix(7, 9);
    const DistMatrix m = DistMatrix::scatter(comm, layout, global.view(), 0);
    const la::RealMatrix full = m.allgather_full(comm);
    const la::RealMatrix expected = numbered_matrix(7, 9);
    EXPECT_LT(la::max_abs_diff(full.view(), expected.view()), 1e-14);
  });
}

struct RedistCase {
  int p;
  int from, to;  // 0 row, 1 col, 2 cyclic
};

class RedistSweep : public ::testing::TestWithParam<RedistCase> {};

Layout make_layout(int scheme, Index m, Index n, int p) {
  switch (scheme) {
    case 0:
      return Layout::block_row(m, n, p);
    case 1:
      return Layout::block_col(m, n, p);
    default: {
      int prow = 1;
      for (int r = 1; r * r <= p; ++r) {
        if (p % r == 0) prow = r;
      }
      return Layout::block_cyclic_2d(m, n, prow, p / prow, 3, 2);
    }
  }
}

TEST_P(RedistSweep, PreservesEveryElement) {
  const RedistCase c = GetParam();
  run(c.p, [&c](Comm& comm) {
    const Index m = 11, n = 8;
    const Layout src_layout = make_layout(c.from, m, n, c.p);
    const Layout dst_layout = make_layout(c.to, m, n, c.p);
    DistMatrix src(src_layout, comm.rank());
    src.fill_global([](Index i, Index j) { return 100.0 * i + j; });
    const DistMatrix dst = redistribute(comm, src, dst_layout);
    // Verify local blocks directly against the generator.
    for (Index li = 0; li < dst.local().rows(); ++li) {
      const Index gi = dst_layout.global_row(comm.rank(), li);
      for (Index lj = 0; lj < dst.local().cols(); ++lj) {
        const Index gj = dst_layout.global_col(comm.rank(), lj);
        EXPECT_DOUBLE_EQ(dst.local()(li, lj), 100.0 * gi + gj);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SchemePairs, RedistSweep,
    ::testing::Values(RedistCase{3, 0, 1}, RedistCase{3, 1, 0},
                      RedistCase{4, 0, 2}, RedistCase{4, 2, 0},
                      RedistCase{4, 1, 2}, RedistCase{2, 2, 2},
                      RedistCase{1, 0, 2}, RedistCase{5, 0, 1}));

TEST_P(DistSweep, RowColTransposeRoundTrip) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index m = 13, n = 7;
    const BlockPartition rows(m, p);
    const la::RealMatrix full = numbered_matrix(m, n);
    const la::RealConstView my_rows =
        full.view().rows_block(rows.offset(comm.rank()),
                               rows.count(comm.rank()));

    // One slice: the whole column block each way.
    SliceExchange exchange(comm, m, ColumnSlices(n, p, 1));
    const la::RealConstView my_cols = exchange.to_cols(0, my_rows);
    const BlockPartition cols(n, p);
    EXPECT_EQ(my_cols.rows(), m);
    EXPECT_EQ(my_cols.cols(), cols.count(comm.rank()));
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < my_cols.cols(); ++j) {
        EXPECT_DOUBLE_EQ(my_cols(i, j),
                         full(i, cols.offset(comm.rank()) + j));
      }
    }

    const la::RealConstView back = exchange.to_rows(0, my_cols);
    EXPECT_LT(la::max_abs_diff(back, my_rows), 1e-14);
  });
}

TEST_P(DistSweep, DistSyevMatchesSerial) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index n = 16;
    Rng rng(14);
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    const Layout layout = Layout::block_row(n, n, p);
    DistMatrix dist(layout, comm.rank());
    dist.fill_global([&a](Index i, Index j) { return a(i, j); });

    const DistEigResult result = dist_syev(comm, dist);
    const la::EigResult serial = la::syev(a.view());
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(result.values[static_cast<std::size_t>(i)],
                  serial.values[static_cast<std::size_t>(i)], 1e-9);
    }
    // Vectors come back in the input layout and diagonalize A:
    // gather and check the residual.
    const la::RealMatrix v = result.vectors.gather(comm, 0);
    if (comm.rank() == 0) {
      la::EigResult check;
      check.values = result.values;
      check.vectors = v;
      EXPECT_LT(la::eig_residual(a.view(), check), 1e-8);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace lrt::par
