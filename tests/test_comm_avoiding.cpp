// Communication-avoiding primitives: the single-round allreduce, the
// nonblocking collectives and the overlapped transpose built on them, the
// batched small-block GEMM, and the three-round LOBPCG iteration. Every
// replacement here claims bitwise identity with the schedule it displaces
// (or, for LOBPCG, the serial solve with the one-rank distributed one), so
// these tests compare exactly — no tolerances except where a kernel
// legitimately reassociates.
#include <gtest/gtest.h>

#include <vector>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "par/comm.hpp"
#include "par/dist_lobpcg.hpp"
#include "par/layout.hpp"
#include "par/transpose.hpp"

namespace lrt {
namespace {

// ----- single-round allreduce -------------------------------------------------

class AllreduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSweep, BitwiseMatchesReduceThenBcast) {
  const int p = GetParam();
  const Index n = 37;
  // Payloads with nontrivial rounding behavior so an operand-order slip
  // in the butterfly would show up as a bitwise difference.
  la::RealMatrix data(n, p);
  Rng rng(11);
  la::RealMatrix noise = la::RealMatrix::random_normal(n, p, rng);
  for (Index i = 0; i < n; ++i) {
    for (Index r = 0; r < p; ++r) {
      data(i, r) = noise(i, r) * (1.0 + 1e-13 * r);
    }
  }

  for (const par::ReduceOp op :
       {par::ReduceOp::kSum, par::ReduceOp::kMax, par::ReduceOp::kMin}) {
    la::RealMatrix fused(n, p), legacy(n, p);
    par::run(p, [&](par::Comm& comm) {
      std::vector<Real> buf(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] = data(i, comm.rank());
      }
      comm.allreduce(buf.data(), n, op);
      for (Index i = 0; i < n; ++i) {
        fused(i, comm.rank()) = buf[static_cast<std::size_t>(i)];
      }
    });
    par::run(p, [&](par::Comm& comm) {
      std::vector<Real> buf(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] = data(i, comm.rank());
      }
      comm.reduce(buf.data(), n, op, /*root=*/0);
      comm.bcast(buf.data(), n, /*root=*/0);
      for (Index i = 0; i < n; ++i) {
        legacy(i, comm.rank()) = buf[static_cast<std::size_t>(i)];
      }
    });
    for (Index i = 0; i < n; ++i) {
      for (Index r = 0; r < p; ++r) {
        EXPECT_EQ(fused(i, r), legacy(i, r))
            << "p=" << p << " op=" << static_cast<int>(op) << " i=" << i
            << " rank=" << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(Allreduce, BillsItsOwnTrafficKind) {
  par::run(4, [](par::Comm& comm) {
    double x = comm.rank() + 1.0;
    comm.allreduce(&x, 1, par::ReduceOp::kSum);
    // One user-facing collective, billed to the allreduce kind only: the
    // comm-budget gate counts reduce + bcast + allreduce calls, so a
    // fused primitive leaking into the legacy kinds would corrupt it.
    EXPECT_EQ(comm.calls_made(par::Traffic::kAllreduce), 1);
    EXPECT_EQ(comm.calls_made(par::Traffic::kReduce), 0);
    EXPECT_EQ(comm.calls_made(par::Traffic::kBcast), 0);
    if (comm.size() > 1) {
      EXPECT_GT(comm.bytes_sent(par::Traffic::kAllreduce), 0);
    }
  });
}

// ----- nonblocking collectives ------------------------------------------------

TEST(NonblockingCollectives, AlltoallvMatchesBlockingExactly) {
  const int p = 4;
  par::run(p, [](par::Comm& comm) {
    const int np = comm.size();
    const int me = comm.rank();
    // Rank r sends (r + 1) elements to every peer, value-tagged by the
    // (src, dst) pair so misrouted payloads are visible.
    std::vector<Index> scounts(static_cast<std::size_t>(np));
    std::vector<Index> sdispls(static_cast<std::size_t>(np));
    std::vector<Index> rcounts(static_cast<std::size_t>(np));
    std::vector<Index> rdispls(static_cast<std::size_t>(np));
    Index stot = 0, rtot = 0;
    for (int r = 0; r < np; ++r) {
      scounts[static_cast<std::size_t>(r)] = me + 1;
      sdispls[static_cast<std::size_t>(r)] = stot;
      stot += me + 1;
      rcounts[static_cast<std::size_t>(r)] = r + 1;
      rdispls[static_cast<std::size_t>(r)] = rtot;
      rtot += r + 1;
    }
    std::vector<double> send(static_cast<std::size_t>(stot));
    for (int r = 0; r < np; ++r) {
      for (Index i = 0; i < me + 1; ++i) {
        send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(r)] +
                                      i)] = 100.0 * me + 10.0 * r + i;
      }
    }
    std::vector<double> blocking(static_cast<std::size_t>(rtot), -1.0);
    std::vector<double> nonblocking(static_cast<std::size_t>(rtot), -2.0);
    comm.alltoallv(send.data(), scounts, sdispls, blocking.data(), rcounts,
                   rdispls);
    par::Comm::Request req = comm.i_alltoallv(
        send.data(), scounts, sdispls, nonblocking.data(), rcounts, rdispls);
    EXPECT_TRUE(req.pending() || np == 1);
    req.wait();
    EXPECT_FALSE(req.pending());
    req.wait();  // idempotent
    EXPECT_EQ(blocking, nonblocking);
  });
}

TEST(NonblockingCollectives, AllgathervMatchesBlockingExactly) {
  const int p = 5;
  par::run(p, [](par::Comm& comm) {
    const int np = comm.size();
    const int me = comm.rank();
    std::vector<Index> counts(static_cast<std::size_t>(np));
    std::vector<Index> displs(static_cast<std::size_t>(np));
    Index total = 0;
    for (int r = 0; r < np; ++r) {
      counts[static_cast<std::size_t>(r)] = r % 3 + 1;
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    const Index mine = counts[static_cast<std::size_t>(me)];
    std::vector<double> send(static_cast<std::size_t>(mine));
    for (Index i = 0; i < mine; ++i) {
      send[static_cast<std::size_t>(i)] = 10.0 * me + i;
    }
    std::vector<double> blocking(static_cast<std::size_t>(total), -1.0);
    std::vector<double> nonblocking(static_cast<std::size_t>(total), -2.0);
    comm.allgatherv(send.data(), mine, blocking.data(), counts, displs);
    par::Comm::Request req =
        comm.i_allgatherv(send.data(), mine, nonblocking.data(), counts,
                          displs);
    req.wait();
    EXPECT_EQ(blocking, nonblocking);
  });
}

// ----- sliced transpose -------------------------------------------------------

class SliceExchangeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SliceExchangeSweep, SlicesTileEachBlockAndMoveEveryValueExactly) {
  const int p = GetParam();
  // 17 columns: at p = 2 and 4 some rank holds an odd column count.
  const Index n_rows = 23, n_cols = 17;
  Rng rng(7);
  const la::RealMatrix global = la::RealMatrix::random_normal(n_rows, n_cols,
                                                              rng);
  for (const Index n_slices : {Index{1}, Index{2}, Index{4}, Index{7}}) {
    const par::ColumnSlices slices(n_cols, p, n_slices);
    const par::BlockPartition blocks(n_cols, p);
    for (int q = 0; q < p; ++q) {
      // The runs tile q's block in order; all but an odd block's last
      // column come in pairs that start at even offsets.
      Index next = blocks.offset(q);
      for (Index s = 0; s < n_slices; ++s) {
        EXPECT_EQ(slices.offset(q, s), next) << "q=" << q << " s=" << s;
        EXPECT_EQ((slices.offset(q, s) - blocks.offset(q)) % 2, 0);
        if (s + 1 < n_slices) {
          EXPECT_EQ(slices.count(q, s) % 2, 0);
        }
        next += slices.count(q, s);
      }
      EXPECT_EQ(next, blocks.offset(q) + blocks.count(q));
    }
    par::run(p, [&](par::Comm& comm) {
      const int me = comm.rank();
      const par::BlockPartition rows(n_rows, comm.size());
      const la::RealConstView my_rows =
          global.view().rows_block(rows.offset(me), rows.count(me));
      par::SliceExchange exchange(comm, n_rows, slices);
      for (Index s = 0; s < n_slices; ++s) {
        const la::RealView cols = exchange.to_cols(s, my_rows);
        ASSERT_EQ(cols.rows(), n_rows);
        ASSERT_EQ(cols.cols(), slices.count(me, s));
        for (Index i = 0; i < n_rows; ++i) {
          for (Index j = 0; j < cols.cols(); ++j) {
            EXPECT_EQ(cols(i, j), global(i, slices.offset(me, s) + j))
                << "p=" << p << " slices=" << n_slices;
          }
        }
        // And back: rank q's run of the slice, rank by rank.
        const la::RealConstView back = exchange.to_rows(s, cols);
        ASSERT_EQ(back.cols(), slices.width(s));
        Index c0 = 0;
        for (int q = 0; q < comm.size(); ++q) {
          for (Index i = 0; i < my_rows.rows(); ++i) {
            for (Index j = 0; j < slices.count(q, s); ++j) {
              EXPECT_EQ(back(i, c0 + j), my_rows(i, slices.offset(q, s) + j));
            }
          }
          c0 += slices.count(q, s);
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SliceExchangeSweep,
                         ::testing::Values(1, 2, 3, 4));

// ----- batched GEMM -----------------------------------------------------------

TEST(GemmMany, BitwiseMatchesPackedGemmPerItem) {
  // Shapes above the packed-dispatch threshold (2 * 24^3 flops), so the
  // plain gemm comparator takes the packed path too and the contract —
  // each item bitwise identical to a packed gemm of the same shapes —
  // is checked exactly.
  Rng rng(23);
  const Index n = 26, k = 25;
  const la::RealMatrix b = la::RealMatrix::random_normal(k, n, rng);
  const std::vector<Index> ms = {24, 31, 6, 40};
  std::vector<la::RealMatrix> as, batched, looped;
  for (const Index m : ms) {
    as.push_back(la::RealMatrix::random_normal(m, k, rng));
    batched.emplace_back(m, n);
    looped.emplace_back(m, n);
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        batched.back()(i, j) = 0.5 * static_cast<Real>(i - j);
        looped.back()(i, j) = batched.back()(i, j);
      }
    }
  }
  std::vector<la::GemmBatchItem> items;
  for (std::size_t t = 0; t < ms.size(); ++t) {
    items.push_back({as[t].view(), batched[t].view()});
  }
  la::gemm_many(la::Trans::kNo, la::Trans::kNo, Real{1.25}, items, b.view(),
                Real{-0.5});
  for (std::size_t t = 0; t < ms.size(); ++t) {
    la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1.25}, as[t].view(),
             b.view(), Real{-0.5}, looped[t].view());
  }
  for (std::size_t t = 0; t < ms.size(); ++t) {
    // Items large enough for plain gemm's packed dispatch compare
    // bitwise; the 6-row panel would fall to the reference kernel in a
    // gemm loop, which is exactly the case gemm_many exists for, so it
    // compares to packed-path rounding instead.
    const bool above = 2 * ms[t] * n * k >= 2 * 24 * 24 * 24;
    for (Index i = 0; i < batched[t].rows(); ++i) {
      for (Index j = 0; j < n; ++j) {
        if (above) {
          EXPECT_EQ(batched[t](i, j), looped[t](i, j)) << "item " << t;
        } else {
          EXPECT_NEAR(batched[t](i, j), looped[t](i, j), 1e-10)
              << "item " << t;
        }
      }
    }
  }
}

TEST(GemmMany, TransposedGramBlocksMatchGemm) {
  // A block-row Gram assembly: A^T B with tall skinny operands, several
  // column blocks against a shared right-hand side.
  Rng rng(29);
  const Index rows = 400, n = 9;
  const la::RealMatrix b = la::RealMatrix::random_normal(rows, n, rng);
  const std::vector<Index> widths = {3, 4, 2};
  std::vector<la::RealMatrix> as, batched, looped;
  for (const Index w : widths) {
    as.push_back(la::RealMatrix::random_normal(rows, w, rng));
    batched.emplace_back(w, n);
    looped.emplace_back(w, n);
  }
  std::vector<la::GemmBatchItem> items;
  for (std::size_t t = 0; t < widths.size(); ++t) {
    items.push_back({as[t].view(), batched[t].view()});
  }
  la::gemm_many(la::Trans::kYes, la::Trans::kNo, Real{1}, items, b.view(),
                Real{0});
  for (std::size_t t = 0; t < widths.size(); ++t) {
    la::RealMatrix ref = la::gemm(la::Trans::kYes, la::Trans::kNo,
                                  as[t].view(), b.view());
    for (Index i = 0; i < ref.rows(); ++i) {
      for (Index j = 0; j < n; ++j) {
        EXPECT_NEAR(batched[t](i, j), ref(i, j), 1e-10) << "item " << t;
      }
    }
  }
}

// ----- fused LOBPCG -----------------------------------------------------------

struct DenseProblem {
  la::RealMatrix a;
  la::RealMatrix x0;
  la::EigResult dense;
};

DenseProblem make_dense_problem(Index n, Index k) {
  Rng rng(3);
  DenseProblem prob{la::RealMatrix::random_normal(n, n, rng), {}, {}};
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) prob.a(j, i) = prob.a(i, j);
  }
  prob.dense = la::syev(prob.a.view());
  prob.x0 = la::RealMatrix::random_normal(n, k, rng);
  return prob;
}

la::LobpcgResult run_dist_lobpcg(int p, const DenseProblem& prob) {
  const Index n = prob.a.rows();
  la::LobpcgResult out;
  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(n, comm.size());
    const Index off = part.offset(comm.rank());
    const Index cnt = part.count(comm.rank());
    par::DistBlockOperator apply = [&](la::RealConstView x_loc,
                                       la::RealView y_loc) {
      la::RealMatrix x_full(n, x_loc.cols());
      std::vector<Index> counts(static_cast<std::size_t>(comm.size()));
      std::vector<Index> displs(static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        counts[static_cast<std::size_t>(r)] = part.count(r) * x_loc.cols();
        displs[static_cast<std::size_t>(r)] = part.offset(r) * x_loc.cols();
      }
      const la::RealMatrix x_copy = la::to_matrix(x_loc);
      comm.allgatherv(x_copy.data(), x_copy.size(), x_full.data(), counts,
                      displs);
      const la::RealMatrix y_full =
          la::gemm(la::Trans::kNo, la::Trans::kNo, prob.a.view(),
                   x_full.view());
      la::copy<Real>(y_full.view().rows_block(off, cnt), y_loc);
    };
    la::LobpcgOptions opts;
    opts.tolerance = 1e-9;
    opts.max_iterations = 400;
    la::LobpcgResult r = par::dist_lobpcg(
        comm, apply, nullptr,
        la::to_matrix<Real>(prob.x0.view().rows_block(off, cnt)), opts);
    if (comm.rank() == 0) out = std::move(r);
  });
  return out;
}

class FusedLobpcgSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusedLobpcgSweep, FusedMatchesDenseReference) {
  const int p = GetParam();
  const DenseProblem prob = make_dense_problem(48, 3);
  const la::LobpcgResult fused =
      run_dist_lobpcg(p, prob);
  EXPECT_TRUE(fused.converged) << "p=" << p;
  for (std::size_t j = 0; j < fused.eigenvalues.size(); ++j) {
    EXPECT_NEAR(fused.eigenvalues[j], prob.dense.values[j], 1e-6)
        << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FusedLobpcgSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(FusedLobpcg, SerialSolveBitwiseMatchesOneRank) {
  // One iteration body serves both entry points; at one rank the
  // allreduce hook leaves every partial sum as it is, so the serial solve
  // and the distributed one agree bit for bit, iteration for iteration.
  const DenseProblem prob = make_dense_problem(48, 3);
  la::LobpcgOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 400;
  const la::LobpcgResult serial = la::lobpcg(
      [&prob](la::RealConstView x, la::RealView y) {
        la::gemm(la::Trans::kNo, la::Trans::kNo, Real{1}, prob.a.view(), x,
                 Real{0}, y);
      },
      nullptr, prob.x0, opts);
  const la::LobpcgResult dist = run_dist_lobpcg(1, prob);
  EXPECT_TRUE(serial.converged);
  EXPECT_EQ(serial.converged, dist.converged);
  EXPECT_EQ(serial.iterations, dist.iterations);
  EXPECT_EQ(serial.eigenvalues, dist.eigenvalues);
  EXPECT_EQ(serial.residual_norms, dist.residual_norms);
  ASSERT_EQ(serial.eigenvectors.rows(), dist.eigenvectors.rows());
  ASSERT_EQ(serial.eigenvectors.cols(), dist.eigenvectors.cols());
  for (Index i = 0; i < serial.eigenvectors.rows(); ++i) {
    for (Index j = 0; j < serial.eigenvectors.cols(); ++j) {
      EXPECT_EQ(serial.eigenvectors(i, j), dist.eigenvectors(i, j));
    }
  }
}

}  // namespace
}  // namespace lrt
