// Checkpoint/restart bit-identity (docs/RESILIENCE.md): a solver killed
// mid-run by an injected crash and restarted from its checkpoint must
// finish bit-identical to a run that was never interrupted — for serial
// and distributed LOBPCG, serial and distributed K-Means, and the
// distributed driver's phase-granular K-Means restart.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "dft/synthetic.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "la/blas.hpp"
#include "obs/counters.hpp"
#include "par/dist_lobpcg.hpp"
#include "par/layout.hpp"
#include "tddft/dist_driver.hpp"

namespace lrt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lrt_restart_" + name + ".ckpt";
}

void expect_bitwise_equal(const la::RealMatrix& a, const la::RealMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

// ----- serial LOBPCG ----------------------------------------------------------

la::RealMatrix random_symmetric(Index n, unsigned seed) {
  Rng rng(seed);
  la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  return a;
}

TEST(LobpcgRestart, ResumedRunIsBitIdentical) {
  const Index n = 40, k = 3;
  const la::RealMatrix a = random_symmetric(n, 3);
  Rng rng(5);
  const la::RealMatrix x0 = la::RealMatrix::random_normal(n, k, rng);
  const la::BlockOperator apply = [&](la::RealConstView x, la::RealView y) {
    const la::RealMatrix hx =
        la::gemm(la::Trans::kNo, la::Trans::kNo, a.view(), x);
    la::copy<Real>(hx.view(), y);
  };

  la::LobpcgOptions options;
  options.max_iterations = 25;
  options.tolerance = 0;  // fixed iteration count in both runs
  options.checkpoint_interval = 7;
  std::vector<la::LobpcgCheckpoint> snapshots;
  options.checkpoint_sink = [&](const la::LobpcgCheckpoint& ck) {
    snapshots.push_back(ck);
  };
  const la::LobpcgResult reference = la::lobpcg(apply, nullptr, x0, options);
  ASSERT_EQ(snapshots.size(), 3u);  // iterations 7, 14, 21
  EXPECT_EQ(snapshots[1].iteration, 14);

  la::LobpcgOptions resumed = options;
  resumed.checkpoint_sink = nullptr;
  resumed.checkpoint_interval = 0;
  resumed.restore = &snapshots[1];
  const la::LobpcgResult restarted = la::lobpcg(apply, nullptr, x0, resumed);

  EXPECT_EQ(restarted.iterations, reference.iterations);
  ASSERT_EQ(restarted.eigenvalues.size(), reference.eigenvalues.size());
  for (std::size_t j = 0; j < reference.eigenvalues.size(); ++j) {
    EXPECT_EQ(restarted.eigenvalues[j], reference.eigenvalues[j]);
  }
  expect_bitwise_equal(restarted.eigenvectors, reference.eigenvectors);
}

TEST(LobpcgRestart, CheckpointFileRoundTripsExactState) {
  const Index n = 12, k = 2;
  const la::RealMatrix a = random_symmetric(n, 9);
  Rng rng(2);
  const la::RealMatrix x0 = la::RealMatrix::random_normal(n, k, rng);
  const la::BlockOperator apply = [&](la::RealConstView x, la::RealView y) {
    const la::RealMatrix hx =
        la::gemm(la::Trans::kNo, la::Trans::kNo, a.view(), x);
    la::copy<Real>(hx.view(), y);
  };
  la::LobpcgOptions options;
  options.max_iterations = 6;
  options.tolerance = 0;
  options.checkpoint_interval = 4;
  la::LobpcgCheckpoint snapshot;
  options.checkpoint_sink = [&](const la::LobpcgCheckpoint& ck) {
    snapshot = ck;
  };
  la::lobpcg(apply, nullptr, x0, options);
  ASSERT_EQ(snapshot.iteration, 4);

  const std::string path = temp_path("lobpcg_io");
  ft::save_lobpcg(snapshot, path);
  const la::LobpcgCheckpoint loaded = ft::load_lobpcg(path);
  EXPECT_EQ(loaded.iteration, snapshot.iteration);
  expect_bitwise_equal(loaded.x, snapshot.x);
  expect_bitwise_equal(loaded.hx, snapshot.hx);
  expect_bitwise_equal(loaded.p, snapshot.p);
  expect_bitwise_equal(loaded.hp, snapshot.hp);
  EXPECT_EQ(loaded.eigenvalues, snapshot.eigenvalues);
  EXPECT_EQ(loaded.previous_values, snapshot.previous_values);
  EXPECT_EQ(loaded.residual_norms, snapshot.residual_norms);
  std::remove(path.c_str());
}

// ----- serial K-Means ---------------------------------------------------------

/// Three well-separated weighted blobs (same shape as test_kmeans.cpp).
struct BlobFixture {
  grid::RealSpaceGrid grid{grid::UnitCell::cubic(12.0), {12, 12, 12}};
  std::vector<grid::Vec3> points;
  std::vector<Real> weights;

  BlobFixture() {
    points = grid.positions();
    weights.assign(points.size(), 0.0);
    const grid::Vec3 centers[3] = {{3, 3, 3}, {9, 9, 3}, {3, 9, 9}};
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (const auto& c : centers) {
        const grid::Vec3 d = grid.cell().minimum_image(c, points[i]);
        weights[i] += std::exp(-grid::norm2(d) / 2.0);
      }
    }
  }
};

TEST(KmeansRestart, ResumedSerialRunIsBitIdentical) {
  const BlobFixture f;
  const Index k = 5;
  kmeans::KMeansOptions options;
  options.seed = 11;
  options.max_iterations = 30;
  options.checkpoint_interval = 3;
  std::vector<ft::KMeansState> snapshots;
  options.checkpoint_sink = [&](const ft::KMeansState& state) {
    snapshots.push_back(state);
  };
  const kmeans::KMeansResult reference =
      kmeans::weighted_kmeans(f.points, f.weights, k, options);
  ASSERT_GE(snapshots.size(), 1u);
  const ft::KMeansState& mid = snapshots[snapshots.size() / 2];
  EXPECT_TRUE(mid.has_rng);

  kmeans::KMeansOptions resumed = options;
  resumed.checkpoint_sink = nullptr;
  resumed.checkpoint_interval = 0;
  resumed.restore = &mid;
  const kmeans::KMeansResult restarted =
      kmeans::weighted_kmeans(f.points, f.weights, k, resumed);

  EXPECT_EQ(restarted.iterations, reference.iterations);
  EXPECT_EQ(restarted.objective, reference.objective);
  ASSERT_EQ(restarted.centroids.size(), reference.centroids.size());
  for (std::size_t c = 0; c < reference.centroids.size(); ++c) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(restarted.centroids[c][static_cast<std::size_t>(d)],
                reference.centroids[c][static_cast<std::size_t>(d)]);
    }
  }
  EXPECT_EQ(restarted.interpolation_points, reference.interpolation_points);
  EXPECT_EQ(restarted.assignment, reference.assignment);

  const std::string path = temp_path("kmeans_io");
  ft::save_kmeans(mid, path);
  const ft::KMeansState loaded = ft::load_kmeans(path);
  EXPECT_EQ(loaded.iteration, mid.iteration);
  EXPECT_EQ(loaded.objective, mid.objective);
  EXPECT_TRUE(loaded.has_rng);
  std::remove(path.c_str());
}

// ----- distributed K-Means: crash, then restart from the checkpoint -----------

TEST(DistKmeansRestart, CrashedRunRestartsBitIdentical) {
  const int p = 4;
  const BlobFixture f;
  const Index n = static_cast<Index>(f.points.size());
  const Index k = 5;
  const std::string path = temp_path("dist_kmeans");
  std::remove(path.c_str());
  kmeans::KMeansOptions top_weight;
  top_weight.seeding = kmeans::Seeding::kTopWeight;

  const auto local_slab = [&](par::Comm& comm, std::vector<grid::Vec3>& pts,
                              std::vector<Real>& wts, Index& offset) {
    const par::BlockPartition part(n, comm.size());
    offset = part.offset(comm.rank());
    const Index count = part.count(comm.rank());
    pts.assign(f.points.begin() + offset, f.points.begin() + offset + count);
    wts.assign(f.weights.begin() + offset, f.weights.begin() + offset + count);
  };

  // Uninterrupted reference, under a benign plan so the per-rank query
  // counts (which crash=R@N is keyed on) get measured.
  std::vector<grid::Vec3> ref_centroids;
  Real ref_objective = 0;
  Index ref_iterations = 0;
  obs::Counter& queries = obs::counter("ft.inject.queries");
  const long long q0 = queries.value();
  ft::FaultSpec benign;
  benign.seed = 1;
  par::run(p, [&](par::Comm& comm) {
    std::vector<grid::Vec3> pts;
    std::vector<Real> wts;
    Index offset = 0;
    local_slab(comm, pts, wts, offset);
    const kmeans::KMeansResult r =
        kmeans::weighted_kmeans(pts, wts, k, top_weight, &comm, offset);
    if (comm.rank() == 0) {
      ref_centroids = r.centroids;
      ref_objective = r.objective;
      ref_iterations = r.iterations;
    }
  }, {}, benign);
  const long long per_rank_queries = (queries.value() - q0) / p;
  ASSERT_GT(per_rank_queries, 4);

  // Killed mid-run: rank 2 crashes three quarters of the way through its
  // injection-site queries; rank 0 checkpoints every completed Lloyd
  // iteration (the state is replicated, one file is the whole truth).
  // The 3/4 point lands past iteration 2's allreduce, which rank 2 can
  // only complete after receiving rank 0's butterfly partial — i.e. after
  // rank 0 has sequentially finished iteration 1 and written its
  // checkpoint. (The halfway point is not safe: the rootless butterfly
  // lets rank 2 finish an allreduce round and crash before rank 0 —
  // possibly still waiting on rank 1 — completes the same round.)
  ft::FaultSpec crash;
  crash.seed = 1;
  crash.crash_rank = 2;
  crash.crash_at = 3 * per_rank_queries / 4;
  EXPECT_THROW(
      par::run(p,
               [&](par::Comm& comm) {
                 std::vector<grid::Vec3> pts;
                 std::vector<Real> wts;
                 Index offset = 0;
                 local_slab(comm, pts, wts, offset);
                 kmeans::KMeansOptions options = top_weight;
                 options.checkpoint_interval = 1;
                 if (comm.rank() == 0) {
                   options.checkpoint_sink = [&](const ft::KMeansState& s) {
                     ft::save_kmeans(s, path);
                   };
                 }
                 kmeans::weighted_kmeans(pts, wts, k, options, &comm, offset);
               },
               {}, crash),
      ft::RankCrashError);
  ASSERT_TRUE(ft::checkpoint_exists(path));

  // Restart every rank from the surviving checkpoint: the finished run
  // must be bit-identical to the uninterrupted one.
  const ft::KMeansState state = ft::load_kmeans(path);
  EXPECT_FALSE(state.has_rng);  // the distributed solver draws no randomness
  par::run(p, [&](par::Comm& comm) {
    std::vector<grid::Vec3> pts;
    std::vector<Real> wts;
    Index offset = 0;
    local_slab(comm, pts, wts, offset);
    kmeans::KMeansOptions options = top_weight;
    options.restore = &state;
    const kmeans::KMeansResult r =
        kmeans::weighted_kmeans(pts, wts, k, options, &comm, offset);
    if (comm.rank() == 0) {
      EXPECT_EQ(r.iterations, ref_iterations);
      EXPECT_EQ(r.objective, ref_objective);
      ASSERT_EQ(r.centroids.size(), ref_centroids.size());
      for (std::size_t c = 0; c < ref_centroids.size(); ++c) {
        for (std::size_t d = 0; d < 3; ++d) {
          EXPECT_EQ(r.centroids[c][d], ref_centroids[c][d]);
        }
      }
    }
  }, {}, benign);
  std::remove(path.c_str());
}

// ----- distributed LOBPCG: crash, then restart from per-rank slabs ------------

TEST(DistLobpcgRestart, CrashedRunRestartsBitIdentical) {
  const int p = 3;
  const Index n = 48, k = 3;
  const la::RealMatrix a = random_symmetric(n, 7);
  Rng rng(4);
  const la::RealMatrix x0_full = la::RealMatrix::random_normal(n, k, rng);
  const std::string base = temp_path("dist_lobpcg");
  const auto rank_path = [&](int r) {
    return base + ".rank" + std::to_string(r);
  };
  for (int r = 0; r < p; ++r) std::remove(rank_path(r).c_str());

  // Dense distributed operator (test-only): allgather the slabs. The
  // returned closure pins `comm` (which outlives it in every body below)
  // and copies the small partition descriptor.
  const auto make_apply = [&a, n](par::Comm& comm, par::BlockPartition part) {
    return [&a, n, &comm, part](la::RealConstView x_loc, la::RealView y_loc) {
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
          la::gemm(la::Trans::kNo, la::Trans::kNo, a.view(), x_full.view());
      la::copy<Real>(
          y_full.view().rows_block(part.offset(comm.rank()),
                                   part.count(comm.rank())),
          y_loc);
    };
  };

  la::LobpcgOptions options;
  options.max_iterations = 16;
  options.tolerance = 0;

  // Uninterrupted reference + per-rank query-count measurement.
  std::vector<Real> ref_values;
  std::vector<la::RealMatrix> ref_slabs(static_cast<std::size_t>(p));
  obs::Counter& queries = obs::counter("ft.inject.queries");
  const long long q0 = queries.value();
  ft::FaultSpec benign;
  benign.seed = 1;
  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(n, comm.size());
    const auto apply = make_apply(comm, part);
    const la::LobpcgResult r = par::dist_lobpcg(
        comm, apply, nullptr,
        la::to_matrix<Real>(x0_full.view().rows_block(
            part.offset(comm.rank()), part.count(comm.rank()))),
        options);
    ref_slabs[static_cast<std::size_t>(comm.rank())] = r.eigenvectors;
    if (comm.rank() == 0) ref_values = r.eigenvalues;
  }, {}, benign);
  const long long per_rank_queries = (queries.value() - q0) / p;

  // Killed at ~3/4 of the run; every rank has long since written its
  // iteration-6 slab snapshot (sinks fire at the end of each iteration,
  // saving at a fixed early iteration keeps the per-rank file set
  // consistent even though ranks run loosely synchronized).
  ft::FaultSpec crash;
  crash.seed = 1;
  crash.crash_rank = 1;
  crash.crash_at = per_rank_queries * 3 / 4;
  EXPECT_THROW(
      par::run(p,
               [&](par::Comm& comm) {
                 const par::BlockPartition part(n, comm.size());
                 const auto apply = make_apply(comm, part);
                 la::LobpcgOptions with_sink = options;
                 with_sink.checkpoint_interval = 1;
                 const std::string path = rank_path(comm.rank());
                 with_sink.checkpoint_sink =
                     [&path](const la::LobpcgCheckpoint& ck) {
                       if (ck.iteration == 6) ft::save_lobpcg(ck, path);
                     };
                 par::dist_lobpcg(
                     comm, apply, nullptr,
                     la::to_matrix<Real>(x0_full.view().rows_block(
                         part.offset(comm.rank()), part.count(comm.rank()))),
                     with_sink);
               },
               {}, crash),
      ft::RankCrashError);
  for (int r = 0; r < p; ++r) {
    ASSERT_TRUE(ft::checkpoint_exists(rank_path(r))) << "rank " << r;
  }

  // Restart from the per-rank files: bit-identical to the reference.
  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(n, comm.size());
    const auto apply = make_apply(comm, part);
    const la::LobpcgCheckpoint ck =
        ft::load_lobpcg(rank_path(comm.rank()));
    EXPECT_EQ(ck.iteration, 6);
    la::LobpcgOptions resumed = options;
    resumed.restore = &ck;
    const la::LobpcgResult r = par::dist_lobpcg(
        comm, apply, nullptr,
        la::to_matrix<Real>(x0_full.view().rows_block(
            part.offset(comm.rank()), part.count(comm.rank()))),
        resumed);
    ASSERT_EQ(r.eigenvalues.size(), ref_values.size());
    if (comm.rank() == 0) {
      for (std::size_t j = 0; j < ref_values.size(); ++j) {
        EXPECT_EQ(r.eigenvalues[j], ref_values[j]);
      }
    }
    expect_bitwise_equal(r.eigenvectors,
                         ref_slabs[static_cast<std::size_t>(comm.rank())]);
  }, {}, benign);
  for (int r = 0; r < p; ++r) std::remove(rank_path(r).c_str());
}

// ----- driver phase-granular restart ------------------------------------------

TEST(DriverRestart, SecondRunSkipsKmeansPhaseAndReproducesEnergies) {
  const int p = 2;
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(7.0), {8, 8, 8});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  sopts.seed = 33;
  const tddft::CasidaProblem problem = tddft::make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, 4, 3, sopts));

  const std::string path = temp_path("driver");
  std::remove(path.c_str());

  tddft::DriverOptions options;
  options.version = tddft::Version::kImplicit;
  options.num_states = 2;
  options.nmu = 12;
  options.checkpoint_path = path;

  obs::Counter& lloyd = obs::counter("kmeans.iterations");

  const long long l0 = lloyd.value();
  std::vector<Real> first;
  par::run(p, [&](par::Comm& comm) {
    const tddft::DistDriverStats stats =
        tddft::solve_casida_distributed(comm, problem, options);
    if (comm.rank() == 0) first = stats.energies;
  });
  EXPECT_GT(lloyd.value() - l0, 0);
  ASSERT_TRUE(ft::checkpoint_exists(path));

  // Re-run with the checkpoint present: the whole K-Means phase is
  // skipped (no Lloyd iterations run) and the energies are bit-identical.
  const long long l1 = lloyd.value();
  std::vector<Real> second;
  par::run(p, [&](par::Comm& comm) {
    const tddft::DistDriverStats stats =
        tddft::solve_casida_distributed(comm, problem, options);
    if (comm.rank() == 0) second = stats.energies;
  });
  EXPECT_EQ(lloyd.value() - l1, 0);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t j = 0; j < first.size(); ++j) {
    EXPECT_EQ(second[j], first[j]);
  }
  std::remove(path.c_str());
}

TEST(DriverRestart, SerialImplicitRunRestartsFromTheKmeansCheckpoint) {
  // solve_casida(kImplicit) is the pipeline on one rank, so the same
  // checkpoint_path skips its K-Means phase on the second run.
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(7.0), {8, 8, 8});
  dft::SyntheticOptions sopts;
  sopts.num_centers = 8;
  sopts.seed = 33;
  const tddft::CasidaProblem problem = tddft::make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, 4, 3, sopts));

  const std::string path = temp_path("serial_driver");
  std::remove(path.c_str());
  tddft::DriverOptions options;
  options.version = tddft::Version::kImplicit;
  options.num_states = 2;
  options.nmu = 12;
  options.checkpoint_path = path;

  obs::Counter& lloyd = obs::counter("kmeans.iterations");
  const long long l0 = lloyd.value();
  const tddft::DriverResult first = tddft::solve_casida(problem, options);
  EXPECT_GT(lloyd.value() - l0, 0);
  ASSERT_TRUE(ft::checkpoint_exists(path));

  const long long l1 = lloyd.value();
  const tddft::DriverResult second = tddft::solve_casida(problem, options);
  EXPECT_EQ(lloyd.value() - l1, 0);
  EXPECT_EQ(second.energies, first.energies);
  EXPECT_EQ(second.eigen_iterations, first.eigen_iterations);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lrt
