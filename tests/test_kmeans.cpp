// Weighted K-Means: objective monotonicity, pruning, seeding modes,
// representative-point properties, and the distributed variant.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "kmeans/kmeans.hpp"
#include "par/layout.hpp"

namespace lrt::kmeans {
namespace {

/// Three well-separated weighted blobs on a small grid.
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

TEST(WeightedKmeans, FindsSeparatedBlobs) {
  BlobFixture f;
  KMeansOptions opts;
  opts.seed = 1;
  const KMeansResult r = weighted_kmeans(f.points, f.weights, 3, opts);
  ASSERT_EQ(r.centroids.size(), 3u);

  // Each blob center must be close to some centroid.
  const grid::Vec3 centers[3] = {{3, 3, 3}, {9, 9, 3}, {3, 9, 9}};
  for (const auto& c : centers) {
    Real best = 1e18;
    for (const auto& centroid : r.centroids) {
      const Real dx = c[0] - centroid[0], dy = c[1] - centroid[1],
                 dz = c[2] - centroid[2];
      best = std::min(best, dx * dx + dy * dy + dz * dz);
    }
    EXPECT_LT(std::sqrt(best), 1.5);
  }
}

TEST(WeightedKmeans, InterpolationPointsAreDistinctAndValid) {
  BlobFixture f;
  const KMeansResult r = weighted_kmeans(f.points, f.weights, 8, {});
  std::set<Index> unique(r.interpolation_points.begin(),
                         r.interpolation_points.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const Index p : r.interpolation_points) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, f.grid.size());
  }
  // Sorted as documented.
  EXPECT_TRUE(std::is_sorted(r.interpolation_points.begin(),
                             r.interpolation_points.end()));
}

TEST(WeightedKmeans, PruningRemovesLowWeightPoints) {
  BlobFixture f;
  KMeansOptions strict;
  strict.weight_threshold = 1e-2;
  const KMeansResult pruned = weighted_kmeans(f.points, f.weights, 4, strict);
  KMeansOptions loose;
  loose.weight_threshold = 0.0;
  const KMeansResult full = weighted_kmeans(f.points, f.weights, 4, loose);
  EXPECT_GT(pruned.num_pruned, 0);
  EXPECT_EQ(full.num_pruned, 0);
  EXPECT_LT(static_cast<Index>(pruned.kept_points.size()), f.grid.size());
  // Representative points still live on heavy regions.
  for (const Index p : pruned.interpolation_points) {
    EXPECT_GE(f.weights[static_cast<std::size_t>(p)],
              1e-2 * *std::max_element(f.weights.begin(), f.weights.end()));
  }
}

TEST(WeightedKmeans, ObjectiveImprovesWithMoreClusters) {
  BlobFixture f;
  KMeansOptions opts;
  opts.weight_threshold = 1e-4;
  const Real obj4 = weighted_kmeans(f.points, f.weights, 4, opts).objective;
  const Real obj16 = weighted_kmeans(f.points, f.weights, 16, opts).objective;
  EXPECT_LT(obj16, obj4);
}

class SeedingSweep : public ::testing::TestWithParam<Seeding> {};

TEST_P(SeedingSweep, AllSeedingsProduceValidClusterings) {
  BlobFixture f;
  KMeansOptions opts;
  opts.seeding = GetParam();
  opts.seed = 3;
  const KMeansResult r = weighted_kmeans(f.points, f.weights, 6, opts);
  EXPECT_EQ(r.interpolation_points.size(), 6u);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GE(r.objective, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, SeedingSweep,
                         ::testing::Values(Seeding::kWeightedKpp,
                                           Seeding::kTopWeight,
                                           Seeding::kUniformRandom));

TEST(WeightedKmeans, WeightAwareSeedingBeatsUniformOnObjective) {
  // With strongly structured weights, weight-aware seeding should reach an
  // equal or better objective than uniform seeding (the paper's rationale
  // for seeding from the weight function).
  BlobFixture f;
  KMeansOptions weighted;
  weighted.seeding = Seeding::kWeightedKpp;
  weighted.seed = 5;
  KMeansOptions uniform;
  uniform.seeding = Seeding::kUniformRandom;
  uniform.seed = 5;
  uniform.max_iterations = weighted.max_iterations = 4;  // before full converge
  const Real w_obj = weighted_kmeans(f.points, f.weights, 12, weighted).objective;
  const Real u_obj = weighted_kmeans(f.points, f.weights, 12, uniform).objective;
  EXPECT_LE(w_obj, u_obj * 1.05);
}

TEST(WeightedKmeans, PeriodicDistanceUnifiesBoundaryBlob) {
  // One weight blob centered ON the cell corner: with plain Euclidean
  // distances its eight wrapped images look like separate clusters; with
  // minimum-image distances a single cluster covers it and the objective
  // drops sharply.
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(10.0), {10, 10, 10});
  const std::vector<grid::Vec3> points = g.positions();
  std::vector<Real> weights(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const grid::Vec3 d = g.cell().minimum_image({0, 0, 0}, points[i]);
    weights[i] = std::exp(-grid::norm2(d) / 2.0) + 1e-9;
  }
  KMeansOptions euclid;
  euclid.seeding = Seeding::kTopWeight;
  KMeansOptions periodic = euclid;
  const grid::UnitCell cell = g.cell();
  periodic.periodic_cell = &cell;

  const Real obj_euclid = weighted_kmeans(points, weights, 1, euclid).objective;
  const Real obj_periodic =
      weighted_kmeans(points, weights, 1, periodic).objective;
  EXPECT_LT(obj_periodic, 0.5 * obj_euclid);
}

TEST(WeightedKmeans, InputValidation) {
  BlobFixture f;
  std::vector<Real> bad_weights(3, 1.0);
  EXPECT_THROW(weighted_kmeans(f.points, bad_weights, 2, {}), Error);
  EXPECT_THROW(weighted_kmeans(f.points, f.weights, 0, {}), Error);
  std::vector<Real> zeros(f.points.size(), 0.0);
  EXPECT_THROW(weighted_kmeans(f.points, zeros, 2, {}), Error);
}

TEST(PairWeights, MatchesDefinition) {
  // w(r) = Σ_i ψ² · Σ_j φ² per row.
  la::RealMatrix psi_v{{1, 2}, {0, 1}};
  la::RealMatrix psi_c{{3}, {4}};
  const std::vector<Real> w = pair_weights(psi_v.view(), psi_c.view());
  EXPECT_DOUBLE_EQ(w[0], (1 + 4) * 9);
  EXPECT_DOUBLE_EQ(w[1], 1 * 16);
}

class DistKmeansSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistKmeansSweep, MatchesSerialObjectiveScale) {
  const int p = GetParam();
  BlobFixture f;
  const Index k = 6;

  KMeansOptions opts;
  opts.seeding = Seeding::kTopWeight;
  opts.seed = 2;
  const KMeansResult serial =
      weighted_kmeans(f.points, f.weights, k, opts);

  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(f.grid.size(), comm.size());
    const Index off = part.offset(comm.rank());
    const Index cnt = part.count(comm.rank());
    std::vector<grid::Vec3> local_points(
        f.points.begin() + off, f.points.begin() + off + cnt);
    std::vector<Real> local_weights(
        f.weights.begin() + off, f.weights.begin() + off + cnt);

    const KMeansResult dist = weighted_kmeans(local_points, local_weights, k,
                                              opts, &comm, off);

    ASSERT_EQ(dist.interpolation_points.size(), static_cast<std::size_t>(k));
    std::set<Index> unique(dist.interpolation_points.begin(),
                           dist.interpolation_points.end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(k));
    // Same ballpark objective as serial (algorithms differ only in
    // empty-cluster handling).
    EXPECT_LT(dist.objective, 2.0 * serial.objective + 1e-9);
    // Points are valid global indices.
    for (const Index gp : dist.interpolation_points) {
      EXPECT_GE(gp, 0);
      EXPECT_LT(gp, f.grid.size());
    }
  });
}

TEST_P(DistKmeansSweep, SingleRankMatchesSerialUpToObjectiveRoundoff) {
  const int p = GetParam();
  if (p != 1) GTEST_SKIP() << "serial comparison only meaningful at p=1";
  BlobFixture f;
  KMeansOptions opts;
  opts.seeding = Seeding::kTopWeight;
  const KMeansResult serial = weighted_kmeans(f.points, f.weights, 5, opts);
  par::run(1, [&](par::Comm& comm) {
    const KMeansResult dist =
        weighted_kmeans(f.points, f.weights, 5, opts, &comm);
    EXPECT_EQ(dist.interpolation_points, serial.interpolation_points);
    EXPECT_EQ(dist.iterations, serial.iterations);
    // Serial K-Means sums its objective in per-OpenMP-thread partials, so
    // the last bits depend on the thread count; the clustering does not.
    EXPECT_NEAR(dist.objective, serial.objective, 1e-12 * serial.objective);
  });
}

TEST_P(DistKmeansSweep, RejectsSeedingsThatNeedAnRng) {
  const int p = GetParam();
  BlobFixture f;
  for (const Seeding seeding :
       {Seeding::kWeightedKpp, Seeding::kUniformRandom}) {
    KMeansOptions opts;
    opts.seeding = seeding;
    par::run(p, [&](par::Comm& comm) {
      EXPECT_THROW(weighted_kmeans(f.points, f.weights, 4, opts, &comm),
                   Error);
    });
  }
}

TEST_P(DistKmeansSweep, PeriodicBoundaryBlobMatchesSerial) {
  // The PeriodicDistanceUnifiesBoundaryBlob fixture: one blob centered on
  // the cell corner, clustered with minimum-image distances.
  const int p = GetParam();
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(10.0), {10, 10, 10});
  const std::vector<grid::Vec3> points = g.positions();
  std::vector<Real> weights(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const grid::Vec3 d = g.cell().minimum_image({0, 0, 0}, points[i]);
    weights[i] = std::exp(-grid::norm2(d) / 2.0) + 1e-9;
  }
  const grid::UnitCell cell = g.cell();
  KMeansOptions opts;
  opts.seeding = Seeding::kTopWeight;
  opts.periodic_cell = &cell;
  const KMeansResult serial = weighted_kmeans(points, weights, 1, opts);

  par::run(p, [&](par::Comm& comm) {
    const par::BlockPartition part(g.size(), comm.size());
    const Index off = part.offset(comm.rank());
    const Index cnt = part.count(comm.rank());
    const std::vector<grid::Vec3> local_points(
        points.begin() + off, points.begin() + off + cnt);
    const std::vector<Real> local_weights(
        weights.begin() + off, weights.begin() + off + cnt);
    const KMeansResult dist = weighted_kmeans(local_points, local_weights, 1,
                                              opts, &comm, off);
    EXPECT_EQ(dist.interpolation_points, serial.interpolation_points);
    EXPECT_EQ(dist.iterations, serial.iterations);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistKmeansSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace lrt::kmeans
