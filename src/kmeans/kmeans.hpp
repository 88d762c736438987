// Weighted K-Means clustering of real-space grid points (paper §4.2).
//
// The interpolation points of ISDF are chosen as the grid points closest
// to the centroids of Nμ weighted clusters, with weight function
//   w(r) = Σ_i |ψ_i(r)|² · Σ_j |φ_j(r)|²           (paper Eq 14)
// Three features from the paper are implemented:
//  - pruning: points with w below a threshold (relative to the max) are
//    removed before clustering, shrinking N_r to N_r' ≪ N_r;
//  - weight-aware seeding: centroids start from high-weight points
//    (greedy k-means++-style D² sampling by default, pure top-weight and
//    uniform-random seeding available for the ablation bench);
//  - weighted Lloyd updates with empty-cluster reseeding (a solve across
//    two or more ranks keeps an empty cluster's centroid instead:
//    reseeding would need another round of agreement).
//
// The grid points may be row-block partitioned over the ranks of a
// communicator (paper §4.2, last paragraph). Each iteration then runs the
// local assignment step and combines the per-cluster weighted coordinate
// sums and weights with a single Allreduce; the reduction replicates the
// updated centroids. Without a communicator the caller holds every point;
// a one-rank communicator is that same serial case, every option included,
// and only adds its no-op collectives.
#pragma once

#include <functional>
#include <vector>

#include "ft/checkpoint.hpp"
#include "grid/rsgrid.hpp"
#include "la/matrix.hpp"
#include "par/comm.hpp"

namespace lrt::kmeans {

enum class Seeding {
  kWeightedKpp,    ///< weighted k-means++ (D² sampling), default
  kTopWeight,      ///< greedy largest-weight points (paper's description)
  kUniformRandom,  ///< unweighted random seeding (ablation baseline)
};

struct KMeansOptions {
  Index max_iterations = 60;
  /// Stop when the relative objective decrease falls below this.
  Real tolerance = 1e-7;
  /// Points with weight < threshold * max(weight) are pruned before
  /// clustering (paper: "remove the points with weights less than the
  /// threshold"). 0 keeps everything.
  Real weight_threshold = 1e-6;
  /// Across two or more ranks only kTopWeight is honoured: the candidates
  /// are allgathered so every rank seeds identically without drawing from
  /// an Rng.
  Seeding seeding = Seeding::kWeightedKpp;
  unsigned seed = 7;
  /// When set, point-to-centroid distances use the minimum-image
  /// convention of this cell (ablation: the paper clusters with plain
  /// Euclidean distances, which can split a weight blob that straddles
  /// the periodic boundary into two clusters). Centroids remain
  /// arithmetic means — adequate for clusters compact relative to the
  /// cell, which pruned pair-product weights always are.
  const grid::UnitCell* periodic_cell = nullptr;
  /// Elkan-lite assignment pruning: each point carries a lower bound on
  /// its distance to every center but its own, decayed by how far the
  /// other centers moved; points whose exact assigned-center distance
  /// stays strictly under the bound skip the full k-distance scan.
  /// Results are bit-identical to the exact scan — same assignments,
  /// centroids, objective, iteration count (asserted in
  /// tests/test_perf_kernels.cpp) — so this is safe to leave on; the
  /// switch exists for the exactness test and the `--compare` bench.
  bool pruned_assignment = true;
  /// Checkpoint/restart (docs/RESILIENCE.md): every `checkpoint_interval`
  /// completed Lloyd iterations the solver hands its end-of-iteration
  /// state to `checkpoint_sink` (0 disables); `restore` resumes from one.
  /// A resumed run is bit-identical to an uninterrupted one: the first
  /// resumed iteration full-scans every point (no Elkan bounds survive
  /// the restart), which the PR-4 pruning invariant makes exact, and the
  /// serialized Rng stream replays any later empty-cluster reseeds. Across
  /// ranks the state is replicated, so the sink typically writes on rank 0
  /// only, and every rank is handed the same `restore`.
  Index checkpoint_interval = 0;
  std::function<void(const ft::KMeansState&)> checkpoint_sink;
  const ft::KMeansState* restore = nullptr;
};

/// With a communicator, centroids, interpolation points, objective,
/// iterations and num_pruned are global and replicated; kept_points and
/// assignment cover this rank's points (local indices).
struct KMeansResult {
  std::vector<grid::Vec3> centroids;     ///< k weighted centroids
  std::vector<Index> interpolation_points;  ///< k distinct grid indices
  std::vector<Index> kept_points;        ///< surviving point indices (N_r')
  std::vector<Index> assignment;         ///< cluster of each kept point
  Real objective = 0;                    ///< Σ w |r - c|² at exit
  Index iterations = 0;
  Index num_pruned = 0;
};

/// Clusters `points` with `weights` into k clusters and returns one
/// representative grid point per cluster. Without `comm`, `points` are
/// all N_r grid positions. With `comm` they are this rank's block, whose
/// first point has global index `global_offset`, and the call is
/// collective. On a one-rank communicator it is the serial call: same
/// seeding, reseeding and result, global indices shifted by
/// `global_offset`.
KMeansResult weighted_kmeans(const std::vector<grid::Vec3>& points,
                             const std::vector<Real>& weights, Index k,
                             const KMeansOptions& options = {},
                             par::Comm* comm = nullptr,
                             Index global_offset = 0);

/// The paper's Eq (14) weight: row norms of the pair-product matrix,
/// w(r) = (Σ_i ψ_i(r)²)(Σ_j φ_j(r)²) for dv-normalized orbital blocks.
std::vector<Real> pair_weights(la::RealConstView psi_v,
                               la::RealConstView psi_c);

}  // namespace lrt::kmeans
