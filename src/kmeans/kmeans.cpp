#include "kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "common/random.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace lrt::kmeans {
namespace {

// Pruned-assignment safety margins (docs/PERFORMANCE.md §3): the skip
// test must prove STRICT inequality "every other center is farther"
// despite the O(1e-14) relative rounding of the distance/sqrt chain, so
// both sides get a 1e-9 relative slack — conservative by five orders of
// magnitude, which is what makes pruned assignments bit-identical to
// the exact scan (including first-lowest-index tie-breaking).
constexpr Real kPruneSlackUp = Real{1} + Real{1e-9};
constexpr Real kPruneSlackDown = Real{1} - Real{1e-9};

Real squared_distance(const grid::Vec3& a, const grid::Vec3& b,
                      const grid::UnitCell* cell) {
  if (cell) {
    return grid::norm2(cell->minimum_image(a, b));
  }
  const Real dx = a[0] - b[0];
  const Real dy = a[1] - b[1];
  const Real dz = a[2] - b[2];
  return dx * dx + dy * dy + dz * dz;
}

/// Seeds k centroids from the kept points according to the chosen policy.
std::vector<grid::Vec3> seed_centroids(const std::vector<grid::Vec3>& points,
                                       const std::vector<Real>& weights,
                                       const std::vector<Index>& kept, Index k,
                                       Seeding seeding, Rng& rng,
                                       const grid::UnitCell* cell) {
  const Index nkept = static_cast<Index>(kept.size());
  std::vector<grid::Vec3> centroids;
  centroids.reserve(static_cast<std::size_t>(k));

  switch (seeding) {
    case Seeding::kUniformRandom: {
      // Sample k distinct kept points uniformly.
      std::vector<Index> pool = kept;
      for (Index j = 0; j < k; ++j) {
        const Index pick =
            static_cast<Index>(rng.uniform_index(
                static_cast<std::uint64_t>(nkept - j)));
        std::swap(pool[static_cast<std::size_t>(pick)],
                  pool[static_cast<std::size_t>(nkept - 1 - j)]);
        centroids.push_back(
            points[static_cast<std::size_t>(pool[static_cast<std::size_t>(
                nkept - 1 - j)])]);
      }
      break;
    }
    case Seeding::kTopWeight: {
      // k heaviest kept points.
      std::vector<Index> order = kept;
      std::partial_sort(order.begin(), order.begin() + k, order.end(),
                        [&](Index a, Index b) {
                          return weights[static_cast<std::size_t>(a)] >
                                 weights[static_cast<std::size_t>(b)];
                        });
      for (Index j = 0; j < k; ++j) {
        centroids.push_back(
            points[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])]);
      }
      break;
    }
    case Seeding::kWeightedKpp: {
      // First seed: heaviest point; then D²-weighted sampling.
      Index first = kept.front();
      for (const Index p : kept) {
        if (weights[static_cast<std::size_t>(p)] >
            weights[static_cast<std::size_t>(first)]) {
          first = p;
        }
      }
      centroids.push_back(points[static_cast<std::size_t>(first)]);
      std::vector<Real> d2(static_cast<std::size_t>(nkept),
                           std::numeric_limits<Real>::max());
      while (static_cast<Index>(centroids.size()) < k) {
        // Update D² against the newest centroid and build the sampling CDF.
        const grid::Vec3& newest = centroids.back();
        Real total = 0;
        for (Index i = 0; i < nkept; ++i) {
          const Index p = kept[static_cast<std::size_t>(i)];
          Real& best = d2[static_cast<std::size_t>(i)];
          best = std::min(best,
                          squared_distance(points[static_cast<std::size_t>(p)],
                                           newest, cell));
          total += weights[static_cast<std::size_t>(p)] * best;
        }
        if (total <= Real{0}) {
          // All mass already covered; fall back to an arbitrary kept point.
          centroids.push_back(points[static_cast<std::size_t>(
              kept[rng.uniform_index(static_cast<std::uint64_t>(nkept))])]);
          continue;
        }
        Real target = rng.uniform() * total;
        Index chosen = kept.back();
        for (Index i = 0; i < nkept; ++i) {
          const Index p = kept[static_cast<std::size_t>(i)];
          target -= weights[static_cast<std::size_t>(p)] *
                    d2[static_cast<std::size_t>(i)];
          if (target <= 0) {
            chosen = p;
            break;
          }
        }
        centroids.push_back(points[static_cast<std::size_t>(chosen)]);
      }
      break;
    }
  }
  return centroids;
}

/// kTopWeight seeding across ranks: every rank contributes its k heaviest
/// kept points; the globally heaviest k of the allgathered candidates seed
/// the clusters identically on every rank.
std::vector<grid::Vec3> seed_top_weight(par::Comm& comm,
                                        const std::vector<grid::Vec3>& points,
                                        const std::vector<Real>& weights,
                                        const std::vector<Index>& kept,
                                        Index k) {
  struct Candidate {
    Real weight;
    Real x, y, z;
  };
  static_assert(std::is_trivially_copyable_v<Candidate>);
  const Index c_per_rank = std::min<Index>(k, static_cast<Index>(kept.size()));
  std::vector<Index> order = kept;
  std::partial_sort(order.begin(), order.begin() + c_per_rank, order.end(),
                    [&](Index a, Index b) {
                      return weights[static_cast<std::size_t>(a)] >
                             weights[static_cast<std::size_t>(b)];
                    });
  std::vector<Candidate> mine(static_cast<std::size_t>(k),
                              Candidate{-1, 0, 0, 0});
  for (Index j = 0; j < c_per_rank; ++j) {
    const Index p = order[static_cast<std::size_t>(j)];
    mine[static_cast<std::size_t>(j)] =
        Candidate{weights[static_cast<std::size_t>(p)],
                  points[static_cast<std::size_t>(p)][0],
                  points[static_cast<std::size_t>(p)][1],
                  points[static_cast<std::size_t>(p)][2]};
  }
  std::vector<Candidate> all(static_cast<std::size_t>(k * comm.size()));
  comm.allgather(mine.data(), k, all.data());
  std::sort(all.begin(), all.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.weight > b.weight;
            });
  std::vector<grid::Vec3> centroids(static_cast<std::size_t>(k));
  for (Index c = 0; c < k; ++c) {
    const Candidate& cand = all[static_cast<std::size_t>(c)];
    LRT_CHECK(cand.weight >= 0,
              "not enough kept points to seed " << k << " clusters");
    centroids[static_cast<std::size_t>(c)] = {cand.x, cand.y, cand.z};
  }
  return centroids;
}

/// Representative interpolation point per cluster: the kept point nearest
/// to the centroid; duplicates resolved by claiming points greedily, and a
/// cluster that lost all its points takes the globally nearest unclaimed
/// point.
std::vector<Index> claim_representatives(
    const std::vector<grid::Vec3>& points, const std::vector<Index>& kept,
    const std::vector<Index>& assignment,
    const std::vector<grid::Vec3>& centroids, const grid::UnitCell* cell) {
  const Index k = static_cast<Index>(centroids.size());
  const Index nkept = static_cast<Index>(kept.size());
  std::vector<char> claimed(points.size(), 0);
  std::vector<Index> reps(static_cast<std::size_t>(k), -1);
  for (Index c = 0; c < k; ++c) {
    Real best = std::numeric_limits<Real>::max();
    Index best_p = -1;
    for (Index i = 0; i < nkept; ++i) {
      if (assignment[static_cast<std::size_t>(i)] != c) continue;
      const Index p = kept[static_cast<std::size_t>(i)];
      if (claimed[static_cast<std::size_t>(p)]) continue;
      const Real d = squared_distance(points[static_cast<std::size_t>(p)],
                                      centroids[static_cast<std::size_t>(c)],
                                      cell);
      if (d < best) {
        best = d;
        best_p = p;
      }
    }
    if (best_p < 0) {
      for (Index i = 0; i < nkept; ++i) {
        const Index p = kept[static_cast<std::size_t>(i)];
        if (claimed[static_cast<std::size_t>(p)]) continue;
        const Real d = squared_distance(
            points[static_cast<std::size_t>(p)],
            centroids[static_cast<std::size_t>(c)], cell);
        if (d < best) {
          best = d;
          best_p = p;
        }
      }
    }
    LRT_CHECK(best_p >= 0, "could not assign a representative point");
    claimed[static_cast<std::size_t>(best_p)] = 1;
    reps[static_cast<std::size_t>(c)] = best_p;
  }
  return reps;
}

/// Representative points across ranks: each rank's nearest assigned point
/// per cluster, then a global argmin over the allgathered (distance,
/// global index) candidates. Ties go to the lower rank, i.e. the lower
/// global index, as in the serial scan.
std::vector<Index> gather_representatives(
    par::Comm& comm, const std::vector<grid::Vec3>& points,
    const std::vector<Index>& kept, const std::vector<Index>& assignment,
    const std::vector<grid::Vec3>& centroids, const grid::UnitCell* cell,
    Index global_offset) {
  const Index k = static_cast<Index>(centroids.size());
  struct Rep {
    Real distance;
    long long global_index;
  };
  static_assert(std::is_trivially_copyable_v<Rep>);
  std::vector<Rep> local_rep(static_cast<std::size_t>(k),
                             Rep{std::numeric_limits<Real>::max(), -1});
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Index p = kept[i];
    const Index c = assignment[i];
    const Real d = squared_distance(points[static_cast<std::size_t>(p)],
                                    centroids[static_cast<std::size_t>(c)],
                                    cell);
    if (d < local_rep[static_cast<std::size_t>(c)].distance) {
      local_rep[static_cast<std::size_t>(c)] =
          Rep{d, static_cast<long long>(global_offset + p)};
    }
  }
  std::vector<Rep> all_rep(static_cast<std::size_t>(k * comm.size()));
  comm.allgather(local_rep.data(), k, all_rep.data());
  std::vector<Index> reps(static_cast<std::size_t>(k), -1);
  for (Index c = 0; c < k; ++c) {
    Rep best{std::numeric_limits<Real>::max(), -1};
    for (int r = 0; r < comm.size(); ++r) {
      const Rep& cand = all_rep[static_cast<std::size_t>(r * k + c)];
      if (cand.global_index >= 0 && cand.distance < best.distance) {
        best = cand;
      }
    }
    LRT_CHECK(best.global_index >= 0,
              "cluster " << c << " has no representative point");
    reps[static_cast<std::size_t>(c)] = static_cast<Index>(best.global_index);
  }
  return reps;
}

}  // namespace

std::vector<Real> pair_weights(la::RealConstView psi_v,
                               la::RealConstView psi_c) {
  LRT_CHECK(psi_v.rows() == psi_c.rows(), "orbital grids differ");
  const Index nr = psi_v.rows();
  std::vector<Real> w(static_cast<std::size_t>(nr));
  for (Index i = 0; i < nr; ++i) {
    Real sv = 0;
    const Real* rv = psi_v.row_ptr(i);
    for (Index j = 0; j < psi_v.cols(); ++j) sv += rv[j] * rv[j];
    Real sc = 0;
    const Real* rc = psi_c.row_ptr(i);
    for (Index j = 0; j < psi_c.cols(); ++j) sc += rc[j] * rc[j];
    w[static_cast<std::size_t>(i)] = sv * sc;
  }
  return w;
}

KMeansResult weighted_kmeans(const std::vector<grid::Vec3>& points,
                             const std::vector<Real>& weights, Index k,
                             const KMeansOptions& options, par::Comm* comm,
                             Index global_offset) {
  const Index n = static_cast<Index>(points.size());
  LRT_CHECK(static_cast<Index>(weights.size()) == n,
            "points/weights size mismatch");
  // A one-rank communicator holds every point: that is the serial case.
  const bool one_rank = comm == nullptr || comm->size() == 1;
  LRT_CHECK(k >= 1 && (!one_rank || k <= n),
            "bad cluster count " << k << " for " << n << " points");
  LRT_CHECK(one_rank || options.seeding == Seeding::kTopWeight,
            "a distributed K-Means seeds from the top-weight points only");

  KMeansResult result;
  Rng rng(options.seed);
  const grid::UnitCell* cell = options.periodic_cell;

  // Prune low-weight points (N_r -> N_r') against the global max weight.
  Real wmax = 0;
  for (const Real w : weights) wmax = std::max(wmax, w);
  if (comm) comm->allreduce(&wmax, 1, par::ReduceOp::kMax);
  LRT_CHECK(wmax > 0, "all weights are zero");
  const Real cut = options.weight_threshold * wmax;
  result.kept_points.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    if (weights[static_cast<std::size_t>(i)] >= cut) {
      result.kept_points.push_back(i);
    }
  }
  const Index local_pruned = n - static_cast<Index>(result.kept_points.size());
  result.num_pruned = local_pruned;
  LRT_CHECK(!one_rank || static_cast<Index>(result.kept_points.size()) >= k,
            "pruning left fewer points than clusters; lower the threshold");

  const std::vector<Index>& kept = result.kept_points;
  const Index nkept = static_cast<Index>(kept.size());
  Index start_iter = 0;
  Real restored_objective = std::numeric_limits<Real>::max();
  if (options.restore != nullptr) {
    // Resume mid-run: centroids, objective, and the Rng stream (which
    // already consumed the seeding draws, and replays any empty-cluster
    // reseeds after the restore point) come from the snapshot; pruning
    // and kept_points were recomputed above, deterministically.
    const ft::KMeansState& ck = *options.restore;
    LRT_CHECK(static_cast<Index>(ck.centroids.size()) == k,
              "kmeans restore: snapshot has " << ck.centroids.size()
                                              << " centroids, expected " << k);
    result.centroids = ck.centroids;
    start_iter = ck.iteration;
    restored_objective = ck.objective;
    if (ck.has_rng) rng.set_state(ck.rng);
  } else if (!one_rank) {
    result.centroids = seed_top_weight(*comm, points, weights, kept, k);
  } else {
    result.centroids =
        seed_centroids(points, weights, kept, k, options.seeding, rng, cell);
  }
  // Across ranks the pruned count rides along in the Lloyd reduction
  // below (counts up to 2^53 are exact in a Real); it needs a reduction
  // of its own only when no iteration is left to run.
  if (comm && start_iter >= options.max_iterations) {
    comm->allreduce(&result.num_pruned, 1, par::ReduceOp::kSum);
  }

  result.assignment.assign(static_cast<std::size_t>(nkept), 0);
  // Packed update buffer: per cluster [w, wx, wy, wz], then the
  // objective and the pruned count; one allreduce combines it across
  // ranks.
  std::vector<Real> sums(static_cast<std::size_t>(4 * k + 2));

  // Elkan-lite pruning state (docs/PERFORMANCE.md §3): lb[i] lower-bounds
  // the distance from kept point i to every center EXCEPT its assigned
  // one. It is seeded with the second-best distance of the last full scan
  // and decays each iteration by the largest movement any other center
  // made (triangle inequality; minimum-image distances qualify because
  // the torus quotient metric is a metric).
  const bool prune = options.pruned_assignment;
  std::vector<Real> lb(prune ? static_cast<std::size_t>(nkept) : 0,
                       Real{-1});
  std::vector<grid::Vec3> prev_centroids;
  // True once a completed iteration has left movement state behind
  // (prev_centroids + lb). False on the first iteration and on the first
  // iteration after a restore — the restored run full-scans every point,
  // which is bit-identical to the pruned path (docs/PERFORMANCE.md §3).
  bool have_move_state = false;
  static obs::Counter& full_counter = obs::counter("kmeans.assign.full");
  static obs::Counter& skip_counter = obs::counter("kmeans.assign.skipped");

  const obs::Span lloyd_span("kmeans.lloyd");
  Real previous_objective = restored_objective;
  for (Index iter = start_iter; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // How far each center moved in the last update step; a point's bound
    // on "nearest other center" decays by the largest movement among the
    // centers it is NOT assigned to, so track the top two movements and
    // where the largest happened.
    Real move1 = 0;
    Real move2 = 0;
    Index move_arg = -1;
    if (prune && have_move_state) {
      for (Index c = 0; c < k; ++c) {
        const Real moved = std::sqrt(squared_distance(
            prev_centroids[static_cast<std::size_t>(c)],
            result.centroids[static_cast<std::size_t>(c)], cell));
        if (moved > move1) {
          move2 = move1;
          move1 = moved;
          move_arg = c;
        } else if (moved > move2) {
          move2 = moved;
        }
      }
    }

    // Assignment step (paper: "the classification step ... can be locally
    // computed for each group of grid points"): one running sum of the
    // objective terms in point order.
    Real objective = 0;
    long long full_scans = 0;
    long long skips = 0;
    for (Index i = 0; i < nkept; ++i) {
      const Index p = kept[static_cast<std::size_t>(i)];
      const grid::Vec3& r = points[static_cast<std::size_t>(p)];
      if (prune) {
        const Index a = result.assignment[static_cast<std::size_t>(i)];
        const Real drift = (a == move_arg) ? move2 : move1;
        const Real bound = lb[static_cast<std::size_t>(i)] - drift;
        if (bound > 0) {
          const Real d2a = squared_distance(
              r, result.centroids[static_cast<std::size_t>(a)], cell);
          if (std::sqrt(d2a) * kPruneSlackUp < bound * kPruneSlackDown) {
            // Every other center is strictly farther than the assigned
            // one, so the full scan would reproduce assignment `a` and
            // the identical objective term w * d2a.
            lb[static_cast<std::size_t>(i)] = bound;
            objective += weights[static_cast<std::size_t>(p)] * d2a;
            ++skips;
            continue;
          }
        }
      }
      Real best = std::numeric_limits<Real>::max();
      Real second = std::numeric_limits<Real>::max();
      Index best_c = 0;
      for (Index c = 0; c < k; ++c) {
        const Real d = squared_distance(
            r, result.centroids[static_cast<std::size_t>(c)], cell);
        if (d < best) {
          second = best;
          best = d;
          best_c = c;
        } else if (d < second) {
          second = d;
        }
      }
      result.assignment[static_cast<std::size_t>(i)] = best_c;
      objective += weights[static_cast<std::size_t>(p)] * best;
      ++full_scans;
      if (prune) lb[static_cast<std::size_t>(i)] = std::sqrt(second);
    }
    full_counter.add(full_scans);
    skip_counter.add(skips);
    if (prune) {
      prev_centroids = result.centroids;
      have_move_state = true;
    }

    // Update step: weighted centroid of each cluster (paper Eq 13). In
    // periodic mode the mean is taken over minimum-image DISPLACEMENTS
    // from the current centroid (the standard linearization), so clusters
    // straddling the cell boundary do not average to the box middle; the
    // centroids are replicated, so this holds across ranks too.
    std::fill(sums.begin(), sums.end(), Real{0});
    for (Index i = 0; i < nkept; ++i) {
      const Index p = kept[static_cast<std::size_t>(i)];
      const Index c = result.assignment[static_cast<std::size_t>(i)];
      const Real w = weights[static_cast<std::size_t>(p)];
      grid::Vec3 contrib = points[static_cast<std::size_t>(p)];
      if (cell) {
        contrib = cell->minimum_image(
            result.centroids[static_cast<std::size_t>(c)], contrib);
      }
      Real* slot = &sums[static_cast<std::size_t>(4 * c)];
      slot[0] += w;
      for (int ax = 0; ax < 3; ++ax) {
        slot[1 + ax] += w * contrib[static_cast<std::size_t>(ax)];
      }
    }
    sums[static_cast<std::size_t>(4 * k)] = objective;
    sums[static_cast<std::size_t>(4 * k + 1)] = static_cast<Real>(local_pruned);
    if (comm) {
      comm->allreduce(sums.data(), static_cast<Index>(sums.size()),
                      par::ReduceOp::kSum);
    }
    result.objective = sums[static_cast<std::size_t>(4 * k)];
    result.num_pruned = static_cast<Index>(
        std::llround(sums[static_cast<std::size_t>(4 * k + 1)]));

    for (Index c = 0; c < k; ++c) {
      const Real* slot = &sums[static_cast<std::size_t>(4 * c)];
      grid::Vec3& centroid = result.centroids[static_cast<std::size_t>(c)];
      if (slot[0] > 0) {
        for (int ax = 0; ax < 3; ++ax) {
          const Real mean = slot[1 + ax] / slot[0];
          centroid[static_cast<std::size_t>(ax)] =
              cell ? centroid[static_cast<std::size_t>(ax)] + mean : mean;
        }
        if (cell) centroid = cell->wrap(centroid);
      } else if (one_rank) {
        // Empty cluster: reseed at a random heavy kept point.
        const Index p = kept[static_cast<std::size_t>(
            rng.uniform_index(static_cast<std::uint64_t>(nkept)))];
        centroid = points[static_cast<std::size_t>(p)];
      }
    }

    if (previous_objective < std::numeric_limits<Real>::max() &&
        previous_objective - result.objective <=
            options.tolerance * std::max(previous_objective, Real{1e-30})) {
      break;
    }
    previous_objective = result.objective;

    if (options.checkpoint_interval > 0 && options.checkpoint_sink &&
        (iter + 1) % options.checkpoint_interval == 0) {
      ft::KMeansState ck;
      ck.centroids = result.centroids;
      ck.iteration = iter + 1;
      ck.objective = previous_objective;
      // Across ranks no Rng is ever drawn, so none is saved.
      ck.has_rng = one_rank;
      ck.rng = rng.state();
      options.checkpoint_sink(ck);
    }
  }

  if (one_rank) {
    result.interpolation_points = claim_representatives(
        points, kept, result.assignment, result.centroids, cell);
    for (Index& p : result.interpolation_points) p += global_offset;
  } else {
    result.interpolation_points =
        gather_representatives(*comm, points, kept, result.assignment,
                               result.centroids, cell, global_offset);
  }
  std::sort(result.interpolation_points.begin(),
            result.interpolation_points.end());
  static obs::Counter& iterations = obs::counter("kmeans.iterations");
  iterations.add(result.iterations);
  return result;
}

}  // namespace lrt::kmeans
