#include "tddft/dist_driver.hpp"

#include "common/timer.hpp"
#include "ft/checkpoint.hpp"
#include "isdf/interpolation.hpp"
#include "isdf/pairproduct.hpp"
#include "kmeans/kmeans.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/phase_registry.hpp"
#include "par/disteig.hpp"

namespace lrt::tddft {
namespace {

/// This rank's contiguous row slab of a replicated Nr x m matrix.
la::RealConstView my_rows(la::RealConstView full, const par::BlockPartition& part,
                          int rank) {
  return full.rows_block(part.offset(rank), part.count(rank));
}

/// Serializes the replicated K-Means phase result for the phase-granular
/// restart of the implicit path (docs/RESILIENCE.md): centroids and
/// interpolation points pin the downstream sampling, objective and the
/// counters just keep reporting consistent.
void save_driver_kmeans(const std::string& path,
                        const kmeans::KMeansResult& km) {
  ft::CheckpointWriter writer;
  const std::string kind = "driver_kmeans";
  writer.add("kind", kind.data(), kind.size());
  struct Meta {
    long long nmu;
    long long iterations;
    long long num_pruned;
    Real objective;
  };
  static_assert(std::is_trivially_copyable_v<Meta>);
  Meta meta{static_cast<long long>(km.centroids.size()), km.iterations,
            km.num_pruned, km.objective};
  writer.add_pod("meta", meta);
  writer.add_array("centroids", km.centroids);
  std::vector<long long> ips(km.interpolation_points.begin(),
                             km.interpolation_points.end());
  writer.add_array("interpolation_points", ips);
  writer.write(path);
}

kmeans::KMeansResult load_driver_kmeans(const std::string& path,
                                        Index nmu) {
  const ft::CheckpointReader reader(path);
  const std::vector<unsigned char>& kind_bytes = reader.section("kind");
  const std::string kind(kind_bytes.begin(), kind_bytes.end());
  if (kind != "driver_kmeans") {
    throw ft::CheckpointError(ft::CheckpointFault::kBadShape,
                              "checkpoint kind is '" + kind +
                                  "', expected 'driver_kmeans'");
  }
  struct Meta {
    long long nmu;
    long long iterations;
    long long num_pruned;
    Real objective;
  };
  static_assert(std::is_trivially_copyable_v<Meta>);
  const Meta meta = reader.pod<Meta>("meta");
  if (meta.nmu != static_cast<long long>(nmu)) {
    throw ft::CheckpointError(
        ft::CheckpointFault::kBadShape,
        "checkpoint holds " + std::to_string(meta.nmu) +
            " clusters, this run wants " + std::to_string(nmu));
  }
  kmeans::KMeansResult km;
  km.iterations = static_cast<Index>(meta.iterations);
  km.num_pruned = static_cast<Index>(meta.num_pruned);
  km.objective = meta.objective;
  km.centroids = reader.array<grid::Vec3>("centroids");
  const std::vector<long long> ips =
      reader.array<long long>("interpolation_points");
  km.interpolation_points.assign(ips.begin(), ips.end());
  return km;
}

/// Both solves return the energies, this rank's eigenvector rows and the
/// LOBPCG iterations; the caller adds the timings.
DistDriverStats solve_naive(par::Comm& comm, const CasidaProblem& problem,
                            const HxcKernel& kernel,
                            const DriverOptions& options) {
  const int me = comm.rank();
  const Index nr = problem.nr();
  const Index ncv = problem.ncv();
  const par::BlockPartition rows(nr, comm.size());

  // Row-block pair products (Algorithm 1 line 2), then the kernel
  // sandwich and Vhxc assembly streamed over column slices (lines 3-8)
  // and H = D + 2 Vhxc. The pair products are freed before the solve.
  la::RealMatrix h;
  {
    la::RealMatrix p_loc;
    {
      const obs::Span span(obs::phase::kPairProduct);
      p_loc = isdf::pair_product_matrix(my_rows(problem.psi_v.view(), rows, me),
                                        my_rows(problem.psi_c.view(), rows, me));
    }
    h = casida_hamiltonian(
        kernel_projection(kernel, p_loc.view(), &comm, options.pipeline_chunk),
        energy_differences(problem));
  }

  // Dense diagonalization via the block-cyclic SYEVD stand-in (Fig 3c).
  const obs::Span span(obs::phase::kDiag);
  const par::Layout row_layout =
      par::Layout::block_row(ncv, ncv, comm.size());
  par::DistMatrix h_dist(row_layout, me);
  h_dist.fill_global([&](Index i, Index j) { return h(i, j); });
  par::DistEigResult eig = par::dist_syev(comm, h_dist);

  DistDriverStats solution;
  solution.energies.assign(eig.values.begin(),
                           eig.values.begin() + options.num_states);
  solution.wavefunctions = la::to_matrix<Real>(
      eig.vectors.local().view().cols_block(0, options.num_states));
  return solution;
}

DistDriverStats solve_implicit(par::Comm& comm, const CasidaProblem& problem,
                               const HxcKernel& kernel,
                               const DriverOptions& options) {
  const int me = comm.rank();
  const Index nr = problem.nr();
  const Index nv = problem.nv();
  const Index nc = problem.nc();
  const par::BlockPartition rows(nr, comm.size());
  const Index my_count = rows.count(me);
  const Index my_offset = rows.offset(me);

  const Index nmu = derive_nmu(options.nmu, options.nmu_ratio, problem);

  const la::RealConstView psi_v_loc = my_rows(problem.psi_v.view(), rows, me);
  const la::RealConstView psi_c_loc = my_rows(problem.psi_c.view(), rows, me);

  // Distributed K-Means on local grid slabs (paper §4.2), or its saved
  // result when restarting (docs/RESILIENCE.md). The existence check is
  // uniform across ranks — rank 0 only renames the checkpoint into place
  // after the collective phase completes, so either every rank sees it or
  // none does — and the restored result is replicated exactly like the
  // allreduced one, so downstream sampling is bit-identical.
  kmeans::KMeansResult km;
  bool restored = false;
  obs::Span kmeans_span(obs::phase::kKmeans);
  if (!options.checkpoint_path.empty() &&
      ft::checkpoint_exists(options.checkpoint_path)) {
    km = load_driver_kmeans(options.checkpoint_path, nmu);
    restored = true;
  } else {
    const std::vector<Real> weights =
        kmeans::pair_weights(psi_v_loc, psi_c_loc);
    std::vector<grid::Vec3> points(static_cast<std::size_t>(my_count));
    for (Index i = 0; i < my_count; ++i) {
      points[static_cast<std::size_t>(i)] =
          problem.grid.position(my_offset + i);
    }
    // Weighted k-means++ at one rank; across ranks the top-weight seeds,
    // the only ones that need no Rng agreement.
    kmeans::KMeansOptions km_options;
    if (comm.size() > 1) km_options.seeding = kmeans::Seeding::kTopWeight;
    km = kmeans::weighted_kmeans(points, weights, nmu, km_options, &comm,
                                 my_offset);
  }
  kmeans_span.end();
  if (!restored && !options.checkpoint_path.empty() && me == 0) {
    save_driver_kmeans(options.checkpoint_path, km);
  }

  // Sampled orbital rows, replicated by summation (each point is owned by
  // exactly one rank). Valence and conduction samples travel side by side
  // in one buffer so replication is a single allreduce; the split after
  // the reduction is an exact copy, so the result is bit-identical to
  // reducing the two matrices separately.
  obs::Span mpi_span(obs::phase::kMpi);
  la::RealMatrix samp(nmu, nv + nc);
  for (Index m = 0; m < nmu; ++m) {
    const Index gp = km.interpolation_points[static_cast<std::size_t>(m)];
    if (gp >= my_offset && gp < my_offset + my_count) {
      Real* row = samp.row_ptr(m);
      for (Index j = 0; j < nv; ++j) row[j] = psi_v_loc(gp - my_offset, j);
      for (Index j = 0; j < nc; ++j) row[nv + j] = psi_c_loc(gp - my_offset, j);
    }
  }
  comm.allreduce(samp.data(), samp.size(), par::ReduceOp::kSum);
  const la::RealMatrix psi_v_mu =
      la::to_matrix<Real>(samp.view().cols_block(0, nv));
  const la::RealMatrix psi_c_mu =
      la::to_matrix<Real>(samp.view().cols_block(nv, nc));
  mpi_span.end();

  // Local rows of Θ via the separable products (paper Eq 10), then
  // M = Θᵀ K Θ dv with the kernel sandwich streamed over column slices.
  // Θ is freed before the eigensolve.
  la::RealMatrix m_mat;
  {
    la::RealMatrix theta_loc;
    {
      const obs::Span span(obs::phase::kGemm);
      theta_loc = isdf::interpolation_vectors(psi_v_loc, psi_c_loc,
                                              psi_v_mu.view(), psi_c_mu.view());
    }
    m_mat = kernel_projection(kernel, theta_loc.view(), &comm,
                              options.pipeline_chunk);
  }

  // Distributed implicit LOBPCG (Algorithm 2): the excitation vectors are
  // row-block partitioned over the pair space (valence blocks), the 3k x
  // 3k projected problem is replicated — the paper's parallel layout.
  const obs::Span span(obs::phase::kDiag);
  const ImplicitHamiltonian h(energy_differences(problem), std::move(m_mat),
                              psi_v_mu.view(), psi_c_mu.view(), &comm);
  TddftEigenOptions eig = options.eigen;
  eig.num_states = options.num_states;
  la::LobpcgResult sol = solve_casida_lobpcg(h, eig);
  DistDriverStats solution;
  solution.energies = std::move(sol.eigenvalues);
  solution.wavefunctions = std::move(sol.eigenvectors);
  solution.eigen_iterations = sol.iterations;
  return solution;
}

}  // namespace

DistDriverStats solve_casida_distributed(par::Comm& comm,
                                         const CasidaProblem& problem,
                                         const DriverOptions& options) {
  LRT_CHECK(options.version == Version::kNaive ||
                options.version == Version::kImplicit,
            "distributed driver supports kNaive and kImplicit");
  LRT_CHECK(options.pipeline_chunk >= 0, "pipeline_chunk must not be negative");

  comm.reset_comm_seconds();
  obs::PhaseAccumulator phase_seconds;
  const obs::PhaseScope phase_clock(phase_seconds);
  Timer wall;
  ThreadCpuTimer cpu;

  const grid::GVectors gvectors(problem.grid);
  const HxcKernel kernel(problem.grid, gvectors, problem.ground_density,
                         options.include_xc);

  DistDriverStats stats =
      (options.version == Version::kNaive)
          ? solve_naive(comm, problem, kernel, options)
          : solve_implicit(comm, problem, kernel, options);
  // Busy = this rank's actual CPU cycles (excludes both blocking waits and
  // time descheduled in favour of other rank-threads; DESIGN.md). Read
  // before the wall clock, so the CPU interval nests inside the wall one.
  stats.busy_seconds = cpu.seconds();
  stats.wall_seconds = wall.seconds();
  stats.comm_seconds = comm.comm_seconds();
  // Peak-memory gauge, read once per solve: VmHWM only rises and is
  // process-wide, so the counter is the run's high-water mark.
  static obs::Counter& hwm = obs::counter("mem.hwm.bytes");
  const long long bytes = obs::vm_hwm_bytes();
  if (bytes > 0) hwm.record_max(bytes);

  // Aggregate maxima across ranks (fixed phase key order so every rank
  // reduces the same vector).
  const char* keys[] = {obs::phase::kPairProduct, obs::phase::kKmeans,
                        obs::phase::kFft,         obs::phase::kMpi,
                        obs::phase::kGemm,        obs::phase::kDiag};
  std::vector<double> values;
  for (const char* key : keys) values.push_back(phase_seconds.total(key));
  values.push_back(stats.wall_seconds);
  values.push_back(stats.comm_seconds);
  values.push_back(stats.busy_seconds);
  comm.allreduce(values.data(), static_cast<Index>(values.size()),
                 par::ReduceOp::kMax);
  std::size_t idx = 0;
  for (const char* key : keys) {
    stats.phases.emplace_back(key, values[idx++]);
  }
  stats.wall_seconds = values[idx++];
  stats.comm_seconds = values[idx++];
  stats.busy_seconds = values[idx++];
  return stats;
}

}  // namespace lrt::tddft
