// End-to-end driver: the five Table-4 versions must agree on excitation
// energies within the low-rank approximation error; memory estimates and
// profiler phases must behave as documented.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "tddft/driver.hpp"

namespace lrt::tddft {
namespace {

CasidaProblem make_test_problem() {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(8.0), {10, 10, 10});
  dft::SyntheticOptions opts;
  opts.num_centers = 8;
  opts.seed = 21;
  return make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, 5, 4, opts));
}

/// The process's thread count from /proc/self/status, or -1 where that
/// file does not exist.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

class VersionSweep : public ::testing::TestWithParam<Version> {};

TEST_P(VersionSweep, AgreesWithNaiveReference) {
  const CasidaProblem p = make_test_problem();

  DriverOptions naive;
  naive.version = Version::kNaive;
  naive.num_states = 3;
  const DriverResult reference = solve_casida(p, naive);

  DriverOptions opts;
  opts.version = GetParam();
  opts.num_states = 3;
  opts.nmu = 18;  // comfortably above the numerical pair rank
  opts.eigen.tolerance = 1e-9;
  const DriverResult result = solve_casida(p, opts);

  ASSERT_EQ(result.energies.size(), 3u);
  for (Index j = 0; j < 3; ++j) {
    // Low-rank approximation error budget: relative 2e-2.
    EXPECT_NEAR(result.energies[static_cast<std::size_t>(j)],
                reference.energies[static_cast<std::size_t>(j)],
                2e-2 * std::abs(reference.energies[static_cast<std::size_t>(j)]))
        << version_name(GetParam()) << " state " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, VersionSweep,
                         ::testing::Values(Version::kNaive,
                                           Version::kQrcpIsdf,
                                           Version::kKmeansIsdf,
                                           Version::kKmeansIsdfLobpcg,
                                           Version::kImplicit),
                         [](const auto& info) {
                           std::string n = version_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Driver, MemoryEstimateShrinksForImplicit) {
  const CasidaProblem p = make_test_problem();
  DriverOptions naive;
  naive.version = Version::kNaive;
  const DriverResult r_naive = solve_casida(p, naive);
  DriverOptions imp;
  imp.version = Version::kImplicit;
  imp.nmu = 18;
  const DriverResult r_imp = solve_casida(p, imp);
  EXPECT_LT(r_imp.memory_bytes_estimate, r_naive.memory_bytes_estimate);
  EXPECT_EQ(r_imp.nmu_used, 18);
  EXPECT_GT(r_imp.eigen_iterations, 0);
  EXPECT_EQ(r_naive.eigen_iterations, 0);
}

TEST(Driver, NmuRatioDerivesPointCount) {
  const CasidaProblem p = make_test_problem();
  DriverOptions opts;
  opts.version = Version::kImplicit;
  opts.nmu = 0;
  opts.nmu_ratio = 2.0;  // 2 * (5 + 4) = 18, capped by Ncv = 20
  const DriverResult r = solve_casida(p, opts);
  EXPECT_EQ(r.nmu_used, 18);
}

TEST(Driver, ProfilerPhasesPresentPerVersion) {
  // kNaive and kImplicit bill the six Fig-8 phases of the one-rank
  // pipeline; only the ablation versions bill the isdf.* spans.
  const CasidaProblem p = make_test_problem();
  const std::vector<std::string> fig8 = {"pair_product", "kmeans", "fft",
                                         "mpi",          "gemm",   "diag"};
  DriverOptions naive;
  naive.version = Version::kNaive;
  const DriverResult r1 = solve_casida(p, naive);
  EXPECT_EQ(r1.profiler.phases(), fig8);
  EXPECT_GT(r1.profiler.total("pair_product"), 0.0);
  EXPECT_GT(r1.profiler.total("fft"), 0.0);
  EXPECT_GT(r1.profiler.total("diag"), 0.0);
  EXPECT_DOUBLE_EQ(r1.profiler.total("kmeans"), 0.0);

  DriverOptions imp;
  imp.version = Version::kImplicit;
  imp.nmu = 16;
  const DriverResult r2 = solve_casida(p, imp);
  EXPECT_EQ(r2.profiler.phases(), fig8);
  for (const char* phase : {"kmeans", "fft", "gemm", "diag"}) {
    EXPECT_GT(r2.profiler.total(phase), 0.0) << phase;
  }
  EXPECT_DOUBLE_EQ(r2.profiler.total("pair_product"), 0.0);
  EXPECT_DOUBLE_EQ(r2.profiler.total("isdf.select_points"), 0.0);
  EXPECT_GT(r2.seconds_total, 0.0);

  DriverOptions ablation;
  ablation.version = Version::kKmeansIsdf;
  ablation.nmu = 16;
  const DriverResult r3 = solve_casida(p, ablation);
  EXPECT_GT(r3.profiler.total("isdf.select_points"), 0.0);
  EXPECT_GT(r3.profiler.total("isdf.interp_vectors"), 0.0);
  EXPECT_GT(r3.profiler.total("diag"), 0.0);
}

TEST(Driver, ProfilerPhasesAreTheCallingThreadsSpans) {
  // The profiler is filled from spans: par::run(1) runs the pipeline
  // inline, so with tracing on every Fig-8 phase the solve bills is a
  // traced span on the calling thread (tagged rank 0), and the profiler
  // holds exactly their summed duration.
  const CasidaProblem p = make_test_problem();
  const bool was_enabled = obs::tracing_enabled();
  for (const Version version : {Version::kImplicit, Version::kNaive}) {
    DriverOptions opts;
    opts.version = version;
    opts.nmu = 16;
    std::vector<std::string> phases = {"fft", "mpi", "gemm", "diag"};
    phases.push_back(version == Version::kNaive ? "pair_product" : "kmeans");

    obs::set_tracing_enabled(true);
    obs::reset_trace();
    const DriverResult traced = solve_casida(p, opts);
    std::map<std::string, long long> span_ns;
    std::map<std::string, int> span_count;
    for (const auto& span : obs::detail::snapshot_spans()) {
      if (span.rank != 0) continue;
      span_ns[span.name] += span.end_ns - span.start_ns;
      ++span_count[span.name];
    }
    for (const std::string& phase : phases) {
      EXPECT_GT(span_count[phase], 0) << version_name(version) << " " << phase;
      EXPECT_NEAR(traced.profiler.total(phase),
                  1e-9 * static_cast<double>(span_ns[phase]), 1e-6)
          << version_name(version) << " " << phase;
    }

    obs::set_tracing_enabled(false);
    obs::reset_trace();
    const DriverResult untraced = solve_casida(p, opts);
    EXPECT_EQ(obs::span_count(), 0u);
    for (const std::string& phase : phases) {
      EXPECT_GT(untraced.profiler.total(phase), 0.0)
          << version_name(version) << " " << phase;
    }
  }
  obs::set_tracing_enabled(was_enabled);
}

TEST(Driver, RpaKernelOptionLowersCoupling) {
  // Dropping fxc changes the energies (sanity that the flag is honored).
  const CasidaProblem p = make_test_problem();
  DriverOptions with_xc;
  with_xc.version = Version::kNaive;
  DriverOptions rpa = with_xc;
  rpa.include_xc = false;
  const DriverResult a = solve_casida(p, with_xc);
  const DriverResult b = solve_casida(p, rpa);
  EXPECT_NE(a.energies[0], b.energies[0]);
}

/// The serial ISDF pieces of the implicit version: k-means++ points, Θ,
/// M, the factored H, and a kernel for the naive build.
struct SerialPieces {
  explicit SerialPieces(const CasidaProblem& p, Index nmu)
      : gvectors(p.grid), kernel(p.grid, gvectors, p.ground_density) {
    isdf::IsdfOptions opts;
    opts.nmu = nmu;
    dec = isdf::isdf_decompose(p.grid, p.psi_v.view(), p.psi_c.view(), opts);
  }
  ImplicitHamiltonian hamiltonian(const CasidaProblem& p) const {
    return make_implicit_hamiltonian(energy_differences(p), dec,
                                     build_kernel_projection(dec, kernel));
  }
  grid::GVectors gvectors;
  HxcKernel kernel;
  isdf::IsdfResult dec;
};

TEST(Driver, DavidsonEigenMethodMatchesLobpcg) {
  const CasidaProblem p = make_test_problem();
  const SerialPieces pieces(p, 18);
  const ImplicitHamiltonian h = pieces.hamiltonian(p);
  TddftEigenOptions eig;
  eig.num_states = 3;
  const la::LobpcgResult a = solve_casida_lobpcg(h, eig);
  const la::DavidsonResult b = solve_casida_davidson(h, eig);
  for (Index j = 0; j < 3; ++j) {
    EXPECT_NEAR(a.eigenvalues[static_cast<std::size_t>(j)],
                b.eigenvalues[static_cast<std::size_t>(j)], 1e-6);
  }
  EXPECT_GT(b.iterations, 0);
}

TEST(Driver, ImplicitIsTheSerialIsdfLobpcgComposition) {
  // kImplicit runs the distributed pipeline on one rank; it must equal the
  // serial composition bit for bit: k-means++ points, Θ, M, the factored
  // H and the guarded LOBPCG.
  const CasidaProblem p = make_test_problem();
  const SerialPieces pieces(p, 16);
  TddftEigenOptions eig;
  eig.num_states = 3;
  const la::LobpcgResult reference =
      solve_casida_lobpcg(pieces.hamiltonian(p), eig);

  DriverOptions opts;
  opts.version = Version::kImplicit;
  opts.num_states = 3;
  opts.nmu = 16;
  const DriverResult r = solve_casida(p, opts);
  EXPECT_EQ(r.energies, reference.eigenvalues);
  EXPECT_EQ(r.eigen_iterations, reference.iterations);
  ASSERT_EQ(r.wavefunctions.rows(), p.ncv());
  ASSERT_EQ(r.wavefunctions.cols(), 3);
  for (Index i = 0; i < p.ncv(); ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(r.wavefunctions(i, j), reference.eigenvectors(i, j))
          << i << "," << j;
    }
  }
}

TEST(Driver, SerialSolveLeavesNoThreadsBehind) {
  // Ranks are the only parallelism: a serial solve runs its one rank and
  // joins it, and no kernel keeps a thread pool alive after it returns.
  const CasidaProblem p = make_test_problem();
  DriverOptions opts;
  opts.version = Version::kImplicit;
  opts.num_states = 3;
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  const DriverResult r = solve_casida(p, opts);
  EXPECT_EQ(r.energies.size(), 3u);
  EXPECT_EQ(process_threads(), before);
}

TEST(Driver, NaiveIsTheExplicitHamiltonianAndDenseSolve) {
  const CasidaProblem p = make_test_problem();
  const SerialPieces pieces(p, 1);
  const CasidaSolution reference = diagonalize_dense(
      build_hamiltonian_naive(p, pieces.kernel), 3);

  DriverOptions opts;
  opts.version = Version::kNaive;
  opts.num_states = 3;
  const DriverResult r = solve_casida(p, opts);
  EXPECT_EQ(r.energies, reference.energies);
  ASSERT_EQ(r.wavefunctions.rows(), p.ncv());
  ASSERT_EQ(r.wavefunctions.cols(), 3);
  for (Index j = 0; j < 3; ++j) {
    Real overlap = 0;
    for (Index i = 0; i < p.ncv(); ++i) {
      overlap += r.wavefunctions(i, j) * reference.wavefunctions(i, j);
    }
    const Real sign = overlap < 0 ? Real{-1} : Real{1};
    for (Index i = 0; i < p.ncv(); ++i) {
      EXPECT_EQ(r.wavefunctions(i, j), sign * reference.wavefunctions(i, j))
          << i << "," << j;
    }
  }
}

TEST(Driver, VersionNames) {
  EXPECT_STREQ(version_name(Version::kNaive), "Naive");
  EXPECT_STREQ(version_name(Version::kImplicit),
               "Implicit-Kmeans-ISDF-LOBPCG");
}

TEST(Driver, InvalidStateCountThrows) {
  const CasidaProblem p = make_test_problem();
  DriverOptions opts;
  opts.num_states = p.ncv() + 1;
  EXPECT_THROW(solve_casida(p, opts), Error);
}

}  // namespace
}  // namespace lrt::tddft
