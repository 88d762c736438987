// End-to-end driver: the five Table-4 versions must agree on excitation
// energies within the low-rank approximation error; memory estimates and
// profiler phases must behave as documented.
#include <gtest/gtest.h>

#include <cmath>
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
  const CasidaProblem p = make_test_problem();
  DriverOptions naive;
  naive.version = Version::kNaive;
  const DriverResult r1 = solve_casida(p, naive);
  EXPECT_GT(r1.profiler.total("pair_product"), 0.0);
  EXPECT_GT(r1.profiler.total("diag"), 0.0);
  EXPECT_DOUBLE_EQ(r1.profiler.total("isdf.select_points"), 0.0);

  DriverOptions imp;
  imp.version = Version::kImplicit;
  imp.nmu = 16;
  const DriverResult r2 = solve_casida(p, imp);
  EXPECT_GT(r2.profiler.total("isdf.select_points"), 0.0);
  EXPECT_GT(r2.profiler.total("isdf.interp_vectors"), 0.0);
  EXPECT_GT(r2.profiler.total("fft"), 0.0);
  EXPECT_DOUBLE_EQ(r2.profiler.total("pair_product"), 0.0);
  EXPECT_GT(r2.seconds_total, 0.0);
}

TEST(Driver, ProfilerPhasesAreTheCallingThreadsSpans) {
  // The profiler is filled from spans: with tracing on, every Fig-8
  // phase the serial solve bills is a traced span on the calling thread
  // (rank -1), and the profiler holds exactly their summed duration.
  const CasidaProblem p = make_test_problem();
  const bool was_enabled = obs::tracing_enabled();
  for (const Version version : {Version::kImplicit, Version::kNaive}) {
    DriverOptions opts;
    opts.version = version;
    opts.nmu = 16;
    std::vector<std::string> phases = {"fft", "gemm", "diag"};
    if (version == Version::kNaive) phases.push_back("pair_product");

    obs::set_tracing_enabled(true);
    obs::reset_trace();
    const DriverResult traced = solve_casida(p, opts);
    std::map<std::string, long long> span_ns;
    std::map<std::string, int> span_count;
    for (const auto& span : obs::detail::snapshot_spans()) {
      if (span.rank != -1) continue;
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

TEST(Driver, DavidsonEigenMethodMatchesLobpcg) {
  const CasidaProblem p = make_test_problem();
  DriverOptions lobpcg;
  lobpcg.version = Version::kImplicit;
  lobpcg.num_states = 3;
  lobpcg.nmu = 18;
  DriverOptions davidson = lobpcg;
  davidson.eigen.method = EigenMethod::kDavidson;
  const DriverResult a = solve_casida(p, lobpcg);
  const DriverResult b = solve_casida(p, davidson);
  for (Index j = 0; j < 3; ++j) {
    EXPECT_NEAR(a.energies[static_cast<std::size_t>(j)],
                b.energies[static_cast<std::size_t>(j)], 1e-6);
  }
  EXPECT_GT(b.eigen_iterations, 0);
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
