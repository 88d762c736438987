// Distributed LR-TDDFT driver vs the serial driver, across rank counts
// and both Vhxc assembly strategies.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/obs.hpp"
#include "tddft/dist_driver.hpp"

namespace lrt::tddft {
namespace {

CasidaProblem make_test_problem() {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(7.0), {8, 8, 8});
  dft::SyntheticOptions opts;
  opts.num_centers = 8;
  opts.seed = 33;
  return make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, 4, 3, opts));
}

class DistDriverSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistDriverSweep, NaiveMatchesSerialNaive) {
  const int p = GetParam();
  const CasidaProblem problem = make_test_problem();

  DriverOptions serial;
  serial.version = Version::kNaive;
  serial.num_states = 3;
  const DriverResult reference = solve_casida(problem, serial);

  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kNaive;
    opts.num_states = 3;
    const DistDriverStats stats =
        solve_casida_distributed(comm, problem, opts);
    ASSERT_EQ(stats.energies.size(), 3u);
    for (Index j = 0; j < 3; ++j) {
      EXPECT_NEAR(stats.energies[static_cast<std::size_t>(j)],
                  reference.energies[static_cast<std::size_t>(j)], 1e-8)
          << "p=" << comm.size() << " state " << j;
    }
  });
}

TEST_P(DistDriverSweep, ImplicitMatchesSerialImplicitEnergies) {
  const int p = GetParam();
  const CasidaProblem problem = make_test_problem();

  // Reference: serial naive — the implicit path approximates it within
  // the ISDF budget, which is what we assert.
  DriverOptions serial;
  serial.version = Version::kNaive;
  serial.num_states = 2;
  const DriverResult reference = solve_casida(problem, serial);

  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kImplicit;
    opts.num_states = 2;
    opts.nmu = 12;  // == Ncv -> near-exact ISDF
    const DistDriverStats stats =
        solve_casida_distributed(comm, problem, opts);
    for (Index j = 0; j < 2; ++j) {
      EXPECT_NEAR(stats.energies[static_cast<std::size_t>(j)],
                  reference.energies[static_cast<std::size_t>(j)],
                  3e-2 * std::abs(reference.energies[static_cast<std::size_t>(j)]))
          << "p=" << comm.size();
    }
  });
}

TEST_P(DistDriverSweep, RankCountDoesNotChangeNaiveResult) {
  // Determinism across p: the naive path is exact, so energies must agree
  // between 1 rank and p ranks to roundoff.
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const CasidaProblem problem = make_test_problem();

  std::vector<Real> e1;
  par::run(1, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kNaive;
    opts.num_states = 2;
    e1 = solve_casida_distributed(comm, problem, opts).energies;
  });
  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kNaive;
    opts.num_states = 2;
    const auto ep = solve_casida_distributed(comm, problem, opts).energies;
    for (std::size_t j = 0; j < e1.size(); ++j) {
      EXPECT_NEAR(ep[j], e1[j], 1e-9);
    }
  });
}

TEST_P(DistDriverSweep, PipelinedReduceGivesSameEnergies) {
  const int p = GetParam();
  const CasidaProblem problem = make_test_problem();
  std::vector<Real> mono, piped;
  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kNaive;
    opts.num_states = 2;
    // Every rank computes the same energies; only rank 0 writes the
    // shared capture so the rank threads do not race on it.
    auto e = solve_casida_distributed(comm, problem, opts).energies;
    if (comm.rank() == 0) mono = std::move(e);
  });
  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kNaive;
    opts.num_states = 2;
    opts.pipeline_chunk = 3;
    auto e = solve_casida_distributed(comm, problem, opts).energies;
    if (comm.rank() == 0) piped = std::move(e);
  });
  for (std::size_t j = 0; j < mono.size(); ++j) {
    EXPECT_NEAR(mono[j], piped[j], 1e-9);
  }
}

TEST_P(DistDriverSweep, StatsAreCoherent) {
  const int p = GetParam();
  const CasidaProblem problem = make_test_problem();
  par::run(p, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kImplicit;
    opts.num_states = 2;
    opts.nmu = 10;
    const DistDriverStats stats =
        solve_casida_distributed(comm, problem, opts);
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GE(stats.comm_seconds, 0.0);
    EXPECT_GT(stats.busy_seconds, 0.0);
    EXPECT_LE(stats.busy_seconds, stats.wall_seconds + 1e-9);
    // Phase map contains the Figure-8 categories.
    bool has_kmeans = false, has_fft = false, has_mpi = false;
    for (const auto& [name, seconds] : stats.phases) {
      if (name == "kmeans" && seconds > 0) has_kmeans = true;
      if (name == "fft" && seconds > 0) has_fft = true;
      if (name == "mpi" && seconds >= 0) has_mpi = true;
    }
    EXPECT_TRUE(has_kmeans);
    EXPECT_TRUE(has_fft);
    EXPECT_TRUE(has_mpi);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistDriverSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(DistDriverObs, Fig8PhaseSpansPerRank) {
  // Every Figure-8 phase must record at least one span on every rank
  // thread, so traces explain where each rank's time went.
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::reset_trace();
  const CasidaProblem problem = make_test_problem();
  constexpr int kRanks = 4;
  par::run(kRanks, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kImplicit;
    opts.num_states = 2;
    opts.nmu = 12;
    solve_casida_distributed(comm, problem, opts);
  });
  const auto stats = obs::aggregate_phases();
  for (const char* phase : {"kmeans", "fft", "mpi", "gemm", "diag"}) {
    const obs::PhaseStats* found = nullptr;
    for (const auto& s : stats) {
      if (s.name == phase) found = &s;
    }
    ASSERT_NE(found, nullptr) << "missing phase " << phase;
    EXPECT_GE(found->ranks, kRanks) << phase;
    EXPECT_GE(found->count, kRanks) << phase;
  }
  if (!was_enabled) {
    obs::reset_trace();
    obs::set_tracing_enabled(false);
  }
}

TEST(DistDriverObs, PhasesAreWallSecondsFromSpans) {
  // DistDriverStats::phases is the max over ranks of each phase's traced
  // span seconds — wall, not CPU — so a stats table and a trace agree.
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::reset_trace();
  const CasidaProblem problem = make_test_problem();
  DistDriverStats stats;
  par::run(4, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kImplicit;
    opts.num_states = 2;
    opts.nmu = 12;
    DistDriverStats mine = solve_casida_distributed(comm, problem, opts);
    if (comm.rank() == 0) stats = std::move(mine);
  });
  const auto traced = obs::aggregate_phases();
  ASSERT_EQ(stats.phases.size(), 6u);
  for (const auto& [name, seconds] : stats.phases) {
    double max_rank_seconds = 0.0;
    for (const obs::PhaseStats& s : traced) {
      if (s.name == name) max_rank_seconds = s.max_rank_seconds;
    }
    if (name != "pair_product") {
      EXPECT_GT(max_rank_seconds, 0.0) << name;
    }
    EXPECT_NEAR(seconds, max_rank_seconds, 1e-6) << name;
  }
  obs::reset_trace();
  obs::set_tracing_enabled(was_enabled);
}

TEST(DistDriver, RejectsUnsupportedVersion) {
  const CasidaProblem problem = make_test_problem();
  par::run(1, [&](par::Comm& comm) {
    DriverOptions opts;
    opts.version = Version::kKmeansIsdf;
    EXPECT_THROW(solve_casida_distributed(comm, problem, opts), Error);
  });
}

TEST(DistDriver, BothDriversRejectDerivedNmuBelowOne) {
  // nmu = 0 derives Nμ from nmu_ratio; a zero ratio leaves no point to
  // cluster, and both drivers must refuse rather than run K-Means on 0
  // clusters.
  const CasidaProblem problem = make_test_problem();
  DriverOptions serial;
  serial.version = Version::kImplicit;
  serial.nmu_ratio = 0.0;
  EXPECT_THROW(solve_casida(problem, serial), Error);

  DriverOptions dist;
  dist.version = Version::kImplicit;
  dist.nmu_ratio = 0.0;
  EXPECT_THROW(par::run(2,
                        [&](par::Comm& comm) {
                          solve_casida_distributed(comm, problem, dist);
                        }),
               Error);
}

}  // namespace
}  // namespace lrt::tddft
