// Tests for the common utilities: error macros, RNG, CLI, tables, timers,
// and the span-fed phase clock (obs::PhaseAccumulator, obs::PhaseScope).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "par/runtime.hpp"

namespace lrt {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    LRT_CHECK(1 == 2, "expected " << 1 << " got " << 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("expected 1 got 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(LRT_CHECK(2 + 2 == 4));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Real u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedCoverage) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  const int n = 20000;
  Real sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const Real x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Cli, ParsesValuesAndDefaults) {
  CliParser cli("test");
  cli.add("n", "4", "count").add("x", "1.5", "value").add("y", "3", "value");
  const char* argv[] = {"prog", "--n", "7", "--x=2.25"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_index("n"), 7);
  EXPECT_DOUBLE_EQ(cli.get_real("x"), 2.25);
  EXPECT_EQ(cli.get_index("y"), 3);
}

TEST(Cli, OptionWithoutValueThrowsNamingIt) {
  // A registered name without a value, and an unknown name without one:
  // the name is looked up before a value is consumed.
  const struct {
    const char* option;
    const char* message;
  } cases[] = {{"--n", "option --n expects a value"},
               {"--bogus", "unknown option --bogus"}};
  for (const auto& c : cases) {
    CliParser cli("test");
    cli.add("n", "4", "count");
    const char* argv[] = {"prog", c.option};
    try {
      cli.parse(2, argv);
      FAIL() << "parse accepted " << c.option << " without a value";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("test");
  cli.add("n", "4", "count");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, RejectsMalformedNumbers) {
  // The default's form types the option, so parse() itself rejects a
  // value of the wrong type, naming the option and the value.
  const struct {
    const char* value;
    const char* message;
  } cases[] = {{"--n=4x", "option --n: '4x' is not an integer"},
               {"--n=1.5", "option --n: '1.5' is not an integer"},
               {"--n=", "option --n: '' is not an integer"},
               {"--x=abc", "option --x: 'abc' is not a number"}};
  for (const auto& c : cases) {
    CliParser cli("test");
    cli.add("n", "4", "count").add("x", "1.5", "value").add("s", "a", "text");
    const char* argv[] = {"prog", c.value, "--s=7"};
    try {
      cli.parse(3, argv);
      FAIL() << "parse accepted " << c.value;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
  // A number option takes an integer, and a text option anything.
  CliParser cli("test");
  cli.add("x", "1.5", "value").add("s", "a", "text");
  const char* argv[] = {"prog", "--x", "2", "--s", "3.5"};
  cli.parse(5, argv);
  EXPECT_DOUBLE_EQ(cli.get_real("x"), 2.0);
  EXPECT_EQ(cli.get("s"), "3.5");
}

TEST(Cli, ParseMainReturnsTwoOnMalformedNumber) {
  CliParser cli("test");
  cli.add("grid", "12", "grid points per axis");
  const char* argv[] = {"prog", "--grid", "abc"};
  testing::internal::CaptureStderr();
  const std::optional<int> status = cli.parse_main(3, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, std::optional<int>(2));
  EXPECT_NE(err.find("option --grid: 'abc' is not an integer"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("--grid (default: 12)"), std::string::npos) << err;
}

TEST(Table, AlignsAndCounts) {
  Table t("demo", {"a", "bb"});
  t.row().cell("x").cell(1.5, 2);
  t.row().cell("longer").cell(Index{42});
  EXPECT_EQ(t.num_rows(), 2);
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t("csv", {"x", "y"});
  t.row().cell(Index{1}).cell(Index{2});
  const std::string path = testing::TempDir() + "/lrt_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# csv");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(PhaseAccumulator, AccumulatesNamedPhases) {
  obs::PhaseAccumulator p;
  p.add("fft", 1.0);
  p.add("gemm", 2.0);
  p.add("fft", 0.5);
  EXPECT_DOUBLE_EQ(p.total("fft"), 1.5);
  EXPECT_DOUBLE_EQ(p.total("gemm"), 2.0);
  EXPECT_DOUBLE_EQ(p.total("missing"), 0.0);
  EXPECT_DOUBLE_EQ(p.grand_total(), 3.5);
  const auto phases = p.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0], "fft");  // insertion order preserved
}

TEST(PhaseAccumulator, PhaseScopeAddsSpanTime) {
  obs::PhaseAccumulator p;
  {
    const obs::PhaseScope scope(p);
    const obs::Span span("work");
  }
  EXPECT_GE(p.total("work"), 0.0);
  EXPECT_EQ(p.phases().size(), 1u);
}

/// Sets tracing for one test and clears the trace on entry and exit.
class TracingFixture {
 public:
  explicit TracingFixture(bool enable) : saved_(obs::tracing_enabled()) {
    obs::set_tracing_enabled(enable);
    obs::reset_trace();
  }
  ~TracingFixture() {
    obs::reset_trace();
    obs::set_tracing_enabled(saved_);
  }

 private:
  bool saved_;
};

/// True when `phases` holds exactly `names`, in insertion order.
bool phases_are(const obs::PhaseAccumulator& phases,
                std::initializer_list<const char*> names) {
  const std::vector<std::string> got = phases.phases();
  if (got.size() != names.size()) return false;
  std::size_t i = 0;
  for (const char* name : names) {
    if (got[i++] != name) return false;
  }
  return true;
}

/// Keeps a span open for at least ~50 µs of wall time.
void busy_span(const char* name) {
  const obs::Span span(name);
  const Timer t;
  while (t.seconds() < 50e-6) {
  }
}

TEST(ObsPhaseScope, SpansFeedTheAccumulatorTracedOrNot) {
  {
    TracingFixture tracing(false);
    obs::PhaseAccumulator phases;
    {
      const obs::PhaseScope scope(phases);
      busy_span("scope_phase");
      busy_span("scope_phase");
    }
    EXPECT_GE(phases.total("scope_phase"), 100e-6);
    EXPECT_EQ(obs::span_count(), 0u);  // counted, not traced
  }
  {
    TracingFixture tracing(true);
    obs::PhaseAccumulator phases;
    {
      const obs::PhaseScope scope(phases);
      const obs::Span outer("scope_outer");
      busy_span("scope_phase");
    }
    busy_span("scope_phase");  // after the scope: traced, not counted
    ASSERT_TRUE(phases_are(phases, {"scope_phase", "scope_outer"}));
    // The accumulator holds exactly the traced durations of the spans
    // closed inside the scope; nested spans each add their own.
    const auto spans = obs::detail::snapshot_spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "scope_phase");
    EXPECT_EQ(spans[1].name, "scope_outer");
    EXPECT_DOUBLE_EQ(phases.total("scope_phase"),
                     1e-9 * static_cast<double>(spans[0].end_ns -
                                                spans[0].start_ns));
    EXPECT_DOUBLE_EQ(phases.total("scope_outer"),
                     1e-9 * static_cast<double>(spans[1].end_ns -
                                                spans[1].start_ns));
    EXPECT_GE(phases.total("scope_outer"), phases.total("scope_phase"));
  }
}

TEST(ObsPhaseScope, NestedScopeRestoresTheOuterOne) {
  TracingFixture tracing(false);
  obs::PhaseAccumulator outer;
  obs::PhaseAccumulator inner;
  {
    const obs::PhaseScope outer_scope(outer);
    busy_span("scope_a");
    {
      const obs::PhaseScope inner_scope(inner);
      busy_span("scope_b");
    }
    busy_span("scope_c");
  }
  busy_span("scope_d");
  EXPECT_TRUE(phases_are(outer, {"scope_a", "scope_c"}));
  EXPECT_TRUE(phases_are(inner, {"scope_b"}));
  EXPECT_GT(outer.total("scope_a"), 0.0);
  EXPECT_GT(outer.total("scope_c"), 0.0);
  EXPECT_GT(inner.total("scope_b"), 0.0);
}

TEST(ObsPhaseScope, SpansOnOtherThreadsAreNotCounted) {
  TracingFixture tracing(false);
  obs::PhaseAccumulator phases;
  std::vector<obs::PhaseAccumulator> per_rank(2);
  {
    const obs::PhaseScope scope(phases);
    par::run(2, [&](par::Comm& comm) {
      busy_span("scope_elsewhere");  // no scope on this thread yet
      const obs::PhaseScope own(
          per_rank[static_cast<std::size_t>(comm.rank())]);
      busy_span("scope_worker");
    });
    busy_span("scope_here");
  }
  EXPECT_TRUE(phases_are(phases, {"scope_here"}));
  for (const obs::PhaseAccumulator& rank_phases : per_rank) {
    EXPECT_TRUE(phases_are(rank_phases, {"scope_worker"}));
  }
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace lrt
