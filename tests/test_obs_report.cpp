// Critical-path extraction, work/wait decomposition, and the
// lrt.report/1 report + regression-gate library (docs/OBSERVABILITY.md
// §6).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ft/fault.hpp"
#include "obs/counters.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/comm.hpp"
#include "par/runtime.hpp"
#include "tddft/dist_driver.hpp"

namespace lrt {
namespace {

/// Saves the tracing flag, forces a known state, restores on exit; also
/// clears recorded spans so tests see only their own.
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

constexpr long long kMs = 1000000;  // ns per millisecond

const obs::CriticalPhase* find_phase(const obs::CriticalPathReport& report,
                                     const std::string& name) {
  for (const obs::CriticalPhase& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const obs::PhaseWorkWait* find_phase(
    const std::vector<obs::PhaseWorkWait>& phases, const std::string& name) {
  for (const obs::PhaseWorkWait& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// ----- critical path on a hand-built trace ---------------------------------

/// Three ranks chained by two messages:
///   rank 0: "a" [0, 100ms], sends at 100ms
///   rank 1: "b" [10, 250ms], blocked on rank 0 from 10ms, sends at 250ms
///   rank 2: "c" [50, 400ms], blocked on rank 1 from 50ms
/// The critical path is a -> msg -> b -> msg -> c and tiles [0, 400ms].
obs::Trace three_rank_chain() {
  obs::Trace trace;
  trace.spans = {{"a", 0, 0, 0, 100 * kMs},
                 {"b", 0, 1, 10 * kMs, 250 * kMs},
                 {"c", 0, 2, 50 * kMs, 400 * kMs}};
  trace.flows = {{0, 0, 1, 100 * kMs, 10 * kMs, 101 * kMs},
                 {0, 1, 2, 250 * kMs, 50 * kMs, 251 * kMs}};
  return trace;
}

TEST(CriticalPath, HandBuiltChainFollowsBothMessageEdges) {
  const obs::CriticalPathReport report =
      obs::critical_path(three_rank_chain());

  EXPECT_EQ(report.hops, 2);
  EXPECT_NEAR(report.total_seconds, 0.400, 1e-9);
  // Exact by construction: the segments tile [first start, last end].
  EXPECT_NEAR(report.attributed_seconds, report.total_seconds, 1e-9);

  const obs::CriticalPhase* a = find_phase(report, "a");
  const obs::CriticalPhase* b = find_phase(report, "b");
  const obs::CriticalPhase* c = find_phase(report, "c");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NEAR(a->work_seconds + a->wait_seconds, 0.100, 1e-6);
  EXPECT_NEAR(b->work_seconds + b->wait_seconds, 0.150, 1e-6);
  EXPECT_NEAR(c->work_seconds + c->wait_seconds, 0.150, 1e-6);
  // The 1 ms receive tails after each send are wait, the rest is work.
  EXPECT_NEAR(b->wait_seconds, 0.001, 1e-6);
  EXPECT_NEAR(c->wait_seconds, 0.001, 1e-6);
  // Phases are sorted by share, descending.
  for (std::size_t i = 1; i < report.phases.size(); ++i) {
    EXPECT_GE(report.phases[i - 1].share_pct, report.phases[i].share_pct);
  }
}

TEST(CriticalPath, EmptyTraceYieldsZeroReport) {
  const obs::CriticalPathReport report = obs::critical_path(obs::Trace{});
  EXPECT_EQ(report.hops, 0);
  EXPECT_EQ(report.total_seconds, 0.0);
  EXPECT_TRUE(report.segments.empty());
}

// ----- critical path on the real Fig-8 smoke workload ----------------------

tddft::CasidaProblem make_fig8_problem() {
  const grid::RealSpaceGrid g(grid::UnitCell::cubic(7.0), {8, 8, 8});
  dft::SyntheticOptions opts;
  opts.num_centers = 8;
  opts.seed = 33;
  return tddft::make_problem_from_synthetic(
      g, dft::make_synthetic_orbitals(g, 4, 3, opts));
}

TEST(CriticalPath, Fig8SmokeAttributionMatchesWallTimeWithinOnePercent) {
  TracingFixture tracing(true);
  const tddft::CasidaProblem problem = make_fig8_problem();
  par::run(8, [&](par::Comm& comm) {
    tddft::DriverOptions opts;
    opts.version = tddft::Version::kImplicit;
    opts.num_states = 2;
    opts.nmu = 12;
    tddft::solve_casida_distributed(comm, problem, opts);
  });

  const obs::CriticalPathReport report = obs::critical_path();
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_NEAR(report.attributed_seconds, report.total_seconds,
              0.01 * report.total_seconds);
  double phase_sum = 0.0;
  for (const obs::CriticalPhase& p : report.phases) {
    phase_sum += p.work_seconds + p.wait_seconds;
  }
  EXPECT_NEAR(phase_sum, report.total_seconds, 0.01 * report.total_seconds);

  // The Fig-8 driver records the peak-memory gauge at phase boundaries.
  EXPECT_GT(obs::counter("mem.hwm.bytes").value(), 0);
}

// ----- work/wait decomposition ---------------------------------------------

TEST(WorkWait, StragglerShowsUpAsBarrierWait) {
  TracingFixture tracing(true);
  par::run(4, [](par::Comm& comm) {
    if (comm.rank() == 0) ft::spin_wait_us(30000);
    comm.barrier();
  });

  const std::vector<obs::PhaseWorkWait> phases =
      obs::work_wait_by_phase(obs::snapshot_trace());
  const obs::PhaseWorkWait* barrier = find_phase(phases, "barrier");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->ranks, 4);
  // Three on-time ranks each blocked ~30 ms for the straggler; allow
  // generous slack for scheduling noise.
  EXPECT_GT(barrier->wait_seconds, 0.020);
  // The straggler's 30 ms burn is outside the barrier, so the busiest
  // rank's barrier time dwarfs the mean -> imbalance well above 1.
  EXPECT_GE(barrier->imbalance, 1.0);
}

TEST(WorkWait, InjectedDelaysCountAsCollectiveWait) {
  TracingFixture tracing(true);
  obs::counter("ft.inject.delay").reset();
  ft::FaultSpec faults;
  faults.seed = 11;
  faults.delay_prob = 0.5;
  faults.delay_us = 5000;
  par::run(4, [](par::Comm& comm) {
    for (int i = 0; i < 4; ++i) comm.barrier();
  }, par::check::Options{}, faults);

  EXPECT_GT(obs::counter("ft.inject.delay").value(), 0);
  const std::vector<obs::PhaseWorkWait> phases =
      obs::work_wait_by_phase(obs::snapshot_trace());
  const obs::PhaseWorkWait* barrier = find_phase(phases, "barrier");
  ASSERT_NE(barrier, nullptr);
  // The injected pre-rendezvous delays make some ranks late, so the
  // on-time ranks accumulate barrier wait.
  EXPECT_GT(barrier->wait_seconds, 0.001);
}

// ----- chrome JSON round trip ----------------------------------------------

TEST(CriticalPath, ChromeJsonRoundTripPreservesTheAnalysis) {
  TracingFixture tracing(true);
  par::run(4, [](par::Comm& comm) {
    std::vector<double> x(64, static_cast<double>(comm.rank()));
    comm.allreduce(x.data(), static_cast<Index>(x.size()), par::ReduceOp::kSum);
    if (comm.rank() == 0) {
      comm.send(x.data(), 8, /*dst=*/1, /*tag=*/7);
    } else if (comm.rank() == 1) {
      comm.recv(x.data(), 8, /*src=*/0, /*tag=*/7);
    }
    comm.barrier();
  });

  const obs::Trace direct = obs::snapshot_trace();
  const obs::CriticalPathReport from_memory = obs::critical_path(direct);

  const std::string path = ::testing::TempDir() + "obs_report_roundtrip.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());

  const obs::Trace parsed =
      obs::trace_from_chrome_json(obs::json::parse(text));
  EXPECT_EQ(parsed.spans.size(), direct.spans.size());
  EXPECT_EQ(parsed.flows.size(), direct.flows.size());
  // p2p flows: the explicit send above plus the collectives' internal
  // messages all close into matched pairs.
  EXPECT_GE(parsed.flows.size(), 1u);

  const obs::CriticalPathReport from_json = obs::critical_path(parsed);
  // Chrome ts/dur are microseconds with 3 decimals, so the round trip
  // is exact to the nanosecond.
  EXPECT_NEAR(from_json.total_seconds, from_memory.total_seconds, 1e-6);
  EXPECT_NEAR(from_json.attributed_seconds, from_json.total_seconds,
              0.01 * from_json.total_seconds + 1e-9);
}

// ----- lrt.report/1 + gates ------------------------------------------------

const char* kBaselineBench = R"({
  "schema": "lrt.bench/1",
  "name": "fig8",
  "records": [
    {"label": "ranks=8",
     "params": {"ranks": 8},
     "phases": {"gemm": 1.0},
     "counters": {"comm.allreduce.calls": 100},
     "metrics": {"wall_seconds": 2.0}}
  ]
})";

const char* kCurrentBench = R"({
  "schema": "lrt.bench/1",
  "name": "fig8",
  "records": [
    {"label": "ranks=8",
     "params": {"ranks": 8},
     "phases": {"gemm": 1.02},
     "counters": {"comm.allreduce.calls": 112},
     "metrics": {"wall_seconds": 2.1}}
  ]
})";

TEST(Report, ParseGateAcceptsMetricColonPct) {
  obs::GateSpec gate;
  ASSERT_TRUE(obs::parse_gate("wall_seconds:10", gate));
  EXPECT_EQ(gate.metric, "wall_seconds");
  EXPECT_DOUBLE_EQ(gate.max_regress_pct, 10.0);
  ASSERT_TRUE(obs::parse_gate("comm.allreduce.calls:0", gate));
  EXPECT_EQ(gate.metric, "comm.allreduce.calls");
  EXPECT_DOUBLE_EQ(gate.max_regress_pct, 0.0);
  EXPECT_FALSE(obs::parse_gate("wall_seconds", gate));
  EXPECT_FALSE(obs::parse_gate(":10", gate));
  EXPECT_FALSE(obs::parse_gate("wall_seconds:", gate));
  EXPECT_FALSE(obs::parse_gate("wall_seconds:-5", gate));
}

TEST(Report, GateVerdictsAndExitCodes) {
  obs::PerfReport report;
  ASSERT_TRUE(report.add_bench(obs::json::parse(kCurrentBench)));
  ASSERT_TRUE(report.add_baseline(obs::json::parse(kBaselineBench)));

  obs::GateSpec gate;
  // 5% regression on a 10% budget: pass.
  ASSERT_TRUE(obs::parse_gate("wall_seconds:10", gate));
  report.add_gate(gate);
  // 12% counter growth on a 0% budget: fail.
  ASSERT_TRUE(obs::parse_gate("comm.allreduce.calls:0", gate));
  report.add_gate(gate);
  // Phase lookup, 2% growth on a 5% budget: pass.
  ASSERT_TRUE(obs::parse_gate("gemm:5", gate));
  report.add_gate(gate);
  report.run_gates();

  const std::vector<obs::GateResult>& results = report.gate_results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, obs::GateStatus::kPass);
  EXPECT_EQ(results[1].status, obs::GateStatus::kFail);
  EXPECT_NEAR(results[1].change_pct, 12.0, 1e-9);
  EXPECT_EQ(results[2].status, obs::GateStatus::kPass);
  EXPECT_EQ(obs::gate_exit_code(results), 1);
}

TEST(Report, MissingMetricOutranksFailure) {
  obs::PerfReport report;
  ASSERT_TRUE(report.add_bench(obs::json::parse(kCurrentBench)));
  ASSERT_TRUE(report.add_baseline(obs::json::parse(kBaselineBench)));
  obs::GateSpec gate;
  ASSERT_TRUE(obs::parse_gate("comm.allreduce.calls:0", gate));  // fails
  report.add_gate(gate);
  ASSERT_TRUE(obs::parse_gate("no_such_metric:5", gate));  // missing
  report.add_gate(gate);
  report.run_gates();
  EXPECT_EQ(obs::gate_exit_code(report.gate_results()), 2);
}

TEST(Report, ImprovementPassesAZeroBudgetGate) {
  obs::PerfReport report;
  // Swap the roles: current is the *smaller* run.
  ASSERT_TRUE(report.add_bench(obs::json::parse(kBaselineBench)));
  ASSERT_TRUE(report.add_baseline(obs::json::parse(kCurrentBench)));
  obs::GateSpec gate;
  ASSERT_TRUE(obs::parse_gate("comm.allreduce.calls:0", gate));
  report.add_gate(gate);
  ASSERT_TRUE(obs::parse_gate("wall_seconds:0", gate));
  report.add_gate(gate);
  report.run_gates();
  EXPECT_EQ(obs::gate_exit_code(report.gate_results()), 0);
}

TEST(Report, RejectsWrongSchema) {
  obs::PerfReport report;
  EXPECT_FALSE(report.add_bench(
      obs::json::parse(R"({"schema": "not.bench/9", "records": []})")));
}

TEST(Report, JsonDocumentRoundTripsThroughTheParser) {
  obs::PerfReport report;
  report.add_trace(three_rank_chain());
  ASSERT_TRUE(report.add_bench(obs::json::parse(kCurrentBench)));
  ASSERT_TRUE(report.add_baseline(obs::json::parse(kBaselineBench)));
  obs::GateSpec gate;
  ASSERT_TRUE(obs::parse_gate("wall_seconds:10", gate));
  report.add_gate(gate);
  report.run_gates();

  const obs::json::Value doc =
      obs::json::parse(obs::json::dump(report.to_json()));
  const obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, obs::kReportSchema);
  const obs::json::Value* cp = doc.find("critical_path");
  ASSERT_NE(cp, nullptr);
  const obs::json::Value* hops = cp->find("hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_DOUBLE_EQ(hops->number, 2.0);
  const obs::json::Value* gates = doc.find("gates");
  ASSERT_NE(gates, nullptr);
  ASSERT_EQ(gates->array.size(), 1u);
  const obs::json::Value* verdict = doc.find("verdict");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->string, "pass");
  // Counter deltas surface the allreduce growth even though no gate
  // names it.
  const obs::json::Value* deltas = doc.find("counter_deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_GE(deltas->array.size(), 1u);

  const std::string markdown = report.to_markdown();
  EXPECT_NE(markdown.find("# lrt-report"), std::string::npos);
  EXPECT_NE(markdown.find("wall_seconds"), std::string::npos);
  EXPECT_NE(markdown.find("verdict: pass"), std::string::npos);
}

}  // namespace
}  // namespace lrt
