// Observability subsystem: span recording, rank aggregation, counters,
// Chrome-trace export, disabled-mode cost, and composition with the
// runtime verifier.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "alloc_count.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "par/runtime.hpp"

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

const obs::PhaseStats* find_phase(const std::vector<obs::PhaseStats>& stats,
                                  const std::string& name) {
  for (const obs::PhaseStats& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Burns a few cycles so span durations are nonzero; the atomic store
/// keeps the loop from being optimized away.
void busy_work(int salt) {
  static std::atomic<long long> sink{0};
  long long acc = salt;
  for (int i = 0; i < 10000; ++i) acc += i * (salt + 1);
  sink.fetch_add(acc, std::memory_order_relaxed);
}

TEST(ObsSpan, NestedSpansRecordSeparately) {
  TracingFixture tracing(true);
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
    }
    {
      obs::Span inner("inner");
    }
  }
  const auto stats = obs::aggregate_phases();
  const obs::PhaseStats* outer = find_phase(stats, "outer");
  const obs::PhaseStats* inner = find_phase(stats, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 2);
  // The outer span contains both inner ones.
  EXPECT_GE(outer->total_seconds, inner->total_seconds);
}

TEST(ObsSpan, EndIsIdempotentAndStopsTheClock) {
  TracingFixture tracing(true);
  obs::Span span("early_end");
  span.end();
  span.end();  // second end must not double-record
  const auto stats = obs::aggregate_phases();
  const obs::PhaseStats* s = find_phase(stats, "early_end");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1);
}

TEST(ObsSpan, DisabledModeRecordsNothingAndDoesNotAllocate) {
  TracingFixture tracing(false);
  // Warm up: the first span on a thread may lazily create its buffer
  // (only when enabled; disabled spans never touch the registry).
  {
    obs::Span warm("warmup");
  }
  const long long before = test::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("disabled");
  }
  EXPECT_EQ(test::allocation_count(), before);
  EXPECT_EQ(obs::span_count(), 0u);
}

TEST(ObsSpan, AggregationAcrossConcurrentRankThreads) {
  TracingFixture tracing(true);
  constexpr int kRanks = 4;
  par::run(kRanks, [](par::Comm& comm) {
    obs::Span span("rank_work");
    busy_work(comm.rank());
  });
  const auto stats = obs::aggregate_phases();
  const obs::PhaseStats* s = find_phase(stats, "rank_work");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, kRanks);
  EXPECT_EQ(s->ranks, kRanks);
  EXPECT_GE(s->max_rank_seconds, s->min_rank_seconds);
  EXPECT_GE(s->imbalance, 1.0);
  EXPECT_NEAR(s->mean_rank_seconds * kRanks, s->total_seconds, 1e-12);
}

TEST(ObsCounters, AccumulateAcrossConcurrentRankThreads) {
  obs::Counter& c = obs::counter("test.obs.rank_adds");
  c.reset();
  constexpr int kRanks = 4;
  constexpr long long kPerRank = 1000;
  par::run(kRanks, [](par::Comm&) {
    obs::Counter& mine = obs::counter("test.obs.rank_adds");
    for (long long i = 0; i < kPerRank; ++i) mine.add(1);
  });
  EXPECT_EQ(c.value(), kRanks * kPerRank);
}

TEST(ObsCounters, SnapshotIsSortedAndResettable) {
  obs::counter("test.obs.zzz").reset();
  obs::counter("test.obs.aaa").add(7);
  const auto snap = obs::snapshot_counters();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
  obs::reset_counters();
  for (const auto& [name, value] : obs::snapshot_counters()) {
    EXPECT_EQ(value, 0) << name;
  }
}

TEST(ObsTrace, ChromeExportIsWellFormedWithPerRankTids) {
  TracingFixture tracing(true);
  constexpr int kRanks = 4;
  par::run(kRanks, [](par::Comm& comm) {
    obs::Span span("traced_phase");
    busy_work(comm.rank());
  });
  const std::string path = "test_obs_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(buf.str());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<long long> tids;
  for (const obs::json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const obs::json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "X") continue;
    const obs::json::Value* name = event.find("name");
    const obs::json::Value* tid = event.find("tid");
    const obs::json::Value* dur = event.find("dur");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_GE(dur->number, 0.0);
    if (name->string == "traced_phase") {
      tids.insert(static_cast<long long>(tid->number));
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kRanks));
  std::remove(path.c_str());
}

TEST(ObsTrace, ComposesWithRuntimeVerifier) {
  TracingFixture tracing(true);
  par::check::Options check_opts;
  check_opts.enabled = true;
  par::run(3, [](par::Comm& comm) {
    double x = comm.rank();
    comm.bcast(&x, 1, /*root=*/0);
    comm.allreduce(&x, 1, par::ReduceOp::kSum);
    if (comm.rank() == 0) {
      // The binomial-tree root sends in bcast.
      EXPECT_GT(comm.bytes_sent(par::Traffic::kBcast), 0);
    }
    // Every rank exchanges partials in the single-round allreduce.
    EXPECT_GT(comm.bytes_sent(par::Traffic::kAllreduce), 0);
    // Call counts are per user-facing collective: one explicit bcast and
    // one allreduce (a single-round primitive, not a reduce+bcast pair).
    EXPECT_EQ(comm.calls_made(par::Traffic::kBcast), 1);
    EXPECT_EQ(comm.calls_made(par::Traffic::kReduce), 0);
    EXPECT_EQ(comm.calls_made(par::Traffic::kAllreduce), 1);
    // Backward compat: the flat total is the sum over kinds.
    long long sum = 0;
    for (int k = 0; k < par::kNumTrafficKinds; ++k) {
      sum += comm.bytes_sent(static_cast<par::Traffic>(k));
    }
    EXPECT_EQ(comm.bytes_sent(), sum);
  }, check_opts);
  // Collective spans were recorded while the verifier was active.
  const auto stats = obs::aggregate_phases();
  EXPECT_NE(find_phase(stats, "bcast"), nullptr);
  EXPECT_NE(find_phase(stats, "allreduce"), nullptr);
}

TEST(ObsBenchReport, JsonRoundTripsWithSchemaAndCounters) {
  obs::counter("test.obs.bench").reset();
  obs::counter("test.obs.bench").add(42);
  obs::BenchReport report("unittest");
  report.meta("note", "round-trip");
  report.record("cfg1")
      .param("ranks", static_cast<long long>(4))
      .param("method", std::string("kmeans"))
      .phase("fft", 0.125)
      .metric("speedup", 2.5)
      .counters_from_registry();

  const obs::json::Value doc = obs::json::parse(report.json());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, obs::kBenchSchema);
  const obs::json::Value* records = doc.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(), 1u);
  const obs::json::Value& rec = records->array[0];
  EXPECT_EQ(rec.find("label")->string, "cfg1");
  EXPECT_EQ(rec.find("params")->find("ranks")->number, 4.0);
  EXPECT_EQ(rec.find("phases")->find("fft")->number, 0.125);
  EXPECT_EQ(rec.find("metrics")->find("speedup")->number, 2.5);
  const obs::json::Value* counters = rec.find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::json::Value* bench_counter = counters->find("test.obs.bench");
  ASSERT_NE(bench_counter, nullptr);
  EXPECT_EQ(bench_counter->number, 42.0);
  const obs::json::Value* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(build->find("compiler"), nullptr);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse("{\"a\":"), Error);
  EXPECT_THROW(obs::json::parse("[1,2,]"), Error);
  EXPECT_THROW(obs::json::parse("{} trailing"), Error);
  const obs::json::Value v =
      obs::json::parse("{\"s\":\"\\u00e9\",\"n\":-1.5e3,\"b\":true}");
  EXPECT_EQ(v.find("s")->string, "\xc3\xa9");
  EXPECT_EQ(v.find("n")->number, -1500.0);
  EXPECT_TRUE(v.find("b")->boolean);
}

}  // namespace
}  // namespace lrt
