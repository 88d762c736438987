// Per-layer accounting for traced solves.
//
// The benchmark adds no span inside src/. It brackets each public call it
// makes with its own boundary span (recorded through obs::detail, so no
// obs::Span literal has to be registered in phases.def) and with a
// counter snapshot, so counter deltas are attributed per call. The
// library's own spans (fft.fft3d, la.lobpcg, isdf.*, kmeans.*, par.*,
// collectives and their *.wait/*.xfer halves, the distributed driver's
// Fig-8 phases) then nest inside those boundaries, and every layer's
// wall self time is its spans' length minus the child spans they contain.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/critical_path.hpp"

namespace lrt::perfbench {

/// Counter deltas of one public call.
struct CallRecord {
  std::string name;
  std::map<std::string, long long> counters;
};

/// Filled by traced solves; untraced solves pass a null CallLog.
struct CallLog {
  std::vector<CallRecord> calls;

  /// Sum of counter `name` over all calls (0 when never touched).
  long long total(const std::string& name) const;
  /// Counter `name` in the first call named `call` (0 when absent).
  long long in_call(const std::string& call, const std::string& name) const;
};

/// Appends the counter deltas of its own lifetime to `log` as one call.
/// No-op when `log` is null. Snapshots are process-wide, so for a
/// distributed call this wraps par::run on the calling thread.
class CounterDelta {
 public:
  CounterDelta(CallLog* log, std::string call);
  ~CounterDelta();

  CounterDelta(const CounterDelta&) = delete;
  CounterDelta& operator=(const CounterDelta&) = delete;

 private:
  CallLog* log_;
  std::string call_;
  std::vector<std::pair<std::string, long long>> before_;
};

/// Records one boundary span named "perfbench.<call>" on the calling
/// thread's rank row while tracing is on.
class BoundarySpan {
 public:
  explicit BoundarySpan(const char* call);
  ~BoundarySpan();

  BoundarySpan(const BoundarySpan&) = delete;
  BoundarySpan& operator=(const BoundarySpan&) = delete;

 private:
  std::string name_;
  long long start_ns_ = -1;
};

/// A boundary span and a counter delta around one serial public call.
struct SerialBoundary {
  SerialBoundary(CallLog* log, const char* call)
      : counters(log, call), span(call) {}
  CounterDelta counters;
  BoundarySpan span;
};

/// The per-layer metric names, in report order, with units and the
/// direction in which they improve (BENCHMARK.json mirrors this list).
struct LayerMetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};
const std::vector<LayerMetricDef>& layer_metric_defs();

/// Wall self time of `trace`'s spans billed to the per-layer time metrics
/// (dft.scf_s, fft.fft3d_s, la.lobpcg_s, ..., par.comm_s), averaged over
/// its rank rows (one row for a serial solve). Exposed for the self-test.
std::map<std::string, double> layer_self_seconds(const obs::Trace& trace);

/// Every per-layer metric for one traced solve. `ranks` is the rank
/// count of the solve (1 for serial workloads).
std::map<std::string, double> layer_metrics(const obs::Trace& trace,
                                            const CallLog& log,
                                            const SolveResult& result,
                                            int ranks);

}  // namespace lrt::perfbench
