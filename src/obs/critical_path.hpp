// Post-run causal analysis of a recorded trace.
//
// The tracer (obs.hpp) records per-rank spans and matched message flow
// endpoints; this module turns them into the event DAG the paper's
// scaling argument needs: program order within each rank row plus a
// causal edge for every message whose receiver was already blocked when
// the sender sent (those are the edges that can lengthen the run). A
// backward walk from the last span end extracts the critical path and
// attributes every nanosecond of end-to-end wall time to a (rank,
// phase, work-or-wait) segment — the attribution is exact by
// construction: segments tile [first span start, last span end].
//
// work_wait_by_phase() is the flat (non-path) counterpart: per-phase
// work vs wait vs imbalance, replacing aggregate_phases()'s single
// busiest÷mean factor. "Wait" is the union of the `*.wait` spans the
// collective guards record (time until the last rank entered — exact in
// the threads-as-ranks runtime).
//
// Both analyses require quiescence, same as aggregate_phases(): no
// instrumented code running concurrently (after par::run returned).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lrt::obs {

/// One closed span in the neutral trace model (tid = rank row).
struct TraceSpan {
  std::string name;
  long long pid = 0;
  long long tid = 0;
  long long start_ns = 0;
  long long end_ns = 0;
};

/// One matched message edge: sent on src_tid at send_ns, received on
/// dst_tid over [recv_start_ns, recv_end_ns] (recv_start is when the
/// receiver began blocking; < send_ns means it waited on the sender).
struct TraceFlow {
  long long pid = 0;
  long long src_tid = 0;
  long long dst_tid = 0;
  long long send_ns = 0;
  long long recv_start_ns = 0;
  long long recv_end_ns = 0;
};

struct Trace {
  std::vector<TraceSpan> spans;
  std::vector<TraceFlow> flows;
};

/// Snapshot of the in-process recorded trace (spans + completed flow
/// pairs). Quiescence required.
Trace snapshot_trace();

/// Rebuilds a Trace from Chrome-trace JSON as written by
/// write_chrome_trace() / the LRT_TRACE exit merge. `pid` selects one
/// process from a merged multi-process file; -1 picks the pid with the
/// largest total span time.
Trace trace_from_chrome_json(const json::Value& doc, long long pid = -1);

/// One critical-path segment: [start_ns, end_ns] on rank row `tid`.
struct CriticalSegment {
  enum class Kind { kWork, kWait };
  long long tid = 0;
  Kind kind = Kind::kWork;
  long long start_ns = 0;
  long long end_ns = 0;
};

/// Critical-path time attributed to one phase (an outermost span name
/// on the rank rows the path visits; "(untracked)" covers path time no
/// span was open for).
struct CriticalPhase {
  std::string name;
  double work_seconds = 0.0;
  double wait_seconds = 0.0;
  double share_pct = 0.0;  ///< (work + wait) / total, percent
};

struct CriticalPathReport {
  double total_seconds = 0.0;       ///< last span end - first span start
  double attributed_seconds = 0.0;  ///< sum over segments; == total
  int hops = 0;                     ///< message edges on the path
  std::vector<CriticalSegment> segments;  ///< walk order (latest first)
  std::vector<CriticalPhase> phases;      ///< by share, descending
};

/// Extracts the critical path of `trace` (see file comment). Empty
/// trace -> zero report.
CriticalPathReport critical_path(const Trace& trace);

/// Convenience: critical path of the in-process recorded trace.
/// Quiescence required.
CriticalPathReport critical_path();

/// Per-phase work/wait/imbalance over every rank row (not just the
/// critical path). One entry per outermost span name, first-seen order.
struct PhaseWorkWait {
  std::string name;
  long long count = 0;          ///< outermost intervals, all ranks
  int ranks = 0;                ///< distinct rank rows with this phase
  double work_seconds = 0.0;    ///< total minus wait, all ranks
  double wait_seconds = 0.0;    ///< overlap with *.wait spans, all ranks
  double max_rank_seconds = 0.0;   ///< busiest rank's work+wait
  double mean_rank_seconds = 0.0;  ///< mean work+wait per participating rank
  double imbalance = 0.0;          ///< max / mean; 1.0 = balanced
};

std::vector<PhaseWorkWait> work_wait_by_phase(const Trace& trace);

}  // namespace lrt::obs
