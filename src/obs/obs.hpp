// Rank-aware span tracer and phase aggregation.
//
// obs::Span is an RAII trace span: construction stamps a start time,
// destruction (or end()) records [start, end) into a per-thread buffer —
// no lock, no allocation on the steady-state hot path. Each simulated
// rank thread registers its world rank via ThreadRankScope (par::run does
// this), so exported traces carry one Chrome-trace tid per rank.
//
// When tracing is disabled (the default), a Span is a relaxed atomic
// load, a thread-local load and two untaken branches — cheap enough to
// leave in production hot paths (bench/bench_obs_overhead.cpp gates this
// < 20 ns).
//
// Spans are also the one phase clock: while a PhaseScope is alive on a
// thread, every Span closed on that thread adds its wall duration to the
// scope's PhaseAccumulator, whether tracing is on or off. The Casida
// pipeline fills DistDriverStats::phases this way, and DriverResult::
// profiler takes its six Fig-8 phases for kNaive/kImplicit (the pipeline
// on one rank) or collects every span of an ablation version's solve; so
// a phase second in a result and in a trace is the same second.
//
// Enabling:
//   LRT_TRACE=path.json   enable tracing; write/merge a Chrome trace at
//                         process exit (open in chrome://tracing)
//   LRT_PROFILE=1         enable tracing; print the aggregated per-phase
//                         report to stderr at process exit
//   set_tracing_enabled() programmatic control (tests, benches)
//
// Thread-safety: recording is safe from any thread. aggregate_phases(),
// write_chrome_trace(), and reset_trace() walk every thread's buffer and
// must only run at quiescence — when no instrumented code is executing
// concurrently (e.g. after par::run returned, which joins all rank
// threads; the join provides the happens-before edge). This mirrors the
// rule for par state in docs/CONCURRENCY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lrt::obs {

class PhaseAccumulator;

namespace detail {

extern std::atomic<bool> g_tracing_enabled;

/// The calling thread's PhaseScope sink, or null outside any scope.
inline constinit thread_local PhaseAccumulator* t_phase_sink = nullptr;

/// Monotonic nanoseconds (steady clock).
long long now_ns();

/// Appends one closed span to the calling thread's buffer. `name` is
/// copied; the pointer need not outlive the call.
void record_span(const char* name, long long start_ns, long long end_ns);

/// Closes a Span started at `start_ns`: records it when `traced`, and
/// adds its wall seconds to `sink` when non-null.
void close_span(const char* name, long long start_ns, bool traced,
                PhaseAccumulator* sink);

/// One endpoint of a matched message (par::Comm stamps these when
/// tracing is on). The (context, src, dst, tag, seq) tuple identifies
/// the message: seq is the sender's monotone per-(dst, tag) channel
/// sequence number, so a send and its matching receive carry the same
/// tuple and the exporter can emit paired Chrome flow events
/// (ph:"s"/"f") that Perfetto draws as arrows between rank rows.
struct FlowRecord {
  long long run = 0;          ///< process-unique runtime instance id
  long long context = 0;      ///< communicator context id
  int src = -1;               ///< sender world rank
  int dst = -1;               ///< receiver world rank
  int tag = 0;
  long long seq = 0;          ///< per-(dst, tag) channel sequence number
  long long send_ns = 0;      ///< sender's stamp (travels with the message)
  long long recv_start_ns = -1;  ///< 'f' only: when the receive began
  long long ts_ns = 0;        ///< event time: send for 's', completion for 'f'
  char phase = 's';           ///< 's' = send, 'f' = receive completion
  int rank = -1;              ///< recording thread's rank (filled by record_flow)
};

/// Appends one flow endpoint to the calling thread's buffer.
void record_flow(const FlowRecord& flow);

/// Copies of the raw recorded data, for obs::snapshot_trace() and tests.
/// Quiescence required (see file comment).
struct SpanSnapshot {
  std::string name;
  int rank = -1;
  long long start_ns = 0;
  long long end_ns = 0;
};
std::vector<SpanSnapshot> snapshot_spans();
std::vector<FlowRecord> snapshot_flows();

}  // namespace detail

/// Chrome-trace tid used for threads outside any par::run region
/// (thread_rank() == -1). validate_trace and the critical-path analysis
/// rely on this value to tell rank rows from the main thread.
inline constexpr long long kNonRankTid = 1000000;

/// Peak resident set size (VmHWM from /proc/self/status) in bytes, or -1
/// when unavailable (non-Linux). Cheap enough for phase boundaries — one
/// small procfs read — but not for hot loops.
long long vm_hwm_bytes();

/// True when spans are being recorded.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on or off (counters are unaffected; they are
/// always on).
void set_tracing_enabled(bool enabled);

/// The simulated world rank of the calling thread, or -1 for threads
/// outside any par::run region (they export under a synthetic tid).
int thread_rank();
void set_thread_rank(int rank);

/// RAII rank tag for the current thread; par::run wraps each rank body
/// in one so spans and aggregation attribute to the right rank.
class ThreadRankScope {
 public:
  explicit ThreadRankScope(int rank) : saved_(thread_rank()) {
    set_thread_rank(rank);
  }
  ~ThreadRankScope() { set_thread_rank(saved_); }

  ThreadRankScope(const ThreadRankScope&) = delete;
  ThreadRankScope& operator=(const ThreadRankScope&) = delete;

 private:
  int saved_;
};

/// RAII trace span. Nesting works naturally (inner spans close first);
/// the Chrome trace viewer reconstructs the hierarchy from containment.
///
///   { obs::Span span("fft.fft3d"); transform(...); }
///
/// `name` must stay valid until the span closes (string literals are the
/// norm); the recorder copies it at close time. Whether the span is
/// traced and which PhaseScope it feeds are both fixed at construction.
class Span {
 public:
  explicit Span(const char* name)
      : sink_(detail::t_phase_sink), traced_(tracing_enabled()) {
    if (traced_ || sink_ != nullptr) {
      name_ = name;
      start_ns_ = detail::now_ns();
    }
  }

  /// Closes the span early (before scope exit). Idempotent.
  void end() {
    if (name_ != nullptr) {
      detail::close_span(name_, start_ns_, traced_, sink_);
      name_ = nullptr;
    }
  }

  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  long long start_ns_ = 0;
  PhaseAccumulator* sink_;
  bool traced_;
};

/// Per-phase statistics aggregated across rank threads (the Fig.-8 style
/// report: who spent how long where, and how unbalanced it was).
struct PhaseStats {
  std::string name;
  long long count = 0;          ///< spans recorded, all ranks
  double total_seconds = 0.0;   ///< sum over all ranks
  int ranks = 0;                ///< distinct ranks that recorded this phase
  double min_rank_seconds = 0.0;
  double max_rank_seconds = 0.0;
  double mean_rank_seconds = 0.0;
  double imbalance = 0.0;       ///< max / mean per-rank time; 1.0 = balanced
};

/// Aggregates every recorded span by name, in first-seen order. Threads
/// tagged rank -1 aggregate as one pseudo-rank. Quiescence required (see
/// file comment).
std::vector<PhaseStats> aggregate_phases();

/// Number of spans recorded so far (all threads). Quiescence required.
std::size_t span_count();

/// Discards all recorded spans. Quiescence required.
void reset_trace();

/// Writes the recorded spans as Chrome-trace JSON ("X" complete events,
/// tid = rank). Overwrites `path`. Returns false if the file could not
/// be opened. Quiescence required. The automatic at-exit write for
/// LRT_TRACE instead *merges* with an existing file so serial test
/// processes sharing one path accumulate (see docs/OBSERVABILITY.md).
bool write_chrome_trace(const std::string& path);

/// Wall seconds per span name, thread-safe, insertion ordered. A
/// PhaseScope fills one; result structs carry one by value
/// (DriverResult::profiler).
class PhaseAccumulator {
 public:
  PhaseAccumulator() = default;

  /// Movable (so result structs can carry one); moving while another
  /// thread is still adding is a caller bug, same as for containers.
  PhaseAccumulator(PhaseAccumulator&& other) noexcept
      : totals_(std::move(other.totals_)), order_(std::move(other.order_)) {}
  PhaseAccumulator& operator=(PhaseAccumulator&& other) noexcept {
    if (this != &other) {
      totals_ = std::move(other.totals_);
      order_ = std::move(other.order_);
    }
    return *this;
  }
  PhaseAccumulator(const PhaseAccumulator&) = delete;
  PhaseAccumulator& operator=(const PhaseAccumulator&) = delete;

  /// Adds `seconds` to phase `name`, creating the phase if needed.
  void add(std::string_view name, double seconds);

  /// Accumulated seconds for `name`; 0 if the phase never ran.
  double total(std::string_view name) const;

  /// Sum over all phases.
  double grand_total() const;

  /// Phase names in insertion order.
  std::vector<std::string> phases() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double, std::less<>> totals_;
  std::vector<std::string> order_;
};

/// RAII phase clock for the calling thread: while alive, every Span
/// constructed and closed on this thread adds its wall seconds to
/// `sink` (nested spans each add their own duration). Spans on other
/// threads are not counted. The previous scope is restored on exit, the
/// way ThreadRankScope restores the rank.
///
///   obs::PhaseScope clock(result.profiler);
///   { obs::Span span(obs::phase::kDiag); solve(); }
///   result.profiler.total("diag");  // the span's wall seconds
class PhaseScope {
 public:
  explicit PhaseScope(PhaseAccumulator& sink) : saved_(detail::t_phase_sink) {
    detail::t_phase_sink = &sink;
  }
  ~PhaseScope() { detail::t_phase_sink = saved_; }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseAccumulator* saved_;
};

}  // namespace lrt::obs
