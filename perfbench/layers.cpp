#include "layers.hpp"

#include <algorithm>
#include <set>

#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace lrt::perfbench {
namespace {

constexpr const char* kBoundaryPrefix = "perfbench.";

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Spans that are communication: every collective guard with its
/// *.wait / *.xfer halves, user p2p, and the drain of a nonblocking
/// collective's receives. Other par.* spans are regions whose self time is
/// local computation (packing, local GEMM and FFT passes, LOBPCG algebra).
bool is_comm_span(const std::string& name) {
  static const std::set<std::string> kCollectives = {
      "barrier",   "bcast",      "reduce",  "allreduce", "alltoall",
      "alltoallv", "allgather",  "allgatherv", "gather",  "scatter",
      "split",     "i_alltoallv", "i_allgatherv", "p2p"};
  return name == "par.overlap.wait" ||
         kCollectives.count(name.substr(0, name.find('.'))) > 0;
}

/// The distributed driver's Fig-8 phase spans (tddft layer).
bool is_fig8_phase(const std::string& name) {
  return name == "pair_product" || name == "kmeans" || name == "fft" ||
         name == "mpi" || name == "gemm" || name == "diag";
}

/// Layer time metric a span's self time is billed to ("" = unbilled).
/// `boundary` is the benchmark boundary span enclosing it.
std::string layer_of(const std::string& name, const std::string& boundary) {
  const std::string scf = std::string(kBoundaryPrefix) + "solve_ground_state";
  if (name == scf) return "dft.scf_s";
  if (starts_with(name, kBoundaryPrefix) || is_fig8_phase(name)) {
    return "tddft.casida_s";
  }
  if (name == "fft.fft3d" || starts_with(name, "fft.fft3d.") ||
      name == "par.dist_fft3d") {
    return "fft.fft3d_s";
  }
  // The band LOBPCG's self time holds the Kohn-Sham apply: SCF work.
  if (name == "la.lobpcg") return boundary == scf ? "dft.scf_s" : "la.lobpcg_s";
  if (name == "par.dist_lobpcg" || starts_with(name, "par.gram_reduce.")) {
    return "la.lobpcg_s";
  }
  if (name == "kmeans.lloyd" || name == "kmeans.dist" ||
      name == "isdf.points.kmeans") {
    return "kmeans.s";
  }
  if (name == "isdf.select_points" || name == "isdf.points.qrcp") {
    return "isdf.select_points_s";
  }
  if (name == "isdf.interp_vectors") return "isdf.interp_vectors_s";
  if (is_comm_span(name)) return "par.comm_s";
  if (starts_with(name, "par.")) return "tddft.casida_s";
  return "";
}

std::map<long long, obs::Trace> split_rows(const obs::Trace& trace) {
  std::map<long long, obs::Trace> rows;
  for (const obs::TraceSpan& span : trace.spans) {
    rows[span.tid].spans.push_back(span);
  }
  return rows;
}

/// Self nanoseconds per billed layer on one rank row. Spans on a row nest
/// (RAII), so after sorting by (start asc, end desc) a stack of open spans
/// yields each span's direct parent and its enclosing boundary span.
std::map<std::string, long long> row_layer_ns(std::vector<obs::TraceSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceSpan& a, const obs::TraceSpan& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  std::vector<long long> child_ns(spans.size(), 0);
  std::vector<std::string> boundary(spans.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += spans[i].end_ns - spans[i].start_ns;
      boundary[i] = boundary[open.back()];
    }
    if (starts_with(spans[i].name, kBoundaryPrefix)) boundary[i] = spans[i].name;
    open.push_back(i);
  }
  std::map<std::string, long long> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name, boundary[i]);
    if (layer.empty()) continue;
    self[layer] += spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
  return self;
}

double mean_over_rows(const std::map<long long, obs::Trace>& rows,
                      double (*per_row)(const obs::Trace&)) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [tid, row] : rows) sum += per_row(row);
  return sum / static_cast<double>(rows.size());
}

double row_wait_seconds(const obs::Trace& row) {
  double wait = 0.0;
  for (const obs::PhaseWorkWait& phase : obs::work_wait_by_phase(row)) {
    wait += phase.wait_seconds;
  }
  return wait;
}

double row_xfer_seconds(const obs::Trace& row) {
  long long ns = 0;
  for (const obs::TraceSpan& span : row.spans) {
    if (ends_with(span.name, ".xfer")) ns += span.end_ns - span.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

/// Inclusive wall seconds of spans named `name`, averaged over rows.
double inclusive_seconds(const std::map<long long, obs::Trace>& rows,
                         const std::string& name) {
  if (rows.empty()) return 0.0;
  long long ns = 0;
  for (const auto& [tid, row] : rows) {
    for (const obs::TraceSpan& span : row.spans) {
      if (span.name == name) ns += span.end_ns - span.start_ns;
    }
  }
  return 1e-9 * static_cast<double>(ns) / static_cast<double>(rows.size());
}

}  // namespace

long long CallLog::total(const std::string& name) const {
  long long sum = 0;
  for (const CallRecord& call : calls) {
    const auto it = call.counters.find(name);
    if (it != call.counters.end()) sum += it->second;
  }
  return sum;
}

long long CallLog::in_call(const std::string& call,
                           const std::string& name) const {
  for (const CallRecord& record : calls) {
    if (record.name != call) continue;
    const auto it = record.counters.find(name);
    return it == record.counters.end() ? 0 : it->second;
  }
  return 0;
}

CounterDelta::CounterDelta(CallLog* log, std::string call)
    : log_(log), call_(std::move(call)) {
  if (log_ != nullptr) before_ = obs::snapshot_counters();
}

CounterDelta::~CounterDelta() {
  if (log_ == nullptr) return;
  CallRecord record;
  record.name = call_;
  for (const auto& [name, value] : obs::snapshot_counters()) {
    record.counters[name] = value;
  }
  for (const auto& [name, value] : before_) record.counters[name] -= value;
  log_->calls.push_back(std::move(record));
}

BoundarySpan::BoundarySpan(const char* call)
    : name_(std::string(kBoundaryPrefix) + call) {
  if (obs::tracing_enabled()) start_ns_ = obs::detail::now_ns();
}

BoundarySpan::~BoundarySpan() {
  if (start_ns_ >= 0) {
    obs::detail::record_span(name_.c_str(), start_ns_, obs::detail::now_ns());
  }
}

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> kDefs = {
      {"dft.scf_s", "s", false},
      {"dft.scf_iterations", "count", false},
      {"dft.band_lobpcg_iterations", "count", false},
      {"fft.fft3d_calls", "count", false},
      {"fft.fft3d_points", "count", false},
      {"fft.fft3d_s", "s", false},
      {"la.gemm_calls", "count", false},
      {"la.gemm_fallback_calls", "count", false},
      {"la.gemm_gflop", "GFLOP", false},
      {"la.lobpcg_s", "s", false},
      {"la.lobpcg_iterations", "count", false},
      {"kmeans.s", "s", false},
      {"kmeans.assign_full", "count", false},
      {"kmeans.assign_skipped", "count", true},
      {"kmeans.prune_ratio", "ratio", true},
      {"isdf.select_points_s", "s", false},
      {"isdf.interp_vectors_s", "s", false},
      {"tddft.casida_s", "s", false},
      {"tddft.kernel_fft_s", "s", false},
      {"tddft.gemm_s", "s", false},
      {"tddft.diag_s", "s", false},
      {"tddft.eigen_iterations", "count", false},
      {"par.comm_s", "s", false},
      {"par.wait_s", "s", false},
      {"par.xfer_s", "s", false},
      {"par.collective_calls", "count", false},
      {"par.comm_mb", "MB", false},
      {"par.dist_lobpcg_iterations", "count", false},
      {"par.retries", "count", false},
      {"obs.trace_overhead_pct", "%", false},
  };
  return kDefs;
}

std::map<std::string, double> layer_self_seconds(const obs::Trace& trace) {
  const std::map<long long, obs::Trace> rows = split_rows(trace);
  std::map<std::string, double> out;
  for (const auto& [tid, row] : rows) {
    for (const auto& [layer, ns] : row_layer_ns(row.spans)) {
      out[layer] += 1e-9 * static_cast<double>(ns) /
                    static_cast<double>(rows.size());
    }
  }
  return out;
}

std::map<std::string, double> layer_metrics(const obs::Trace& trace,
                                            const CallLog& log,
                                            const SolveResult& result,
                                            int ranks) {
  std::map<std::string, double> m;
  for (const LayerMetricDef& def : layer_metric_defs()) m[def.name] = 0.0;

  // Wall self times, billed to layers.
  for (const auto& [layer, seconds] : layer_self_seconds(trace)) {
    m[layer] += seconds;
  }

  // Fig-8 phase walls: the serial driver's profiler (wall Timer), or the
  // distributed driver's traced phase spans. DistDriverStats::phases is
  // never read: its "mpi" entry is CPU time, not wall.
  const std::map<long long, obs::Trace> rows = split_rows(trace);
  const std::pair<const char*, const char*> kFig8[] = {
      {"fft", "tddft.kernel_fft_s"},
      {"gemm", "tddft.gemm_s"},
      {"diag", "tddft.diag_s"}};
  for (const auto& [phase, metric] : kFig8) {
    double seconds = 0.0;
    if (result.profiler_phases.empty()) {
      seconds = inclusive_seconds(rows, phase);
    } else {
      for (const auto& [name, s] : result.profiler_phases) {
        if (name == phase) seconds += s;
      }
    }
    m[metric] = seconds;
  }

  // Wait from the library's work/wait split, xfer from the *.xfer halves.
  m["par.wait_s"] = mean_over_rows(rows, row_wait_seconds);
  m["par.xfer_s"] = mean_over_rows(rows, row_xfer_seconds);

  // Counter deltas, attributed per public call.
  const auto total = [&](const char* name) {
    return static_cast<double>(log.total(name));
  };
  m["dft.scf_iterations"] = static_cast<double>(result.scf_iterations);
  const double band_iterations = static_cast<double>(
      log.in_call("solve_ground_state", "la.lobpcg.iterations"));
  m["dft.band_lobpcg_iterations"] = band_iterations;
  m["fft.fft3d_calls"] = total("fft.fft3d.calls");
  m["fft.fft3d_points"] = total("fft.fft3d.points");
  m["la.gemm_calls"] = total("la.gemm.calls");
  m["la.gemm_fallback_calls"] = total("la.gemm.fallback_calls");
  m["la.gemm_gflop"] = 1e-9 * total("la.gemm.flops");
  const double full = total("kmeans.assign.full");
  const double skipped = total("kmeans.assign.skipped");
  m["kmeans.assign_full"] = full;
  m["kmeans.assign_skipped"] = skipped;
  m["kmeans.prune_ratio"] = full + skipped > 0 ? skipped / (full + skipped) : 0.0;
  // Every rank adds its own iteration count to par.dist_lobpcg.iterations.
  const double dist_iterations = total("par.dist_lobpcg.iterations");
  m["par.dist_lobpcg_iterations"] = dist_iterations;
  m["tddft.eigen_iterations"] =
      ranks > 1 ? dist_iterations / ranks
                : static_cast<double>(result.eigen_iterations);
  // Like la.lobpcg_s: the Casida LOBPCG, serial or distributed (per rank).
  m["la.lobpcg_iterations"] = total("la.lobpcg.iterations") - band_iterations +
                              dist_iterations / ranks;
  double calls = 0.0;
  double bytes = 0.0;
  for (const CallRecord& call : log.calls) {
    for (const auto& [name, value] : call.counters) {
      if (!starts_with(name, "comm.") || starts_with(name, "comm.retry.")) {
        continue;
      }
      if (ends_with(name, ".bytes")) bytes += static_cast<double>(value);
      if (ends_with(name, ".calls") && name != "comm.p2p.calls") {
        calls += static_cast<double>(value);
      }
    }
  }
  m["par.collective_calls"] = calls;
  m["par.comm_mb"] = 1e-6 * bytes;
  m["par.retries"] = total("comm.retry.attempts") + total("ft.retry.attempts");
  return m;
}

}  // namespace lrt::perfbench
