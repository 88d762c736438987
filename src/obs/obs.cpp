#include "obs/obs.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace lrt::obs {
namespace {

// One closed span. The name is copied inline at record time: call sites
// may pass a short-lived std::string::c_str(), so a stored pointer could
// dangle by export time.
struct SpanRecord {
  char name[48];
  long long start_ns;
  long long end_ns;
  int rank;
};

struct ThreadBuffer {
  std::vector<SpanRecord> records;
  std::vector<detail::FlowRecord> flows;
};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int t_rank = -1;

// Owns every thread's span buffer plus the at-exit export config. A
// Meyers singleton: the destructor runs during static teardown, after
// main() — by then all rank threads are joined (par::run joins before
// returning), so walking the buffers is safe. The constructor touches
// the counter registry first so counters are constructed before — hence
// destroyed after — this object, keeping the exit report's counter reads
// valid.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::string trace_path;       // LRT_TRACE destination; empty = no export
  bool profile_on_exit = false; // LRT_PROFILE: stderr report at exit
  long long epoch_ns = 0;       // trace timestamps are relative to this

  Registry() {
    detail::touch_counter_registry();
    epoch_ns = detail::now_ns();
    if (const char* path = std::getenv("LRT_TRACE");
        path != nullptr && *path != '\0') {
      trace_path = path;
      detail::g_tracing_enabled.store(true, std::memory_order_relaxed);
    }
    if (const char* profile = std::getenv("LRT_PROFILE");
        profile != nullptr && *profile != '\0' &&
        std::strcmp(profile, "0") != 0) {
      profile_on_exit = true;
      detail::g_tracing_enabled.store(true, std::memory_order_relaxed);
    }
  }

  ~Registry();
};

Registry& registry() {
  static Registry instance;
  return instance;
}

// Force the registry (and with it LRT_TRACE/LRT_PROFILE parsing) into
// existence during static initialization, before main() can spawn
// threads.
[[maybe_unused]] const bool g_obs_init = [] {
  (void)registry();
  return true;
}();

ThreadBuffer& thread_buffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    auto owned = std::make_unique<ThreadBuffer>();
    t_buffer = owned.get();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

// Chrome trace event writer. ts/dur are microseconds (double); tid is
// the simulated rank so chrome://tracing shows one row per rank.
void append_chrome_event(std::string& out, const SpanRecord& r,
                         long long epoch_ns, long long pid) {
  const double ts_us = static_cast<double>(r.start_ns - epoch_ns) * 1e-3;
  const double dur_us = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
  const long long tid = r.rank < 0 ? kNonRankTid : r.rank;
  char buf[64];
  out += "{\"name\":";
  out += json::quote(r.name);
  out += ",\"cat\":\"lrt\",\"ph\":\"X\",\"ts\":";
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  out += buf;
  out += ",\"dur\":";
  std::snprintf(buf, sizeof buf, "%.3f", dur_us);
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"pid\":%lld,\"tid\":%lld}", pid, tid);
  out += buf;
}

// Flow events pair a send ('s') with its receive completion ('f', with
// bp:"e" so the arrow lands at the end of the enclosing slice). The id
// embeds the pid so merged multi-process traces never collide; the 'f'
// event additionally carries the matched send/wait-start stamps in args
// so trace_from_chrome_json can reconstruct the causal edge without
// re-pairing events.
void append_flow_event(std::string& out, const detail::FlowRecord& f,
                       long long epoch_ns, long long pid) {
  const double ts_us = static_cast<double>(f.ts_ns - epoch_ns) * 1e-3;
  const long long tid = f.rank < 0 ? kNonRankTid : f.rank;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"%c\",%s"
                "\"id\":\"%lld:%lld:%lld:%d:%d:%d:%lld\",\"ts\":",
                f.phase, f.phase == 'f' ? "\"bp\":\"e\"," : "", pid, f.run,
                f.context, f.src, f.dst, f.tag, f.seq);
  out += buf;
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"pid\":%lld,\"tid\":%lld", pid, tid);
  out += buf;
  if (f.phase == 'f') {
    const double send_us = static_cast<double>(f.send_ns - epoch_ns) * 1e-3;
    const double wait_us =
        static_cast<double>((f.recv_start_ns >= 0 ? f.recv_start_ns : f.ts_ns) -
                            epoch_ns) *
        1e-3;
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"send_ts\":%.3f,\"wait_start_ts\":%.3f}",
                  send_us, wait_us);
    out += buf;
  }
  out.push_back('}');
}

void append_thread_name_event(std::string& out, long long tid,
                              const std::string& label, long long pid) {
  char buf[96];
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
  std::snprintf(buf, sizeof buf, "%lld,\"tid\":%lld,\"args\":{\"name\":",
                pid, tid);
  out += buf;
  out += json::quote(label);
  out += "}}";
}

// Serializes this process's spans as Chrome trace events. When
// `merge_with` holds a previous trace's traceEvents, they are re-emitted
// first so serial processes sharing one LRT_TRACE path accumulate into a
// single loadable file (ctest runs one process per test).
std::string render_chrome_trace(Registry& reg,
                                const json::Value* merge_with) {
  const long long pid = static_cast<long long>(::getpid());
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  if (merge_with != nullptr) {
    for (const json::Value& event : merge_with->array) {
      if (!first) out.push_back(',');
      first = false;
      out += json::dump(event);
    }
  }
  std::vector<long long> tids_seen;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers) {
      for (const SpanRecord& r : buffer->records) {
        if (!first) out.push_back(',');
        first = false;
        append_chrome_event(out, r, reg.epoch_ns, pid);
        const long long tid = r.rank < 0 ? kNonRankTid : r.rank;
        if (std::find(tids_seen.begin(), tids_seen.end(), tid) ==
            tids_seen.end()) {
          tids_seen.push_back(tid);
        }
      }
      for (const detail::FlowRecord& f : buffer->flows) {
        if (!first) out.push_back(',');
        first = false;
        append_flow_event(out, f, reg.epoch_ns, pid);
      }
    }
  }
  for (const long long tid : tids_seen) {
    if (!first) out.push_back(',');
    first = false;
    const std::string label =
        tid == kNonRankTid ? "main" : "rank " + std::to_string(tid);
    append_thread_name_event(out, tid, label, pid);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void write_profile_report(const std::vector<PhaseStats>& stats) {
  std::ostringstream os;
  os << "[obs] per-phase report (seconds)\n";
  os << "  " << "phase                          count     total       min"
     << "       max  imbalance\n";
  for (const PhaseStats& s : stats) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-28s %7lld %9.4f %9.4f %9.4f %10.2f\n", s.name.c_str(),
                  s.count, s.total_seconds, s.min_rank_seconds,
                  s.max_rank_seconds, s.imbalance);
    os << line;
  }
  const auto counters = snapshot_counters();
  if (!counters.empty()) {
    os << "[obs] counters\n";
    for (const auto& [name, value] : counters) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-40s %lld\n", name.c_str(), value);
      os << line;
    }
  }
  std::fputs(os.str().c_str(), stderr);
}

Registry::~Registry() {
  if (!trace_path.empty()) {
    // Read-merge-rewrite under an exclusive flock so concurrent exiting
    // processes (parallel ctest with one shared LRT_TRACE path) serialize
    // instead of clobbering each other's read-modify-write — each process
    // sees the previous writer's completed merge.
    const int fd = ::open(trace_path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "[obs] cannot write trace to '%s'\n",
                   trace_path.c_str());
    } else {
      while (::flock(fd, LOCK_EX) != 0 && errno == EINTR) {}
      std::string previous;
      char chunk[1 << 16];
      ssize_t n;
      while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
        previous.append(chunk, static_cast<std::size_t>(n));
      }
      json::Value existing;
      const json::Value* merge_with = nullptr;
      if (!previous.empty()) {
        try {
          existing = json::parse(previous);
          if (const json::Value* events = existing.find("traceEvents");
              events != nullptr && events->is_array()) {
            merge_with = events;
          }
        } catch (...) {
          // Unreadable previous trace: overwrite it.
        }
      }
      const std::string rendered = render_chrome_trace(*this, merge_with);
      if (::ftruncate(fd, 0) == 0 && ::lseek(fd, 0, SEEK_SET) == 0) {
        std::size_t written = 0;
        while (written < rendered.size()) {
          const ssize_t w = ::write(fd, rendered.data() + written,
                                    rendered.size() - written);
          if (w <= 0) {
            if (errno == EINTR) continue;
            std::fprintf(stderr, "[obs] short write to '%s'\n",
                         trace_path.c_str());
            break;
          }
          written += static_cast<std::size_t>(w);
        }
      }
      ::close(fd);  // releases the flock
    }
  }
  if (profile_on_exit) write_profile_report(aggregate_phases());
}

}  // namespace

namespace detail {

std::atomic<bool> g_tracing_enabled{false};

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_span(const char* name, long long start_ns, long long end_ns) {
  ThreadBuffer& buffer = thread_buffer();
  SpanRecord r;
  std::snprintf(r.name, sizeof r.name, "%s", name);
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.rank = t_rank;
  buffer.records.push_back(r);
}

void close_span(const char* name, long long start_ns, bool traced,
                PhaseAccumulator* sink) {
  const long long end_ns = now_ns();
  if (traced) record_span(name, start_ns, end_ns);
  if (sink != nullptr) {
    sink->add(name, static_cast<double>(end_ns - start_ns) * 1e-9);
  }
}

void record_flow(const FlowRecord& flow) {
  ThreadBuffer& buffer = thread_buffer();
  FlowRecord f = flow;
  f.rank = t_rank;
  buffer.flows.push_back(f);
}

std::vector<SpanSnapshot> snapshot_spans() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<SpanSnapshot> out;
  for (const auto& buffer : reg.buffers) {
    for (const SpanRecord& r : buffer->records) {
      SpanSnapshot s;
      s.name = r.name;
      s.rank = r.rank;
      s.start_ns = r.start_ns;
      s.end_ns = r.end_ns;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<FlowRecord> snapshot_flows() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<FlowRecord> out;
  for (const auto& buffer : reg.buffers) {
    out.insert(out.end(), buffer->flows.begin(), buffer->flows.end());
  }
  return out;
}

}  // namespace detail

long long vm_hwm_bytes() {
#ifdef __linux__
  std::ifstream in("/proc/self/status");
  if (!in) return -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // Format: "VmHWM:   123456 kB"
      long long kb = 0;
      if (std::sscanf(line.c_str() + 6, "%lld", &kb) == 1) return kb * 1024;
      return -1;
    }
  }
  return -1;
#else
  return -1;
#endif
}

void set_tracing_enabled(bool enabled) {
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

int thread_rank() { return t_rank; }

void set_thread_rank(int rank) { t_rank = rank; }

std::vector<PhaseStats> aggregate_phases() {
  Registry& reg = registry();
  // name -> rank -> (count, total_ns), names kept in first-seen order.
  struct RankTotals {
    std::map<int, std::pair<long long, long long>> by_rank;
  };
  std::map<std::string, RankTotals> totals;
  std::vector<std::string> order;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers) {
      for (const SpanRecord& r : buffer->records) {
        auto [it, inserted] = totals.try_emplace(r.name);
        if (inserted) order.push_back(r.name);
        auto& [count, total_ns] = it->second.by_rank[r.rank];
        count += 1;
        total_ns += r.end_ns - r.start_ns;
      }
    }
  }
  std::vector<PhaseStats> out;
  out.reserve(order.size());
  for (const std::string& name : order) {
    const RankTotals& rt = totals.at(name);
    PhaseStats s;
    s.name = name;
    s.ranks = static_cast<int>(rt.by_rank.size());
    bool first = true;
    for (const auto& [rank, entry] : rt.by_rank) {
      const auto& [count, total_ns] = entry;
      const double seconds = static_cast<double>(total_ns) * 1e-9;
      s.count += count;
      s.total_seconds += seconds;
      if (first || seconds < s.min_rank_seconds) s.min_rank_seconds = seconds;
      if (first || seconds > s.max_rank_seconds) s.max_rank_seconds = seconds;
      first = false;
    }
    s.mean_rank_seconds = s.total_seconds / static_cast<double>(s.ranks);
    s.imbalance = s.mean_rank_seconds > 0.0
                      ? s.max_rank_seconds / s.mean_rank_seconds
                      : 1.0;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t span_count() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t n = 0;
  for (const auto& buffer : reg.buffers) n += buffer->records.size();
  return n;
}

void reset_trace() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    buffer->records.clear();
    buffer->flows.clear();
  }
}

bool write_chrome_trace(const std::string& path) {
  const std::string rendered = render_chrome_trace(registry(), nullptr);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << rendered;
  return true;
}

void PhaseAccumulator::add(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(name);
  if (it == totals_.end()) {
    it = totals_.emplace(std::string(name), 0.0).first;
    order_.emplace_back(name);
  }
  it->second += seconds;
}

double PhaseAccumulator::total(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

double PhaseAccumulator::grand_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const auto& [name, secs] : totals_) sum += secs;
  return sum;
}

std::vector<std::string> PhaseAccumulator::phases() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

void PhaseAccumulator::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.clear();
  order_.clear();
}

}  // namespace lrt::obs
