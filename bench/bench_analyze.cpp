// Analyzer self-benchmark.
//
// Times full lrt-analyze runs (lex, call-graph construction with
// bottom-up summaries, every pass) over a repository checkout and emits
// an lrt.bench/1 report, so analyzer cost rides the same regression
// trajectory as the numeric kernels. With --max-ms N the median wall
// time becomes a CI gate: the analyzer runs on every lint invocation,
// so a quadratic blowup in the call-graph or pass layer should fail
// loudly, not silently stretch CI.
//
//   bench_analyze [--repo PATH] [--reps N] [--max-ms N] [--out FILE]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "common/timer.hpp"
#include "obs/bench_report.hpp"

using namespace lrt;

namespace {

analyze::Config repo_config(const std::string& root) {
  analyze::Config config;
  config.root = root;
  config.phase_registry = analyze::parse_phases_def(
      analyze::read_file(root + "/src/obs/phases.def"));
  config.counter_registry = analyze::parse_phases_def(
      analyze::read_file(root + "/src/obs/counters.def"));
  analyze::load_hot_tus(analyze::read_file(root + "/src/CMakeLists.txt"),
                        &config);
  analyze::load_baseline(
      analyze::read_file(root + "/tools/lrt-analyze.baseline"), &config);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo = ".";
  std::string out;
  int reps = 5;
  double max_ms = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repo") == 0 && i + 1 < argc) {
      repo = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-ms") == 0 && i + 1 < argc) {
      max_ms = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_analyze [--repo PATH] [--reps N] "
                   "[--max-ms N] [--out FILE]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  const analyze::Config config = repo_config(repo);

  std::vector<double> wall_ms(static_cast<std::size_t>(reps));
  analyze::Report last;
  for (std::size_t r = 0; r < wall_ms.size(); ++r) {
    Timer timer;
    last = analyze::analyze_repo(config);
    wall_ms[r] = timer.seconds() * 1e3;
  }
  std::nth_element(wall_ms.begin(), wall_ms.begin() + wall_ms.size() / 2,
                   wall_ms.end());
  const double median_ms = wall_ms[wall_ms.size() / 2];
  const double min_ms = *std::min_element(wall_ms.begin(), wall_ms.end());

  obs::BenchReport report("analyze");
  report.meta("repo", repo);
  obs::BenchReport::Record& rec = report.record("analyze_repo");
  rec.param("reps", static_cast<long long>(reps));
  rec.metric("wall_ms_median", median_ms);
  rec.metric("wall_ms_min", min_ms);
  rec.metric("findings", static_cast<double>(last.findings.size()));
  rec.metric("new", static_cast<double>(last.new_count));
  rec.metric("suppressed", static_cast<double>(last.suppressed_count));
  rec.metric("baselined", static_cast<double>(last.baselined_count));
  const bool wrote = out.empty() ? report.write() : report.write(out);
  if (!wrote) {
    std::fprintf(stderr, "bench_analyze: could not write report\n");
    return 2;
  }

  std::printf("analyze_repo over %s: median %.1f ms, min %.1f ms "
              "(%d reps, %zu findings)\n",
              repo.c_str(), median_ms, min_ms, reps, last.findings.size());
  if (max_ms >= 0.0 && median_ms > max_ms) {
    std::fprintf(stderr, "bench_analyze: median %.1f ms exceeds --max-ms %.1f\n",
                 median_ms, max_ms);
    return 1;
  }
  return 0;
}
