// lrt-analyze orchestration: file discovery, pass execution, suppression
// and baseline handling, and the `lrt.analyze/1` machine-readable report.
//
// The analyzer is the static leg of the project's three-legged
// correctness tooling: lrt-analyze (before the code runs), the LRT_CHECK
// runtime verifier (while it runs, src/par/check/), and the obs tracer
// (after it ran, src/obs/). See docs/STATIC_ANALYSIS.md.
//
// Findings resolve to one of three states:
//   new        fails the gate (non-zero exit)
//   suppressed an inline `// lrt-analyze: allow(<pass>)` covers the line
//   baselined  the baseline file grandfathers the edge or the whole file
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "obs/json.hpp"

namespace lrt::analyze {

struct Finding {
  std::string pass;
  std::string file;  ///< repo-relative
  int line = 0;
  std::string message;

  enum class Status { kNew, kSuppressed, kBaselined };
  Status status = Status::kNew;
};

/// Everything a run needs; the CLI driver fills this from flags and the
/// committed baseline/registry files, tests fill it by hand.
struct Config {
  std::string root;  ///< repo root (directory holding src/)

  /// Pass names to run; empty means every pass.
  std::set<std::string> passes;

  /// Registered phase/span vocabulary (from src/obs/phases.def). When
  /// empty the phase-registry pass reports a configuration finding
  /// instead of silently passing.
  std::set<std::string> phase_registry;

  /// Registered counter-name vocabulary (from src/obs/counters.def).
  /// Same contract as phase_registry, for the counter-registry pass.
  std::set<std::string> counter_registry;

  /// Repo-relative TUs promoted to -O3 (parsed from src/CMakeLists.txt by
  /// load_hot_tus); the hot-path-purity pass checks these whole files in
  /// addition to every function containing an omp region.
  std::set<std::string> hot_files;

  /// Grandfathered layer edges, as "from->to" module pairs.
  std::set<std::string> baseline_layer_edges;
  /// Whole files grandfathered for a pass, as "pass:path" entries.
  std::set<std::string> baseline_files;
};

struct Report {
  std::vector<Finding> findings;  ///< sorted by (file, line, pass)
  int new_count = 0;
  int suppressed_count = 0;
  int baselined_count = 0;

  bool clean() const { return new_count == 0; }
};

/// Names of every pass, in reporting order.
const std::vector<std::string>& all_pass_names();

/// Parses the baseline file format into `config` (one entry per line):
///
///   # comment
///   layer-dag common -> obs
///   collective-divergence tests/test_par_check.cpp
///
/// Throws lrt::Error on a malformed line.
void load_baseline(const std::string& text, Config* config);

/// Parses the phases.def format (one name per line, '#' comments,
/// anything after the name is description) into a name set.
std::set<std::string> parse_phases_def(const std::string& text);

/// Parses `set_source_files_properties(... COMPILE_OPTIONS "-O3")` blocks
/// out of a src/CMakeLists.txt and fills config->hot_files with the
/// listed TUs as "src/<path>" entries. Blocks without "-O3" are ignored.
void load_hot_tus(const std::string& cmake_text, Config* config);

/// Reads a file into a string. Throws lrt::Error when unreadable.
std::string read_file(const std::string& path);

/// Discovers the .cpp/.hpp files under root/{src,tests,bench,examples},
/// skipping any path containing an `analyze_fixtures` component (the
/// seeded-violation corpus must not fail the real gate). Returned paths
/// are repo-relative with forward slashes, sorted.
std::vector<std::string> discover_sources(const std::string& root);

/// Lexes and analyzes the given repo-relative files plus the tools/*.sh
/// scripts (for `--require-phase` vocabulary checks). This is the whole
/// pipeline: passes, suppressions, baseline, sort.
Report analyze(const Config& config, const std::vector<std::string>& files);

/// Convenience: discover_sources + analyze.
Report analyze_repo(const Config& config);

/// The `lrt.analyze/1` report document.
obs::json::Value report_to_json(const Config& config, const Report& report);

/// Human-readable findings (new ones in full, one summary line). Returns
/// the text rather than printing so tests can assert on it.
std::string report_to_text(const Report& report, bool verbose);

}  // namespace lrt::analyze
