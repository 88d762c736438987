// lrt-analyze: the project-specific static gate.
//
//   lrt-analyze [check] [--repo DIR] [--json PATH] [--sarif PATH]
//               [--baseline FILE] [--pass NAME]... [--verbose]
//       Runs every pass (or the selected ones) over src/, tests/, bench/,
//       examples/ and tools/*.sh. Exit 0 when no *new* findings remain
//       after inline suppressions and the baseline; 1 otherwise.
//
//   lrt-analyze gen-phases [--repo DIR] [--write]
//       Regenerates src/obs/phase_registry.hpp from src/obs/phases.def
//       (to stdout without --write).
//
//   lrt-analyze gen-counters [--repo DIR] [--write]
//       Same for src/obs/counter_registry.hpp from src/obs/counters.def.
//
//   lrt-analyze list-passes
//
// This binary is the primary static gate run by tools/lint.sh; see
// docs/STATIC_ANALYSIS.md for the pass catalogue and workflow.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/passes.hpp"
#include "analyze/registry_gen.hpp"
#include "analyze/sarif.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"

namespace {

namespace fs = std::filesystem;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [check] [--repo DIR] [--json PATH] [--sarif PATH]\n"
      "          [--baseline FILE] [--pass NAME]... [--verbose]\n"
      "       %s gen-phases [--repo DIR] [--write]\n"
      "       %s gen-counters [--repo DIR] [--write]\n"
      "       %s list-passes\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

/// Ascends from `start` to the first directory that looks like the repo
/// root (has both src/ and tools/). Returns empty when not found.
std::string find_root(const fs::path& start) {
  fs::path dir = fs::absolute(start);
  while (true) {
    if (fs::is_directory(dir / "src") && fs::is_directory(dir / "tools")) {
      return dir.string();
    }
    if (!dir.has_parent_path() || dir.parent_path() == dir) return {};
    dir = dir.parent_path();
  }
}

/// Shared driver for gen-phases and gen-counters: regenerate a registry
/// header from its def file, to stdout or in place with --write.
int run_gen_registry(const std::string& root, bool write, const char* def_rel,
                     const char* header_rel, const char* what,
                     std::string (*generate)(
                         const std::vector<lrt::analyze::PhaseDef>&)) {
  const std::string def_path = root + "/" + def_rel;
  const std::vector<lrt::analyze::PhaseDef> defs =
      lrt::analyze::parse_phases_def_entries(lrt::analyze::read_file(def_path));
  const std::string header = generate(defs);
  if (!write) {
    std::fputs(header.c_str(), stdout);
    return 0;
  }
  const std::string out_path = root + "/" + header_rel;
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "lrt-analyze: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << header;
  std::fprintf(stderr, "lrt-analyze: wrote %s (%zu %s)\n", out_path.c_str(),
               defs.size(), what);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo;
  std::string json_path;
  std::string sarif_path;
  std::string baseline_path;
  std::vector<std::string> selected;
  bool verbose = false;
  bool gen_phases = false;
  bool gen_counters = false;
  bool write = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "check") {
      // default mode; accepted for readability in scripts
    } else if (arg == "gen-phases") {
      gen_phases = true;
    } else if (arg == "gen-counters") {
      gen_counters = true;
    } else if (arg == "list-passes") {
      for (const std::string& name : lrt::analyze::all_pass_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--repo") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      repo = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--sarif") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sarif_path = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      baseline_path = v;
    } else if (arg == "--pass") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      selected.emplace_back(v);
    } else if (arg == "--write") {
      write = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      std::fprintf(stderr, "lrt-analyze: unknown argument '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }

  try {
    const std::string root =
        repo.empty() ? find_root(fs::current_path()) : find_root(repo);
    if (root.empty()) {
      std::fprintf(stderr,
                   "lrt-analyze: cannot locate repo root (need src/ and "
                   "tools/); pass --repo DIR\n");
      return 2;
    }

    if (gen_phases) {
      return run_gen_registry(root, write, "src/obs/phases.def",
                              "src/obs/phase_registry.hpp", "phases",
                              &lrt::analyze::generate_phase_registry_header);
    }
    if (gen_counters) {
      return run_gen_registry(root, write, "src/obs/counters.def",
                              "src/obs/counter_registry.hpp", "counters",
                              &lrt::analyze::generate_counter_registry_header);
    }

    lrt::analyze::Config config;
    config.root = root;
    for (const std::string& name : selected) {
      const auto& names = lrt::analyze::all_pass_names();
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::fprintf(stderr, "lrt-analyze: unknown pass '%s'\n",
                     name.c_str());
        return 2;
      }
      config.passes.insert(name);
    }

    if (baseline_path.empty()) {
      const std::string committed = root + "/tools/lrt-analyze.baseline";
      if (fs::is_regular_file(committed)) baseline_path = committed;
    }
    if (!baseline_path.empty()) {
      lrt::analyze::load_baseline(lrt::analyze::read_file(baseline_path),
                                  &config);
    }

    const std::string def_path = root + "/src/obs/phases.def";
    if (fs::is_regular_file(def_path)) {
      config.phase_registry =
          lrt::analyze::parse_phases_def(lrt::analyze::read_file(def_path));
    }
    const std::string counters_def = root + "/src/obs/counters.def";
    if (fs::is_regular_file(counters_def)) {
      config.counter_registry = lrt::analyze::parse_phases_def(
          lrt::analyze::read_file(counters_def));
    }
    const std::string src_cmake = root + "/src/CMakeLists.txt";
    if (fs::is_regular_file(src_cmake)) {
      lrt::analyze::load_hot_tus(lrt::analyze::read_file(src_cmake), &config);
    }

    const lrt::analyze::Report report = lrt::analyze::analyze_repo(config);

    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "lrt-analyze: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      out << lrt::obs::json::dump(
                 lrt::analyze::report_to_json(config, report))
          << "\n";
    }
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "lrt-analyze: cannot write %s\n",
                     sarif_path.c_str());
        return 2;
      }
      out << lrt::obs::json::dump(
                 lrt::analyze::report_to_sarif(config, report))
          << "\n";
    }

    const std::string text = lrt::analyze::report_to_text(report, verbose);
    std::fputs(text.c_str(), report.clean() ? stdout : stderr);
    return report.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrt-analyze: %s\n", e.what());
    return 2;
  }
}
