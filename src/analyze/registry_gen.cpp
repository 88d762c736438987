#include "analyze/registry_gen.hpp"

#include <cstddef>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace lrt::analyze {

namespace {

bool valid_phase_name(const std::string& name) {
  if (name.empty() || !(name[0] >= 'a' && name[0] <= 'z')) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::vector<PhaseDef> parse_phases_def_entries(const std::string& text) {
  std::vector<PhaseDef> defs;
  std::set<std::string> seen;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    PhaseDef def;
    if (!(fields >> def.name)) continue;  // blank / comment-only line
    LRT_CHECK(valid_phase_name(def.name),
              "phases.def line " << lineno << ": invalid phase name '"
                                 << def.name << "'");
    LRT_CHECK(seen.insert(def.name).second,
              "phases.def line " << lineno << ": duplicate phase '"
                                 << def.name << "'");
    std::string word;
    while (fields >> word) {
      if (!def.description.empty()) def.description += ' ';
      def.description += word;
    }
    defs.push_back(std::move(def));
  }
  return defs;
}

std::string phase_constant_name(const std::string& phase) {
  std::string out = "k";
  bool upper_next = true;
  for (const char c : phase) {
    if (c == '.' || c == '_') {
      upper_next = true;
      continue;
    }
    if (upper_next && c >= 'a' && c <= 'z') {
      out.push_back(static_cast<char>(c - 'a' + 'A'));
    } else {
      out.push_back(c);
    }
    upper_next = false;
  }
  return out;
}

std::string generate_phase_registry_header(const std::vector<PhaseDef>& defs) {
  std::ostringstream os;
  os << "// GENERATED FILE — DO NOT EDIT.\n"
     << "//\n"
     << "// Registered phase/span name vocabulary, generated from\n"
     << "// src/obs/phases.def by `lrt-analyze gen-phases --write`. The\n"
     << "// phase-registry-sync pass fails CI when this file and the def\n"
     << "// drift apart; the phase-registry pass requires every\n"
     << "// obs::Span literal and every\n"
     << "// `validate_trace --require-phase` argument to name an entry.\n"
     << "#pragma once\n"
     << "\n"
     << "#include <cstddef>\n"
     << "#include <string_view>\n"
     << "\n"
     << "namespace lrt::obs::phase {\n"
     << "\n";
  for (const PhaseDef& def : defs) {
    os << "inline constexpr const char* " << phase_constant_name(def.name)
       << " = \"" << def.name << "\";";
    if (!def.description.empty()) os << "  // " << def.description;
    os << "\n";
  }
  os << "\n"
     << "inline constexpr const char* kAll[] = {\n";
  for (const PhaseDef& def : defs) {
    os << "    " << phase_constant_name(def.name) << ",\n";
  }
  os << "};\n"
     << "\n"
     << "inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);\n"
     << "\n"
     << "/// True when `name` is a registered phase/span name.\n"
     << "constexpr bool is_registered(std::string_view name) {\n"
     << "  for (const char* phase : kAll) {\n"
     << "    if (name == phase) return true;\n"
     << "  }\n"
     << "  return false;\n"
     << "}\n"
     << "\n"
     << "}  // namespace lrt::obs::phase\n";
  return os.str();
}

std::string generate_counter_registry_header(
    const std::vector<PhaseDef>& defs) {
  std::ostringstream os;
  os << "// GENERATED FILE — DO NOT EDIT.\n"
     << "//\n"
     << "// Registered counter name vocabulary, generated from\n"
     << "// src/obs/counters.def by `lrt-analyze gen-counters --write`. The\n"
     << "// counter-registry-sync pass fails CI when this file and the def\n"
     << "// drift apart; the counter-registry pass requires every\n"
     << "// obs::counter(\"...\") literal in src/ and bench/ to name an\n"
     << "// entry. Dynamically built names (e.g. the comm.<kind> family)\n"
     << "// must still enumerate every reachable name here.\n"
     << "#pragma once\n"
     << "\n"
     << "#include <cstddef>\n"
     << "#include <string_view>\n"
     << "\n"
     << "namespace lrt::obs::cnt {\n"
     << "\n";
  for (const PhaseDef& def : defs) {
    os << "inline constexpr const char* " << phase_constant_name(def.name)
       << " = \"" << def.name << "\";";
    if (!def.description.empty()) os << "  // " << def.description;
    os << "\n";
  }
  os << "\n"
     << "inline constexpr const char* kAll[] = {\n";
  for (const PhaseDef& def : defs) {
    os << "    " << phase_constant_name(def.name) << ",\n";
  }
  os << "};\n"
     << "\n"
     << "inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);\n"
     << "\n"
     << "/// True when `name` is a registered counter name.\n"
     << "constexpr bool is_registered(std::string_view name) {\n"
     << "  for (const char* counter : kAll) {\n"
     << "    if (name == counter) return true;\n"
     << "  }\n"
     << "  return false;\n"
     << "}\n"
     << "\n"
     << "}  // namespace lrt::obs::cnt\n";
  return os.str();
}

}  // namespace lrt::analyze
