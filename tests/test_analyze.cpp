// Tests for the lrt-analyze static analyzer (src/analyze/).
//
// The seeded-violation corpus lives in tests/analyze_fixtures/repo — a
// miniature repository tree the analyzer runs over exactly as it runs
// over the real one. LRT_ANALYZE_FIXTURES and LRT_REPO_ROOT are injected
// by tests/CMakeLists.txt.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.hpp"
#include "analyze/callgraph.hpp"
#include "analyze/lexer.hpp"
#include "analyze/passes.hpp"
#include "analyze/registry_gen.hpp"
#include "analyze/sarif.hpp"
#include "common/error.hpp"
#include "obs/counter_registry.hpp"
#include "obs/phase_registry.hpp"

namespace {

using lrt::analyze::Config;
using lrt::analyze::Finding;
using lrt::analyze::Report;
using lrt::analyze::TokKind;

const std::string kFixtureRepo = std::string(LRT_ANALYZE_FIXTURES) + "/repo";
const std::string kRepoRoot = LRT_REPO_ROOT;

/// Fixture-repo config running only `passes` (all when empty).
Config fixture_config(std::set<std::string> passes) {
  Config config;
  config.root = kFixtureRepo;
  config.passes = std::move(passes);
  config.phase_registry = lrt::analyze::parse_phases_def(
      lrt::analyze::read_file(kRepoRoot + "/src/obs/phases.def"));
  // The counter fixture registers one synthetic name; the hot-TU set
  // comes from the fixture's own CMakeLists (promotes la/hot.cpp).
  config.counter_registry = {"fixture.good"};
  lrt::analyze::load_hot_tus(
      lrt::analyze::read_file(kFixtureRepo + "/src/CMakeLists.txt"), &config);
  return config;
}

Report run_fixture(const Config& config) {
  return lrt::analyze::analyze(config,
                               lrt::analyze::discover_sources(config.root));
}

std::vector<Finding> findings_for(const Report& report,
                                  const std::string& pass) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if (f.pass == pass) out.push_back(f);
  }
  return out;
}

int count_status(const std::vector<Finding>& findings,
                 Finding::Status status) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.status == status; }));
}

// ----- lexer ------------------------------------------------------------------

TEST(AnalyzeLexer, CommentsAndStringsNeverYieldIdentifiers) {
  const std::string text =
      "// new in a line comment\n"
      "/* delete in a block\n"
      "   comment spanning lines */\n"
      "const char* s = \"volatile new delete\";\n"
      "const char* r = R\"(std::thread sleep_for)\";\n"
      "char c = 'v';\n"
      "int actual_identifier = 0;\n";
  const lrt::analyze::LexedFile file = lrt::analyze::lex("x.cpp", text);
  for (const auto& tok : file.tokens) {
    if (tok.kind != TokKind::kIdentifier) continue;
    EXPECT_NE(tok.text, "new");
    EXPECT_NE(tok.text, "delete");
    EXPECT_NE(tok.text, "volatile");
    EXPECT_NE(tok.text, "thread");
    EXPECT_NE(tok.text, "sleep_for");
  }
  const auto found =
      std::find_if(file.tokens.begin(), file.tokens.end(), [](const auto& t) {
        return t.kind == TokKind::kIdentifier &&
               t.text == "actual_identifier";
      });
  ASSERT_NE(found, file.tokens.end());
  EXPECT_EQ(found->line, 7);
}

TEST(AnalyzeLexer, IncludePathsAreDistinctFromStrings) {
  const std::string text =
      "#include \"la/matrix.hpp\"\n"
      "#include <vector>\n"
      "const char* fake = \"la/matrix.hpp\";\n";
  const lrt::analyze::LexedFile file = lrt::analyze::lex("x.cpp", text);
  int quoted = 0;
  int angled = 0;
  int strings = 0;
  for (const auto& tok : file.tokens) {
    if (tok.kind == TokKind::kIncludePath) {
      ++quoted;
      EXPECT_EQ(tok.text, "la/matrix.hpp");
    }
    if (tok.kind == TokKind::kSysInclude) ++angled;
    if (tok.kind == TokKind::kString) ++strings;
  }
  EXPECT_EQ(quoted, 1);
  EXPECT_EQ(angled, 1);
  EXPECT_EQ(strings, 1);
}

TEST(AnalyzeLexer, SuppressionDirectiveCoversOwnAndNextLine) {
  const std::string text =
      "// lrt-analyze: allow(banned-volatile, banned-sleep)\n"
      "int covered;\n"
      "int uncovered;\n"
      "int same = 1;  // lrt-analyze: allow(all)\n";
  const lrt::analyze::LexedFile file = lrt::analyze::lex("x.cpp", text);
  EXPECT_TRUE(file.suppressed("banned-volatile", 1));
  EXPECT_TRUE(file.suppressed("banned-volatile", 2));
  EXPECT_TRUE(file.suppressed("banned-sleep", 2));
  EXPECT_FALSE(file.suppressed("banned-thread", 2));
  EXPECT_FALSE(file.suppressed("banned-volatile", 3));
  EXPECT_TRUE(file.suppressed("banned-volatile", 4));  // allow(all)
  EXPECT_TRUE(file.suppressed("layer-dag", 4));
}

TEST(AnalyzeLexer, DigitSeparatorsLexAsOneNumber) {
  const lrt::analyze::LexedFile file =
      lrt::analyze::lex("x.cpp", "const long n = 1'000'000 + 0x1'FF;\n");
  int numbers = 0;
  for (const auto& tok : file.tokens) {
    if (tok.kind == TokKind::kNumber) ++numbers;
  }
  EXPECT_EQ(numbers, 2);
}

TEST(AnalyzeLexer, RawStringInsideMacroArgStaysOpaque) {
  const lrt::analyze::LexedFile file = lrt::analyze::lex(
      "x.cpp", "CHECK_MSG(R\"(volatile \"quoted\" new)\", value);\n");
  for (const auto& tok : file.tokens) {
    if (tok.kind != TokKind::kIdentifier) continue;
    EXPECT_NE(tok.text, "volatile");
    EXPECT_NE(tok.text, "new");
    EXPECT_NE(tok.text, "quoted");
  }
}

TEST(AnalyzeLexer, EncodingPrefixedStringsStayOpaque) {
  const lrt::analyze::LexedFile file = lrt::analyze::lex(
      "x.cpp",
      "const char* a = u8\"volatile new\";\n"
      "const wchar_t* b = L\"delete thread\";\n"
      "const char32_t* c = U\"sleep_for here\";\n"
      "const char16_t* d = u\"mutex\";\n"
      "const char* e = u8R\"(raw volatile)\";\n"
      "wchar_t wc = L'v';\n"
      "char32_t uc = U'w';\n");
  int strings = 0;
  for (const auto& tok : file.tokens) {
    if (tok.kind == TokKind::kString) ++strings;
    if (tok.kind != TokKind::kIdentifier) continue;
    // The literal contents must stay opaque — and so must the prefixes
    // themselves (no stray 'u8'/'L'/'U' identifier tokens).
    EXPECT_NE(tok.text, "volatile");
    EXPECT_NE(tok.text, "new");
    EXPECT_NE(tok.text, "delete");
    EXPECT_NE(tok.text, "thread");
    EXPECT_NE(tok.text, "sleep_for");
    EXPECT_NE(tok.text, "mutex");
    EXPECT_NE(tok.text, "u8");
    EXPECT_NE(tok.text, "L");
    EXPECT_NE(tok.text, "U");
  }
  EXPECT_EQ(strings, 5);
}

TEST(AnalyzeLexer, MemberPointerPunctuatorsAreSingleTokens) {
  const lrt::analyze::LexedFile file =
      lrt::analyze::lex("x.cpp", "(a->*pm)(); (b.*qm)(); c = a->b.x;\n");
  std::vector<std::string> puncts;
  for (const auto& tok : file.tokens) {
    if (tok.kind == TokKind::kPunct) puncts.push_back(tok.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->*"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), ".*"), puncts.end());
  // Plain member access still lexes as its own punctuators.
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "."), puncts.end());
}

TEST(AnalyzeLexer, IncrementDecrementAreSingleTokens) {
  const lrt::analyze::LexedFile file =
      lrt::analyze::lex("x.cpp", "i++; --j; a += b;\n");
  std::vector<std::string> puncts;
  for (const auto& tok : file.tokens) {
    if (tok.kind == TokKind::kPunct) puncts.push_back(tok.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "++"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "--"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "+="), puncts.end());
}

TEST(AnalyzeLexer, SplicedPragmaIsOneDirectiveExtent) {
  const std::string text =
      "#pragma omp parallel for schedule(static) \\\n"
      "    reduction(+ : acc) \\\n"
      "    firstprivate(n)\n"
      "for (int i = 0; i < n; ++i) acc += 1;\n";
  const lrt::analyze::LexedFile file = lrt::analyze::lex("x.cpp", text);
  ASSERT_EQ(file.directives.size(), 1u);
  const auto& d = file.directives[0];
  // The extent spans every spliced clause: 'reduction' and
  // 'firstprivate' from the continuation lines are inside it, and it
  // closes before the loop statement on the first unspliced line.
  bool saw_reduction = false;
  bool saw_firstprivate = false;
  for (std::size_t i = d.begin; i < d.end; ++i) {
    if (file.tokens[i].kind != TokKind::kIdentifier) continue;
    if (file.tokens[i].text == "reduction") saw_reduction = true;
    if (file.tokens[i].text == "firstprivate") saw_firstprivate = true;
  }
  EXPECT_TRUE(saw_reduction);
  EXPECT_TRUE(saw_firstprivate);
  ASSERT_LT(d.end, file.tokens.size());
  EXPECT_EQ(file.tokens[d.end].text, "for");  // the associated loop
}

// ----- call graph -------------------------------------------------------------

/// Index of the `n`th occurrence (0-based) of identifier `name`.
std::size_t nth_ident(const lrt::analyze::LexedFile& file,
                      const std::string& name, int n) {
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (file.tokens[i].kind == TokKind::kIdentifier &&
        file.tokens[i].text == name && n-- == 0) {
      return i;
    }
  }
  return lrt::analyze::kNoFunction;
}

const lrt::analyze::FunctionInfo* find_fn(const lrt::analyze::CallGraph& g,
                                          const std::string& name) {
  for (const auto& fn : g.functions()) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

TEST(AnalyzeCallGraph, DiscoversDefinitionsParamsAndDirectFacts) {
  const lrt::analyze::LexedFile file = lrt::analyze::lex(
      "a.cpp",
      "#define SQ(x) ((x) * (x))\n"
      "void sink(double& acc, const double& ro, int n, double* out) {\n"
      "  acc += 1.0;\n"
      "  out[0] = SQ(ro);\n"
      "}\n"
      "void noisy() { printf(\"x\"); }\n"
      "int declared_only(int a);\n");
  const lrt::analyze::CallGraph g = lrt::analyze::CallGraph::build({file});
  ASSERT_EQ(g.functions().size(), 2u);  // the declaration is not a def

  const auto* sink = find_fn(g, "sink");
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->params.size(), 4u);
  EXPECT_EQ(sink->params[0].name, "acc");
  EXPECT_TRUE(sink->params[0].mutable_ref);
  EXPECT_FALSE(sink->params[1].mutable_ref);  // const ref
  EXPECT_FALSE(sink->params[2].mutable_ref);  // by value
  EXPECT_TRUE(sink->params[3].mutable_ref);   // non-const pointer
  EXPECT_EQ(sink->writes.count(0), 1u);       // acc += 1.0
  EXPECT_EQ(sink->writes.count(3), 1u);       // out[0] = (literal index)
  EXPECT_FALSE(sink->allocates.holds);

  const auto* noisy = find_fn(g, "noisy");
  ASSERT_NE(noisy, nullptr);
  EXPECT_TRUE(noisy->does_io.holds);
  EXPECT_EQ(noisy->does_io.what, "printf");
}

TEST(AnalyzeCallGraph, ResolvesByArityAndDegradesToUnknown) {
  const lrt::analyze::LexedFile a = lrt::analyze::lex(
      "a.cpp",
      "int helper(int x) { return x; }\n"
      "int helper(int x, int y) { return x + y; }\n"
      "int twin() { return 1; }\n"
      "void caller(int v) {\n"
      "  helper(v);\n"
      "  helper(v, v);\n"
      "  obj.helper(v);\n"
      "  std::max(v, v);\n"
      "  twin();\n"
      "}\n");
  const lrt::analyze::LexedFile b =
      lrt::analyze::lex("b.cpp", "int twin() { return 2; }\n");
  const lrt::analyze::CallGraph g = lrt::analyze::CallGraph::build({a, b});

  // helper(v) resolves to the unary overload, helper(v, v) to the binary.
  const std::size_t c1 = g.resolve_call(a.tokens, nth_ident(a, "helper", 2),
                                        0);
  ASSERT_NE(c1, lrt::analyze::kNoFunction);
  EXPECT_EQ(g.functions()[c1].params.size(), 1u);
  const std::size_t c2 = g.resolve_call(a.tokens, nth_ident(a, "helper", 3),
                                        0);
  ASSERT_NE(c2, lrt::analyze::kNoFunction);
  EXPECT_EQ(g.functions()[c2].params.size(), 2u);

  // Member access and std:: qualification degrade to unknown.
  EXPECT_EQ(g.resolve_call(a.tokens, nth_ident(a, "helper", 4), 0),
            lrt::analyze::kNoFunction);
  EXPECT_EQ(g.resolve_call(a.tokens, nth_ident(a, "max", 0), 0),
            lrt::analyze::kNoFunction);

  // Same name + arity in two TUs: the same-file definition wins for the
  // caller in a.cpp (internal-linkage convention).
  const std::size_t ct = g.resolve_call(a.tokens, nth_ident(a, "twin", 1),
                                        0);
  ASSERT_NE(ct, lrt::analyze::kNoFunction);
  EXPECT_EQ(g.functions()[ct].path, "a.cpp");
  // A declaration shape (`Type name(...)`) is not a call.
  const lrt::analyze::LexedFile c = lrt::analyze::lex(
      "c.cpp", "void f() { Widget twin(2); }\n"
               "int twin(int x) { return x; }\n");
  const lrt::analyze::CallGraph g2 =
      lrt::analyze::CallGraph::build({c});
  EXPECT_EQ(g2.resolve_call(c.tokens, nth_ident(c, "twin", 0), 0),
            lrt::analyze::kNoFunction);
}

TEST(AnalyzeCallGraph, PropagatesFactsAndWritesBottomUp) {
  const lrt::analyze::LexedFile file = lrt::analyze::lex(
      "a.cpp",
      "void leaf(double& x) { x += 1.0; new int; }\n"
      "void mid(double& y) { leaf(y); }\n"
      "void top(double& z) { mid(z); }\n"
      "void recurse(int n) { if (n > 0) recurse(n - 1); }\n");
  const lrt::analyze::CallGraph g = lrt::analyze::CallGraph::build({file});
  const auto* top = find_fn(g, "top");
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(top->allocates.holds);
  EXPECT_EQ(top->allocates.what, "new");
  ASSERT_EQ(top->writes.count(0), 1u);
  const std::size_t top_idx =
      static_cast<std::size_t>(top - g.functions().data());
  EXPECT_EQ(g.fact_chain(top_idx, &lrt::analyze::FunctionInfo::allocates),
            "top -> mid -> leaf");
  EXPECT_EQ(g.write_chain(top_idx, 0), "top -> mid -> leaf");
  // Self-recursion (a one-function SCC) terminates and stays fact-free.
  const auto* recurse = find_fn(g, "recurse");
  ASSERT_NE(recurse, nullptr);
  EXPECT_FALSE(recurse->allocates.holds);
}

// ----- registry generator -----------------------------------------------------

TEST(AnalyzeRegistry, ConstantNames) {
  EXPECT_EQ(lrt::analyze::phase_constant_name("pair_product"),
            "kPairProduct");
  EXPECT_EQ(lrt::analyze::phase_constant_name("fft.fft3d"), "kFftFft3d");
  EXPECT_EQ(lrt::analyze::phase_constant_name("mpi"), "kMpi");
}

TEST(AnalyzeRegistry, ParseRejectsBadNamesAndDuplicates) {
  EXPECT_THROW(lrt::analyze::parse_phases_def_entries("Bad_Upper\n"),
               lrt::Error);
  EXPECT_THROW(lrt::analyze::parse_phases_def_entries("fft\nfft\n"),
               lrt::Error);
  const auto defs = lrt::analyze::parse_phases_def_entries(
      "# comment\n"
      "fft  3-D transforms\n"
      "mpi\n");
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "fft");
  EXPECT_EQ(defs[0].description, "3-D transforms");
  EXPECT_EQ(defs[1].description, "");
}

TEST(AnalyzeRegistry, CompiledHeaderMatchesPhasesDef) {
  // The committed header this test compiled against must agree with the
  // committed def file — the compile-time face of the sync pass.
  const auto defs = lrt::analyze::parse_phases_def_entries(
      lrt::analyze::read_file(kRepoRoot + "/src/obs/phases.def"));
  EXPECT_EQ(lrt::obs::phase::kCount, defs.size());
  for (const auto& def : defs) {
    EXPECT_TRUE(lrt::obs::phase::is_registered(def.name)) << def.name;
  }
  EXPECT_FALSE(lrt::obs::phase::is_registered("bogus_phase"));
  EXPECT_TRUE(lrt::obs::phase::is_registered(lrt::obs::phase::kFft));
}

TEST(AnalyzeRegistry, SyncPassCleanOnRepo) {
  Config config;
  config.root = kRepoRoot;
  config.passes = {"phase-registry-sync"};
  const Report report = lrt::analyze::analyze(config, {});
  EXPECT_EQ(report.findings.size(), 0u)
      << lrt::analyze::report_to_text(report, true);
}

// ----- layer-dag --------------------------------------------------------------

TEST(AnalyzeLayerDag, FindsOrderViolationsAndCycle) {
  const Report report = run_fixture(fixture_config({"layer-dag"}));
  const auto findings = findings_for(report, "layer-dag");
  ASSERT_EQ(findings.size(), 4u)
      << lrt::analyze::report_to_text(report, true);

  std::set<std::string> files;
  bool saw_cycle = false;
  for (const Finding& f : findings) {
    files.insert(f.file);
    EXPECT_EQ(f.status, Finding::Status::kNew);
    if (f.message.find("module cycle: common -> obs -> common") !=
        std::string::npos) {
      saw_cycle = true;
      EXPECT_EQ(f.file, "src/obs/cyc_b.hpp");  // closing edge's site
    }
  }
  EXPECT_TRUE(saw_cycle);
  EXPECT_EQ(files.count("src/la/bad_layer.hpp"), 1u);
  EXPECT_EQ(files.count("src/common/cyc_a.hpp"), 1u);
  EXPECT_EQ(files.count("src/ft/bad_edge.hpp"), 1u);  // ft -> tddft
}

TEST(AnalyzeLayerDag, BaselineEdgeGrandfathersViolationAndCycle) {
  Config config = fixture_config({"layer-dag"});
  config.baseline_layer_edges = {"common->obs"};
  const Report report = run_fixture(config);
  const auto findings = findings_for(report, "layer-dag");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(count_status(findings, Finding::Status::kBaselined), 2);
  EXPECT_EQ(count_status(findings, Finding::Status::kNew), 2);
  for (const Finding& f : findings) {
    if (f.status == Finding::Status::kNew) {
      // la->par and ft->tddft are not baselined.
      EXPECT_TRUE(f.file == "src/la/bad_layer.hpp" ||
                  f.file == "src/ft/bad_edge.hpp")
          << f.file;
    }
  }
}

// ----- collective-divergence --------------------------------------------------

TEST(AnalyzeDivergence, FlagsCollectivesUnderRankDependentFlow) {
  const Report report = run_fixture(fixture_config({"collective-divergence"}));
  const auto findings = findings_for(report, "collective-divergence");
  ASSERT_EQ(findings.size(), 5u)
      << lrt::analyze::report_to_text(report, true);
  std::set<std::string> collectives;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.status, Finding::Status::kNew);
    if (f.file != "src/par/divergent.cpp") continue;
    const std::size_t open = f.message.find('\'');
    const std::size_t close = f.message.find('\'', open + 1);
    collectives.insert(f.message.substr(open + 1, close - open - 1));
  }
  // The if body, its else branch, and the braceless rank-dependent
  // statement; the unconditional barrier and size-based loop are clean.
  EXPECT_EQ(collectives,
            (std::set<std::string>{"allreduce", "bcast", "barrier"}));
  // The nonblocking i_alltoallv issued only on rank 0 is flagged too; the
  // unconditional double-buffered pipeline in the same file stays clean.
  int nonblocking = 0;
  for (const Finding& f : findings) {
    if (f.file != "src/par/nonblocking.cpp") continue;
    ++nonblocking;
    EXPECT_NE(f.message.find("'i_alltoallv'"), std::string::npos)
        << f.message;
  }
  EXPECT_EQ(nonblocking, 1);
}

TEST(AnalyzeDivergence, ReachabilityFlagsCollectiveThroughHelperChain) {
  const Report report = run_fixture(fixture_config({"collective-divergence"}));
  std::vector<Finding> reach;
  for (const Finding& f : findings_for(report, "collective-divergence")) {
    if (f.file == "src/par/reach_collective.cpp") reach.push_back(f);
  }
  // Only bad_reach's rank-guarded call; the unconditional finish() and
  // the rank-guarded collective-free note_rank() stay silent.
  ASSERT_EQ(reach.size(), 1u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_NE(reach[0].message.find("call to 'finish'"), std::string::npos)
      << reach[0].message;
  EXPECT_NE(reach[0].message.find("reaches collective 'barrier'"),
            std::string::npos);
  EXPECT_NE(reach[0].message.find("finish -> sync_all"), std::string::npos);
}

TEST(AnalyzeDivergence, WholeFileBaselineResolvesFindings) {
  Config config = fixture_config({"collective-divergence"});
  config.baseline_files = {"collective-divergence:src/par/divergent.cpp"};
  const Report report = run_fixture(config);
  // The reachability finding in reach_collective.cpp and the nonblocking
  // finding in nonblocking.cpp are not baselined.
  EXPECT_EQ(report.new_count, 2);
  EXPECT_EQ(report.baselined_count, 3);
  EXPECT_FALSE(report.clean());
}

// ----- phase-registry ---------------------------------------------------------

TEST(AnalyzePhaseRegistry, FlagsOnlyUnregisteredNames) {
  const Report report = run_fixture(fixture_config({"phase-registry"}));
  const auto findings = findings_for(report, "phase-registry");
  ASSERT_EQ(findings.size(), 1u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_EQ(findings[0].file, "src/fft/phase_names.cpp");
  EXPECT_NE(findings[0].message.find("fixture_unregistered"),
            std::string::npos);
}

TEST(AnalyzePhaseRegistry, EmptyRegistryIsAConfigFinding) {
  Config config = fixture_config({"phase-registry"});
  config.phase_registry.clear();
  const Report report = run_fixture(config);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/obs/phases.def");
  EXPECT_NE(report.findings[0].message.find("empty or missing"),
            std::string::npos);
}

// ----- phase-registry shell scan (--gate) -------------------------------------

/// Minimal PassContext over an in-memory shell script: the scan has no
/// fixture directory because it reads script text directly.
std::vector<Finding> scan_shell(const std::string& script) {
  Config config;
  config.root = kFixtureRepo;
  config.phase_registry = {"gemm"};
  config.counter_registry = {"comm.allreduce.calls"};
  std::vector<lrt::analyze::LexedFile> files;
  std::vector<Finding> findings;
  lrt::analyze::PassContext ctx;
  ctx.config = &config;
  ctx.files = &files;
  ctx.findings = &findings;
  lrt::analyze::run_phase_registry_shell(ctx, "tools/x.sh", script);
  return findings;
}

TEST(AnalyzePhaseRegistry, ShellGateScanAcceptsRegisteredNames) {
  EXPECT_TRUE(scan_shell("lrt-report --gate comm.allreduce.calls:0 \\\n"
                         "  --gate gemm:5 --gate wall_seconds:10\n")
                  .empty());
}

TEST(AnalyzePhaseRegistry, ShellGateScanFlagsTypos) {
  const auto findings =
      scan_shell("lrt-report --gate comm.allreduec.calls:0\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("comm.allreduec.calls"),
            std::string::npos);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(AnalyzePhaseRegistry, ShellGateScanFlagsMalformedSpecs) {
  const auto findings = scan_shell("lrt-report --gate wall_seconds\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
}

TEST(AnalyzePhaseRegistry, ShellGateScanSkipsPrefixFlagsAndVariables) {
  // --gate-max-collective-calls shares the prefix but is a different
  // flag; $var gates are runtime-checked.
  EXPECT_TRUE(scan_shell("bench --gate-max-collective-calls 432\n"
                         "report --gate \"$dynamic_gate\"\n"
                         "# --gate commented.out:1\n")
                  .empty());
}

// ----- omp-race ---------------------------------------------------------------

TEST(AnalyzeOmpRace, FlagsExactlyTheSeededSharedWrites) {
  const Report report = run_fixture(fixture_config({"omp-race"}));
  std::vector<Finding> findings;
  for (const Finding& f : findings_for(report, "omp-race")) {
    if (f.file == "src/kmeans/race.cpp") findings.push_back(f);
  }
  ASSERT_EQ(findings.size(), 4u)
      << lrt::analyze::report_to_text(report, true);
  // Three seeded writes are new; the allow()'d one resolves.
  EXPECT_EQ(count_status(findings, Finding::Status::kNew), 3);
  EXPECT_EQ(count_status(findings, Finding::Status::kSuppressed), 1);
  std::set<std::string> bases;
  for (const Finding& f : findings) {
    if (f.status != Finding::Status::kNew) continue;
    const std::size_t open = f.message.find('\'');
    const std::size_t close = f.message.find('\'', open + 1);
    // message shape: "... ('op') to shared 'base' ..."
    const std::size_t open2 = f.message.find('\'', close + 1);
    const std::size_t close2 = f.message.find('\'', open2 + 1);
    bases.insert(f.message.substr(open2 + 1, close2 - open2 - 1));
  }
  EXPECT_EQ(bases, (std::set<std::string>{"total", "hits", "buffer"}));
}

TEST(AnalyzeOmpRace, CalleeWritesSurfaceThroughSummaries) {
  const Report report = run_fixture(fixture_config({"omp-race"}));
  std::vector<Finding> findings;
  for (const Finding& f : findings_for(report, "omp-race")) {
    if (f.file == "src/kmeans/callee_write.cpp") findings.push_back(f);
  }
  // accumulate(total, ...) and bump(hits) write through mutable-ref
  // parameters; the reduction, region-local, and read-only calls in the
  // clean twin stay silent.
  ASSERT_EQ(findings.size(), 2u)
      << lrt::analyze::report_to_text(report, true);
  std::string all;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.status, Finding::Status::kNew);
    all += f.message + "\n";
  }
  EXPECT_NE(all.find("call to 'accumulate' writes shared 'total'"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("(accumulate -> add_into)"), std::string::npos) << all;
  EXPECT_NE(all.find("call to 'bump' writes shared 'hits'"),
            std::string::npos)
      << all;
}

TEST(AnalyzeOmpRace, SavedDataPointerAliasIsTracedToItsOrigin) {
  const Report report = run_fixture(fixture_config({"omp-race"}));
  std::vector<Finding> findings;
  for (const Finding& f : findings_for(report, "omp-race")) {
    if (f.file == "src/la/alias_store.cpp") findings.push_back(f);
  }
  // Only the dereferencing store through the saved out.data() pointer;
  // the loop-var-indexed store, the pointer reassignment, and the
  // region-local alias in the clean twin stay silent.
  ASSERT_EQ(findings.size(), 1u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_EQ(findings[0].status, Finding::Status::kNew);
  EXPECT_NE(findings[0].message.find("'p', an alias of shared 'out'"),
            std::string::npos)
      << findings[0].message;
}

// ----- hot-path-purity --------------------------------------------------------

TEST(AnalyzeHotPath, CmakeParsingPromotesOnlyO3Blocks) {
  Config config;
  lrt::analyze::load_hot_tus(
      lrt::analyze::read_file(kFixtureRepo + "/src/CMakeLists.txt"), &config);
  EXPECT_EQ(config.hot_files, (std::set<std::string>{"src/fft/deep_alloc.cpp",
                                                     "src/la/hot.cpp"}));
}

TEST(AnalyzeHotPath, FlagsHotTuAndOmpFunctionViolations) {
  const Report report = run_fixture(fixture_config({"hot-path-purity"}));
  const auto findings = findings_for(report, "hot-path-purity");
  ASSERT_EQ(findings.size(), 7u)
      << lrt::analyze::report_to_text(report, true);
  int hot_tu = 0;
  int omp_fn = 0;
  int deep = 0;
  for (const Finding& f : findings) {
    if (f.file == "src/la/hot.cpp") ++hot_tu;
    if (f.file == "src/fft/omp_fn.cpp") ++omp_fn;
    if (f.file == "src/fft/deep_alloc.cpp") ++deep;
  }
  EXPECT_EQ(hot_tu, 5);  // malloc, free, printf, unreserved growth, allow'd
  EXPECT_EQ(omp_fn, 1);  // growth in a loop of an omp-containing function
  EXPECT_EQ(deep, 1);    // in-loop call whose callee allocates two hops down
  EXPECT_EQ(count_status(findings, Finding::Status::kNew), 6);
  EXPECT_EQ(count_status(findings, Finding::Status::kSuppressed), 1);
}

TEST(AnalyzeHotPath, TransitiveAllocationNamesTheCalleeChain) {
  const Report report = run_fixture(fixture_config({"hot-path-purity"}));
  std::vector<Finding> findings;
  for (const Finding& f : findings_for(report, "hot-path-purity")) {
    if (f.file == "src/fft/deep_alloc.cpp") findings.push_back(f);
  }
  // Only the in-loop grab_scratch call: the setup-time call outside the
  // loop and the pure in-loop helper stay silent, and nothing in the
  // helper TU (not hot, no omp) is flagged directly.
  ASSERT_EQ(findings.size(), 1u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_NE(findings[0].message.find("call to 'grab_scratch'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("allocates ('malloc'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("grab_scratch -> make_scratch"),
            std::string::npos);
  for (const Finding& f : findings_for(report, "hot-path-purity")) {
    EXPECT_NE(f.file, "src/fft/alloc_helpers.cpp");
  }
}

// ----- counter-registry -------------------------------------------------------

TEST(AnalyzeCounterRegistry, FlagsOnlyUnregisteredLiterals) {
  const Report report = run_fixture(fixture_config({"counter-registry"}));
  const auto findings = findings_for(report, "counter-registry");
  ASSERT_EQ(findings.size(), 2u)
      << lrt::analyze::report_to_text(report, true);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/obs/counter_use.cpp");
  }
  EXPECT_EQ(count_status(findings, Finding::Status::kNew), 1);
  EXPECT_EQ(count_status(findings, Finding::Status::kSuppressed), 1);
  for (const Finding& f : findings) {
    if (f.status == Finding::Status::kNew) {
      EXPECT_NE(f.message.find("fixture.rogue"), std::string::npos);
    }
  }
}

TEST(AnalyzeCounterRegistry, EmptyRegistryIsAConfigFinding) {
  Config config = fixture_config({"counter-registry"});
  config.counter_registry.clear();
  const Report report = run_fixture(config);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/obs/counters.def");
  EXPECT_NE(report.findings[0].message.find("empty or missing"),
            std::string::npos);
}

TEST(AnalyzeCounterRegistry, CompiledHeaderMatchesCountersDef) {
  const auto defs = lrt::analyze::parse_phases_def_entries(
      lrt::analyze::read_file(kRepoRoot + "/src/obs/counters.def"));
  EXPECT_EQ(lrt::obs::cnt::kCount, defs.size());
  for (const auto& def : defs) {
    EXPECT_TRUE(lrt::obs::cnt::is_registered(def.name)) << def.name;
  }
  EXPECT_FALSE(lrt::obs::cnt::is_registered("bogus.counter"));
  EXPECT_TRUE(lrt::obs::cnt::is_registered("kmeans.assign.skipped"));
}

TEST(AnalyzeCounterRegistry, SyncPassCleanOnRepo) {
  Config config;
  config.root = kRepoRoot;
  config.passes = {"counter-registry-sync"};
  const Report report = lrt::analyze::analyze(config, {});
  EXPECT_EQ(report.findings.size(), 0u)
      << lrt::analyze::report_to_text(report, true);
}

// ----- migrated pattern gates -------------------------------------------------

TEST(AnalyzePatterns, NakedNewDeleteIgnoresCommentsStringsAndDeletedFns) {
  const Report report = run_fixture(fixture_config({"naked-new-delete"}));
  const auto findings = findings_for(report, "naked-new-delete");
  // Exactly the real allocation pair in block_comment.cpp; the block
  // comment, the string literal, and `= delete` stay silent.
  ASSERT_EQ(findings.size(), 2u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_EQ(findings[0].file, "src/grid/block_comment.cpp");
  EXPECT_NE(findings[0].message.find("naked new"), std::string::npos);
  EXPECT_EQ(findings[1].file, "src/grid/block_comment.cpp");
  EXPECT_NE(findings[1].message.find("naked delete"), std::string::npos);
}

TEST(AnalyzePatterns, SuppressionDirectivesResolveFindings) {
  const Report report = run_fixture(fixture_config({"banned-volatile"}));
  const auto findings = findings_for(report, "banned-volatile");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(count_status(findings, Finding::Status::kSuppressed), 2);
  EXPECT_EQ(count_status(findings, Finding::Status::kNew), 1);
  EXPECT_EQ(report.new_count, 1);
  EXPECT_EQ(report.suppressed_count, 2);
}

TEST(AnalyzePatterns, ThreadSleepParentIncludePragmaOnce) {
  const Report report = run_fixture(fixture_config(
      {"banned-thread", "banned-sleep", "parent-include", "pragma-once"}));
  EXPECT_EQ(findings_for(report, "banned-thread").size(), 1u);
  EXPECT_EQ(findings_for(report, "banned-sleep").size(), 1u);
  const auto parent = findings_for(report, "parent-include");
  ASSERT_EQ(parent.size(), 1u);
  EXPECT_EQ(parent[0].file, "src/kmeans/parent_inc.cpp");
  const auto pragma = findings_for(report, "pragma-once");
  ASSERT_EQ(pragma.size(), 1u);
  EXPECT_EQ(pragma[0].file, "src/grid/no_pragma.hpp");
}

// ----- orchestration ----------------------------------------------------------

TEST(AnalyzeReport, FullFixtureRunCountsEveryState) {
  // Every pass except the two sync passes (the fixture repo has no def
  // files; sync over the real repo is covered above).
  std::set<std::string> passes;
  for (const std::string& name : lrt::analyze::all_pass_names()) {
    if (name != "phase-registry-sync" && name != "counter-registry-sync") {
      passes.insert(name);
    }
  }
  const Report report = run_fixture(fixture_config(std::move(passes)));
  // 4 layer-dag + 5 collective-divergence + 7 omp-race +
  // 7 hot-path-purity + 1 phase-registry + 2 counter-registry +
  // 2 naked-new-delete + 3 banned-volatile + 1 banned-thread +
  // 1 banned-sleep + 1 parent-include + 1 pragma-once.
  EXPECT_EQ(report.findings.size(), 35u)
      << lrt::analyze::report_to_text(report, true);
  EXPECT_EQ(report.new_count, 30);
  EXPECT_EQ(report.suppressed_count, 5);
  EXPECT_EQ(report.baselined_count, 0);
  EXPECT_FALSE(report.clean());

  // Sorted by (file, line, pass).
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    const Finding& a = report.findings[i - 1];
    const Finding& b = report.findings[i];
    EXPECT_LE(std::tie(a.file, a.line, a.pass),
              std::tie(b.file, b.line, b.pass));
  }
}

TEST(AnalyzeReport, JsonReportSchema) {
  Config config = fixture_config({"banned-volatile"});
  const Report report = run_fixture(config);
  const lrt::obs::json::Value doc =
      lrt::analyze::report_to_json(config, report);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->string, "lrt.analyze/1");

  const auto* passes = doc.find("passes");
  ASSERT_NE(passes, nullptr);
  ASSERT_TRUE(passes->is_array());
  ASSERT_EQ(passes->array.size(), 1u);
  EXPECT_EQ(passes->array[0].string, "banned-volatile");

  const auto* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("new")->number, 1.0);
  EXPECT_EQ(summary->find("suppressed")->number, 2.0);
  EXPECT_EQ(summary->find("baselined")->number, 0.0);

  const auto* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->array.size(), report.findings.size());
  for (const auto& item : findings->array) {
    ASSERT_TRUE(item.is_object());
    EXPECT_NE(item.find("pass"), nullptr);
    EXPECT_NE(item.find("file"), nullptr);
    EXPECT_TRUE(item.find("line")->is_number());
    EXPECT_NE(item.find("message"), nullptr);
    const std::string status = item.find("status")->string;
    EXPECT_TRUE(status == "new" || status == "suppressed" ||
                status == "baselined");
  }
  // The document round-trips through the obs JSON parser.
  EXPECT_NO_THROW(lrt::obs::json::parse(lrt::obs::json::dump(doc)));
}

TEST(AnalyzeReport, TextReportShowsNewAlwaysOthersOnlyVerbose) {
  const Report report = run_fixture(fixture_config({"banned-volatile"}));
  const std::string terse = lrt::analyze::report_to_text(report, false);
  EXPECT_NE(terse.find("1 new, 0 baselined, 2 suppressed"),
            std::string::npos);
  EXPECT_EQ(terse.find("suppressed]"), std::string::npos);
  const std::string verbose = lrt::analyze::report_to_text(report, true);
  EXPECT_NE(verbose.find("suppressed]"), std::string::npos);
}

TEST(AnalyzeReport, LoadBaselineParsesAndRejectsMalformed) {
  Config config;
  lrt::analyze::load_baseline(
      "# comment\n"
      "layer-dag common -> obs\n"
      "collective-divergence tests/test_par_check.cpp  # trailing\n",
      &config);
  EXPECT_EQ(config.baseline_layer_edges.count("common->obs"), 1u);
  EXPECT_EQ(config.baseline_files.count(
                "collective-divergence:tests/test_par_check.cpp"),
            1u);
  EXPECT_THROW(lrt::analyze::load_baseline("no-such-pass src/x.cpp\n",
                                           &config),
               lrt::Error);
  EXPECT_THROW(lrt::analyze::load_baseline("layer-dag common obs\n", &config),
               lrt::Error);
}

TEST(AnalyzeReport, DiscoverySkipsFixtureCorpus) {
  const auto sources = lrt::analyze::discover_sources(kRepoRoot);
  EXPECT_NE(std::find(sources.begin(), sources.end(),
                      "src/analyze/analyzer.cpp"),
            sources.end());
  for (const std::string& path : sources) {
    EXPECT_EQ(path.find("analyze_fixtures/"), std::string::npos) << path;
  }
}

/// The exact gate CI runs: committed baseline, def files, and hot-TU
/// promotions from src/CMakeLists.txt.
Config real_repo_config() {
  Config config;
  config.root = kRepoRoot;
  config.phase_registry = lrt::analyze::parse_phases_def(
      lrt::analyze::read_file(kRepoRoot + "/src/obs/phases.def"));
  config.counter_registry = lrt::analyze::parse_phases_def(
      lrt::analyze::read_file(kRepoRoot + "/src/obs/counters.def"));
  lrt::analyze::load_hot_tus(
      lrt::analyze::read_file(kRepoRoot + "/src/CMakeLists.txt"), &config);
  lrt::analyze::load_baseline(
      lrt::analyze::read_file(kRepoRoot + "/tools/lrt-analyze.baseline"),
      &config);
  return config;
}

TEST(AnalyzeReport, RealRepositoryIsClean) {
  // New findings here mean the tree regressed (or the analyzer did).
  Config config = real_repo_config();
  const Report report = lrt::analyze::analyze_repo(config);
  EXPECT_TRUE(report.clean())
      << lrt::analyze::report_to_text(report, false);
  // The baseline is empty and must stay that way: new findings are fixed
  // or suppressed inline with a comment, never grandfathered.
  EXPECT_EQ(report.baselined_count, 0);
  EXPECT_GT(report.suppressed_count, 0);  // bench probes + par_check allows
}

TEST(AnalyzeReport, RealRepositoryOmpRaceIsCleanWithoutBaseline) {
  // The parallel kernels must satisfy the race pass on their own: no
  // baseline entries, no grandfathering.
  Config config = real_repo_config();
  config.passes = {"omp-race"};
  config.baseline_files.clear();
  config.baseline_layer_edges.clear();
  const Report report = lrt::analyze::analyze_repo(config);
  EXPECT_EQ(report.new_count, 0)
      << lrt::analyze::report_to_text(report, false);
  EXPECT_EQ(report.baselined_count, 0);
}

TEST(AnalyzeReport, RealRepositoryHotPathIsCleanWithoutBaseline) {
  Config config = real_repo_config();
  config.passes = {"hot-path-purity"};
  config.baseline_files.clear();
  config.baseline_layer_edges.clear();
  EXPECT_FALSE(config.hot_files.empty());  // the -O3 block must parse
  const Report report = lrt::analyze::analyze_repo(config);
  EXPECT_EQ(report.new_count, 0)
      << lrt::analyze::report_to_text(report, false);
  EXPECT_EQ(report.baselined_count, 0);
}

TEST(AnalyzeReport, RealRepositoryCountersAreRegistered) {
  Config config = real_repo_config();
  config.passes = {"counter-registry"};
  config.baseline_files.clear();
  config.baseline_layer_edges.clear();
  const Report report = lrt::analyze::analyze_repo(config);
  EXPECT_EQ(report.new_count, 0)
      << lrt::analyze::report_to_text(report, false);
  EXPECT_EQ(report.baselined_count, 0);
}

TEST(AnalyzeReport, LayerDagNeedsNoBaselineEdges) {
  // The common -> obs shim edge was retired when the phase guard moved
  // into obs/; the layer DAG must now hold with an empty edge baseline.
  Config config = real_repo_config();
  config.passes = {"layer-dag"};
  config.baseline_layer_edges.clear();
  const Report report = lrt::analyze::analyze_repo(config);
  EXPECT_EQ(report.new_count, 0)
      << lrt::analyze::report_to_text(report, false);
}

TEST(AnalyzeReport, SarifDocumentHasRequiredShape) {
  Config config = fixture_config({"banned-volatile"});
  const Report report = run_fixture(config);
  const lrt::obs::json::Value doc =
      lrt::analyze::report_to_sarif(config, report);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("version")->string, "2.1.0");
  ASSERT_NE(doc.find("$schema"), nullptr);

  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const auto& run = runs->array[0];
  const auto* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->string, "lrt-analyze");
  // One reportingDescriptor per pass that ran (only banned-volatile).
  ASSERT_EQ(driver->find("rules")->array.size(), 1u);
  EXPECT_EQ(driver->find("rules")->array[0].find("id")->string,
            "banned-volatile");

  const auto* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), report.findings.size());
  int errors = 0;
  int suppressed = 0;
  for (const auto& result : results->array) {
    EXPECT_EQ(result.find("ruleId")->string, "banned-volatile");
    ASSERT_NE(result.find("message")->find("text"), nullptr);
    const auto* location =
        result.find("locations")->array[0].find("physicalLocation");
    ASSERT_NE(location, nullptr);
    EXPECT_FALSE(
        location->find("artifactLocation")->find("uri")->string.empty());
    EXPECT_GT(location->find("region")->find("startLine")->number, 0.0);
    if (result.find("level")->string == "error") ++errors;
    const auto* sup = result.find("suppressions");
    if (sup != nullptr) {
      EXPECT_EQ(sup->array[0].find("kind")->string, "inSource");
      ++suppressed;
    }
  }
  EXPECT_EQ(errors, report.new_count);
  EXPECT_EQ(suppressed, report.suppressed_count);
  // Round-trips through the obs JSON parser.
  EXPECT_NO_THROW(lrt::obs::json::parse(lrt::obs::json::dump(doc)));
}

}  // namespace
