// Project-wide symbol index, call graph, and per-function summaries.
//
// This is the semantic layer between the scope heuristics (scope.hpp)
// and the interprocedural passes: function definitions are discovered
// per TU from function_bodies() extents, call sites are resolved by a
// name + argument-count heuristic, strongly connected components are
// condensed with an iterative DFS, and four bottom-up summary facts are
// propagated callee-first:
//
//   writes   which parameters the function mutates through a non-const
//            reference/pointer (directly or by forwarding to a callee)
//   allocates / does_io / locks
//            the function (transitively) contains a literal allocation
//            (`new`, malloc family), I/O (printf family, std::cout-style
//            streams), or a lock (std:: lock types, .lock() calls)
//   enters_collective
//            the function (transitively) performs a member call named
//            like a Comm collective (barrier, allreduce, ...)
//
// Resolution errs toward "unknown": member calls through an object,
// virtual dispatch, function pointers, std::-qualified names, template
// calls with explicit arguments, and ambiguous overload sets all resolve
// to kNoFunction — no edge, no finding. docs/STATIC_ANALYSIS.md lists
// the shapes this closes and the ones that still degrade.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/scope.hpp"

namespace lrt::analyze {

/// Sentinel function index: "no function" / "could not resolve".
constexpr std::size_t kNoFunction = static_cast<std::size_t>(-1);

/// One declared parameter of a discovered function definition.
struct ParamInfo {
  std::string name;
  /// Non-const reference or pointer: a write through this parameter is
  /// visible to the caller. Rvalue references and const-qualified types
  /// do not count (err toward exemption).
  bool mutable_ref = false;
};

/// One bottom-up summary fact with its evidence trail.
struct Fact {
  bool holds = false;
  /// Evidence token: "new", "printf", "std::mutex", "allreduce", ...
  std::string what;
  /// Callee whose summary supplied the fact; kNoFunction when the
  /// evidence sits directly in this function's body.
  std::size_t via = kNoFunction;
};

/// How a parameter write is established: directly in the body, or by
/// forwarding the parameter to a callee that writes its own parameter.
struct ParamWrite {
  std::size_t via = kNoFunction;  ///< callee index; kNoFunction = direct
  std::size_t via_param = 0;      ///< that callee's written parameter
};

/// One discovered function definition with its summary.
struct FunctionInfo {
  std::string name;       ///< unqualified name ("gemm", not "la::gemm")
  std::size_t file = 0;   ///< index into the analyzed file vector
  std::string path;       ///< repo-relative path of that file
  int line = 0;           ///< line of the body's open brace
  TokenRange body;        ///< '{' index .. one past '}'
  std::vector<ParamInfo> params;
  /// Parameter indices this function writes through (mutable_ref only).
  std::map<std::size_t, ParamWrite> writes;
  Fact allocates;
  Fact does_io;
  Fact locks;
  Fact enters_collective;
};

/// The project call graph. Build once per analysis run, share across
/// passes via PassContext::graph.
class CallGraph {
 public:
  /// Discovers functions in every lexed file, resolves call sites, and
  /// propagates summaries callee-first over the SCC condensation.
  static CallGraph build(const std::vector<LexedFile>& files);

  const std::vector<FunctionInfo>& functions() const { return functions_; }

  /// Resolves the call site whose name token is `t[i]` in file
  /// `file_index`. Checks the call shape first (identifier followed by
  /// '(', not a member access, not a keyword or declaration, not
  /// std::-qualified), then matches name + argument count against the
  /// definition index; same-file definitions win ties (internal
  /// linkage). Everything else returns kNoFunction.
  std::size_t resolve_call(const std::vector<Token>& t, std::size_t i,
                           std::size_t file_index) const;

  /// Top-level argument extents of the call whose name token is t[i]
  /// (t[i + 1] must be '('); empty for a nullary call.
  static std::vector<TokenRange> call_args(const std::vector<Token>& t,
                                           std::size_t i);

  /// "f -> g -> h" evidence trail for `fact` of functions()[fn], starting
  /// at fn's own name; just the name when the fact is direct.
  std::string fact_chain(std::size_t fn, Fact FunctionInfo::*fact) const;

  /// Same, for the write of parameter `param` of functions()[fn].
  std::string write_chain(std::size_t fn, std::size_t param) const;

 private:
  std::vector<FunctionInfo> functions_;
  /// Unqualified name -> indices into functions_ (the overload set).
  std::map<std::string, std::vector<std::size_t>> by_name_;
};

}  // namespace lrt::analyze
