#include "analyze/callgraph.hpp"

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analyze/passes.hpp"

namespace lrt::analyze {

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

bool is_ident(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

/// Index of the ')' matching the '(' at `open`; kNoFunction if unbalanced.
std::size_t match_paren_close(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) ++depth;
    if (is_punct(t[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return kNoFunction;
}

/// Directive extent covering token `i`, or nullptr. Extents are sorted by
/// begin (the lexer appends them in token order).
const DirectiveExtent* covering_directive(
    const std::vector<DirectiveExtent>& ds, std::size_t i) {
  auto it = std::upper_bound(
      ds.begin(), ds.end(), i,
      [](std::size_t v, const DirectiveExtent& d) { return v < d.begin; });
  if (it == ds.begin()) return nullptr;
  --it;
  return i < it->end ? &*it : nullptr;
}

/// Keywords that can never name a function being *defined* (control
/// constructs, specifiers with parenthesized operands).
bool definition_name_banned(const std::string& s) {
  static const std::set<std::string> kBan = {
      "if",       "for",     "while",    "switch",   "catch",  "return",
      "sizeof",   "alignof", "alignas",  "decltype", "typeid", "noexcept",
      "operator", "throw",   "new",      "delete",   "assert", "defined",
      "static_assert"};
  return kBan.count(s) != 0;
}

/// Keywords that can never name a function being *called* (same list plus
/// the cast family and coroutine operators).
bool call_name_banned(const std::string& s) {
  static const std::set<std::string> kBan = {
      "if",          "for",        "while",     "switch",
      "catch",       "return",     "sizeof",    "alignof",
      "alignas",     "decltype",   "typeid",    "noexcept",
      "operator",    "throw",      "new",       "delete",
      "assert",      "defined",    "static_assert",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "co_await",    "co_return",  "co_yield",  "this"};
  return kBan.count(s) != 0;
}

/// Identifiers after which an `f(...)` shape is still a call, not a
/// declaration (`return helper(x)`, `else helper()`).
bool prev_allows_call(const std::string& s) {
  static const std::set<std::string> kAllow = {
      "return", "else", "do", "throw", "co_return", "co_yield", "case"};
  return kAllow.count(s) != 0;
}

bool any_open(const Token& tok) {
  return tok.kind == TokKind::kPunct &&
         (tok.text == "(" || tok.text == "[" || tok.text == "{");
}

bool any_close(const Token& tok) {
  return tok.kind == TokKind::kPunct &&
         (tok.text == ")" || tok.text == "]" || tok.text == "}");
}

/// One parameter segment [start, end) of a parameter list, default
/// argument stripped. Heuristic by design: function-pointer and array
/// declarators degrade to a name the caller never matches, which errs
/// toward exemption.
ParamInfo parse_one_param(const Tokens& t, std::size_t start,
                          std::size_t end) {
  ParamInfo p;
  int depth = 0;
  int angle = 0;
  std::size_t stop = end;
  for (std::size_t j = start; j < end; ++j) {
    const Token& tok = t[j];
    if (tok.kind != TokKind::kPunct) continue;
    if (any_open(tok)) ++depth;
    if (any_close(tok)) --depth;
    if (tok.text == "<") ++angle;
    if (tok.text == ">") angle = angle > 0 ? angle - 1 : 0;
    if (tok.text == ">>") angle = angle > 1 ? angle - 2 : 0;
    if (depth == 0 && angle == 0 && tok.text == "=") {
      stop = j;
      break;
    }
  }
  bool has_ref = false;
  bool has_const = false;
  depth = 0;
  angle = 0;
  for (std::size_t j = start; j < stop; ++j) {
    const Token& tok = t[j];
    if (is_ident(tok, "const")) has_const = true;
    if (tok.kind != TokKind::kPunct) continue;
    if (any_open(tok)) ++depth;
    if (any_close(tok)) --depth;
    if (tok.text == "<") ++angle;
    if (tok.text == ">") angle = angle > 0 ? angle - 1 : 0;
    if (tok.text == ">>") angle = angle > 1 ? angle - 2 : 0;
    if (depth == 0 && angle == 0 && (tok.text == "&" || tok.text == "*")) {
      has_ref = true;
    }
  }
  p.mutable_ref = has_ref && !has_const;
  // A single token is a bare type (unnamed parameter); otherwise the name
  // is the last identifier of the declarator.
  if (stop >= start + 2) {
    for (std::size_t j = stop; j-- > start;) {
      if (t[j].kind == TokKind::kIdentifier) {
        p.name = t[j].text;
        break;
      }
    }
  }
  return p;
}

/// Parameters of the list opening at `open` ('('). `()` and `(void)`
/// parse to an empty vector.
std::vector<ParamInfo> parse_params(const Tokens& t, std::size_t open) {
  std::vector<ParamInfo> params;
  const std::size_t close = match_paren_close(t, open);
  if (close == kNoFunction) return params;
  std::size_t start = open + 1;
  int depth = 0;
  int angle = 0;
  auto flush = [&](std::size_t end) {
    if (end > start && !(end == start + 1 && is_ident(t[start], "void"))) {
      params.push_back(parse_one_param(t, start, end));
    }
    start = end + 1;
  };
  for (std::size_t j = open + 1; j < close; ++j) {
    const Token& tok = t[j];
    if (tok.kind != TokKind::kPunct) continue;
    if (any_open(tok)) ++depth;
    if (any_close(tok)) --depth;
    if (tok.text == "<") ++angle;
    if (tok.text == ">") angle = angle > 0 ? angle - 1 : 0;
    if (tok.text == ">>") angle = angle > 1 ? angle - 2 : 0;
    if (depth == 0 && angle == 0 && tok.text == ",") flush(j);
  }
  flush(close);
  return params;
}

bool set_fact(Fact* fact, const std::string& what) {
  if (fact->holds) return false;
  fact->holds = true;
  fact->what = what;
  fact->via = kNoFunction;
  return true;
}

void mark_param_write(FunctionInfo* fn, const Tokens& t, const Lvalue& lv) {
  if (!lv.ok) return;
  // An indexed write (`out[i] = ...`) is usually per-element and callers
  // commonly pass disjoint slices per iteration; recording it would turn
  // every parallel helper call into a finding. Only whole-object writes
  // (`total += x`, `v.push_back(x)`, `*p = x`, `buf[0] = x`) become
  // summary facts — a documented false-negative shape.
  for (const TokenRange& g : lv.groups) {
    for (std::size_t j = g.begin; j < g.end; ++j) {
      if (t[j].kind == TokKind::kIdentifier) return;
    }
  }
  for (std::size_t pi = 0; pi < fn->params.size(); ++pi) {
    if (fn->params[pi].name != lv.base || !fn->params[pi].mutable_ref) {
      continue;
    }
    if (fn->writes.count(pi) == 0) fn->writes[pi] = ParamWrite{};
  }
}

/// Direct (non-transitive) summary facts from one function body, using
/// the same token shapes as the omp-race and hot-path-purity scans.
void scan_direct_facts(const Tokens& t,
                       const std::vector<DirectiveExtent>& dirs,
                       FunctionInfo* fn) {
  const std::size_t begin = fn->body.begin;
  const std::size_t end = fn->body.end > 0 ? fn->body.end - 1 : 0;
  for (std::size_t w = begin + 1; w < end; ++w) {
    const DirectiveExtent* d = covering_directive(dirs, w);
    if (d != nullptr) {
      w = d->end - 1;
      continue;
    }
    const Token& tok = t[w];
    const bool member =
        w > begin && (is_punct(t[w - 1], ".") || is_punct(t[w - 1], "->"));
    const bool called = w + 1 < end && is_punct(t[w + 1], "(");
    const bool scoped = w > begin && is_punct(t[w - 1], "::");
    if (tok.kind == TokKind::kIdentifier) {
      if (tok.text == "new" && !member) {
        set_fact(&fn->allocates, "new");
      } else if (heap_fns().count(tok.text) != 0 && called && !member) {
        set_fact(&fn->allocates, tok.text);
      } else if (io_fns().count(tok.text) != 0 && called && !member) {
        set_fact(&fn->does_io, tok.text);
      } else if (io_streams().count(tok.text) != 0 && scoped) {
        set_fact(&fn->does_io, "std::" + tok.text);
      } else if (lock_types().count(tok.text) != 0 && scoped) {
        set_fact(&fn->locks, "std::" + tok.text);
      } else if ((tok.text == "lock" || tok.text == "unlock" ||
                  tok.text == "try_lock") &&
                 member && called) {
        set_fact(&fn->locks, "." + tok.text + "()");
      } else if (collective_names().count(tok.text) != 0 && member &&
                 called) {
        set_fact(&fn->enters_collective, tok.text);
      } else if (mutating_methods().count(tok.text) != 0 && member &&
                 called && w >= begin + 2) {
        mark_param_write(fn, t, walk_lvalue_back(t, w - 2, begin));
      }
      continue;
    }
    if (tok.kind != TokKind::kPunct) continue;
    if (assign_ops().count(tok.text) != 0 && w > begin + 1 &&
        !is_ident(t[w - 1], "operator")) {
      mark_param_write(fn, t, walk_lvalue_back(t, w - 1, begin));
    } else if (tok.text == "++" || tok.text == "--") {
      if (t[w - 1].kind == TokKind::kIdentifier || is_punct(t[w - 1], "]") ||
          is_punct(t[w - 1], ")")) {
        mark_param_write(fn, t, walk_lvalue_back(t, w - 1, begin));
      } else if (w + 1 < end && t[w + 1].kind == TokKind::kIdentifier) {
        Lvalue lv;
        lv.ok = true;
        lv.base = t[w + 1].text;
        lv.chain_begin = w + 1;
        lv.chain_end = w + 2;
        mark_param_write(fn, t, lv);
      }
    }
  }
}

/// Function definitions of one TU. The head is parsed forward from the
/// previous statement boundary: the first depth-0 '(' preceded by a
/// plausible name opens the parameter list. Lambdas, operators, and
/// brace initializers find no name and are skipped (degrade to unknown).
std::vector<FunctionInfo> discover_tu(const LexedFile& file,
                                      std::size_t file_index) {
  std::vector<FunctionInfo> out;
  const Tokens& t = file.tokens;
  const std::vector<DirectiveExtent>& dirs = file.directives;
  for (const TokenRange& body : function_bodies(t)) {
    std::size_t head = body.begin;
    while (head > 0) {
      const DirectiveExtent* d = covering_directive(dirs, head - 1);
      if (d != nullptr) {
        head = d->begin;
        continue;
      }
      const Token& p = t[head - 1];
      if (is_punct(p, ";") || is_punct(p, "{") || is_punct(p, "}")) break;
      --head;
    }
    std::size_t name_tok = kNoFunction;
    std::size_t params_open = kNoFunction;
    std::size_t j = head;
    while (j < body.begin) {
      const DirectiveExtent* d = covering_directive(dirs, j);
      if (d != nullptr) {
        j = d->end;
        continue;
      }
      if (is_punct(t[j], "(")) {
        if (j > head && t[j - 1].kind == TokKind::kIdentifier &&
            !definition_name_banned(t[j - 1].text)) {
          name_tok = j - 1;
          params_open = j;
          break;
        }
        // decltype(...), attribute groups, lambda captures: skip.
        const std::size_t close = match_paren_close(t, j);
        if (close == kNoFunction) break;
        j = close + 1;
        continue;
      }
      ++j;
    }
    if (name_tok == kNoFunction) continue;

    FunctionInfo fn;
    fn.name = t[name_tok].text;
    fn.file = file_index;
    fn.path = file.path;
    fn.line = t[body.begin].line;
    fn.body = body;
    fn.params = parse_params(t, params_open);
    scan_direct_facts(t, dirs, &fn);
    out.push_back(std::move(fn));
  }
  return out;
}

/// The argument as a plain forwarded lvalue: `name`, `&name`, or
/// `*name`. Anything else (expressions, offsets, literals) returns empty
/// — parameter writes do not propagate through what we cannot name.
std::string plain_arg_name(const Tokens& t, const TokenRange& r) {
  if (r.end == r.begin + 1 && t[r.begin].kind == TokKind::kIdentifier) {
    return t[r.begin].text;
  }
  if (r.end == r.begin + 2 &&
      (is_punct(t[r.begin], "&") || is_punct(t[r.begin], "*")) &&
      t[r.begin + 1].kind == TokKind::kIdentifier) {
    return t[r.begin + 1].text;
  }
  return {};
}

bool inherit(Fact* dst, const Fact& src, std::size_t via) {
  if (!src.holds || dst->holds) return false;
  dst->holds = true;
  dst->what = src.what;
  dst->via = via;
  return true;
}

}  // namespace

CallGraph CallGraph::build(const std::vector<LexedFile>& files) {
  CallGraph g;

  // Per-TU discovery, then indexing, resolution and propagation.
  std::vector<std::vector<FunctionInfo>> scans(files.size());
  for (std::size_t u = 0; u < files.size(); ++u) {
    scans[u] = discover_tu(files[u], u);
  }

  std::size_t total = 0;
  for (const std::vector<FunctionInfo>& s : scans) total += s.size();
  g.functions_.reserve(total);
  for (std::vector<FunctionInfo>& s : scans) {
    for (FunctionInfo& fn : s) g.functions_.push_back(std::move(fn));
  }
  for (std::size_t f = 0; f < g.functions_.size(); ++f) {
    g.by_name_[g.functions_[f].name].push_back(f);
  }

  // Resolve call sites into the edge list.
  struct Edge {
    std::size_t callee;
    std::vector<TokenRange> args;
  };
  std::vector<std::vector<Edge>> edges(g.functions_.size());
  for (std::size_t f = 0; f < g.functions_.size(); ++f) {
    const FunctionInfo& fn = g.functions_[f];
    const Tokens& t = files[fn.file].tokens;
    const std::vector<DirectiveExtent>& dirs = files[fn.file].directives;
    const std::size_t end = fn.body.end > 0 ? fn.body.end - 1 : 0;
    for (std::size_t w = fn.body.begin + 1; w < end; ++w) {
      const DirectiveExtent* d = covering_directive(dirs, w);
      if (d != nullptr) {
        w = d->end - 1;
        continue;
      }
      const std::size_t callee = g.resolve_call(t, w, fn.file);
      if (callee == kNoFunction) continue;
      edges[f].push_back(Edge{callee, call_args(t, w)});
    }
  }

  // Iterative Tarjan: SCCs complete callee-first, which is exactly the
  // order bottom-up summary propagation needs.
  const std::size_t nf = g.functions_.size();
  std::vector<std::size_t> order(nf, kNoFunction);
  std::vector<std::size_t> low(nf, 0);
  std::vector<char> on_stack(nf, 0);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> sccs;
  std::size_t counter = 0;
  struct Frame {
    std::size_t v;
    std::size_t edge;
  };
  for (std::size_t root = 0; root < nf; ++root) {
    if (order[root] != kNoFunction) continue;
    std::vector<Frame> frames{Frame{root, 0}};
    order[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.edge < edges[fr.v].size()) {
        const std::size_t next = edges[fr.v][fr.edge].callee;
        ++fr.edge;
        if (order[next] == kNoFunction) {
          order[next] = low[next] = counter++;
          stack.push_back(next);
          on_stack[next] = 1;
          frames.push_back(Frame{next, 0});  // invalidates fr
        } else if (on_stack[next] != 0) {
          low[fr.v] = std::min(low[fr.v], order[next]);
        }
        continue;
      }
      const std::size_t v = fr.v;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
      if (low[v] == order[v]) {
        std::vector<std::size_t> scc;
        while (true) {
          const std::size_t member = stack.back();
          stack.pop_back();
          on_stack[member] = 0;
          scc.push_back(member);
          if (member == v) break;
        }
        sccs.push_back(std::move(scc));
      }
    }
  }

  // Bottom-up propagation; within an SCC (mutual recursion) iterate to a
  // fixpoint — facts only ever flip false -> true, so this terminates.
  for (const std::vector<std::size_t>& scc : sccs) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::size_t f : scc) {
        FunctionInfo& fn = g.functions_[f];
        const Tokens& t = files[fn.file].tokens;
        for (const Edge& e : edges[f]) {
          const FunctionInfo& callee = g.functions_[e.callee];
          changed |= inherit(&fn.allocates, callee.allocates, e.callee);
          changed |= inherit(&fn.does_io, callee.does_io, e.callee);
          changed |= inherit(&fn.locks, callee.locks, e.callee);
          changed |= inherit(&fn.enters_collective, callee.enters_collective,
                             e.callee);
          for (const auto& [k, unused] : callee.writes) {
            (void)unused;
            if (k >= e.args.size()) continue;
            const std::string arg = plain_arg_name(t, e.args[k]);
            if (arg.empty()) continue;
            for (std::size_t pi = 0; pi < fn.params.size(); ++pi) {
              if (fn.params[pi].name != arg || !fn.params[pi].mutable_ref) {
                continue;
              }
              if (fn.writes.count(pi) == 0) {
                fn.writes[pi] = ParamWrite{e.callee, k};
                changed = true;
              }
            }
          }
        }
      }
    }
  }
  return g;
}

std::size_t CallGraph::resolve_call(const Tokens& t, std::size_t i,
                                    std::size_t file_index) const {
  if (i >= t.size() || t[i].kind != TokKind::kIdentifier) return kNoFunction;
  if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) return kNoFunction;
  if (call_name_banned(t[i].text)) return kNoFunction;
  if (i > 0) {
    const Token& prev = t[i - 1];
    if (prev.kind == TokKind::kPunct &&
        (prev.text == "." || prev.text == "->" || prev.text == "->*" ||
         prev.text == ".*" || prev.text == ">" || prev.text == "*" ||
         prev.text == "&" || prev.text == "&&" || prev.text == "~")) {
      // Member access, member-pointer dispatch, or a declaration shape
      // (`std::vector<int> v(3)`, `Foo* make(...)`): unknown.
      return kNoFunction;
    }
    if (is_punct(prev, "::")) {
      // Walk the qualifier chain to its head; the standard library is
      // not part of this project's call graph.
      std::size_t j = i;
      while (j >= 2 && is_punct(t[j - 1], "::") &&
             t[j - 2].kind == TokKind::kIdentifier) {
        j -= 2;
      }
      if (t[j].text == "std") return kNoFunction;
    } else if (prev.kind == TokKind::kIdentifier &&
               !prev_allows_call(prev.text)) {
      return kNoFunction;  // `Type name(...)`: a declaration, not a call
    }
  }
  const auto it = by_name_.find(t[i].text);
  if (it == by_name_.end()) return kNoFunction;
  const std::size_t arity = call_args(t, i).size();
  std::vector<std::size_t> pool;
  for (const std::size_t c : it->second) {
    if (functions_[c].params.size() == arity) pool.push_back(c);
  }
  if (pool.empty()) {
    // Arity mismatch; a project-unique name still binds (default
    // arguments, variadic tails). Overload sets stay unknown.
    return it->second.size() == 1 ? it->second[0] : kNoFunction;
  }
  if (pool.size() == 1) return pool[0];
  // Same-name-same-arity in several TUs (anonymous-namespace helpers):
  // internal linkage means the same-file definition wins, if unique.
  std::size_t same_file = kNoFunction;
  for (const std::size_t c : pool) {
    if (functions_[c].file != file_index) continue;
    if (same_file != kNoFunction) return kNoFunction;
    same_file = c;
  }
  return same_file;
}

std::vector<TokenRange> CallGraph::call_args(const Tokens& t, std::size_t i) {
  std::vector<TokenRange> args;
  if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) return args;
  const std::size_t open = i + 1;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t j = open; j < t.size(); ++j) {
    const Token& tok = t[j];
    if (any_open(tok)) {
      ++depth;
      continue;
    }
    if (any_close(tok)) {
      --depth;
      if (depth == 0) {
        if (j > open + 1) args.push_back(TokenRange{start, j});
        return args;
      }
      continue;
    }
    if (depth == 1 && is_punct(tok, ",")) {
      args.push_back(TokenRange{start, j});
      start = j + 1;
    }
  }
  return {};  // unbalanced
}

std::string CallGraph::fact_chain(std::size_t fn,
                                  Fact FunctionInfo::*fact) const {
  std::string out = functions_[fn].name;
  std::size_t cur = (functions_[fn].*fact).via;
  for (std::size_t guard = 0; cur != kNoFunction && guard < 64; ++guard) {
    out += " -> " + functions_[cur].name;
    cur = (functions_[cur].*fact).via;
  }
  return out;
}

std::string CallGraph::write_chain(std::size_t fn, std::size_t param) const {
  std::string out = functions_[fn].name;
  std::size_t cur = fn;
  std::size_t p = param;
  for (std::size_t guard = 0; guard < 64; ++guard) {
    const auto it = functions_[cur].writes.find(p);
    if (it == functions_[cur].writes.end() ||
        it->second.via == kNoFunction) {
      break;
    }
    out += " -> " + functions_[it->second.via].name;
    p = it->second.via_param;
    cur = it->second.via;
  }
  return out;
}

}  // namespace lrt::analyze
