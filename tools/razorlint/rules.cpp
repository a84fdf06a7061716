// Rule implementations for razorlint (docs/static-analysis.md).
//
// Each rule is a deterministic scan over the token stream from lexer.cpp.
// Without type information every detector is a heuristic; the comments below
// state exactly what fires and what is missed, and docs/static-analysis.md
// repeats it for users. The bias is always "miss, don't false-positive":
// a silent miss costs nothing (the runtime parity suites still stand behind
// the contract), a false positive trains people to scatter allow() comments.
#include "razorlint.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace razorlint {

namespace {

const std::set<std::string>& clock_idents() {
  static const std::set<std::string> kSet = {
      "steady_clock",     "system_clock", "high_resolution_clock",
      "gettimeofday",     "clock_gettime", "timespec_get", "utc_clock",
      "tai_clock",        "gps_clock",     "file_clock",
  };
  return kSet;
}

const std::set<std::string>& random_idents() {
  static const std::set<std::string> kSet = {
      "random_device",       "mt19937",       "mt19937_64",
      "minstd_rand",         "minstd_rand0",  "default_random_engine",
      "knuth_b",             "ranlux24",      "ranlux48",
      "ranlux24_base",       "ranlux48_base", "random_shuffle",
      "uniform_int_distribution",  "uniform_real_distribution",
      "normal_distribution",       "bernoulli_distribution",
      "poisson_distribution",      "exponential_distribution",
  };
  return kSet;
}

const std::set<std::string>& unordered_idents() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
  };
  return kSet;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

struct Ctx {
  const LexedFile& file;
  const std::string& path;
  std::vector<Diagnostic> raw;  // pre-suppression

  void diag(int line, const char* rule, std::string message) {
    raw.push_back(Diagnostic{path, line, rule, std::move(message)});
  }
};

// ----------------------------------------------------------------- float-eq
//
// Fires on `==` / `!=` whose adjacent operand is a floating literal
// (optionally behind unary +/-). Blind spot: `a == b` where both sides are
// floating *variables* needs type knowledge this tool does not have; the
// shared tolerance helpers (util/units.hpp kSupplyToleranceVolts and
// friends) remain the reviewed idiom for those.
void rule_float_eq(Ctx& ctx) {
  const auto& t = ctx.file.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::punct || (t[i].text != "==" && t[i].text != "!="))
      continue;
    bool floating = i > 0 && t[i - 1].kind == TokKind::number && t[i - 1].is_float;
    std::size_t r = i + 1;
    if (r < t.size() && t[r].kind == TokKind::punct &&
        (t[r].text == "-" || t[r].text == "+"))
      ++r;
    floating = floating ||
               (r < t.size() && t[r].kind == TokKind::number && t[r].is_float);
    if (floating)
      ctx.diag(t[i].line, "float-eq",
               "raw floating-point " + t[i].text +
                   " comparison; use the shared tolerance helpers "
                   "(util/units.hpp) or justify the exact-IEEE fast path");
  }
}

// ------------------------------------------------------------- no-wallclock
//
// Wall-clock reads make results depend on when and how fast the host runs.
// Fires on the std::chrono clock type names (which also catches
// `using clock = std::chrono::steady_clock` aliases at the root), the POSIX
// clock calls, and bare or std-qualified `time(` / `clock(` calls. Member
// calls `x.time()` / `x->clock()` are our own accessors, not wall clocks.
void rule_no_wallclock(Ctx& ctx) {
  for (const std::string& allowed : wallclock_whitelist())
    if (ctx.path == allowed) return;
  const auto& t = ctx.file.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::identifier) continue;
    const std::string& id = t[i].text;
    if (clock_idents().count(id)) {
      ctx.diag(t[i].line, "no-wallclock",
               "wall-clock source '" + id +
                   "' outside the bench timing whitelist; simulation results "
                   "must not depend on host time");
      continue;
    }
    if ((id == "time" || id == "clock") && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::punct && t[i + 1].text == "(") {
      const bool member = i > 0 && t[i - 1].kind == TokKind::punct &&
                          (t[i - 1].text == "." || t[i - 1].text == "->");
      // `BankCycleResult clock(...)` declares a method of that name — the
      // preceding identifier is its return type, not a call context.
      const bool declaration = i > 0 && t[i - 1].kind == TokKind::identifier &&
                               t[i - 1].text != "return";
      const bool std_qualified = i >= 2 && t[i - 1].text == "::" &&
                                 t[i - 2].kind == TokKind::identifier &&
                                 t[i - 2].text == "std";
      const bool qualified_other =
          i > 0 && t[i - 1].text == "::" && !std_qualified;
      if (!member && !declaration && !qualified_other)
        ctx.diag(t[i].line, "no-wallclock",
                 "call to '" + id + "()' reads the host clock");
    }
  }
}

// ----------------------------------------------------------- no-raw-random
//
// Every random draw must come from the util Rng (fixed xoshiro256**, pinned
// draw order, portable across standard libraries). std:: engines and
// std::random_device are not portable and not replayable, and C rand() is
// process-global mutable state on top.
void rule_no_raw_random(Ctx& ctx) {
  const auto& t = ctx.file.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::identifier) continue;
    const std::string& id = t[i].text;
    if (random_idents().count(id)) {
      ctx.diag(t[i].line, "no-raw-random",
               "raw randomness source '" + id +
                   "'; draw from the seeded util Rng (src/util/rng.hpp) so "
                   "goldens stay pinned");
      continue;
    }
    if ((id == "rand" || id == "srand") && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::punct && t[i + 1].text == "(") {
      const bool member = i > 0 && t[i - 1].kind == TokKind::punct &&
                          (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool declaration = i > 0 && t[i - 1].kind == TokKind::identifier &&
                               t[i - 1].text != "return";
      if (!member && !declaration)
        ctx.diag(t[i].line, "no-raw-random",
                 "call to '" + id + "()' uses the C library RNG");
    }
  }
}

// ---------------------------------------------------- no-unordered-iteration
//
// Iteration order of unordered containers is implementation-defined, so any
// range-for over one feeds hash-order into downstream state — the classic
// source of "same binary, different report". Fires when the range expression
// of a range-for either names an unordered container type directly or names
// a variable this file declared with an unordered type. Blind spot:
// unordered containers passed across file boundaries.
void rule_no_unordered_iteration(Ctx& ctx) {
  const auto& t = ctx.file.tokens;

  // Pass 1: variables declared with an unordered type in this file. After
  // `unordered_map<...>` the next identifier at angle-depth zero is taken as
  // the declared name (covers locals, members, and parameters).
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::identifier || !unordered_idents().count(t[i].text))
      continue;
    std::size_t j = i + 1;
    int angle = 0;
    for (; j < t.size(); ++j) {
      if (t[j].kind == TokKind::punct) {
        if (t[j].text == "<") ++angle;
        else if (t[j].text == ">") --angle;
        else if (t[j].text == ">>") angle -= 2;
        else if (angle == 0 && t[j].text != "&" && t[j].text != "*" &&
                 t[j].text != "::")
          break;
      } else if (angle == 0 && t[j].kind == TokKind::identifier) {
        unordered_vars.insert(t[j].text);
        break;
      }
      if (angle < 0) break;
    }
  }

  // Pass 2: range-fors. Find `for (` ... `:` at paren depth 1, then scan the
  // range expression up to the closing paren.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::identifier || t[i].text != "for") continue;
    if (t[i + 1].kind != TokKind::punct || t[i + 1].text != "(") continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < t.size() && close == 0; ++j) {
      if (t[j].kind != TokKind::punct) continue;
      if (t[j].text == "(") ++depth;
      else if (t[j].text == ")") {
        if (--depth == 0) close = j;
      } else if (t[j].text == ":" && depth == 1 && colon == 0) {
        colon = j;
      } else if (t[j].text == ";" && depth == 1) {
        break;  // classic three-clause for
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind != TokKind::identifier) continue;
      if (unordered_idents().count(t[j].text) || unordered_vars.count(t[j].text)) {
        ctx.diag(t[i].line, "no-unordered-iteration",
                 "range-for over unordered container '" + t[j].text +
                     "'; iteration order is hash-order — use an ordered "
                     "container or sort first");
        break;
      }
    }
  }
}

// -------------------------------------------------------- no-mutable-static
//
// Shared mutable statics are cross-run, cross-thread state: they break the
// "every shard owns its state" executor contract (DESIGN.md §9) and they are
// exactly the argv-lifetime class of bug perf_microbench shipped once.
// Applies to src/ (library code) only.
//
// Scope classification is token-heuristic: each `{` is classified as code
// (function/control body), class, namespace or braced-init by looking at
// what precedes it. Fires on (a) block-scope `static` / `thread_local`
// declarations and class-scope `static` data members without
// const/constexpr, and (b) namespace-scope variable definitions (named or
// anonymous namespace — with or without the `static` keyword) without
// const/constexpr. Function declarations are recognised by a `(` at
// angle-depth zero in the declaration head and skipped.
enum class Scope { namespace_, class_, code, init };

Scope classify_brace(const std::vector<Token>& t, std::size_t i) {
  // Walk back over type-ish tokens; reaching `)` means a parameter list or
  // control clause — a code body either way.
  std::size_t j = i;
  while (j > 0) {
    --j;
    const Token& p = t[j];
    if (p.kind == TokKind::identifier) {
      if (p.text == "try" || p.text == "do" || p.text == "else") return Scope::code;
      if (p.text == "namespace") return Scope::namespace_;
      continue;  // name, type, const, noexcept, override, final, ...
    }
    if (p.kind == TokKind::punct) {
      if (p.text == ")" || p.text == "]") return Scope::code;
      if (p.text == "::" || p.text == "<" || p.text == ">" || p.text == "*" ||
          p.text == "&" || p.text == "->" || p.text == ":" || p.text == ",")
        continue;  // base clauses, template args, trailing return types
      if (p.text == "=" || p.text == "(" || p.text == "{" || p.text == "[")
        return Scope::init;
      if (p.text == ";" || p.text == "}") break;
      break;
    }
    if (p.kind == TokKind::number || p.kind == TokKind::string) continue;
    break;
  }
  // Statement fragment between the previous ;/{/} and the brace: class-ish
  // keywords win, otherwise assume a braced initializer (misses flag nothing).
  std::size_t begin = i;
  while (begin > 0) {
    const Token& p = t[begin - 1];
    if (p.kind == TokKind::punct && (p.text == ";" || p.text == "{" || p.text == "}"))
      break;
    --begin;
  }
  for (std::size_t k = begin; k < i; ++k)
    if (t[k].kind == TokKind::identifier &&
        (t[k].text == "class" || t[k].text == "struct" || t[k].text == "union" ||
         t[k].text == "enum"))
      return Scope::class_;
  return Scope::init;
}

// Scans a declaration head starting at `decl` (index of the first token of
// the declaration) up to the first `=`, initializer `{`, or `;` at
// angle-depth zero. Reports whether the head carries const/constexpr and
// whether it declares a function (identifier followed by `(`).
struct DeclHead {
  bool is_const = false;
  bool is_function = false;
  bool has_name = false;
  int line = 0;
};

DeclHead scan_decl_head(const std::vector<Token>& t, std::size_t decl) {
  DeclHead head;
  head.line = t[decl].line;
  int angle = 0;
  for (std::size_t j = decl; j < t.size(); ++j) {
    const Token& tok = t[j];
    if (tok.kind == TokKind::identifier) {
      if (tok.text == "const" || tok.text == "constexpr" || tok.text == "constinit")
        head.is_const = true;
      else if (tok.text == "operator" || tok.text == "namespace") {
        // Operator overloads are functions; `inline namespace x {` opens a
        // scope. Neither declares a mutable variable.
        head.is_function = true;
        return head;
      } else if (angle == 0)
        head.has_name = true;
      continue;
    }
    if (tok.kind != TokKind::punct) continue;
    if (tok.text == "<") ++angle;
    else if (tok.text == ">") angle = std::max(0, angle - 1);
    else if (tok.text == ">>") angle = std::max(0, angle - 2);
    else if (angle > 0) continue;
    else if (tok.text == "(") {
      // `(` directly after an identifier at angle-depth zero: a function
      // declarator (or a most-vexing-parse init, which we accept missing).
      head.is_function = j > 0 && t[j - 1].kind == TokKind::identifier;
      return head;
    } else if (tok.text == "=" || tok.text == "{" || tok.text == ";") {
      return head;
    }
  }
  return head;
}

void rule_no_mutable_static(Ctx& ctx) {
  if (!starts_with(ctx.path, "src/")) return;
  const auto& t = ctx.file.tokens;

  std::vector<Scope> stack = {Scope::namespace_};  // file scope
  bool statement_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::punct) {
      if (tok.text == "{") {
        const Scope kind = classify_brace(t, i);
        stack.push_back(kind);
        // A braced initializer sits mid-expression: `Cfg c = {},` in a
        // parameter list must not make the next parameter look like a fresh
        // namespace-scope statement.
        statement_start = kind != Scope::init;
      } else if (tok.text == "}") {
        Scope popped = Scope::init;
        if (stack.size() > 1) {
          popped = stack.back();
          stack.pop_back();
        }
        statement_start = popped != Scope::init;
      } else if (tok.text == ";") {
        statement_start = true;
      }
      continue;
    }

    const Scope scope = stack.back();
    const bool at_start = statement_start;
    statement_start = false;

    if (tok.kind != TokKind::identifier) continue;

    // (a) explicit static / thread_local in code or class scope.
    if ((tok.text == "static" || tok.text == "thread_local") &&
        (scope == Scope::code || scope == Scope::class_)) {
      const DeclHead head = scan_decl_head(t, i + 1);
      if (!head.is_const && !head.is_function && head.has_name)
        ctx.diag(tok.line, "no-mutable-static",
                 std::string(tok.text == "static" ? "function-local or member"
                                                  : "thread_local") +
                     " mutable static in library code; shard-owned state or a "
                     "justified allow() is required (DESIGN.md §9)");
      // Skip past the head so its tokens are not re-examined as a statement.
      continue;
    }

    // (b) namespace-scope variable definitions, `static` keyword or not.
    if (scope == Scope::namespace_ && at_start) {
      static const std::set<std::string> kSkip = {
          "using",   "typedef", "template", "static_assert", "friend",
          "class",   "struct",  "union",    "enum",          "namespace",
          "extern",  "public",  "private",  "protected",     "return",
      };
      if (kSkip.count(tok.text)) continue;
      const DeclHead head = scan_decl_head(t, i);
      if (!head.is_const && !head.is_function && head.has_name)
        ctx.diag(tok.line, "no-mutable-static",
                 "namespace-scope mutable variable in library code; make it "
                 "const, move it behind an owner, or justify with allow()");
    }
  }
}

// ---------------------------------------------------------------- layer-dag
//
// The docs/architecture.md layer map as an enforced DAG: a src/ file may
// quote-include only its own layer and the layers listed for it in
// layer_dag() (layers.cpp). bench/, tests/, examples/ and tools/ sit above
// the library and may include anything.
void rule_layer_dag(Ctx& ctx) {
  if (!starts_with(ctx.path, "src/")) return;
  const std::string rel = ctx.path.substr(4);
  const std::size_t slash = rel.find('/');
  if (slash == std::string::npos) return;
  const std::string own = rel.substr(0, slash);

  const auto& dag = layer_dag();
  const auto self = std::find_if(dag.begin(), dag.end(),
                                 [&](const auto& e) { return e.first == own; });
  for (const Include& inc : ctx.file.includes) {
    if (!inc.quoted) continue;  // system includes are not layer edges
    const std::size_t inc_slash = inc.path.find('/');
    if (inc_slash == std::string::npos) {
      ctx.diag(inc.line, "layer-dag",
               "quoted include \"" + inc.path +
                   "\" has no layer prefix; src/ includes must be "
                   "layer-qualified (e.g. \"util/rng.hpp\")");
      continue;
    }
    const std::string target = inc.path.substr(0, inc_slash);
    if (target == own) continue;
    const bool known_layer =
        std::any_of(dag.begin(), dag.end(),
                    [&](const auto& e) { return e.first == target; });
    const bool allowed =
        self != dag.end() &&
        std::find(self->second.begin(), self->second.end(), target) !=
            self->second.end();
    if (!known_layer)
      ctx.diag(inc.line, "layer-dag",
               "include \"" + inc.path + "\" targets '" + target +
                   "', which is not a src/ layer — library code must not "
                   "reach outside src/");
    else if (!allowed)
      ctx.diag(inc.line, "layer-dag",
               "layer '" + own + "' may not include layer '" + target +
                   "' (docs/architecture.md layer map; edges point strictly "
                   "downward)");
  }
}

// ------------------------------------------------------------- suppressions

// Applies allow() comments: a diagnostic is suppressed by an allow naming
// its rule on the same line or the line directly above. Malformed allows
// (no justification, unknown rule) are diagnostics themselves, under the
// reserved rule name "suppression" — which cannot be suppressed.
std::vector<Diagnostic> apply_suppressions(const Ctx& ctx) {
  // An allow() covers its own line and the next line that carries any code
  // token — so a multi-line justification comment still reaches the code
  // directly below it.
  std::set<int> token_lines;
  for (const Token& t : ctx.file.tokens) token_lines.insert(t.line);
  const auto reach = [&](int line) {
    const auto it = token_lines.upper_bound(line);
    return it == token_lines.end() ? line : *it;
  };

  std::map<int, std::set<std::string>> allowed_at;
  std::vector<Diagnostic> out;
  const auto& names = rule_names();
  for (const Suppression& s : ctx.file.suppressions) {
    if (s.rules.empty() || s.justification.empty()) {
      out.push_back(Diagnostic{ctx.path, s.line, "suppression",
                               "allow() requires a rule list and a written "
                               "justification: // razorlint: "
                               "allow(<rule>): <why this is safe>"});
      continue;
    }
    for (const std::string& r : s.rules) {
      if (std::find(names.begin(), names.end(), r) == names.end()) {
        out.push_back(Diagnostic{ctx.path, s.line, "suppression",
                                 "allow() names unknown rule '" + r + "'"});
        continue;
      }
      allowed_at[s.line].insert(r);
      allowed_at[reach(s.line)].insert(r);
    }
  }
  for (const Diagnostic& d : ctx.raw) {
    const auto it = allowed_at.find(d.line);
    if (it != allowed_at.end() && it->second.count(d.rule)) continue;
    out.push_back(d);
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "float-eq",          "no-wallclock",      "no-raw-random",
      "no-unordered-iteration", "no-mutable-static", "layer-dag",
  };
  return kNames;
}

const std::vector<std::string>& wallclock_whitelist() {
  static const std::vector<std::string> kPaths = {
      "bench/bench_common.cpp",       // the shared bench runner's wall timer
      "bench/scenarios/engine.cpp",   // engine cycles/sec measurement
  };
  return kPaths;
}

std::string format(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

std::vector<Diagnostic> lint_file(const LexedFile& file,
                                  const std::string& virtual_path) {
  Ctx ctx{file, virtual_path, {}};
  rule_float_eq(ctx);
  rule_no_wallclock(ctx);
  rule_no_raw_random(ctx);
  rule_no_unordered_iteration(ctx);
  rule_no_mutable_static(ctx);
  rule_layer_dag(ctx);
  return apply_suppressions(ctx);
}

std::vector<Diagnostic> lint_path(const std::string& fs_path,
                                  const std::string& virtual_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) {
    return {Diagnostic{virtual_path, 0, "io", "cannot read " + fs_path}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_file(lex(buf.str()), virtual_path);
}

}  // namespace razorlint
