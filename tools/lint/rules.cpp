#include "rules.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "analysis.h"

namespace wearlock::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Offsets of every whole-word occurrence of `word` in `text`. A match
/// is rejected when the neighbouring characters are identifier
/// characters ("time_point" does not contain the word "time").
std::vector<std::size_t> FindWord(const std::string& text,
                                  const std::string& word) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

/// First non-whitespace character at or after `pos` ('\0' at EOF).
char NextSignificant(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos < text.size() ? text[pos] : '\0';
}

/// Last non-whitespace character strictly before `pos` ('\0' at BOF).
char PrevSignificant(const std::string& text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) {
      return text[pos];
    }
  }
  return '\0';
}

void Emit(const SourceFile& file, std::size_t offset, const char* rule,
          std::string message, std::vector<Diagnostic>* out) {
  out->push_back({file.path(), file.LineAt(offset), rule, std::move(message)});
}

bool ContainsWord(const std::string& text, const std::string& word) {
  return !FindWord(text, word).empty();
}

/// True when the file lives under a src/ component (library code, as
/// opposed to tests/, bench/ and tools/ whose CLIs print by contract).
bool IsLibraryFile(const SourceFile& file) {
  const std::string& p = file.path();
  return p.rfind("src/", 0) == 0 || p.find("/src/") != std::string::npos;
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"layer-dag",
       "quoted includes are rooted at src/, follow the architecture DAG "
       "(dsp/crypto/obs<-sim<-audio<-modem; sensors; protocol on top) and "
       "form no cycles"},
      {"determinism",
       "no wall-clock or ambient randomness in library code: "
       "system_clock/steady_clock/rand/srand/time()/random_device are "
       "banned; use sim::VirtualClock and sim::Rng. Outside "
       "src/sim/rng.{h,cpp}, src/ also uses no <random> engine "
       "(mt19937*, minstd_rand*, ranlux*, knuth_b, "
       "default_random_engine), *_distribution or generate_canonical"},
      {"banned-api",
       "no stdio writes outside src/obs/log.cpp, no "
       "sprintf/strcpy/strcat/gets/atoi, no raw new/delete"},
      {"header-hygiene",
       "headers open with #pragma once (or an include guard) and must be "
       "self-contained (enforced via generated one-include TUs)"},
      {"shared-state",
       "mutable namespace-scope/static state must be const, atomic, a sync "
       "primitive, thread_local, or annotated // lint: guarded-by(<mutex>)"},
      {"hot-path-alloc",
       "functions annotated // lint: hot-path may not allocate: no "
       "std::vector construction, push_back, resize or new in the body "
       "(use dsp::Workspace scratch; NOLINT(hot-path-alloc) for cold "
       "branches)"},
      {"guarded-by",
       "every access to a // lint: guarded-by(<mutex>) global must sit in "
       "a scope holding <mutex> via lock_guard/scoped_lock/unique_lock"},
      {"modeled-time",
       "host-timing values (TimeHostMs/HostTimer) must not flow into "
       "modeled-time surfaces: proto_ms accumulators, budget/deadline "
       "comparisons, SessionRecord fields, metrics tagged 'modeled' "
       "(file-local assignment-chain taint)"},
      {"slot-ownership",
       "dsp::Workspace slot ids (CSlot::k*/RSlot::k*) may be referenced "
       "only from the owner function recorded in the slot manifest "
       "(tools/lint/slot_owners.txt)"},
      {"discarded-outcome",
       "outcome-returning APIs (TrySend*, FaultPlan::Parse, ...) must "
       "have their return value consumed; use (void) for an explicit, "
       "visible discard"},
      {"test-only-export",
       "every function declared in a src/ header is referenced outside "
       "tests/ (its own .cpp, bench/, tools/, examples/ or wlbench/); "
       "NOLINT(test-only-export): <reason> marks a test seam"},
  };
  return kRules;
}

// -- determinism ------------------------------------------------------

void CheckDeterminism(const SourceFile& file, std::vector<Diagnostic>* out) {
  struct Pattern {
    const char* token;
    bool call_only;  ///< only flag when followed by '('
    const char* hint;
  };
  static const Pattern kPatterns[] = {
      {"system_clock", false, "use sim::VirtualClock for modeled time"},
      {"steady_clock", false,
       "use sim::VirtualClock (or annotate an intentional host-latency "
       "probe)"},
      {"high_resolution_clock", false, "use sim::VirtualClock"},
      {"random_device", false, "seed sim::Rng explicitly instead"},
      {"rand", true, "use sim::Rng"},
      {"srand", true, "use sim::Rng with an explicit seed"},
      {"time", true, "use sim::VirtualClock"},
  };
  const std::string& code = file.code();
  for (const Pattern& p : kPatterns) {
    for (std::size_t pos : FindWord(code, p.token)) {
      if (p.call_only && NextSignificant(code, pos + std::string(p.token)
                                                         .size()) != '(') {
        continue;
      }
      Emit(file, pos, "determinism",
           std::string("'") + p.token + "' is nondeterministic; " + p.hint,
           out);
    }
  }

  // One generator in the library: sim::Rng owns the engine and the
  // normal draws, so a std:: engine or distribution anywhere else in
  // src/ would be a second stream whose values the standard library,
  // not this code, defines. Tests and benches keep them as oracles.
  const std::string rel = file.SrcRelativePath();
  if (!IsLibraryFile(file) || rel == "sim/rng.h" || rel == "sim/rng.cpp") {
    return;
  }
  static const std::set<std::string> kEngines = {
      "mt19937",      "mt19937_64", "minstd_rand",           "minstd_rand0",
      "knuth_b",      "default_random_engine", "generate_canonical"};
  const std::string kDistribution = "_distribution";
  for (std::size_t pos = 0; pos < code.size();) {
    if (!IsIdentChar(code[pos]) ||
        std::isdigit(static_cast<unsigned char>(code[pos]))) {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < code.size() && IsIdentChar(code[end])) ++end;
    const std::string word = code.substr(pos, end - pos);
    const bool is_distribution =
        word.size() > kDistribution.size() &&
        word.compare(word.size() - kDistribution.size(), kDistribution.size(),
                     kDistribution) == 0;
    if (kEngines.count(word) || word.rfind("ranlux", 0) == 0 ||
        is_distribution) {
      Emit(file, pos, "determinism",
           "'" + word +
               "' is a second random stream pinned to the standard "
               "library; draw through sim::Rng (src/sim/rng.h)",
           out);
    }
    pos = end;
  }
}

// -- banned-api -------------------------------------------------------

void CheckBannedApi(const SourceFile& file, std::vector<Diagnostic>* out) {
  const std::string& code = file.code();
  const bool is_log_sink = file.SrcRelativePath() == "obs/log.cpp";
  // Outside library code, stdout IS the interface (benches emit JSON,
  // CLIs print reports); only the stdio patterns are relaxed there.
  const bool stdio_exempt = is_log_sink || !IsLibraryFile(file);

  struct Pattern {
    const char* token;
    bool call_only;
    bool stdio;  ///< exempt inside the sanctioned log sink
    const char* hint;
  };
  static const Pattern kPatterns[] = {
      {"cout", false, true, "library code logs through obs::Log"},
      {"cerr", false, true, "library code logs through obs::Log"},
      {"printf", true, true, "library code logs through obs::Log"},
      {"fprintf", true, true, "library code logs through obs::Log"},
      {"puts", true, true, "library code logs through obs::Log"},
      {"fputs", true, true, "library code logs through obs::Log"},
      {"putchar", true, true, "library code logs through obs::Log"},
      {"sprintf", true, false, "unbounded; use snprintf"},
      {"strcpy", true, false, "unbounded; use std::string or snprintf"},
      {"strcat", true, false, "unbounded; use std::string"},
      {"gets", true, false, "unbounded; never safe"},
      {"atoi", true, false, "silent on error; use std::from_chars"},
      {"atol", true, false, "silent on error; use std::from_chars"},
      {"atof", true, false, "silent on error; use std::from_chars"},
  };
  for (const Pattern& p : kPatterns) {
    if (p.stdio && stdio_exempt) continue;
    for (std::size_t pos : FindWord(code, p.token)) {
      if (p.call_only &&
          NextSignificant(code, pos + std::string(p.token).size()) != '(') {
        continue;
      }
      Emit(file, pos, "banned-api",
           std::string("'") + p.token + "' is banned in src/: " + p.hint,
           out);
    }
  }

  // Raw new / delete. `= delete` (deleted functions) is not a deletion.
  for (std::size_t pos : FindWord(code, "new")) {
    Emit(file, pos, "banned-api",
         "raw 'new' in src/: use std::make_unique/std::vector (annotate "
         "intentional never-freed singletons)",
         out);
  }
  for (std::size_t pos : FindWord(code, "delete")) {
    if (PrevSignificant(code, pos) == '=') continue;  // = delete;
    Emit(file, pos, "banned-api",
         "raw 'delete' in src/: owning types free memory, not call sites",
         out);
  }
}

// -- header-hygiene ---------------------------------------------------

void CheckHeaderHygiene(const SourceFile& file, std::vector<Diagnostic>* out) {
  if (!file.IsHeader()) return;
  for (int line = 1; line <= file.line_count(); ++line) {
    std::string_view code_line = file.CodeLine(line);
    const std::size_t first =
        code_line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    if (code_line[first] != '#') {
      // Real code before any directive: no guard can protect this file.
      out->push_back({file.path(), line, "header-hygiene",
                      "header emits code before any #pragma once / include "
                      "guard"});
      return;
    }
    std::string directive(code_line.substr(first));
    // Normalize "#  pragma   once" -> "#pragma once".
    std::string squashed;
    for (char c : directive) {
      if (c == ' ' || c == '\t') {
        if (!squashed.empty() && squashed.back() != ' ' &&
            squashed.back() != '#') {
          squashed.push_back(' ');
        }
      } else {
        squashed.push_back(c);
      }
    }
    if (squashed.rfind("#pragma once", 0) == 0 ||
        squashed.rfind("#ifndef", 0) == 0 ||
        squashed.rfind("#if !defined", 0) == 0) {
      return;  // guarded
    }
    out->push_back({file.path(), line, "header-hygiene",
                    "first preprocessor directive must be #pragma once or "
                    "an #ifndef include guard"});
    return;
  }
  // Nothing but comments/blank lines: harmless, but still unguarded if
  // anything is ever added; require the pragma.
  out->push_back({file.path(), 1, "header-hygiene",
                  "header has no #pragma once / include guard"});
}

// -- shared-state -----------------------------------------------------

namespace {

/// Scope automaton: walks code() tracking whether declarations land at
/// namespace scope, class scope or block scope, and carves the stream
/// into statements evaluated by FlagIfMutableShared().
class SharedStateScanner {
 public:
  SharedStateScanner(const SourceFile& file, std::vector<Diagnostic>* out)
      : file_(file), out_(out) {}

  void Run() {
    const std::string code = StripPreprocessor(file_.code());
    std::size_t paren_depth = 0;
    std::size_t init_depth = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')' && paren_depth > 0) {
        --paren_depth;
      }
      // Inside parens (for(;;), argument lists, lambdas passed as
      // arguments) nothing starts or ends a statement or scope.
      if (paren_depth > 0) {
        Accumulate(c, i);
        continue;
      }
      // Inside a brace initializer: consume until its braces balance;
      // the statement then ends at the following ';'.
      if (init_depth > 0) {
        Accumulate(c, i);
        if (c == '{') ++init_depth;
        if (c == '}') --init_depth;
        continue;
      }
      switch (c) {
        case ';':
          EndStatement();
          break;
        case '{': {
          const ScopeKind kind = ClassifyBrace();
          if (kind == ScopeKind::kInitializer) {
            Accumulate(c, i);
            init_depth = 1;
          } else {
            scopes_.push_back(kind);
            statement_.clear();
          }
          break;
        }
        case '}':
          if (!scopes_.empty()) scopes_.pop_back();
          statement_.clear();
          break;
        default:
          Accumulate(c, i);
          break;
      }
    }
  }

  /// Offset of the first top-level '=' (assignment, not ==/<=/>=/!=)
  /// outside parens/brackets/braces, or npos.
  static std::size_t TopLevelAssign(const std::string& s) {
    int depth = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if ((c == ')' || c == ']' || c == '}') && depth > 0) --depth;
      if (c == '=' && depth == 0) {
        if (i + 1 < s.size() && s[i + 1] == '=') {
          ++i;
          continue;
        }
        if (i > 0 && (s[i - 1] == '=' || s[i - 1] == '!' ||
                      s[i - 1] == '<' || s[i - 1] == '>')) {
          continue;
        }
        return i;
      }
    }
    return std::string::npos;
  }

 private:
  enum class ScopeKind { kNamespace, kClass, kBlock, kInitializer };

  /// Blank preprocessor lines (and their \-continuations): they have no
  /// terminating ';' and would otherwise bleed into statements.
  static std::string StripPreprocessor(std::string code) {
    bool in_directive = false;
    std::size_t i = 0;
    while (i < code.size()) {
      const std::size_t start = i;
      std::size_t end = code.find('\n', i);
      if (end == std::string::npos) end = code.size();
      if (!in_directive) {
        const std::size_t first = code.find_first_not_of(" \t", start);
        in_directive =
            first != std::string::npos && first < end && code[first] == '#';
      }
      if (in_directive) {
        const bool continued = end > start && code[end - 1] == '\\';
        for (std::size_t j = start; j < end; ++j) code[j] = ' ';
        in_directive = continued;
      }
      i = end + 1;
    }
    return code;
  }

  void Accumulate(char c, std::size_t offset) {
    if (statement_.empty()) {
      if (std::isspace(static_cast<unsigned char>(c))) return;
      statement_start_ = offset;
    }
    statement_.push_back(c);
    statement_end_ = offset;
  }

  ScopeKind ClassifyBrace() const {
    if (ContainsWord(statement_, "namespace") ||
        ContainsWord(statement_, "extern")) {
      return ScopeKind::kNamespace;
    }
    if (ContainsWord(statement_, "class") ||
        ContainsWord(statement_, "struct") ||
        ContainsWord(statement_, "union") ||
        ContainsWord(statement_, "enum")) {
      return ScopeKind::kClass;
    }
    // Control-flow keywords whose body brace carries no prior ')'.
    if (ContainsWord(statement_, "do") || ContainsWord(statement_, "else") ||
        ContainsWord(statement_, "try")) {
      return ScopeKind::kBlock;
    }
    if (TopLevelAssign(statement_) != std::string::npos) {
      return ScopeKind::kInitializer;  // Type name = {...};
    }
    const char last = statement_.empty()
                          ? '\0'
                          : PrevSignificant(statement_, statement_.size());
    if (last == ')') return ScopeKind::kBlock;  // function body
    if (last != '\0' && (IsIdentChar(last) || last == ']' || last == '>')) {
      return ScopeKind::kInitializer;  // Type name{...};
    }
    return ScopeKind::kBlock;
  }

  bool AtNamespaceScope() const {
    return std::all_of(scopes_.begin(), scopes_.end(), [](ScopeKind k) {
      return k == ScopeKind::kNamespace;
    });
  }
  bool AtClassScope() const {
    return !scopes_.empty() && scopes_.back() == ScopeKind::kClass;
  }

  void EndStatement() {
    std::string stmt;
    statement_.swap(stmt);
    if (stmt.empty()) return;
    const std::size_t start = statement_start_;
    const std::size_t end = statement_end_;

    const bool is_static = ContainsWord(stmt, "static");
    if (!AtNamespaceScope() && !is_static) return;  // locals/members
    if (AtClassScope() && !is_static) return;       // instance members
    EvaluateDeclaration(stmt, start, end);
  }

  void EvaluateDeclaration(const std::string& stmt, std::size_t start,
                           std::size_t end) {
    // Exempt categories. thread_local state is thread-confined; atomics
    // and sync primitives are safe (or are themselves the guard).
    static constexpr const char* kSkipWords[] = {
        "thread_local", "constexpr",     "constinit", "using",
        "typedef",      "static_assert", "friend",    "extern",
        "template",     "operator",      "namespace", "return",
        "if",           "for",           "while",     "switch",
        "case",         "goto",          "throw",     "class",
        "struct",       "union",         "enum",      "asm",
    };
    for (const char* w : kSkipWords) {
      if (ContainsWord(stmt, w)) return;
    }
    static constexpr const char* kSafeTypes[] = {
        "atomic", "mutex",  "shared_mutex", "recursive_mutex",
        "once_flag", "condition_variable",
    };
    for (const char* w : kSafeTypes) {
      if (stmt.find(w) != std::string::npos) return;
    }

    // Declarator = text before the first top-level '=' (or whole stmt).
    const std::size_t eq = TopLevelAssign(stmt);
    std::string decl =
        eq == std::string::npos ? stmt : stmt.substr(0, eq);
    // `T::~T() = default;` / `T(const T&) = delete;` define or remove
    // functions: a ')' declarator with an '=' is never a variable (a
    // parens-declarator variable cannot also carry an '=' initializer).
    if (eq != std::string::npos &&
        PrevSignificant(decl, decl.size()) == ')') {
      return;
    }
    const bool has_init = eq != std::string::npos ||
                          decl.find('{') != std::string::npos;
    if (!has_init) {
      // `Type fn(args);` is a declaration of a function, not state. A
      // ctor-call initializer looks identical; the rule accepts that
      // blind spot (use `=` or brace init for globals).
      if (PrevSignificant(decl, decl.size()) == ')') return;
      // Need at least two identifier-ish tokens (type + name).
      int words = 0;
      bool in_word = false;
      for (char c : decl) {
        if (IsIdentChar(c)) {
          if (!in_word) ++words;
          in_word = true;
        } else {
          in_word = false;
        }
      }
      if (words < 2) return;  // `;` noise, labels, forward decls
    }
    if (decl.find('{') != std::string::npos) {
      decl = decl.substr(0, decl.find('{'));
    }

    // Const check on the variable itself: with pointer declarators the
    // const must bind to the pointer (after the last '*'); otherwise
    // any const qualifier on the type suffices.
    const std::size_t star = decl.rfind('*');
    const std::string tail =
        star == std::string::npos ? decl : decl.substr(star + 1);
    if (ContainsWord(tail, "const")) return;

    const int line_begin = file_.LineAt(start);
    const int line_end = file_.LineAt(end);
    if (HasGuardedByAnnotation(line_begin, line_end)) return;
    out_->push_back(
        {file_.path(), line_begin, "shared-state",
         "mutable shared state: make it const/atomic, use a sync "
         "primitive or thread_local, or annotate "
         "'// lint: guarded-by(<mutex>)'"});
  }

  /// Looks for "lint: guarded-by(name)" on the statement's lines (or
  /// the line above) and verifies `name` is a real identifier declared
  /// on some other line of this file.
  bool HasGuardedByAnnotation(int line_begin, int line_end) {
    for (int line = std::max(1, line_begin - 1); line <= line_end; ++line) {
      const std::string& comment = file_.CommentOn(line);
      const std::size_t tag = comment.find("guarded-by(");
      if (tag == std::string::npos) continue;
      if (comment.rfind("lint:", tag) == std::string::npos) continue;
      std::size_t name_begin = tag + std::string("guarded-by(").size();
      std::size_t name_end = comment.find(')', name_begin);
      if (name_end == std::string::npos) break;
      std::string name = comment.substr(name_begin, name_end - name_begin);
      // Trim.
      while (!name.empty() && std::isspace(static_cast<unsigned char>(
                                  name.front()))) {
        name.erase(name.begin());
      }
      while (!name.empty() &&
             std::isspace(static_cast<unsigned char>(name.back()))) {
        name.pop_back();
      }
      if (name.empty()) break;
      // The guard must exist in code outside the annotated statement.
      for (std::size_t pos : FindWord(file_.code(), name)) {
        const int at = file_.LineAt(pos);
        if (at < line_begin || at > line_end) return true;
      }
      out_->push_back(
          {file_.path(), line, "shared-state",
           "guarded-by(" + name + ") names no identifier in this file"});
      return true;  // annotated (even if badly); the bad-name diag stands
    }
    return false;
  }

  const SourceFile& file_;
  std::vector<Diagnostic>* out_;
  std::vector<ScopeKind> scopes_;
  std::string statement_;
  std::size_t statement_start_ = 0;
  std::size_t statement_end_ = 0;
};

}  // namespace

void CheckSharedState(const SourceFile& file, std::vector<Diagnostic>* out) {
  SharedStateScanner(file, out).Run();
}

// -- hot-path-alloc ---------------------------------------------------

namespace {

/// Byte offset of the first character of 1-based `line` in code().
std::size_t LineStartOffset(const SourceFile& file, int line) {
  const std::string_view view = file.CodeLine(line);
  if (view.data() == nullptr) return file.code().size();
  return static_cast<std::size_t>(view.data() - file.code().data());
}

/// True when `comment` carries a standalone "lint: hot-path" annotation
/// (not the "hot-path-alloc" substring inside a NOLINT suppression).
bool HasHotPathAnnotation(const std::string& comment) {
  std::size_t tag = comment.find("hot-path");
  while (tag != std::string::npos) {
    const std::size_t end = tag + std::string("hot-path").size();
    const bool standalone =
        end >= comment.size() ||
        (!IsIdentChar(comment[end]) && comment[end] != '-');
    if (standalone && comment.rfind("lint:", tag) != std::string::npos) {
      return true;
    }
    tag = comment.find("hot-path", end);
  }
  return false;
}

}  // namespace

void CheckHotPathAlloc(const SourceFile& file, std::vector<Diagnostic>* out) {
  const std::string& code = file.code();
  for (int line = 1; line <= file.line_count(); ++line) {
    if (!HasHotPathAnnotation(file.CommentOn(line))) continue;

    // The annotation marks the next function: take the first '{' at or
    // after the annotated line and brace-match to the end of the body.
    const std::size_t open = code.find('{', LineStartOffset(file, line));
    if (open == std::string::npos) continue;
    std::size_t depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '{') ++depth;
      if (code[close] == '}' && --depth == 0) break;
    }
    const std::string body = code.substr(open, close - open);

    static constexpr const char* kGrowers[] = {"push_back", "resize"};
    for (const char* token : kGrowers) {
      for (std::size_t pos : FindWord(body, token)) {
        Emit(file, open + pos, "hot-path-alloc",
             std::string("'") + token +
                 "' in a '// lint: hot-path' function allocates; use a "
                 "dsp::Workspace slot sized outside the loop",
             out);
      }
    }
    for (std::size_t pos : FindWord(body, "new")) {
      Emit(file, open + pos, "hot-path-alloc",
           "'new' in a '// lint: hot-path' function allocates; hot paths "
           "borrow from dsp::Workspace",
           out);
    }
    // A vector *construction*: the word `vector`, balanced <...>, then
    // an argument list. Plain `std::vector<T>&` parameters/aliases pass.
    for (std::size_t pos : FindWord(body, "vector")) {
      std::size_t i = pos + std::string("vector").size();
      while (i < body.size() &&
             std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      if (i >= body.size() || body[i] != '<') continue;
      int angle = 0;
      for (; i < body.size(); ++i) {
        if (body[i] == '<') ++angle;
        if (body[i] == '>' && --angle == 0) {
          ++i;
          break;
        }
      }
      // Skip an optional declarator name so both the temporary
      // `std::vector<T>(n)` and the declaration `std::vector<T> v(n)`
      // match; `std::vector<T>&` references to workspace slots do not.
      std::size_t j = i;
      while (j < body.size() &&
             std::isspace(static_cast<unsigned char>(body[j]))) {
        ++j;
      }
      while (j < body.size() && IsIdentChar(body[j])) ++j;
      const char next = NextSignificant(body, j);
      if (next == '(' || next == '{') {
        Emit(file, open + pos, "hot-path-alloc",
             "vector constructed in a '// lint: hot-path' function; use a "
             "dsp::Workspace slot",
             out);
      }
    }
  }
}

// -- guarded-by (use-site) --------------------------------------------

namespace {

/// One parsed guarded-by annotation with the global it guards. (This
/// comment deliberately avoids spelling the annotation - the linter
/// lints itself, and the literal marker here would register as one.)
struct GuardedGlobal {
  std::string name;   ///< the annotated variable
  std::string mutex;  ///< last identifier inside the marker's parens
  int decl_line = 0;  ///< accesses on this line are the declaration
};

std::string Trimmed(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

/// The variable declared on `line` (falling back to `line + 1` when the
/// annotation sits on its own comment line): the identifier directly
/// before the declaration's '=', '{', '[' or ';'.
std::string DeclaredNameOn(const SourceFile& file, int line, int* decl_line) {
  for (int candidate = line; candidate <= line + 1; ++candidate) {
    // LexTokens returns views into its argument - keep it alive.
    const std::string line_code(file.CodeLine(candidate));
    const std::vector<Token> toks = LexTokens(line_code);
    std::string last_ident;
    for (const Token& t : toks) {
      if (t.kind == Token::Kind::kIdent) {
        last_ident = std::string(t.text);
        continue;
      }
      if ((t.text == "=" || t.text == "{" || t.text == "[" ||
           t.text == ";") &&
          !last_ident.empty()) {
        *decl_line = candidate;
        return last_ident;
      }
    }
  }
  return "";
}

std::vector<GuardedGlobal> FindGuardedGlobals(const SourceFile& file) {
  std::vector<GuardedGlobal> globals;
  for (int line = 1; line <= file.line_count(); ++line) {
    const std::string& comment = file.CommentOn(line);
    const std::size_t tag = comment.find("guarded-by(");
    if (tag == std::string::npos) continue;
    if (comment.rfind("lint:", tag) == std::string::npos) continue;
    const std::size_t name_begin = tag + std::string("guarded-by(").size();
    const std::size_t name_end = comment.find(')', name_begin);
    if (name_end == std::string::npos) continue;
    const std::string mutex =
        Trimmed(comment.substr(name_begin, name_end - name_begin));
    if (mutex.empty()) continue;
    GuardedGlobal g;
    g.mutex = mutex;
    g.name = DeclaredNameOn(file, line, &g.decl_line);
    if (!g.name.empty()) globals.push_back(std::move(g));
  }
  return globals;
}

}  // namespace

void CheckGuardedBy(const SourceFile& file, std::vector<Diagnostic>* out) {
  const std::vector<GuardedGlobal> globals = FindGuardedGlobals(file);
  if (globals.empty()) return;

  const std::vector<Token> toks = LexTokens(file.code());
  ScopeWalker walker(toks);
  walker.Walk([&](std::size_t i, const ScopeContext& ctx) {
    if (toks[i].kind != Token::Kind::kIdent) return;
    for (const GuardedGlobal& g : globals) {
      if (toks[i].text != g.name) continue;
      const int line = file.LineAt(toks[i].offset);
      if (line == g.decl_line) continue;  // the declaration itself
      // `x.name` / `x->name` / `X::name` is some other entity's member.
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                    toks[i - 1].text == "::")) {
        continue;
      }
      if (ctx.held_mutexes.count(g.mutex) != 0) continue;
      Emit(file, toks[i].offset, "guarded-by",
           "access to '" + g.name + "' outside a scope holding '" + g.mutex +
               "' (declared guarded-by(" + g.mutex +
               ")); take a lock_guard first",
           out);
    }
  });
}

// -- modeled-time (taint) ---------------------------------------------

namespace {

/// Host-timing call names: assignment from any of these taints the LHS.
bool IsHostTimeSource(std::string_view name) {
  return name == "TimeHostMs" || name == "TimeHostMedianMs" ||
         name == "ElapsedMs" || name == "ElapsedHostMs";
}

bool IsComparisonOp(std::string_view t) {
  return t == "<" || t == ">" || t == "<=" || t == ">=";
}

bool ContainsBudgetName(std::string_view ident) {
  return ident.find("budget") != std::string_view::npos ||
         ident.find("deadline") != std::string_view::npos;
}

/// Base identifier of the assignment target: for `a.b.c +=` that is
/// `a`; for a plain `x =` it is `x`. Returns "" when the LHS is not an
/// identifier chain (e.g. `arr[i] =`).
std::string LhsBaseIdent(const std::vector<Token>& toks, const Statement& s,
                         std::size_t assign) {
  std::size_t i = assign;
  std::string base;
  while (i > s.begin) {
    --i;
    if (toks[i].kind == Token::Kind::kIdent) {
      base = std::string(toks[i].text);
      if (i == s.begin) break;
      const std::string_view prev = toks[i - 1].text;
      if (prev == "." || prev == "->" || prev == "::") {
        --i;  // continue through the chain
        continue;
      }
      break;
    }
    if (toks[i].text == ")" || toks[i].text == "]") {
      const std::size_t open = MatchBackward(toks, i);
      if (open == toks.size() || open <= s.begin) return "";
      i = open;
      continue;
    }
    return "";
  }
  return base;
}

/// Immediate identifier before the assignment op (the declared/assigned
/// variable itself, not the chain base).
std::string LhsDirectIdent(const std::vector<Token>& toks, const Statement& s,
                           std::size_t assign) {
  if (assign == s.begin) return "";
  const Token& t = toks[assign - 1];
  return t.kind == Token::Kind::kIdent ? std::string(t.text) : "";
}

}  // namespace

void CheckModeledTime(const SourceFile& file, std::vector<Diagnostic>* out) {
  const std::string& code = file.code();
  // Cheap pre-filter: files with no host-timing call need no analysis.
  if (code.find("TimeHostM") == std::string::npos &&
      code.find("ElapsedMs") == std::string::npos &&
      code.find("ElapsedHostMs") == std::string::npos) {
    return;
  }
  const std::vector<Token> toks = LexTokens(code);
  const std::vector<Statement> stmts = SplitStatements(toks);

  // Accumulator sinks: every `proto_ms` (or member `proto_ms_`), plus
  // variables declared on a line annotated "// lint: modeled-time".
  std::set<std::string> accumulators = {"proto_ms", "proto_ms_"};
  for (int line = 1; line <= file.line_count(); ++line) {
    const std::string& comment = file.CommentOn(line);
    const std::size_t tag = comment.find("modeled-time");
    if (tag == std::string::npos) continue;
    if (comment.rfind("lint:", tag) == std::string::npos) continue;
    int decl_line = 0;
    const std::string name = DeclaredNameOn(file, line, &decl_line);
    if (!name.empty()) accumulators.insert(name);
  }
  auto writes_accumulator = [&](std::size_t k) {
    return toks[k].kind == Token::Kind::kIdent && k + 1 < toks.size() &&
           accumulators.count(std::string(toks[k].text)) != 0 &&
           (toks[k + 1].text == "+=" || toks[k + 1].text == "=" ||
            toks[k + 1].text == "-=");
  };

  // Sink functions: every function whose body writes an accumulator
  // (`CoTask<> M::Charge(Millis ms) { proto_ms_ += ms; ... }`), and
  // every lambda bound to a name that does
  // (`auto charge = [&](Millis ms) { proto_ms += ms; };`). Passing a
  // tainted value to one launders host time into modeled time. A
  // lambda body belongs to its enclosing function in the scope walk,
  // so lambdas are matched as `name = [` on the raw token stream and
  // their brace-matched body is scanned instead.
  std::set<std::string> sink_fns;
  ScopeWalker(toks).Walk([&](std::size_t i, const ScopeContext& ctx) {
    if (!ctx.function.empty() && writes_accumulator(i)) {
      sink_fns.insert(ctx.function);
    }
  });
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i + 1].text != "=" ||
        toks[i + 2].text != "[") {
      continue;
    }
    std::size_t j = MatchForward(toks, i + 2);  // end of capture list
    if (j == toks.size()) continue;
    ++j;
    if (j < toks.size() && toks[j].text == "(") {
      j = MatchForward(toks, j);
      if (j == toks.size()) continue;
      ++j;
    }
    // Skip a trailing-return-type spelling until the body brace.
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;
    const std::size_t close = MatchForward(toks, j);
    for (std::size_t k = j + 1; k < close && k < toks.size(); ++k) {
      if (writes_accumulator(k)) {
        sink_fns.insert(std::string(toks[i].text));
        break;
      }
    }
  }

  // Taint fixpoint over assignment chains: LHS becomes tainted when the
  // RHS mentions a host-time source call or an already-tainted name.
  std::set<std::string> tainted;
  auto range_tainted = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      if (i > begin && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        continue;  // member names don't carry taint, their base does
      }
      if (IsHostTimeSource(toks[i].text) && i + 1 < end &&
          toks[i + 1].text == "(") {
        return true;
      }
      if (tainted.count(std::string(toks[i].text)) != 0) return true;
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const Statement& s : stmts) {
      const std::size_t assign = TopLevelAssignToken(toks, s);
      if (assign == s.end) continue;
      const std::string lhs = LhsDirectIdent(toks, s, assign);
      if (lhs.empty() || tainted.count(lhs) != 0) continue;
      if (range_tainted(assign + 1, s.end)) {
        tainted.insert(lhs);
        changed = true;
      }
    }
  }

  // SessionRecord-typed locals: writes to their fields are sinks.
  std::set<std::string> record_vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        toks[i].text == "SessionRecord" &&
        toks[i + 1].kind == Token::Kind::kIdent) {
      record_vars.insert(std::string(toks[i + 1].text));
    }
  }

  auto diagnose = [&](std::size_t offset, const std::string& what) {
    Emit(file, offset, "modeled-time",
         what + "; modeled time must stay a pure function of the seed "
                "(docs/robustness.md), keep host measurements in metrics "
                "and latency reports only",
         out);
  };

  for (const Statement& s : stmts) {
    const std::size_t assign = TopLevelAssignToken(toks, s);
    if (assign != s.end) {
      const std::string direct = LhsDirectIdent(toks, s, assign);
      const std::string base = LhsBaseIdent(toks, s, assign);
      const bool rhs_tainted = range_tainted(assign + 1, s.end);
      if (rhs_tainted && accumulators.count(direct) != 0) {
        diagnose(toks[assign].offset,
                 "host-timed value flows into modeled-time accumulator '" +
                     direct + "'");
        continue;
      }
      if (rhs_tainted && record_vars.count(base) != 0 && base != direct) {
        diagnose(toks[assign].offset,
                 "host-timed value flows into SessionRecord field of '" +
                     base + "'");
        continue;
      }
    }

    // Calls to accumulator-writing functions with a tainted argument.
    for (std::size_t i = s.begin; i + 1 < s.end; ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      if (sink_fns.count(std::string(toks[i].text)) == 0) continue;
      if (toks[i + 1].text != "(") continue;
      const std::size_t close = MatchForward(toks, i + 1);
      if (close == toks.size()) continue;
      if (range_tainted(i + 2, close)) {
        diagnose(toks[i].offset,
                 "host-timed value passed to '" + std::string(toks[i].text) +
                     "', which writes a modeled-time accumulator");
      }
    }

    // Budget comparisons: tainted operand on one side of </>/<=/>= and
    // a *budget*/*deadline* identifier on the other.
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (!IsComparisonOp(toks[i].text)) continue;
      auto side_has_budget = [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          if (toks[j].kind == Token::Kind::kIdent &&
              ContainsBudgetName(toks[j].text)) {
            return true;
          }
        }
        return false;
      };
      const bool left_taint = range_tainted(s.begin, i);
      const bool right_taint = range_tainted(i + 1, s.end);
      if ((left_taint && side_has_budget(i + 1, s.end)) ||
          (right_taint && side_has_budget(s.begin, i))) {
        diagnose(toks[i].offset,
                 "host-timed value compared against a stage budget/deadline");
        break;
      }
    }

    // WL_* metric tagged "modeled" observing a tainted value.
    for (std::size_t i = s.begin; i + 1 < s.end; ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string_view name = toks[i].text;
      if (name != "WL_HIST" && name != "WL_SERIES" &&
          name != "WL_GAUGE_SET" && name != "WL_COUNT_N") {
        continue;
      }
      if (toks[i + 1].text != "(") continue;
      const std::size_t close = MatchForward(toks, i + 1);
      if (close == toks.size()) continue;
      // First argument is a string literal; its body is blanked in
      // code(), so read it back from content() between the quotes.
      std::size_t q1 = std::string::npos, q2 = std::string::npos;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (toks[j].text == "\"") {
          if (q1 == std::string::npos) {
            q1 = toks[j].offset;
          } else {
            q2 = toks[j].offset;
            break;
          }
        }
      }
      if (q1 == std::string::npos || q2 == std::string::npos) continue;
      const std::string metric =
          file.content().substr(q1 + 1, q2 - q1 - 1);
      if (metric.find("modeled") == std::string::npos) continue;
      if (range_tainted(i + 2, close)) {
        diagnose(toks[i].offset, "host-timed value observed into metric '" +
                                     metric + "' tagged as modeled");
      }
    }
  }
}

// -- slot-ownership ---------------------------------------------------

void CheckSlotOwnership(const SourceFile& file, const SlotManifest& manifest,
                        std::vector<Diagnostic>* out) {
  const std::string& code = file.code();
  if (code.find("Slot::") == std::string::npos) return;

  const std::vector<Token> toks = LexTokens(code);
  ScopeWalker walker(toks);
  walker.Walk([&](std::size_t i, const ScopeContext& ctx) {
    if (toks[i].kind != Token::Kind::kIdent) return;
    if (toks[i].text != "CSlot" && toks[i].text != "RSlot") return;
    if (i + 2 >= toks.size() || toks[i + 1].text != "::" ||
        toks[i + 2].kind != Token::Kind::kIdent) {
      return;
    }
    const std::string slot =
        std::string(toks[i].text) + "::" + std::string(toks[i + 2].text);
    const auto it = manifest.find(slot);
    if (it == manifest.end()) {
      Emit(file, toks[i].offset, "slot-ownership",
           "'" + slot + "' is not in the slot ownership manifest "
           "(tools/lint/slot_owners.txt); every slot needs one documented "
           "owner",
           out);
      return;
    }
    if (it->second.count("*") != 0) return;
    const std::string where =
        ctx.function.empty() ? "(file scope)" : ctx.function;
    if (it->second.count(ctx.function) != 0) return;
    std::string owners;
    for (const std::string& o : it->second) {
      if (!owners.empty()) owners += ", ";
      owners += o;
    }
    Emit(file, toks[i].offset, "slot-ownership",
         "'" + slot + "' referenced from '" + where +
             "' but owned by: " + owners +
             " (one owner per slot keeps scratch from aliasing; see "
             "docs/perf.md)",
         out);
  });
}

// -- discarded-outcome ------------------------------------------------

namespace {

/// APIs whose return value carries the outcome. `qualifier` (when
/// non-empty) must appear as `qualifier::name` at the call site, so
/// generic names like Parse only match their intended owner.
struct OutcomeApi {
  const char* qualifier;
  const char* name;
};
constexpr OutcomeApi kOutcomeApis[] = {
    {"", "TrySendMessageDelay"},
    {"", "TrySendFileDelay"},
    {"FaultPlan", "Parse"},
    {"ImpairmentPlan", "Parse"},
    // Channel-hardening outcome carriers: a dropped carrier-sense
    // report defeats the MAC's busy decision; a dropped drift estimate
    // or compensated recording silently skips the hardening it paid
    // for; a dropped backoff leaves the MAC retrying with no delay.
    {"", "SenseChannel"},
    {"", "EstimateDrift"},
    {"", "CompensateRate"},
    // The one bounded-exponential ladder (retries and the acoustic
    // MAC); every legitimate call needs the returned delay.
    {"", "BackoffMs"},
};

}  // namespace

void CheckDiscardedOutcome(const SourceFile& file,
                           std::vector<Diagnostic>* out) {
  const std::vector<Token> toks = LexTokens(file.code());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const OutcomeApi* api = nullptr;
    for (const OutcomeApi& candidate : kOutcomeApis) {
      if (toks[i].text != candidate.name) continue;
      if (candidate.qualifier[0] != '\0') {
        if (i < 2 || toks[i - 1].text != "::" ||
            toks[i - 2].text != candidate.qualifier) {
          continue;
        }
      }
      api = &candidate;
      break;
    }
    if (api == nullptr) continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;

    // The full expression must be a statement, and the call its tail:
    // walk back across the receiver chain (obj.x->y::z), then require a
    // statement boundary before it and a ';' right after the call.
    std::size_t start = i;
    while (start > 0) {
      const std::string_view prev = toks[start - 1].text;
      if (prev == "." || prev == "->" || prev == "::") {
        if (start < 2) break;
        const Token& recv = toks[start - 2];
        if (recv.kind == Token::Kind::kIdent) {
          start -= 2;
          continue;
        }
        if (recv.text == ")" || recv.text == "]") {
          const std::size_t open = MatchBackward(toks, start - 2);
          if (open == toks.size() || open == 0 ||
              toks[open - 1].kind != Token::Kind::kIdent) {
            break;
          }
          start = open - 1;
          continue;
        }
      }
      break;
    }
    const std::size_t close = MatchForward(toks, i + 1);
    if (close == toks.size() || close + 1 >= toks.size() ||
        toks[close + 1].text != ";") {
      continue;  // value is consumed (or at least inspected)
    }
    bool statement_start = start == 0;
    if (start > 0) {
      const std::string_view pre = toks[start - 1].text;
      statement_start = pre == ";" || pre == "{" || pre == "}" ||
                        pre == ")" || pre == "else" || pre == "do";
      // `(void)expr;` is an explicit discard - visible and greppable.
      if (pre == ")" && start >= 3 && toks[start - 2].text == "void" &&
          toks[start - 3].text == "(") {
        statement_start = false;
      }
    }
    if (!statement_start) continue;
    Emit(file, toks[i].offset, "discarded-outcome",
         "outcome of '" + std::string(toks[i].text) +
             "' is discarded; consume the result (or cast to (void) for "
             "an explicit discard)",
         out);
  }
}

// -- layer-dag --------------------------------------------------------

namespace {

const std::map<std::string, std::set<std::string>>& LayerDeps() {
  // Mirrors the target graph in src/CMakeLists.txt. "obs" is allowed
  // from every layer and is therefore not listed.
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"obs", {}},
      {"dsp", {}},
      {"crypto", {}},
      {"sim", {}},
      {"audio", {"dsp", "sim"}},
      {"modem", {"dsp", "audio", "sim"}},
      {"sensors", {"dsp", "sim"}},
      {"protocol", {"dsp", "audio", "sim", "modem", "sensors", "crypto"}},
  };
  return kDeps;
}

std::string JoinSorted(const std::set<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out.empty() ? "(nothing)" : out;
}

}  // namespace

void CheckLayerDag(const std::vector<SourceFile>& files,
                   std::vector<Diagnostic>* out) {
  const auto& deps = LayerDeps();

  // Index scanned files by src-relative path for cycle detection.
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& f : files) by_rel[f.SrcRelativePath()] = &f;

  for (const SourceFile& f : files) {
    const std::string layer = f.Layer();
    for (const IncludeDirective& inc : f.includes()) {
      if (inc.angled) continue;  // system headers are out of scope
      const std::size_t slash = inc.path.find('/');
      if (slash == std::string::npos) {
        // Only library code must root its includes at src/; tests,
        // benches and tools legitimately include siblings by filename
        // ("bench_util.h", "lint.h").
        if (IsLibraryFile(f)) {
          out->push_back(
              {f.path(), inc.line, "layer-dag",
               "include \"" + inc.path + "\" is not rooted at src/ (write \"" +
                   (layer.empty() ? std::string("<layer>") : layer) + "/" +
                   inc.path + "\")"});
        }
        continue;
      }
      const std::string target = inc.path.substr(0, slash);
      const auto source_it = deps.find(layer);
      if (source_it == deps.end() || deps.find(target) == deps.end()) {
        continue;  // outside the known architecture; other rules apply
      }
      if (target == layer || target == "obs" ||
          source_it->second.count(target) != 0) {
        continue;
      }
      out->push_back(
          {f.path(), inc.line, "layer-dag",
           "layer '" + layer + "' must not include '" + target +
               "' (allowed: obs, " + layer + ", " +
               JoinSorted(source_it->second) + ")"});
    }
  }

  // Include-cycle detection (file granularity, DFS three-colour).
  enum class Colour { kWhite, kGrey, kBlack };
  std::map<std::string, Colour> colour;
  std::vector<std::string> stack;

  std::function<void(const SourceFile&)> visit =
      [&](const SourceFile& f) {
        const std::string rel = f.SrcRelativePath();
        colour[rel] = Colour::kGrey;
        stack.push_back(rel);
        for (const IncludeDirective& inc : f.includes()) {
          if (inc.angled) continue;
          const auto it = by_rel.find(inc.path);
          if (it == by_rel.end()) continue;
          const std::string& target = it->second->SrcRelativePath();
          const Colour c =
              colour.count(target) ? colour[target] : Colour::kWhite;
          if (c == Colour::kGrey) {
            std::string chain;
            const auto cycle_start =
                std::find(stack.begin(), stack.end(), target);
            for (auto jt = cycle_start; jt != stack.end(); ++jt) {
              chain += *jt + " -> ";
            }
            chain += target;
            out->push_back({f.path(), inc.line, "layer-dag",
                            "include cycle: " + chain});
          } else if (c == Colour::kWhite) {
            visit(*it->second);
          }
        }
        stack.pop_back();
        colour[rel] = Colour::kBlack;
      };
  for (const SourceFile& f : files) {
    if (!colour.count(f.SrcRelativePath())) visit(f);
  }
}

// -- test-only-export -------------------------------------------------

namespace {

bool IsTestFile(const SourceFile& file) {
  const std::string& p = file.path();
  return p.rfind("tests/", 0) == 0 || p.find("/tests/") != std::string::npos;
}

/// Words that are never a function's name, though '(' may follow them.
bool IsNeverAName(std::string_view t) {
  static const std::set<std::string_view> kWords = {
      "__attribute__", "alignas",  "alignof",  "auto",     "bool",
      "case",          "catch",    "char",     "const",    "decltype",
      "default",       "delete",   "double",   "float",    "for",
      "if",            "int",      "long",     "new",      "noexcept",
      "operator",      "requires", "return",   "short",    "signed",
      "sizeof",        "static_assert",        "switch",   "template",
      "throw",         "typeid",   "typename", "unsigned", "using",
      "void",          "volatile", "while"};
  return kWords.count(t) != 0;
}

/// Words that cannot end the return type a declared function's name
/// follows: `return F(x);` is a call, not a declaration.
bool EndsNoType(std::string_view t) {
  static const std::set<std::string_view> kWords = {
      "and",      "case",    "co_await", "co_return", "co_yield", "delete",
      "do",       "else",    "goto",     "new",       "not",      "operator",
      "or",       "private", "protected", "public",   "return",   "sizeof",
      "throw",    "typedef", "using"};
  return kWords.count(t) != 0;
}

/// Members the language calls by name with no call in the source: the
/// coroutine promise and awaiter interfaces.
bool IsLanguageHook(std::string_view t) {
  static const std::set<std::string_view> kHooks = {
      "await_ready",     "await_resume",        "await_suspend",
      "await_transform", "final_suspend",       "get_return_object",
      "initial_suspend", "return_value",        "return_void",
      "unhandled_exception", "yield_value"};
  return kHooks.count(t) != 0;
}

/// What can follow a function declarator's closing parenthesis.
bool IsDeclaratorTrailer(std::string_view t) {
  return t == ";" || t == "{" || t == "const" || t == "noexcept" ||
         t == "override" || t == "final" || t == "->" || t == "=" ||
         t == "&" || t == "&&";
}

/// Per token: does it sit on a preprocessor line (a '#' directive or
/// one of its backslash continuations)?
std::vector<bool> OnPreprocessorLine(const SourceFile& file,
                                     const std::vector<Token>& toks) {
  std::vector<bool> directive(static_cast<std::size_t>(file.line_count()) + 2,
                              false);
  bool continued = false;
  for (int line = 1; line <= file.line_count(); ++line) {
    const std::string_view code = file.CodeLine(line);
    const std::size_t first = code.find_first_not_of(" \t");
    const bool is_directive =
        continued || (first != std::string_view::npos && code[first] == '#');
    directive[static_cast<std::size_t>(line)] = is_directive;
    const std::size_t last = code.find_last_not_of(" \t\r");
    continued = is_directive && last != std::string_view::npos &&
                code[last] == '\\';
  }
  std::vector<bool> out(toks.size(), false);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    out[i] = directive[static_cast<std::size_t>(file.LineAt(toks[i].offset))];
  }
  return out;
}

/// Flags the tokens that name a function where it is declared or
/// defined at namespace or class scope. Constructors, destructors and
/// operators are not flagged; neither is anything inside a function
/// body, an initializer or a preprocessor line.
std::vector<bool> FunctionDeclarators(const SourceFile& file,
                                      const std::vector<Token>& toks) {
  const std::vector<bool> skip = OnPreprocessorLine(file, toks);
  enum class Scope { kNamespace, kClass, kOther };
  struct Frame {
    Scope scope;
    std::string_view class_name;
  };
  std::vector<Frame> frames;
  bool declaring = true;  // every enclosing frame is a namespace or class
  std::size_t stmt_begin = 0;
  std::vector<bool> out(toks.size(), false);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (skip[i]) continue;
    const std::string_view t = toks[i].text;
    if (t == "{") {
      Frame frame{Scope::kOther, {}};
      if (declaring) {
        // Classify by the declaration head since the last boundary.
        bool is_namespace = false, no_class = false;
        std::size_t class_kw = i;
        for (std::size_t j = stmt_begin; j < i; ++j) {
          if (skip[j]) continue;
          const std::string_view h = toks[j].text;
          if (h == "namespace") is_namespace = true;
          if (h == "enum" || h == "=" || h == "(") no_class = true;
          if (h == "class" || h == "struct" || h == "union") class_kw = j;
        }
        if (is_namespace) {
          frame.scope = Scope::kNamespace;
        } else if (class_kw < i && !no_class) {
          frame.scope = Scope::kClass;
          // `struct [[attr]] Outer::Inner {` names Inner.
          std::size_t n = class_kw + 1;
          while (n < i && toks[n].text == "[") n = MatchForward(toks, n) + 1;
          while (n + 2 < i && toks[n + 1].text == "::") n += 2;
          if (n < i) frame.class_name = toks[n].text;
        }
      }
      frames.push_back(frame);
      declaring = declaring && frame.scope != Scope::kOther;
      stmt_begin = i + 1;
      continue;
    }
    if (t == "}") {
      if (!frames.empty()) frames.pop_back();
      declaring = true;
      for (const Frame& f : frames) declaring &= f.scope != Scope::kOther;
      stmt_begin = i + 1;
      continue;
    }
    if (t == ";") {
      stmt_begin = i + 1;
      continue;
    }
    if (!declaring || toks[i].kind != Token::Kind::kIdent ||
        i + 1 >= toks.size() || toks[i + 1].text != "(" || IsNeverAName(t)) {
      continue;
    }
    // Walk back over a qualifier chain (`Sha1::Hash`).
    std::size_t start = i;
    std::string_view qualifier;
    while (start >= 2 && toks[start - 1].text == "::" &&
           toks[start - 2].kind == Token::Kind::kIdent) {
      if (qualifier.empty()) qualifier = toks[start - 2].text;
      start -= 2;
    }
    if (start == 0 || toks[start - 1].text == "~") continue;
    if (t == qualifier) continue;  // out-of-line constructor
    if (qualifier.empty() && !frames.empty() &&
        frames.back().scope == Scope::kClass &&
        t == frames.back().class_name) {
      continue;  // in-class constructor
    }
    const Token& prev = toks[start - 1];
    const bool after_type =
        (prev.kind == Token::Kind::kIdent && !EndsNoType(prev.text)) ||
        prev.text == ">" || prev.text == "*" || prev.text == "&" ||
        prev.text == "&&";
    if (!after_type) continue;
    const std::size_t close = MatchForward(toks, i + 1);
    if (close + 1 >= toks.size() ||
        !IsDeclaratorTrailer(toks[close + 1].text)) {
      continue;
    }
    out[i] = true;
  }
  return out;
}

}  // namespace

void CheckTestOnlyExport(const std::vector<SourceFile>& files,
                         std::vector<Diagnostic>* out) {
  const bool sees_tests =
      std::any_of(files.begin(), files.end(),
                  [](const SourceFile& f) { return IsTestFile(f); });
  if (!sees_tests) return;

  struct Site {
    const SourceFile* file;
    std::size_t offset;
  };
  std::map<std::string, std::vector<Site>, std::less<>> declared;
  std::set<std::string, std::less<>> referenced;
  for (const SourceFile& f : files) {
    if (IsTestFile(f)) continue;
    const std::vector<Token> toks = LexTokens(f.code());
    const std::vector<bool> declarator = FunctionDeclarators(f, toks);
    const bool exports = f.IsHeader() && IsLibraryFile(f);
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      if (!declarator[i]) {
        referenced.emplace(toks[i].text);
      } else if (exports) {
        declared[std::string(toks[i].text)].push_back({&f, toks[i].offset});
      }
    }
  }
  for (const auto& [name, sites] : declared) {
    if (referenced.count(name) != 0 || IsLanguageHook(name)) continue;
    for (const Site& site : sites) {
      Emit(*site.file, site.offset, "test-only-export",
           "'" + name +
               "' is declared in a src/ header but nothing outside tests/ "
               "references it; delete it (an oracle moves into its test) "
               "or mark a test seam NOLINT(test-only-export): <reason>",
           out);
    }
  }
}

}  // namespace wearlock::lint
