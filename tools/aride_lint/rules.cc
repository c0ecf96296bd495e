#include "aride_lint/rules.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <set>
#include <utility>

namespace aride_lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool InSrc(const FileInfo& f) { return StartsWith(f.path, "src/"); }

// Appends unconditionally; RunFileRules applies NOLINT-ARIDE filtering
// centrally so it can record which suppression entries were consumed.
void Emit(const FileInfo& f, int line, const char* rule, std::string message,
          std::vector<Diagnostic>* out) {
  out->push_back({f.path, line, rule, std::move(message)});
}

bool IsTok(const Token& t, TokKind kind, const char* text) {
  return t.kind == kind && t.text == text;
}

// ---------------------------------------------------------------------------
// banned-api

void CheckBannedApi(const FileInfo& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.lex.tokens;
  const bool in_src = InSrc(f);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool called =
        i + 1 < toks.size() && IsTok(toks[i + 1], TokKind::kPunct, "(");
    const bool member_access =
        i > 0 && (IsTok(toks[i - 1], TokKind::kPunct, ".") ||
                  IsTok(toks[i - 1], TokKind::kPunct, "->"));

    if ((t.text == "rand" || t.text == "srand") && called && !member_access) {
      Emit(f, t.line, kRuleBannedApi,
           t.text + "() draws from hidden global state; use the seeded "
                    "generators in common/rng.h so runs stay reproducible",
           out);
      continue;
    }
    if (t.text == "system_clock") {
      Emit(f, t.line, kRuleBannedApi,
           "system_clock is wall time and can jump; use steady_clock "
           "(common/timer.h) for durations. Suppress only for real "
           "timestamps",
           out);
      continue;
    }
    if (!in_src) continue;  // the remaining bans apply to library code only
    if (t.text == "assert" && called && !member_access) {
      Emit(f, t.line, kRuleBannedApi,
           "assert() vanishes under NDEBUG with no tiering; use "
           "ARIDE_ACHECK / ARIDE_CHECK / ARIDE_DCHECK (common/check.h)",
           out);
      continue;
    }
    if (t.text == "printf" && called && !member_access) {
      Emit(f, t.line, kRuleBannedApi,
           "bare printf in library code pollutes stdout; return data to "
           "the caller",
           out);
      continue;
    }
    if (t.text == "getenv" && called && !member_access) {
      Emit(f, t.line, kRuleBannedApi,
           "library code reads no environment; the caller (an example, a "
           "bench or a test) reads it and passes the value in",
           out);
      continue;
    }
    if (t.text == "cout" || t.text == "cerr") {
      Emit(f, t.line, kRuleBannedApi,
           "std::" + t.text + " in library code; return data to the caller",
           out);
      continue;
    }
    // #include <cassert> / <assert.h>
    if (t.text == "include" && i > 0 &&
        IsTok(toks[i - 1], TokKind::kPunct, "#") && i + 2 < toks.size() &&
        IsTok(toks[i + 1], TokKind::kPunct, "<") &&
        toks[i + 2].kind == TokKind::kIdentifier &&
        (toks[i + 2].text == "cassert" || toks[i + 2].text == "assert")) {
      Emit(f, t.line, kRuleBannedApi,
           "library code must not include <" + toks[i + 2].text +
               (toks[i + 2].text == "assert" ? ".h" : "") +
               ">; use common/check.h",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// float-eq

const std::set<std::string>& MoneyWords() {
  static const std::set<std::string> kWords = {
      "bid",     "bids",    "price",   "prices",    "pay",     "pays",
      "payment", "payments", "fare",   "fares",     "cost",    "costs",
      "utility", "utilities", "charge", "charges",  "revenue", "welfare",
      "surplus", "profit",  "budget"};
  return kWords;
}

// Tokens that end an operand scan at bracket depth zero. Assignment and
// comparison operators, statement/expression boundaries, and stream ops.
bool IsOperandBoundary(const Token& t) {
  if (t.kind == TokKind::kIdentifier) {
    return t.text == "return" || t.text == "case" || t.text == "co_return";
  }
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kBoundary = {
      ",",  ";",  "{",  "}",  "?",  ":",  "=",  "+=", "-=", "*=",
      "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "&&", "||", "==",
      "!=", "<",  ">",  "<=", ">=", "<<", ">>", "!",  "#"};
  return kBoundary.count(t.text) != 0;
}

}  // namespace

bool IsMoneyIdentifier(const std::string& identifier) {
  // Identifiers that *count*, *index* or *rank* money objects (n_payments,
  // payment_count, bid_idx, bid_index, bid_rank) are integral positions,
  // not money math.
  static const std::set<std::string> kCountWords = {
      "n",   "num",   "count", "cnt",  "idx",  "index",
      "id",  "ids",   "size",  "len",  "rank", "ranks",
      "version"};
  std::string lower;
  lower.reserve(identifier.size());
  for (char c : identifier) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  std::vector<std::string> components;
  std::string component;
  for (char c : lower) {
    if (c == '_') {
      components.push_back(component);
      component.clear();
    } else {
      component.push_back(c);
    }
  }
  components.push_back(component);
  bool money = false;
  for (std::string& comp : components) {
    // Strip trailing digits so bid0 / cost2 still match.
    while (!comp.empty() &&
           std::isdigit(static_cast<unsigned char>(comp.back()))) {
      comp.pop_back();
    }
    if (kCountWords.count(comp) != 0) return false;
    if (MoneyWords().count(comp) != 0) money = true;
  }
  return money;
}

namespace {

// The identifier that names the compared value: the last identifier in the
// operand's token range. For calls ("payments.size()") this is the callee,
// which correctly classifies size/count accessors as non-money.
const Token* TerminalIdentifier(const std::vector<Token>& toks,
                                std::size_t begin, std::size_t end) {
  for (std::size_t i = end; i > begin; --i) {
    if (toks[i - 1].kind == TokKind::kIdentifier) return &toks[i - 1];
  }
  return nullptr;
}

void CheckFloatEq(const FileInfo& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct ||
        (toks[i].text != "==" && toks[i].text != "!=")) {
      continue;
    }
    // Left operand: walk back to the operand boundary at depth zero.
    std::size_t lhs_begin = i;
    int depth = 0;
    while (lhs_begin > 0) {
      const Token& t = toks[lhs_begin - 1];
      if (t.kind == TokKind::kPunct && (t.text == ")" || t.text == "]")) {
        ++depth;
      } else if (t.kind == TokKind::kPunct &&
                 (t.text == "(" || t.text == "[")) {
        if (depth == 0) break;
        --depth;
      } else if (depth == 0 && IsOperandBoundary(t)) {
        break;
      }
      --lhs_begin;
    }
    // Right operand: walk forward symmetrically.
    std::size_t rhs_end = i + 1;
    depth = 0;
    while (rhs_end < toks.size()) {
      const Token& t = toks[rhs_end];
      if (t.kind == TokKind::kPunct && (t.text == "(" || t.text == "[")) {
        ++depth;
      } else if (t.kind == TokKind::kPunct &&
                 (t.text == ")" || t.text == "]")) {
        if (depth == 0) break;
        --depth;
      } else if (depth == 0 && IsOperandBoundary(t)) {
        break;
      }
      ++rhs_end;
    }
    const Token* lhs = TerminalIdentifier(toks, lhs_begin, i);
    const Token* rhs = TerminalIdentifier(toks, i + 1, rhs_end);
    // nullptr comparisons are pointer validity checks, never money math.
    if ((lhs != nullptr && lhs->text == "nullptr") ||
        (rhs != nullptr && rhs->text == "nullptr")) {
      continue;
    }
    const Token* money = nullptr;
    if (lhs != nullptr && IsMoneyIdentifier(lhs->text)) money = lhs;
    if (money == nullptr && rhs != nullptr && IsMoneyIdentifier(rhs->text)) {
      money = rhs;
    }
    if (money == nullptr) continue;
    Emit(f, toks[i].line, kRuleFloatEq,
         "raw " + toks[i].text + " on money quantity '" + money->text +
             "'; exact float equality silently breaks truthfulness/IR "
             "checks. Compare with an epsilon (ARIDE_CHECK_NEAR, "
             "VerifierOptions::epsilon) or restructure with <",
         out);
  }
}

// ---------------------------------------------------------------------------
// guard-style

}  // namespace

std::string ExpectedGuard(const std::string& path) {
  std::string rel = path;
  if (StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard = "AUCTIONRIDE_";
  for (char c : rel) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

namespace {

// Locates the opening #ifndef/#define pair. Returns the guard identifier
// actually used, or empty when the file has no recognizable guard.
struct GuardInfo {
  std::string name;     // from #ifndef
  std::string defined;  // from the following #define ("" if absent)
  int line = 0;
  bool pragma_once = false;
};

GuardInfo FindGuard(const FileInfo& f) {
  GuardInfo g;
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsTok(toks[i], TokKind::kPunct, "#")) continue;
    if (toks[i + 1].kind != TokKind::kIdentifier) continue;
    if (toks[i + 1].text == "pragma" && i + 2 < toks.size() &&
        toks[i + 2].text == "once") {
      g.pragma_once = true;
      g.line = toks[i].line;
      return g;
    }
    if (toks[i + 1].text != "ifndef") continue;
    if (i + 2 >= toks.size()) break;
    g.name = toks[i + 2].text;
    g.line = toks[i + 2].line;
    if (i + 5 < toks.size() && IsTok(toks[i + 3], TokKind::kPunct, "#") &&
        toks[i + 4].kind == TokKind::kIdentifier &&
        toks[i + 4].text == "define") {
      g.defined = toks[i + 5].text;
    }
    return g;
  }
  return g;
}

void CheckGuardStyle(const FileInfo& f, std::vector<Diagnostic>* out) {
  if (!EndsWith(f.path, ".h")) return;
  const std::string expected = ExpectedGuard(f.path);
  const GuardInfo g = FindGuard(f);
  if (g.pragma_once) {
    Emit(f, g.line, kRuleGuardStyle,
         "#pragma once; this repo uses include guards (" + expected + ")",
         out);
    return;
  }
  if (g.name.empty()) {
    Emit(f, 1, kRuleGuardStyle, "missing include guard " + expected, out);
    return;
  }
  if (g.name != expected) {
    Emit(f, g.line, kRuleGuardStyle,
         "include guard " + g.name + " should be " + expected, out);
  } else if (g.defined != g.name) {
    Emit(f, g.line, kRuleGuardStyle,
         "#ifndef " + g.name + " is not followed by a matching #define",
         out);
  }
  // The closing #endif should carry the guard name as a trailing comment.
  if (g.name == expected && g.defined == g.name) {
    std::size_t endif_pos = f.source.rfind("#endif");
    if (endif_pos != std::string::npos) {
      std::size_t eol = f.source.find('\n', endif_pos);
      std::string endif_line = f.source.substr(
          endif_pos, eol == std::string::npos ? std::string::npos
                                              : eol - endif_pos);
      if (endif_line.find(expected) == std::string::npos) {
        int line = 1 + static_cast<int>(std::count(
                           f.source.begin(),
                           f.source.begin() + static_cast<long>(endif_pos),
                           '\n'));
        Emit(f, line, kRuleGuardStyle,
             "closing #endif should carry the guard comment: #endif  // " +
                 expected,
             out);
      }
    }
  }
}

}  // namespace

bool FixGuardStyle(const FileInfo& f, std::string* fixed_source) {
  if (!EndsWith(f.path, ".h")) return false;
  const std::string expected = ExpectedGuard(f.path);
  const GuardInfo g = FindGuard(f);
  if (g.name.empty() || g.name == expected || g.pragma_once) {
    // Missing or pragma-once guards need a by-hand decision; only renames
    // are mechanically safe.
    return false;
  }
  std::string result;
  result.reserve(f.source.size());
  std::size_t pos = 0;
  while (pos < f.source.size()) {
    std::size_t at = f.source.find(g.name, pos);
    if (at == std::string::npos) {
      result.append(f.source, pos, std::string::npos);
      break;
    }
    const bool left_ok =
        at == 0 || (!std::isalnum(static_cast<unsigned char>(
                        f.source[at - 1])) &&
                    f.source[at - 1] != '_');
    const std::size_t after = at + g.name.size();
    const bool right_ok =
        after >= f.source.size() ||
        (!std::isalnum(static_cast<unsigned char>(f.source[after])) &&
         f.source[after] != '_');
    result.append(f.source, pos, at - pos);
    result.append(left_ok && right_ok ? expected : g.name);
    pos = after;
  }
  if (result == f.source) return false;
  *fixed_source = std::move(result);
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// check-side-effects

void CheckCheckSideEffects(const FileInfo& f, std::vector<Diagnostic>* out) {
  static const std::set<std::string> kCompiledOutChecks = {
      "ARIDE_CHECK",    "ARIDE_CHECK_EQ", "ARIDE_CHECK_NE",
      "ARIDE_CHECK_GE", "ARIDE_CHECK_GT", "ARIDE_CHECK_LE",
      "ARIDE_CHECK_LT", "ARIDE_CHECK_NEAR", "ARIDE_DCHECK"};
  static const std::set<std::string> kMutators = {
      "++", "--", "=",  "+=", "-=",  "*=",  "/=",
      "%=", "&=", "|=", "^=", "<<=", ">>="};
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        kCompiledOutChecks.count(toks[i].text) == 0 ||
        !IsTok(toks[i + 1], TokKind::kPunct, "(")) {
      continue;
    }
    // Inside the macro's own #define in check.h the argument list is just
    // parameter names; scanning it is harmless (no mutators there).
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") {
        ++depth;
      } else if (t.text == ")") {
        if (--depth == 0) {
          i = j;
          break;
        }
      } else if (kMutators.count(t.text) != 0) {
        Emit(f, t.line, kRuleCheckSideEffects,
             "mutation ('" + t.text + "') inside " + toks[i].text +
                 ", which compiles out in release builds; hoist the side "
                 "effect out of the check",
             out);
      }
    }
  }
}

}  // namespace

FileInfo MakeFileInfo(std::string path, std::string source) {
  FileInfo f;
  f.path = std::move(path);
  f.lex = Lex(source);
  f.source = std::move(source);
  return f;
}

std::vector<Diagnostic> RunFileRules(const FileInfo& file,
                                     SuppressionUsage* usage) {
  std::vector<Diagnostic> raw;
  CheckBannedApi(file, &raw);
  CheckFloatEq(file, &raw);
  CheckGuardStyle(file, &raw);
  CheckCheckSideEffects(file, &raw);
  CheckConcurrency(file, &raw);
  CheckUnits(file, &raw);
  std::vector<Diagnostic> diags;
  for (Diagnostic& d : raw) {
    const std::string entry = MatchSuppression(file.lex, d.line, d.rule);
    if (entry.empty()) {
      diags.push_back(std::move(d));
    } else if (usage != nullptr) {
      usage->insert({d.line, entry});
    }
  }
  return diags;
}

std::vector<Diagnostic> CheckStaleSuppressions(const std::string& path,
                                               const LexedFile& lex,
                                               const SuppressionUsage& usage) {
  std::vector<Diagnostic> diags;
  for (const auto& [line, entries] : lex.suppressions) {
    for (const std::string& entry : entries) {
      if (usage.count({line, entry}) != 0) continue;
      const std::string shown = "NOLINT-ARIDE(" + entry + ")";
      diags.push_back(
          {path, line, kRuleStaleSuppression,
           shown + " matched no finding on this line; the suppressed "
                   "problem is gone (or the rule id is misspelled) — "
                   "delete the suppression"});
    }
  }
  return diags;
}

}  // namespace aride_lint
