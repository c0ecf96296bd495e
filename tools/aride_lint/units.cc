// Dimensional-safety rules (aride_lint v3). The strong types in
// src/common/units.h make cross-dimension arithmetic a compile error; these
// rules police the boundary where typed code meets raw doubles:
//
//   raw-unit-double   a `double` parameter or field whose name says it holds
//                     money / time / distance (`bid`, `now_s`, `detour_m`)
//                     in src/ — it should be Money / Seconds / Meters.
//                     Geometry kernels (src/roadnet/, src/spatial/) are raw
//                     by design and exempt; rates (`*_per_km`, `*_ratio`,
//                     `*_rate`, `*_mps`) are knobs, not quantities.
//   unit-suffix       a raw-double local initialized through the `.value()`
//                     escape hatch must carry its unit in the name
//                     (`_s` / `_m` / `_km` / `_yuan` / `_mps`), so the
//                     dimension stays readable after the type is gone.
//   unsafe-unit-cast  any `.value()` escape in src/ outside the whitelisted
//                     serialization / telemetry files needs a NOLINT-ARIDE
//                     justification: unwrapping is where unit bugs return.
//
// All three are src/-only: tests, benches and tools may speak raw doubles.

#include <array>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "aride_lint/rules.h"

namespace aride_lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool IsTok(const Token& t, TokKind kind, const char* text) {
  return t.kind == kind && t.text == text;
}

// Splits a snake/camel identifier into lowercase '_'-separated components
// with trailing digits stripped (bid0 -> bid).
std::vector<std::string> Components(const std::string& identifier) {
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
  for (std::string& comp : components) {
    while (!comp.empty() &&
           std::isdigit(static_cast<unsigned char>(comp.back()))) {
      comp.pop_back();
    }
  }
  return components;
}

// Ratios, rates, factors and dimensionless knobs: the declared policy keeps
// these raw (AuctionConfig::alpha_d_per_km, charge_ratio, FareModel's
// tariff parameters), so any identifier naming one is exempt.
bool IsRateIdentifier(const std::vector<std::string>& components) {
  static const std::set<std::string> kRateWords = {
      "per",   "ratio", "rate",  "ratios", "rates",  "factor", "factors",
      "scale", "mps",   "speed", "gamma",  "alpha",  "beta",   "share",
      "fraction", "penalty", "increment", "epsilon", "eps",
      "stddev", "noise", "jitter"};
  for (const std::string& comp : components) {
    if (kRateWords.count(comp) != 0) return true;
  }
  return false;
}

// The dimension an identifier claims, judged by its terminal component
// (`_s`, `_m`, `_km`) or by the money vocabulary anywhere in the name
// (matching the float-eq heuristic in rules.cc).
enum class Dimension { kNone, kMoney, kTime, kDistance };

Dimension IdentifierDimension(const std::string& identifier) {
  const std::vector<std::string> components = Components(identifier);
  if (IsRateIdentifier(components)) return Dimension::kNone;
  const std::string& last = components.back();
  // Single-letter tails count only as suffixes (now_s, trip_m): a bare
  // `double s` or `double m` is a scalar/sum accumulator, not a quantity.
  const bool suffixed = components.size() >= 2;
  if ((suffixed && last == "s") || last == "seconds" || last == "sec") {
    return Dimension::kTime;
  }
  if ((suffixed && last == "m") || last == "meters" || last == "km") {
    return Dimension::kDistance;
  }
  if (IsMoneyIdentifier(identifier)) return Dimension::kMoney;
  return Dimension::kNone;
}

const char* StrongTypeFor(Dimension d) {
  switch (d) {
    case Dimension::kMoney:
      return "Money";
    case Dimension::kTime:
      return "Seconds";
    case Dimension::kDistance:
      return "Meters";
    case Dimension::kNone:
      break;
  }
  return "";
}

// ---------------------------------------------------------------------------
// raw-unit-double

// True when the tokens from `begin` to the statement-ending ';' at depth
// zero contain a `.value()` escape-hatch call.
bool InitializerEscapes(const std::vector<Token>& toks, std::size_t begin) {
  int depth = 0;
  for (std::size_t j = begin; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    if (t.text == ";" && depth <= 0) break;
    if (t.text == "." && j + 2 < toks.size() &&
        IsTok(toks[j + 1], TokKind::kIdentifier, "value") &&
        IsTok(toks[j + 2], TokKind::kPunct, "(")) {
      return true;
    }
  }
  return false;
}

void CheckRawUnitDouble(const FileInfo& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsTok(toks[i], TokKind::kIdentifier, "double")) continue;
    // `double x` where the declarator ends the statement / parameter: the
    // next-next token closes a declaration rather than an expression.
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdentifier) continue;
    if (i + 2 < toks.size()) {
      const Token& after = toks[i + 2];
      const bool declaration_end =
          after.kind == TokKind::kPunct &&
          (after.text == ";" || after.text == "=" || after.text == "," ||
           after.text == ")" || after.text == "{");
      if (!declaration_end) continue;
      // `double trip_m = order.shortest_distance_m.value();` is the
      // blessed escape-hatch pattern: unit-suffix polices the name,
      // unsafe-unit-cast polices the cast — not a raw-unit-double.
      if (after.text == "=" && InitializerEscapes(toks, i + 3)) continue;
    }
    const Dimension dim = IdentifierDimension(name.text);
    if (dim == Dimension::kNone) continue;
    out->push_back(
        {f.path, name.line, kRuleRawUnitDouble,
         "raw double '" + name.text + "' names a " +
             (dim == Dimension::kMoney
                  ? "money"
                  : dim == Dimension::kTime ? "time" : "distance") +
             " quantity; declare it as " + StrongTypeFor(dim) +
             " (common/units.h) so the dimension is compiler-checked"});
  }
}

// ---------------------------------------------------------------------------
// unit-suffix

bool HasUnitSuffix(const std::string& identifier) {
  static const std::set<std::string> kUnitTails = {"s",  "sec", "seconds",
                                                   "m",  "km",  "meters",
                                                   "yuan", "mps"};
  return kUnitTails.count(Components(identifier).back()) != 0;
}

void CheckUnitSuffix(const FileInfo& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsTok(toks[i], TokKind::kIdentifier, "double")) continue;
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdentifier) continue;
    if (!IsTok(toks[i + 2], TokKind::kPunct, "=")) continue;
    if (!InitializerEscapes(toks, i + 3) || HasUnitSuffix(name.text)) {
      continue;
    }
    out->push_back(
        {f.path, name.line, kRuleUnitSuffix,
         "raw-double local '" + name.text +
             "' holds an escaped unit value but does not name its unit; "
             "suffix it with _s / _m / _km / _yuan / _mps so the dimension "
             "survives the .value() cast"});
  }
}

// ---------------------------------------------------------------------------
// unsafe-unit-cast

// Serialization / telemetry boundaries where quantities must become plain
// numbers for the wire. Everything else justifies its escape with a
// suppression comment naming unsafe-unit-cast (docs/ANALYSIS.md).
bool WhitelistedUnitCastFile(const std::string& path) {
  static const std::array<const char*, 6> kPrefixes = {
      "src/obs/",         "src/engine/stats_json", "src/sim/report.",
      "src/workload/io.", "src/common/csv.",       "src/workload/generator.cc"};
  for (const char* prefix : kPrefixes) {
    if (StartsWith(path, prefix)) return true;
  }
  // units.h defines value(); check.h's epsilon comparator unwraps via a
  // requires-gated branch that works for any quantity; the verifier
  // re-derives the economics in raw doubles on purpose (independent
  // recomputation, docs/ANALYSIS.md).
  return path == "src/common/units.h" || path == "src/common/check.h" ||
         path == "src/auction/verifier.cc";
}

void CheckUnsafeUnitCast(const FileInfo& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsTok(toks[i], TokKind::kPunct, ".") ||
        !IsTok(toks[i + 1], TokKind::kIdentifier, "value") ||
        !IsTok(toks[i + 2], TokKind::kPunct, "(") ||
        !IsTok(toks[i + 3], TokKind::kPunct, ")")) {
      continue;
    }
    // The marker is spelled via concatenation so this message never
    // registers as a suppression on its own source line.
    out->push_back(
        {f.path, toks[i + 1].line, kRuleUnsafeUnitCast,
         ".value() escapes the unit wall outside the serialization "
         "whitelist; keep quantities typed, or justify the cast with " +
             (std::string("NOLINT-ARIDE") + "(") + kRuleUnsafeUnitCast +
             ")"});
  }
}

// Geometry kernels (src/roadnet/, src/spatial/) are raw point math below
// the unit wall by declared policy; all three dimensional rules are
// src/-only, and the serialization whitelist is wholesale raw.
bool ExemptFromUnitRules(const std::string& path) {
  return !StartsWith(path, "src/") || StartsWith(path, "src/roadnet/") ||
         StartsWith(path, "src/spatial/");
}

}  // namespace

void CheckUnits(const FileInfo& file, std::vector<Diagnostic>* out) {
  if (ExemptFromUnitRules(file.path)) return;
  if (WhitelistedUnitCastFile(file.path)) return;
  CheckRawUnitDouble(file, out);
  CheckUnitSuffix(file, out);
  CheckUnsafeUnitCast(file, out);
}

}  // namespace aride_lint
