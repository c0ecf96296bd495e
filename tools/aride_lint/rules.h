// Per-file rules for aride-lint. Each rule has a stable ID (used in
// diagnostics and NOLINT-ARIDE suppressions); the catalog with rationale
// and examples lives in docs/ANALYSIS.md.
//
//   banned-api           std::rand/srand, system_clock, assert()/<cassert>,
//                        bare printf / std::cout / std::cerr / getenv in
//                        src/
//   float-eq             raw ==/!= where an operand names a money quantity
//                        (bid/price/payment/utility/cost/...)
//   guard-style          include guards must be AUCTIONRIDE_<PATH>_H_
//   check-side-effects   mutating expressions inside compiled-out
//                        ARIDE_CHECK* / ARIDE_DCHECK macros
//   unordered-iteration  range-for / .begin() iteration over a variable
//                        declared std::unordered_map/set in src/
//   raw-lock             bare .lock()/.unlock() outside RAII in src/
//   naked-thread         std::thread/std::async/.detach() in src/ outside
//                        src/exec/ (parallelism goes through the pool)
//   nondet-source        pointer hashing/ordering in src/auction/ and
//                        src/planner/ (std::hash<T*>, &a < &b, uintptr_t)
//   raw-unit-double      double param/field named like a money/time/distance
//                        quantity in src/ (should be Money/Seconds/Meters)
//   unit-suffix          raw-double local initialized via .value() must name
//                        its unit (_s/_m/_km/_yuan/_mps)
//   unsafe-unit-cast     .value() escape in src/ outside the serialization
//                        whitelist without a NOLINT-ARIDE justification
//   stale-nolint         NOLINT-ARIDE entry that matched no finding
//
// The cross-file layer-dag rule lives in layering.h; the determinism rules
// (unordered-iteration .. nondet-source) are implemented in concurrency.cc;
// the dimensional rules (raw-unit-double .. unsafe-unit-cast) in units.cc.

#ifndef AUCTIONRIDE_TOOLS_ARIDE_LINT_RULES_H_
#define AUCTIONRIDE_TOOLS_ARIDE_LINT_RULES_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "aride_lint/lexer.h"

namespace aride_lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// Stable rule identifiers.
inline constexpr char kRuleBannedApi[] = "banned-api";
inline constexpr char kRuleFloatEq[] = "float-eq";
inline constexpr char kRuleGuardStyle[] = "guard-style";
inline constexpr char kRuleCheckSideEffects[] = "check-side-effects";
inline constexpr char kRuleLayerDag[] = "layer-dag";
inline constexpr char kRuleUnorderedIteration[] = "unordered-iteration";
inline constexpr char kRuleRawLock[] = "raw-lock";
inline constexpr char kRuleNakedThread[] = "naked-thread";
inline constexpr char kRuleNondetSource[] = "nondet-source";
inline constexpr char kRuleRawUnitDouble[] = "raw-unit-double";
inline constexpr char kRuleUnitSuffix[] = "unit-suffix";
inline constexpr char kRuleUnsafeUnitCast[] = "unsafe-unit-cast";
inline constexpr char kRuleStaleSuppression[] = "stale-nolint";

struct FileInfo {
  std::string path;    // repo-relative with '/' separators, e.g. "src/a/b.h"
  std::string source;  // full file contents
  LexedFile lex;       // Lex(source)
};

FileInfo MakeFileInfo(std::string path, std::string source);

// The suppression entries of one file that matched (consumed) a finding:
// (suppressed line, entry) pairs where entry is an exact rule id or the
// bare-marker sentinel "*". LexedFile::suppressions entries absent from
// this set after a full run are stale (see CheckStaleSuppressions).
using SuppressionUsage = std::set<std::pair<int, std::string>>;

// Runs every per-file rule; diagnostics on suppressed lines are dropped.
// When `usage` is non-null, the suppression entries that consumed a
// finding are recorded into it.
std::vector<Diagnostic> RunFileRules(const FileInfo& file,
                                     SuppressionUsage* usage = nullptr);

// The determinism rules (unordered-iteration, raw-lock, naked-thread,
// nondet-source), implemented in concurrency.cc. Called by RunFileRules;
// exposed for focused tests.
void CheckConcurrency(const FileInfo& file, std::vector<Diagnostic>* out);

// The dimensional-safety rules (raw-unit-double, unit-suffix,
// unsafe-unit-cast), implemented in units.cc. Called by RunFileRules;
// exposed for focused tests.
void CheckUnits(const FileInfo& file, std::vector<Diagnostic>* out);

// Reports every suppression entry in `lex` that no finding consumed
// (rule id: stale-nolint). `usage` is the union of what RunFileRules and
// LayerGraph::Check recorded for this file. stale-nolint findings are not
// themselves suppressible — a stale suppression is fixed by deleting it.
std::vector<Diagnostic> CheckStaleSuppressions(const std::string& path,
                                               const LexedFile& lex,
                                               const SuppressionUsage& usage);

// Expected include guard for a header path ("src/geo/point.h" ->
// "AUCTIONRIDE_GEO_POINT_H_"; non-src paths keep their first component).
std::string ExpectedGuard(const std::string& path);

// Rewrites a wrong-but-present include guard to the expected one. Returns
// true and stores the new content iff the file changed.
bool FixGuardStyle(const FileInfo& file, std::string* fixed_source);

// True if `identifier` names a money/score quantity (snake-case components
// matched against bid/price/pay/payment/utility/cost/fare/...). Exposed for
// tests.
bool IsMoneyIdentifier(const std::string& identifier);

}  // namespace aride_lint

#endif  // AUCTIONRIDE_TOOLS_ARIDE_LINT_RULES_H_
