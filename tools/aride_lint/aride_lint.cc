// aride-lint: domain-aware static analysis for this repository.
//
//   aride_lint [--root DIR] [--fix] [--list-rules] [--stats]
//              [--sarif FILE] [paths...]
//
// With no paths, walks src/, bench/, tests/, tools/ and examples/ under
// the root (default: the current directory, walking up to the enclosing
// repo root when a ROADMAP.md marker is found). Prints one diagnostic per
// line as "path:line: [rule-id] message" and exits non-zero when any rule
// fires — that exit code is the CI lint gate.
//
// --stats appends a per-rule finding count summary; --sarif FILE
// additionally writes the diagnostics as a SARIF 2.1.0 log (one run, one
// result per finding) for code-scanning UIs. Neither changes the exit
// code.
//
// Suppressions: append "// NOLINT-ARIDE(rule-id)" to the offending line,
// or put "// NOLINTNEXTLINE-ARIDE(rule-id)" on the line above. The rule
// catalog lives in docs/ANALYSIS.md.
//
// --fix rewrites what is mechanically safe (currently: include-guard
// renames) and then reports whatever remains.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aride_lint/layering.h"
#include "aride_lint/rules.h"

namespace fs = std::filesystem;

namespace aride_lint {
namespace {

const char* const kScanDirs[] = {"src", "bench", "tests", "tools",
                                 "examples"};

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// testdata/ holds lint-rule fixtures with deliberate violations; build
// trees hold generated and vendored sources. Neither is ours to lint.
bool IsExcludedDir(const std::string& name) {
  return name == "testdata" || name.rfind("build", 0) == 0 ||
         name.rfind(".", 0) == 0;
}

void CollectFiles(const fs::path& dir, std::vector<fs::path>* out) {
  if (!fs::exists(dir)) return;
  for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
    if (it->is_directory()) {
      if (IsExcludedDir(it->path().filename().string())) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file() && HasLintableExtension(it->path())) {
      out->push_back(it->path());
    }
  }
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string RelPath(const fs::path& p, const fs::path& root) {
  std::string rel = fs::relative(p, root).generic_string();
  return rel;
}

fs::path FindRoot(fs::path start) {
  for (fs::path dir = fs::absolute(std::move(start));;
       dir = dir.parent_path()) {
    if (fs::exists(dir / "ROADMAP.md") || fs::exists(dir / ".git")) {
      return dir;
    }
    if (dir == dir.root_path()) break;
  }
  return fs::current_path();
}

// Minimal JSON string escaping for the SARIF writer (paths and messages
// hold no exotic characters, but quotes/backslashes must survive).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Writes the findings as a SARIF 2.1.0 log: one run, the fired rules in
// the tool's rule table, one result per diagnostic. stale-nolint is
// "warning"; everything else gates CI and is "error".
bool WriteSarif(const fs::path& out_path,
                const std::vector<Diagnostic>& diags) {
  std::set<std::string> rule_ids;
  for (const Diagnostic& d : diags) rule_ids.insert(d.rule);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << "{\n"
         "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"aride_lint\",\n"
         "          \"informationUri\": \"docs/ANALYSIS.md\",\n"
         "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : rule_ids) {
    out << (first ? "" : ",") << "\n            {\"id\": \""
        << JsonEscape(rule) << "\"}";
    first = false;
  }
  out << "\n          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [";
  first = true;
  for (const Diagnostic& d : diags) {
    const char* level =
        d.rule == kRuleStaleSuppression ? "warning" : "error";
    out << (first ? "" : ",")
        << "\n        {\n"
           "          \"ruleId\": \"" << JsonEscape(d.rule) << "\",\n"
           "          \"level\": \"" << level << "\",\n"
           "          \"message\": {\"text\": \"" << JsonEscape(d.message)
        << "\"},\n"
           "          \"locations\": [\n"
           "            {\n"
           "              \"physicalLocation\": {\n"
           "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(d.file) << "\"},\n"
           "                \"region\": {\"startLine\": " << d.line << "}\n"
           "              }\n"
           "            }\n"
           "          ]\n"
           "        }";
    first = false;
  }
  out << "\n      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return out.good();
}

void PrintRules() {
  std::printf(
      "banned-api           std::rand/srand, system_clock, assert() or\n"
      "                     <cassert>, bare printf/std::cout/std::cerr/getenv "
      "in src/\n"
      "float-eq             raw ==/!= touching bid/price/payment/utility/"
      "cost\n"
      "guard-style          include guards must be AUCTIONRIDE_<PATH>_H_\n"
      "check-side-effects   mutations inside compiled-out ARIDE_CHECK*/"
      "ARIDE_DCHECK\n"
      "layer-dag            src/ include edges must respect the layer "
      "order\n"
      "unordered-iteration  loops over std::unordered_map/set in src/ "
      "(order\n"
      "                     is platform-dependent; use a sorted drain)\n"
      "raw-lock             bare .lock()/.unlock() outside RAII in src/\n"
      "naked-thread         std::thread/std::async/.detach() in src/ "
      "outside\n"
      "                     src/exec/ (use the ar_exec pool)\n"
      "nondet-source        pointer hashing/ordering in src/auction/ and\n"
      "                     src/planner/ (addresses are not stable ids)\n"
      "raw-unit-double      double param/field named like a money/time/\n"
      "                     distance quantity in src/; use Money/Seconds/\n"
      "                     Meters (common/units.h)\n"
      "unit-suffix          raw-double local initialized via .value() must\n"
      "                     name its unit (_s/_m/_km/_yuan/_mps)\n"
      "unsafe-unit-cast     .value() in src/ outside the serialization\n"
      "                     whitelist needs a NOLINT-ARIDE justification\n"
      "stale-nolint         NOLINT-ARIDE entry that matched no finding\n"
      "\nSuppress with // NOLINT-ARIDE(rule-id); catalog: "
      "docs/ANALYSIS.md\n");
}

int Run(int argc, char** argv) {
  fs::path root;
  bool fix = false;
  bool stats = false;
  fs::path sarif_path;
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      PrintRules();
      return 0;
    }
    if (arg == "--fix") {
      fix = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aride_lint: --sarif needs an output file\n");
        return 2;
      }
      sarif_path = argv[++i];
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aride_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: aride_lint [--root DIR] [--fix] [--list-rules] "
          "[--stats] [--sarif FILE] [paths...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "aride_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }
  if (root.empty()) root = FindRoot(fs::current_path());
  root = fs::absolute(root);

  std::vector<fs::path> files;
  if (explicit_paths.empty()) {
    for (const char* dir : kScanDirs) CollectFiles(root / dir, &files);
  } else {
    for (const std::string& p : explicit_paths) {
      fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
      if (fs::is_directory(abs)) {
        CollectFiles(abs, &files);
      } else if (fs::exists(abs)) {
        files.push_back(abs);
      } else {
        std::fprintf(stderr, "aride_lint: no such path: %s\n", p.c_str());
        return 2;
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> diags;
  LayerGraph layers;
  // Suppression bookkeeping for the stale-nolint pass: which NOLINT-ARIDE
  // entries exist per file, and which of them consumed a finding. Only
  // files that carry suppressions are retained.
  std::map<std::string, std::map<int, std::set<std::string>>> suppressions;
  std::map<std::string, SuppressionUsage> usage;
  int fixed_files = 0;
  for (const fs::path& path : files) {
    const std::string rel = RelPath(path, root);
    FileInfo info = MakeFileInfo(rel, ReadFile(path));
    if (fix) {
      std::string fixed;
      if (FixGuardStyle(info, &fixed)) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << fixed;
        ++fixed_files;
        info = MakeFileInfo(rel, std::move(fixed));
      }
    }
    std::vector<Diagnostic> file_diags = RunFileRules(info, &usage[rel]);
    diags.insert(diags.end(), file_diags.begin(), file_diags.end());
    layers.AddFile(info);
    if (!info.lex.suppressions.empty()) {
      suppressions[rel] = info.lex.suppressions;
    }
  }
  std::vector<Diagnostic> layer_diags = layers.Check(&usage);
  diags.insert(diags.end(), layer_diags.begin(), layer_diags.end());
  for (const auto& [rel, sups] : suppressions) {
    LexedFile lex;
    lex.suppressions = sups;
    std::vector<Diagnostic> stale =
        CheckStaleSuppressions(rel, lex, usage[rel]);
    diags.insert(diags.end(), stale.begin(), stale.end());
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Diagnostic& d : diags) {
    std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  if (fixed_files > 0) {
    std::printf("aride_lint: rewrote %d file(s) with --fix\n", fixed_files);
  }
  if (!sarif_path.empty() && !WriteSarif(sarif_path, diags)) {
    std::fprintf(stderr, "aride_lint: cannot write SARIF log %s\n",
                 sarif_path.string().c_str());
    return 2;
  }
  if (stats) {
    std::map<std::string, int> per_rule;
    for (const Diagnostic& d : diags) ++per_rule[d.rule];
    std::printf("aride_lint: per-rule findings:\n");
    if (per_rule.empty()) std::printf("  (none)\n");
    for (const auto& [rule, count] : per_rule) {
      std::printf("  %-20s %d\n", rule.c_str(), count);
    }
  }
  if (diags.empty()) {
    std::printf("aride_lint: %zu files clean\n", files.size());
    return 0;
  }
  std::printf("aride_lint: %zu diagnostic(s) in %zu files\n", diags.size(),
              files.size());
  return 1;
}

}  // namespace
}  // namespace aride_lint

int main(int argc, char** argv) { return aride_lint::Run(argc, argv); }
