// srclint: static enforcement of MPA project invariants that the
// compiler (even clang's thread-safety analysis) cannot see
// (DESIGN.md §12). Line-oriented, dependency-free, and fast — it runs
// as a ctest entry over the live tree and as a blocking CI job.
//
// Rules (ids are stable; see --list-rules):
//   nondeterminism        src/ library code must not reach for
//                         ambient entropy or wall clocks: bans
//                         random_device, rand/srand, system_clock.
//                         Determinism is a product contract (replay
//                         byte-identity at any worker count).
//   unordered-iteration   iterating an unordered_map/unordered_set
//                         feeds hash-order into whatever consumes the
//                         loop — poison for serialized or
//                         deterministic output paths. src/ uses
//                         ordered containers; violations are flagged
//                         at the iteration site and at the member
//                         declaration that enables them.
//   layering              include DAG between src/ layers: util is the
//                         root (includes nothing above it), obs never
//                         includes engine/serve, stats/mpa never
//                         include serve, and every other edge must be
//                         one this tool's table already allows —
//                         adding a dependency edge is an explicit,
//                         reviewed decision.
//   raw-output            src/ libraries never write to stdout:
//                         no std::cout, printf, puts. Rendering
//                         returns strings; only tools/ and bench/
//                         own process output.
//   mutex-annotation      raw std::mutex / std::shared_mutex members
//                         are invisible to the thread-safety analysis
//                         — library code must use the annotated
//                         mpa::Mutex (util/sync.hpp), and every Mutex
//                         member in src/ must be referenced by at
//                         least one capability annotation
//                         (GUARDED_BY / REQUIRES / ACQUIRE / ...) in
//                         the same file.
//   number-parse          one module reads numbers from outside
//                         bytes: outside src/util/, code under src/,
//                         tools/ and bench/ never calls from_chars,
//                         the C strto*/ato* parsers or std::sto*;
//                         it goes through util/number.hpp (and
//                         util/json's accessors), which state the
//                         number rule once.
//   bad-pragma            a srclint-disable pragma that names no rule
//                         or gives no reason is itself a finding —
//                         suppressions are documented decisions.
//
// Suppression: `// srclint-disable(<rule>): <reason>` on the flagged
// line or the line above it; `// srclint-disable-file(<rule>): <reason>`
// anywhere in the file disables the rule for the whole file.
//
// Output: human-readable text (default) or machine-readable JSONL
// (--format json: one {"file","line","rule","message"} object per
// finding). Exit 0 = clean, 1 = findings, 2 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

// Banned tokens are spelled in concatenated fragments throughout this
// file so srclint never flags its own source when scanning tools/.
const std::string kStdMutex = std::string("std::") + "mutex";
const std::string kStdSharedMutex = std::string("std::") + "shared_mutex";
const std::string kStdRecursiveMutex = std::string("std::") + "recursive_mutex";

/// The layer include DAG for src/. A file in layer L may include its
/// own layer plus exactly these. Growing an edge here is a reviewed
/// architecture decision, not a side effect of an include.
const std::map<std::string, std::set<std::string>>& allowed_layer_deps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"util", {}},
      {"obs", {"util"}},
      {"model", {"util"}},
      {"telemetry", {"util"}},
      {"stats", {"util"}},
      {"config", {"model", "util"}},
      // io -> util includes util/json and util/hash: the mpac columnar
      // manifest is JSON (exact u64 fingerprints via JsonValue::as_u64)
      // and shard fingerprints use the shared FNV-1a (reviewed edge —
      // both live in the util layer, not a new DAG edge).
      {"io", {"model", "telemetry", "util"}},
      // metrics -> obs: inference adds its stanza-block counters when
      // obs is enabled (obs itself depends on util only).
      {"metrics", {"config", "model", "obs", "stats", "telemetry", "util"}},
      {"simulation", {"config", "metrics", "model", "telemetry", "util"}},
      {"learn", {"metrics", "stats", "util"}},
      {"mpa", {"learn", "metrics", "stats", "util"}},
      {"engine", {"config", "io", "metrics", "model", "mpa", "obs", "telemetry", "util"}},
      // serve -> io: the ingest request kind loads month-delta
      // directories (load_month_delta) on the serving path.
      {"serve", {"config", "engine", "io", "learn", "metrics", "mpa", "obs", "util"}},
  };
  return deps;
}

const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
  static const std::vector<std::pair<std::string, std::string>> rules = {
      {"nondeterminism", "no ambient entropy/wall clocks in src/ library code"},
      {"unordered-iteration", "no unordered container iteration in src/ (hash order leaks)"},
      {"layering", "src/ layer includes must follow the allowed DAG"},
      {"raw-output", "no std::cout/printf/puts in src/ libraries"},
      {"mutex-annotation", "mutexes are annotated mpa::Mutex capabilities, never raw"},
      {"number-parse", "numbers from outside bytes are read only through src/util/"},
      {"bad-pragma", "srclint-disable pragmas must name a rule and a reason"},
  };
  return rules;
}

bool is_known_rule(const std::string& id) {
  for (const auto& [rule, desc] : rule_catalog())
    if (rule == id) return true;
  return false;
}

/// True when `path` (generic form) has a component equal to `dir`.
bool under_dir(const fs::path& path, const std::string& dir) {
  for (const auto& part : path)
    if (part == dir) return true;
  return false;
}

/// The src/ layer of a path ("util" for src/util/sync.hpp), or "".
std::string layer_of(const fs::path& path) {
  bool next = false;
  for (const auto& part : path) {
    if (next) return part.string();
    if (part == "src") next = true;
  }
  return "";
}

/// Strip string literals and comment text so banned tokens inside
/// quotes or prose never count, but KEEP comment markers: pragma
/// parsing runs on the raw line, and token scans run on this cleaned
/// form with everything after // removed.
std::string strip_noise(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool in_str = false;
  char quote = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == quote) {
        in_str = false;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      in_str = true;
      quote = c;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;  // line comment
    out += c;
  }
  return out;
}

/// The text after the first `//` that is not inside a string literal
/// ("" when the line has no comment). Pragmas live only in comments,
/// and only at the start of one — mentions in prose or string
/// literals are not pragmas.
std::string comment_text(const std::string& line) {
  bool in_str = false;
  char quote = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == quote) {
        in_str = false;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      in_str = true;
      quote = c;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') return line.substr(i + 2);
  }
  return "";
}

struct Pragmas {
  /// rule -> lines (1-based) with a line-scoped disable (covers that
  /// line and the next).
  std::map<std::string, std::set<std::size_t>> line_disables;
  std::set<std::string> file_disables;
};

class FileScan {
 public:
  FileScan(fs::path path, std::vector<std::string> lines)
      : path_(std::move(path)), lines_(std::move(lines)) {
    collect_pragmas();
  }

  std::vector<Finding> run() {
    const std::string layer = layer_of(path_);
    const bool in_src = under_dir(path_, "src");
    scan_nondeterminism(in_src);
    scan_unordered(in_src);
    scan_layering(layer);
    scan_raw_output(in_src);
    scan_mutex_annotation(in_src);
    scan_number_parse(layer);
    return std::move(findings_);
  }

 private:
  void collect_pragmas() {
    // Well-formed, anchored at the start of the comment; the shape is
    // the disable token, "(rule)", a colon, and a non-empty reason.
    static const std::regex good(R"(^\s*srclint-disable(-file)?\(([a-z-]+)\)\s*:\s*\S)");
    static const std::regex any(R"(^\s*srclint-disable)");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string line = comment_text(lines_[i]);
      if (line.empty()) continue;
      std::smatch m;
      if (std::regex_search(line, m, good)) {
        const std::string rule = m[2].str();
        if (!is_known_rule(rule)) {
          report(i + 1, "bad-pragma", "unknown rule '" + rule + "' in srclint-disable");
        } else if (m[1].matched) {
          pragmas_.file_disables.insert(rule);
        } else {
          pragmas_.line_disables[rule].insert(i + 1);
        }
      } else if (std::regex_search(line, any)) {
        report(i + 1, "bad-pragma",
               "malformed pragma; use // srclint-disable(<rule>): <reason>");
      }
    }
  }

  bool suppressed(const std::string& rule, std::size_t line_no) const {
    if (pragmas_.file_disables.count(rule) != 0) return true;
    const auto it = pragmas_.line_disables.find(rule);
    if (it == pragmas_.line_disables.end()) return false;
    return it->second.count(line_no) != 0 || it->second.count(line_no - 1) != 0;
  }

  void report(std::size_t line_no, const std::string& rule, const std::string& message) {
    if (rule != "bad-pragma" && suppressed(rule, line_no)) return;
    findings_.push_back(Finding{path_.generic_string(), line_no, rule, message});
  }

  void scan_nondeterminism(bool in_src) {
    if (!in_src) return;  // tools/ and bench/ own their process environment
    static const std::regex entropy(R"(\brandom_device\b)");
    static const std::regex crand(R"(\bs?rand\s*\()");
    static const std::regex wallclock(R"(\bsystem_clock\b)");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string code = strip_noise(lines_[i]);
      if (std::regex_search(code, entropy))
        report(i + 1, "nondeterminism",
               "random_device is ambient entropy; derive streams from the session seed "
               "(util/rng.hpp)");
      if (std::regex_search(code, crand))
        report(i + 1, "nondeterminism", "rand()/srand() share hidden global state; use util/rng.hpp");
      if (std::regex_search(code, wallclock))
        report(i + 1, "nondeterminism",
               "system_clock is wall time; use steady_clock via obs::now_ns(), and keep "
               "timestamps out of deterministic content");
    }
  }

  void scan_unordered(bool in_src) {
    if (!in_src) return;
    // Declarations introduce hash-ordered state; iteration leaks it.
    static const std::regex decl(R"(\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+))");
    static const std::regex any_unordered(R"(\bunordered_(?:map|set|multimap|multiset)\b)");
    std::set<std::string> names;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string code = strip_noise(lines_[i]);
      std::smatch m;
      if (std::regex_search(code, m, decl)) {
        names.insert(m[1].str());
        report(i + 1, "unordered-iteration",
               "unordered container '" + m[1].str() +
                   "' in library code: iteration order is hash order; use std::map/std::set "
                   "(or justify with a pragma)");
      } else if (std::regex_search(code, any_unordered)) {
        report(i + 1, "unordered-iteration",
               "unordered container in library code feeds hash order into consumers; use "
               "ordered containers");
      }
    }
    // Iteration sites over previously declared names (belt & braces
    // for declarations the decl regex missed, e.g. split lines).
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string code = strip_noise(lines_[i]);
      for (const std::string& name : names) {
        const std::regex range_for(R"(for\s*\([^)]*:\s*)" + name + R"(\b)");
        const std::regex begin_call("\\b" + name + R"(\s*\.\s*(?:begin|cbegin)\s*\()");
        if (std::regex_search(code, range_for) || std::regex_search(code, begin_call))
          report(i + 1, "unordered-iteration",
                 "iterating unordered container '" + name + "' (hash order)");
      }
    }
  }

  void scan_layering(const std::string& layer) {
    if (layer.empty()) return;  // layering governs src/ only
    const auto deps_it = allowed_layer_deps().find(layer);
    static const std::regex include(R"_(#\s*include\s+"([a-z_]+)/)_");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(lines_[i], m, include)) continue;
      const std::string target = m[1].str();
      if (target == layer) continue;
      if (allowed_layer_deps().count(target) == 0) continue;  // not a src/ layer
      const bool allowed =
          deps_it != allowed_layer_deps().end() && deps_it->second.count(target) != 0;
      if (!allowed)
        report(i + 1, "layering",
               "layer '" + layer + "' must not include '" + target +
                   "' (allowed DAG in tools/srclint.cpp; new edges are a reviewed decision)");
    }
  }

  void scan_raw_output(bool in_src) {
    if (!in_src) return;
    static const std::regex cout(R"(\bstd\s*::\s*cout\b)");
    static const std::regex print(R"((?:\bstd\s*::\s*|[^\w.:>])(?:printf|puts|putchar)\s*\()");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string code = strip_noise(lines_[i]);
      if (std::regex_search(code, cout))
        report(i + 1, "raw-output",
               "library code writes to stdout; return strings and let tools/ own the stream");
      if (std::regex_search(code, print))
        report(i + 1, "raw-output",
               "printf-family output in library code; format with snprintf/ostringstream and "
               "return the string");
    }
  }

  void scan_mutex_annotation(bool in_src) {
    // (a) raw standard mutex types anywhere we scan, except the one
    //     annotated wrapper that owns them.
    const bool is_wrapper = path_.filename() == "sync.hpp" && under_dir(path_, "util");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string code = strip_noise(lines_[i]);
      const bool has_raw = code.find(kStdMutex) != std::string::npos ||
                           code.find(kStdSharedMutex) != std::string::npos ||
                           code.find(kStdRecursiveMutex) != std::string::npos;
      if (has_raw && !is_wrapper)
        report(i + 1, "mutex-annotation",
               "raw standard mutex is invisible to the thread-safety analysis; use "
               "mpa::Mutex / MutexLock / CondVar (util/sync.hpp)");
    }
    if (!in_src || is_wrapper) return;
    // (b) every annotated-Mutex member in src/ must back at least one
    //     capability annotation in the same file.
    static const std::regex decl(R"(^\s*(?:mutable\s+)?(?:mpa\s*::\s*)?Mutex\s+(\w+)\s*;)");
    const std::string all = [this] {
      std::string joined;
      for (const auto& l : lines_) {
        joined += l;
        joined += '\n';
      }
      return joined;
    }();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      std::smatch m;
      const std::string code = strip_noise(lines_[i]);
      if (!std::regex_match(code, m, decl)) continue;
      const std::string name = m[1].str();
      const std::regex annotated(
          R"((GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY)\s*\(([^)]*[\s(,!])?)" +
          name + R"(\b)");
      if (!std::regex_search(all, annotated))
        report(i + 1, "mutex-annotation",
               "Mutex '" + name +
                   "' backs no capability annotation in this file; add GUARDED_BY/REQUIRES/"
                   "EXCLUDES (or a pragma explaining why none applies)");
    }
  }

  void scan_number_parse(const std::string& layer) {
    const bool scoped =
        under_dir(path_, "src") || under_dir(path_, "tools") || under_dir(path_, "bench");
    if (!scoped || layer == "util") return;
    static const std::regex call(
        R"(\b(?:std\s*::\s*)?(?:from_chars|strto(?:l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f)|)"
        R"(sto(?:i|l|ll|ul|ull|f|d|ld))\s*\()");
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (std::regex_search(strip_noise(lines_[i]), call))
        report(i + 1, "number-parse",
               "numbers from outside bytes are read through util/number.hpp (parse_whole, "
               "scaled, env_count) or util/json (as_integer, JsonFields), which state the "
               "number rule once");
    }
  }

  fs::path path_;
  std::vector<std::string> lines_;
  Pragmas pragmas_;
  std::vector<Finding> findings_;
};

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--format text|json] [--list-rules] <path>...\n"
            << "  scans .cpp/.hpp files under each path; exit 0 clean, 1 findings, 2 error\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format") {
      if (i + 1 >= argc) return usage(argv[0]);
      format = argv[++i];
      if (format != "text" && format != "json") return usage(argv[0]);
    } else if (arg == "--list-rules") {
      for (const auto& [rule, desc] : rule_catalog()) std::cout << rule << "  " << desc << "\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      if (scannable(root)) files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      std::cerr << "srclint: no such file or directory: " << root.string() << "\n";
      return 2;
    }
    for (auto it = fs::recursive_directory_iterator(root, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && scannable(it->path())) files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "srclint: cannot read " << file.string() << "\n";
      return 2;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
    auto file_findings = FileScan(file, std::move(lines)).run();
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });

  if (format == "json") {
    for (const auto& f : findings) {
      std::string msg;
      for (char c : f.message) {
        if (c == '"' || c == '\\') msg += '\\';
        msg += c;
      }
      std::cout << "{\"file\":\"" << f.file << "\",\"line\":" << f.line << ",\"rule\":\""
                << f.rule << "\",\"message\":\"" << msg << "\"}\n";
    }
  } else {
    for (const auto& f : findings)
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    std::cout << "srclint: " << files.size() << " files, " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return findings.empty() ? 0 : 1;
}
