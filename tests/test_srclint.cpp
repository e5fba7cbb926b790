// Fixture tests for tools/srclint: every rule gets a violating
// fixture and a clean twin, plus exit-code and output-format pins.
// Fixtures are written under a temp tree with a `src/` (or `tools/`)
// component, because srclint scopes rules by path. This test file
// itself lives in tests/, which srclint does not scan — banned tokens
// below are fixture content, not violations.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

struct LintResult {
  int exit_code = -1;
  std::string out;
};

LintResult run_srclint(const std::string& args) {
  const std::string cmd = std::string(SRCLINT_PATH) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  LintResult res;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) res.out.append(buf, n);
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

/// A fresh fixture tree per test; `put` creates parent dirs as needed.
class Fixture {
 public:
  explicit Fixture(const std::string& name) : root_(fs::path(testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~Fixture() { fs::remove_all(root_); }

  std::string put(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
    return p.string();
  }
  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

int count_rule(const std::string& out, const std::string& rule) {
  int n = 0;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line))
    if (line.find("[" + rule + "]") != std::string::npos) ++n;
  return n;
}

TEST(Srclint, NondeterminismBannedInSrcOnly) {
  Fixture fx("srclint_nondet");
  fx.put("src/stats/bad.cpp",
         "#include <random>\n"
         "int f() {\n"
         "  std::random_device rd;\n"
         "  srand(42);\n"
         "  auto t = std::chrono::system_clock::now();\n"
         "  (void)t;\n"
         "  return rd() + rand();\n"
         "}\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  // random_device once, rand twice (srand + rand), clock once.
  EXPECT_EQ(count_rule(res.out, "nondeterminism"), 4) << res.out;

  // The same tokens in tools/ are fine: process-edge code owns its
  // environment. And tokens inside comments or strings never count.
  Fixture clean("srclint_nondet_clean");
  clean.put("tools/bench_main.cpp", "int f() { return rand(); }\n");
  clean.put("src/stats/ok.cpp",
            "// random_device is banned here\n"
            "const char* s() { return \"std::system_clock\"; }\n");
  const LintResult ok = run_srclint(clean.root());
  EXPECT_EQ(ok.exit_code, 0) << ok.out;
}

TEST(Srclint, UnorderedContainersFlaggedAtDeclAndIteration) {
  Fixture fx("srclint_unordered");
  fx.put("src/metrics/bad.hpp",
         "#include <unordered_map>\n"
         "struct S {\n"
         "  std::unordered_map<int, int> index;\n"
         "  int sum() const {\n"
         "    int t = 0;\n"
         "    for (const auto& kv : index) t += kv.second;\n"
         "    return t;\n"
         "  }\n"
         "};\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_GE(count_rule(res.out, "unordered-iteration"), 2) << res.out;

  Fixture clean("srclint_unordered_clean");
  clean.put("src/metrics/ok.hpp",
            "#include <map>\n"
            "struct S { std::map<int, int> index; };\n");
  EXPECT_EQ(run_srclint(clean.root()).exit_code, 0);
}

TEST(Srclint, LayeringForbidsUpwardIncludes) {
  Fixture fx("srclint_layering");
  // util is the root of the DAG: including obs from it is an upward edge.
  fx.put("src/util/bad.hpp", "#include \"obs/log.hpp\"\n");
  // obs must never see engine or serve.
  fx.put("src/obs/bad.cpp", "#include \"engine/session.hpp\"\n#include \"serve/server.hpp\"\n");
  // stats and mpa must never see serve.
  fx.put("src/stats/bad.cpp", "#include \"serve/scheduler.hpp\"\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "layering"), 4) << res.out;

  Fixture clean("srclint_layering_clean");
  // Allowed edges, own-layer includes, and non-layer includes pass.
  clean.put("src/engine/ok.cpp",
            "#include \"engine/session.hpp\"\n"
            "#include \"util/sync.hpp\"\n"
            "#include \"mpa/pipeline.hpp\"\n"
            "#include <vector>\n");
  clean.put("src/serve/ok.cpp", "#include \"engine/session.hpp\"\n");
  EXPECT_EQ(run_srclint(clean.root()).exit_code, 0);
}

TEST(Srclint, RawOutputBannedInLibraries) {
  Fixture fx("srclint_output");
  fx.put("src/io/bad.cpp",
         "#include <cstdio>\n"
         "#include <iostream>\n"
         "void f() {\n"
         "  std::cout << \"hi\";\n"
         "  printf(\"hi\");\n"
         "  puts(\"hi\");\n"
         "}\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "raw-output"), 3) << res.out;

  Fixture clean("srclint_output_clean");
  // snprintf formats into a buffer — that is the library idiom. And
  // tools/ own their streams.
  clean.put("src/io/ok.cpp",
            "#include <cstdio>\n"
            "int f(char* b) { return snprintf(b, 8, \"x\"); }\n");
  clean.put("tools/cli.cpp", "#include <cstdio>\n int main() { printf(\"ok\"); }\n");
  EXPECT_EQ(run_srclint(clean.root()).exit_code, 0);
}

TEST(Srclint, RawStdMutexBannedOutsideWrapper) {
  Fixture fx("srclint_rawmutex");
  fx.put("src/engine/bad.hpp",
         "#include <mutex>\n"
         "struct S { std::mutex mu; std::shared_mutex rw; };\n");
  fx.put("tools/bad_tool.cpp", "#include <mutex>\nstd::mutex g;\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "mutex-annotation"), 2) << res.out;

  // src/util/sync.hpp is the one place allowed to own the raw mutex.
  Fixture wrapper("srclint_rawmutex_wrapper");
  wrapper.put("src/util/sync.hpp", "#include <mutex>\nstruct M { std::mutex mu_; };\n");
  EXPECT_EQ(run_srclint(wrapper.root()).exit_code, 0);
}

TEST(Srclint, MutexMembersMustBackAnnotations) {
  Fixture fx("srclint_annot");
  fx.put("src/serve/bad.hpp",
         "struct S {\n"
         "  Mutex mu_;\n"
         "  int x = 0;\n"
         "};\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "mutex-annotation"), 1) << res.out;

  Fixture clean("srclint_annot_clean");
  clean.put("src/serve/ok.hpp",
            "struct S {\n"
            "  mutable Mutex mu_;\n"
            "  int x GUARDED_BY(mu_) = 0;\n"
            "};\n");
  // EXCLUDES also counts as backing the capability.
  clean.put("src/serve/ok2.hpp",
            "struct T {\n"
            "  void f() EXCLUDES(mu_);\n"
            "  Mutex mu_;\n"
            "};\n");
  EXPECT_EQ(run_srclint(clean.root()).exit_code, 0);
}

TEST(Srclint, NumberParsingLivesInUtilOnly) {
  Fixture fx("srclint_numbers");
  const std::string calls =
      "#include <charconv>\n"
      "#include <cstdlib>\n"
      "#include <string>\n"
      "int f(const std::string& s) {\n"
      "  int v = 0;\n"
      "  std::from_chars(s.data(), s.data() + s.size(), v);\n"
      "  v += atoi(s.c_str()) + std::stoi(s);\n"
      "  v += static_cast<int>(std::strtoull(s.c_str(), nullptr, 10));\n"
      "  return v + static_cast<int>(strtod(s.c_str(), nullptr) + std::stod(s));\n"
      "}\n";
  fx.put("src/io/bad.cpp", calls);
  fx.put("tools/bad_tool.cpp", calls);
  fx.put("bench/bad_bench.cpp", calls);
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "number-parse"), 12) << res.out;  // 4 lines x 3 files

  // src/util/ owns the rule; mentions in comments and strings, and
  // names that merely contain a banned one, are not calls.
  Fixture clean("srclint_numbers_clean");
  clean.put("src/util/number.hpp", calls);
  clean.put("src/io/ok.cpp",
            "// from_chars is not called here; neither is atoi(x).\n"
            "const char* kWhy = \"strtod(x)\";\n"
            "int parse_whole_atoi(int x) { return x; }\n"
            "int g() { return parse_whole_atoi(1); }\n");
  EXPECT_EQ(run_srclint(clean.root()).exit_code, 0);
  EXPECT_NE(run_srclint("--list-rules").out.find("number-parse"), std::string::npos);
}

TEST(Srclint, PragmasSuppressSameOrPrecedingLineAndWholeFile) {
  Fixture fx("srclint_pragma");
  fx.put("src/stats/ok.cpp",
         "int f() { return rand(); }  // srclint-disable(nondeterminism): fixture reason\n"
         "// srclint-disable(nondeterminism): covers the next line\n"
         "int g() { return rand(); }\n");
  fx.put("src/stats/ok_file.cpp",
         "// srclint-disable-file(nondeterminism): whole-file fixture reason\n"
         "int f() { return rand(); }\n"
         "int g() { return rand(); }\n");
  EXPECT_EQ(run_srclint(fx.root()).exit_code, 0);

  // A pragma only reaches one line past itself.
  Fixture far("srclint_pragma_far");
  far.put("src/stats/bad.cpp",
          "// srclint-disable(nondeterminism): too far away\n"
          "int unrelated = 0;\n"
          "int f() { return rand(); }\n");
  EXPECT_EQ(run_srclint(far.root()).exit_code, 1);
}

TEST(Srclint, MalformedPragmasAreFindings) {
  Fixture fx("srclint_badpragma");
  fx.put("src/stats/bad.cpp",
         "int a = 0;  // srclint-disable\n"
         "int b = 0;  // srclint-disable(nondeterminism)\n"
         "int c = 0;  // srclint-disable(not-a-rule): reason\n");
  const LintResult res = run_srclint(fx.root());
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(count_rule(res.out, "bad-pragma"), 3) << res.out;
  EXPECT_NE(res.out.find("unknown rule 'not-a-rule'"), std::string::npos) << res.out;
}

TEST(Srclint, JsonFormatEmitsOneObjectPerFinding) {
  Fixture fx("srclint_json");
  fx.put("src/io/bad.cpp", "#include <iostream>\nvoid f() { std::cout << 1; }\n");
  const LintResult res = run_srclint("--format json " + fx.root());
  EXPECT_EQ(res.exit_code, 1);
  std::istringstream in(res.out);
  std::string line;
  int objects = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue doc = parse_json(line);
    EXPECT_FALSE(doc.at("file").as_string().empty());
    EXPECT_GT(doc.at("line").as_u64(), 0u);
    EXPECT_EQ(doc.at("rule").as_string(), "raw-output");
    EXPECT_FALSE(doc.at("message").as_string().empty());
    ++objects;
  }
  EXPECT_EQ(objects, 1) << res.out;
}

TEST(Srclint, ExitCodesAndUsage) {
  Fixture fx("srclint_exit");
  fx.put("src/io/ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(run_srclint(fx.root()).exit_code, 0);
  EXPECT_EQ(run_srclint("").exit_code, 2);                        // no paths
  EXPECT_EQ(run_srclint("--format yaml x").exit_code, 2);         // bad format
  EXPECT_EQ(run_srclint(fx.root() + "/does_not_exist").exit_code, 2);
  EXPECT_EQ(run_srclint("--list-rules").exit_code, 0);
  const LintResult rules = run_srclint("--list-rules");
  EXPECT_NE(rules.out.find("nondeterminism"), std::string::npos);
  EXPECT_NE(rules.out.find("mutex-annotation"), std::string::npos);
}

TEST(Srclint, RepoTreeIsClean) {
  // The acceptance pin: the live tree lints clean. Mirrors the
  // srclint_repo ctest entry and the CI job.
  const std::string roots = std::string(SRCLINT_SOURCE_DIR) + "/src " +
                            SRCLINT_SOURCE_DIR + "/tools " + SRCLINT_SOURCE_DIR + "/bench";
  const LintResult res = run_srclint(roots);
  EXPECT_EQ(res.exit_code, 0) << res.out;
}

}  // namespace
}  // namespace mpa
