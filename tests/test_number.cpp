// The number rule (util/number.hpp, DESIGN.md §14): unit tests of the
// one reader, and one table of hostile tokens run against every entry
// point that reads a number from outside bytes, which must all give
// the same verdict for the same token.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "config/addr.hpp"
#include "engine/lint_report.hpp"
#include "engine/run_manifest.hpp"
#include "io/dataset_io.hpp"
#include "metrics/case_table.hpp"
#include "obs/chrome_trace.hpp"
#include "serve/request.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

TEST(NumberRule, TextTokensParseWholeOrNotAtAll) {
  EXPECT_EQ(parse_whole<int>("-42"), -42);
  EXPECT_EQ(parse_whole<std::uint64_t>("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_EQ(parse_whole<double>("2.5e3"), 2500.0);
  EXPECT_EQ(parse_whole<std::uint8_t>("255"), 255);

  // Refused, and whether only for bytes after a valid number.
  const auto refused = [](auto type, std::string_view token) {
    bool trailing = false;
    EXPECT_FALSE(parse_whole<decltype(type)>(token, &trailing).has_value()) << token;
    return trailing ? "trailing" : "refused";
  };
  EXPECT_STREQ(refused(int{}, "12x"), "trailing");
  EXPECT_STREQ(refused(int{}, "1e3"), "trailing");
  EXPECT_STREQ(refused(int{}, "abc"), "refused");
  EXPECT_STREQ(refused(int{}, "+3"), "refused");
  EXPECT_STREQ(refused(int{}, "2147483648"), "refused");
  EXPECT_STREQ(refused(std::uint32_t{}, "-1"), "refused");
  EXPECT_STREQ(refused(double{}, "1e999"), "refused");
  EXPECT_STREQ(refused(double{}, "nan"), "refused");
  EXPECT_STREQ(refused(double{}, "inf"), "refused");
  EXPECT_STREQ(refused(double{}, "0x10"), "trailing");
}

TEST(NumberRule, ScaledChecksTheProductBeforeConverting) {
  EXPECT_EQ(scaled<std::uint64_t>(1234.567, 1000.0), 1234567u);
  EXPECT_EQ(scaled<std::int64_t>(1.5, 1e6), 1500000);
  EXPECT_EQ(scaled<std::uint64_t>(-5.0, 1000.0), std::nullopt);
  EXPECT_EQ(scaled<std::uint64_t>(1e300, 1000.0), std::nullopt);
  EXPECT_EQ(scaled<std::int64_t>(9223372036855.0, 1e6), std::nullopt);
  EXPECT_TRUE(scaled<std::int64_t>(9223372036854.0, 1e6).has_value());
  EXPECT_EQ(scaled<std::uint64_t>(std::uint64_t{18446744073709}, std::uint64_t{1000000}),
            18446744073709000000u);
  EXPECT_EQ(scaled<std::uint64_t>(std::uint64_t{18446744073710}, std::uint64_t{1000000}),
            std::nullopt);
}

// --- One table of hostile tokens --------------------------------------

struct Token {
  const char* text;
  /// Which entry points the token is hostile to (a "-1" is an ordinary
  /// value of a signed type).
  enum Scope { kAll, kUnsigned, kUpTo32Bits, kInt64 } scope = kAll;
};

const std::vector<Token>& hostile_tokens() {
  static const std::vector<Token> tokens = {
      {""},     {"-"},   {" 3"},  {"3 "},  {"+3"},
      {"0x10"}, {"1e999"}, {"nan"}, {"inf"},
      {"-1", Token::kUnsigned},
      {"4294967297", Token::kUpTo32Bits},
      {"9223372036854775808", Token::kInt64},
  };
  return tokens;
}

struct EntryPoint {
  std::string name;
  bool is_signed = true;
  int bits = 32;
  /// JSON and month.txt read their token out of text whose own syntax
  /// allows whitespace around it, so " 3" and "3 " there are " 3" and
  /// "3 " of the framing, not of the number.
  bool frame_strips_whitespace = false;
  /// True when `token` is accepted; a rejection is a DataError, a
  /// usage error (exit 2) or, for MPA_THREADS, the unset count.
  std::function<bool(const std::string& token)> accepts;

  bool applies(const Token& t) const {
    const std::string text = t.text;
    if (frame_strips_whitespace && !text.empty() && (text.front() == ' ' || text.back() == ' '))
      return false;
    switch (t.scope) {
      case Token::kAll: return true;
      case Token::kUnsigned: return !is_signed;
      case Token::kUpTo32Bits: return bits <= 32;
      case Token::kInt64: return is_signed && bits == 64;
    }
    return false;
  }
};

/// `read()` under a DataError verdict: true when it returns.
bool returns(const std::function<void()>& read) {
  try {
    read();
    return true;
  } catch (const DataError&) {
    return false;
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& path, const std::string& text) { std::ofstream(path) << text; }

std::string replace_once(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

int cli_exit_code(const std::string& args) {
  const std::string cmd = std::string(MPA_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<EntryPoint> entry_points(const fs::path& dir) {
  std::vector<EntryPoint> out;

  // `top` without a daemon: exit 1 (no response) when the flag parses,
  // 2 when it does not. It opens no dataset and never sleeps.
  out.push_back({"int CLI flag (top --iterations)", true, 32, false, [](const std::string& t) {
                   const int code = cli_exit_code("top --iterations '" + t + "' </dev/null");
                   EXPECT_TRUE(code == 1 || code == 2) << code;
                   return code == 1;
                 }});

  // Read on its own: no pool is ever built from a parsed count.
  out.push_back({"MPA_THREADS", true, 32, false, [](const std::string& t) {
                   unsetenv("MPA_THREADS");
                   const int unset = ThreadPool::default_thread_count();
                   setenv("MPA_THREADS", t.c_str(), 1);
                   const int got = ThreadPool::default_thread_count();
                   unsetenv("MPA_THREADS");
                   return got != unset || t == std::to_string(unset);
                 }});

  CaseTable cases;
  Case c;
  c.network_id = "net0";
  c.month = 1;
  cases.add(c);
  const std::string case_csv = cases.to_csv();
  out.push_back({"case-table month cell", true, 32, false, [case_csv](const std::string& t) {
                   return returns([&] {
                     CaseTable::from_csv(replace_once(case_csv, "\nnet0,1,", "\nnet0," + t + ","));
                   });
                 }});

  LintReport lint;
  NetworkLint net;
  net.network_id = "net0";
  net.num_devices = 1;
  Diagnostic diag;
  diag.rule_id = "r";
  diag.device_id = "d";
  diag.span.first_line = 7;
  diag.span.last_line = 8;
  net.diagnostics.push_back(diag);
  lint.networks.push_back(net);
  const std::string lint_csv = lint.to_csv();
  // Digits only, within INT_MAX: an unsigned reading.
  out.push_back({"lint-report line cell", false, 32, false, [lint_csv](const std::string& t) {
                   return returns([&] {
                     LintReport::from_csv(replace_once(lint_csv, ",7,8,", "," + t + ",8,"));
                   });
                 }});

  OspOptions opts;
  opts.num_networks = 1;
  opts.num_months = 1;
  opts.seed = 3;
  OspDataset gen = generate_osp(opts);
  const std::string net_id = gen.inventory.networks().front().network_id;
  save_dataset(DiskDataset{std::move(gen.inventory), std::move(gen.snapshots),
                           std::move(gen.tickets)},
               (dir / "ds").string());
  const std::string tickets = slurp(dir / "ds" / "tickets.csv");
  const std::string origin(to_string(TicketOrigin::kUserReport));
  out.push_back({"tickets.csv time", true, 64, false, [=](const std::string& t) {
                   spit(dir / "ds" / "tickets.csv",
                        tickets + "tkt-x," + net_id + "," + t + ",10," + origin + ",boom,\n");
                   return returns([&] { load_dataset((dir / "ds").string()); });
                 }});

  MonthDelta delta;
  delta.month = 1;
  save_month_delta(delta, (dir / "delta").string());
  out.push_back({"month.txt", true, 32, true, [dir](const std::string& t) {
                   spit(dir / "delta" / "month.txt", t + "\n");
                   return returns([&] { load_month_delta((dir / "delta").string()); });
                 }});

  out.push_back({"request top_k", true, 32, true, [](const std::string& t) {
                   return returns([&] {
                     serve::Request::from_json(parse_json(R"({"kind":"rank","top_k":)" + t + "}"));
                   });
                 }});

  const std::string manifest = RunManifest{}.to_json();
  out.push_back({"manifest threads", true, 32, true, [manifest](const std::string& t) {
                   return returns([&] {
                     RunManifest::from_json(
                         replace_once(manifest, "\"threads\":0", "\"threads\":" + t));
                   });
                 }});

  out.push_back({"span tid", false, 32, true, [](const std::string& t) {
                   return returns([&] {
                     obs::parse_trace_json(
                         R"({"spans":[{"path":"x","start_ns":1,"dur_ns":2,"tid":)" + t + "}]}");
                   });
                 }});

  out.push_back({"Chrome tid", false, 32, true, [](const std::string& t) {
                   return returns([&] {
                     obs::parse_trace_json(
                         R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":2,"tid":)" + t +
                         "}]}");
                   });
                 }});

  out.push_back({"IPv4 octet", false, 8, false, [](const std::string& t) {
                   return parse_ipv4(t + ".1.1.1").has_value();
                 }});
  return out;
}

TEST(HostileTokens, SameVerdictAtEveryEntryPoint) {
  const fs::path dir = fs::path(testing::TempDir()) / "mpa_hostile_tokens";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const EntryPoint& entry : entry_points(dir)) {
    EXPECT_TRUE(entry.accepts("3")) << entry.name << " refuses a plain 3";
    for (const Token& token : hostile_tokens()) {
      if (!entry.applies(token)) continue;
      EXPECT_FALSE(entry.accepts(token.text)) << entry.name << " accepts '" << token.text << "'";
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpa
