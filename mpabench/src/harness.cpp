#include "harness.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/hash.hpp"

namespace mpabench {

void Outcome::check(bool ok, const std::string& what) {
  op(ok);
  if (ok) return;
  correct = false;
  log("CHECK FAILED: " + what);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(const std::string& s) {
  mpa::Fnv h;
  h.str(s);
  return hex64(h.value());
}

void log(const std::string& line) { std::cerr << "[mpabench] " << line << std::endl; }

}  // namespace mpabench
