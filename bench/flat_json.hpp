// Read back an obs::Registry JSON export (two-space indented, one key per
// line) as dotted paths -> value text: how bench_host reads its committed
// baseline and the bench_paper_pinned test compares BENCH_paper.json.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace xpulp::bench {

inline std::string trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t");
  const size_t e = s.find_last_not_of(" \t\r");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

inline std::map<std::string, std::string> flatten(const std::string& json) {
  std::map<std::string, std::string> out;
  std::vector<std::string> path;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    line = trim(line);
    if (line.starts_with("}")) {
      if (!path.empty()) path.pop_back();
      continue;
    }
    if (!line.starts_with("\"")) continue;
    const size_t q = line.find("\": ");
    if (q == std::string::npos) continue;
    const std::string name = line.substr(1, q - 1);
    std::string value = line.substr(q + 3);
    if (value == "{") {
      path.push_back(name);
      continue;
    }
    if (value.ends_with(",")) value.pop_back();
    std::string key;
    for (const auto& p : path) key += p + ".";
    out[key + name] = value;
  }
  return out;
}

}  // namespace xpulp::bench
