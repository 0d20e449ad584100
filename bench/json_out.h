// Shared --json output schema for the benches.
//
// Every bench that accepts `--json FILE` writes one object:
//   {
//     "bench": "<bench name>",
//     <optional metadata: "mode", "cpus", ...>,
//     "results": [ {"name": "<row>", "<metric>": <number>, ...}, ... ]
//   }
// — the shape bench_netperf and bench_annotations established, so the CI
// bench-smoke job can merge every artifact into one bench_results.json.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace lxfibench {

// Formats a metric: integral-looking values print without a fraction so
// counters stay exact; everything else keeps three decimals.
inline std::string FormatNumber(double v) {
  char buf[64];
  if (std::abs(v - std::round(v)) < 1e-9 && std::abs(v) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

inline std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

struct JsonRow {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;

  JsonRow& Set(const std::string& key, double value) {
    fields.emplace_back(key, value);
    return *this;
  }
};

class JsonWriter {
 public:
  explicit JsonWriter(std::string bench) : bench_(std::move(bench)) {}

  void Meta(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += EscapeJson(value);
    quoted += '"';
    meta_.emplace_back(key, std::move(quoted));
  }
  void Meta(const std::string& key, double value) {
    meta_.emplace_back(key, FormatNumber(value));
  }

  JsonRow& AddRow(const std::string& name) {
    rows_.emplace_back();
    rows_.back().name = name;
    return rows_.back();
  }

  bool WriteFile(const char* path) const {
    FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", EscapeJson(bench_).c_str());
    for (const auto& [key, value] : meta_) {
      std::fprintf(f, "  \"%s\": %s,\n", EscapeJson(key).c_str(), value.c_str());
    }
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const JsonRow& row = rows_[i];
      std::fprintf(f, "    {\"name\": \"%s\"", EscapeJson(row.name).c_str());
      for (const auto& [key, value] : row.fields) {
        std::fprintf(f, ", \"%s\": %s", EscapeJson(key).c_str(), FormatNumber(value).c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<JsonRow> rows_;
};

}  // namespace lxfibench
