// The driver's result document: metrics with sample counts, the
// operation tally behind failure_ratio, output-check failures, validity
// violations and free-form notes (the bounding layer).  run.py turns it
// into the benchmark's result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::int64_t samples = -1;  // -1 = not a sampled statistic
    std::string not_applicable;  // why the layer is off this path ("" = on it)
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few check failures
  std::vector<std::string> invalid;   // validity limits the run broke

  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = -1) {
    metrics.push_back(Metric{name, value, unit, samples, ""});
  }
  /// Reports metrics whose layer this workload does not run: value 0,
  /// flagged with the reason.
  void not_applicable(const std::vector<std::string>& names, const std::string& why) {
    for (const std::string& name : names) metrics.push_back(Metric{name, 0.0, "", -1, why});
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Counts `count` failed operations, keeping the first messages.
  void fail(std::int64_t count, const std::string& what) {
    if (count <= 0) return;
    failed += count;
    if (failures.size() < 10) failures.push_back(what);
  }

  std::string to_json() const;
};

}  // namespace perfbench
