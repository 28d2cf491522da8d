#pragma once
// What one benchmark run hands back to main(): the operation tally, the
// named metrics, and the human-readable lines printed before the JSON.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  Clock::time_point t0;             // process start, for setup_s
  std::filesystem::path work_dir;   // fresh scratch dir for journals/snapshots
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOutput {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
};

/// Linear interpolation between closest ranks; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The timed, untraced run: end-to-end metrics.
RunOutput timed_run(const Workload& w, const Args& a);
/// The traced run: per-layer metrics, parity and the stage ledger.
RunOutput traced_run(const Workload& w, const Args& a);

}  // namespace e2e
