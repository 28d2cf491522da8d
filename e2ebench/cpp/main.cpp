// Camera→verdict benchmark program.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--t0-ns NS] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// per-layer ledger. --t0-ns is the CLOCK_MONOTONIC instant the launcher
// started this process (set-up time is measured from it); --work-dir is a
// scratch directory for journals and snapshots. Prints human-readable
// lines, then one JSON object as the last line of stdout. Exit code 0 when
// every check passed, 1 when a check failed, 2 on a usage or runtime error.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>

#include "report.h"

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--t0-ns NS] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

e2e::Args parse(int argc, char** argv) {
  e2e::Args a;
  a.t0 = e2e::Clock::now();
  a.work_dir = ".bench_build/e2ebench-work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
        have_trace = a.trace == 0 || a.trace == 1;
      } else if (key == "--t0-ns") {
        a.t0 = e2e::Clock::time_point(std::chrono::nanoseconds(std::stoll(val)));
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args a = parse(argc, argv);
  // The served kernels are the production defaults.
  for (const char* knob : {"SAFECROSS_GEMM_KERNEL", "SAFECROSS_CONV_BACKEND", "SAFECROSS_SCALE"}) {
    unsetenv(knob);
  }
  const e2e::Workload* w = e2e::find_workload(a.workload);
  if (w == nullptr) {
    std::string known;
    for (const std::string& n : e2e::workload_names()) known += " " + n;
    usage(("unknown workload " + a.workload + "; known:" + known).c_str());
  }
  a.work_dir /= w->name + "-" + std::to_string(getpid());

  e2e::RunOutput out;
  try {
    std::filesystem::remove_all(a.work_dir);
    std::filesystem::create_directories(a.work_dir);
    out = a.trace == 1 ? e2e::traced_run(*w, a) : e2e::timed_run(*w, a);
    std::filesystem::remove_all(a.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", w->name.c_str(), e.what());
    std::error_code ec;
    std::filesystem::remove_all(a.work_dir, ec);
    return 2;
  }

  for (e2e::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.tally.error("metric " + m.name + " is not a finite number");
      m.value = 0.0;  // keeps the JSON valid; the run is already incorrect
    }
  }

  std::printf("workload %s, seed %llu, trace %d\n", w->name.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace);
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  for (const e2e::Metric& m : out.metrics) {
    std::printf("metric %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %zu attempted, %zu failed\n", out.tally.attempted, out.tally.failed);
  for (const std::string& e : out.tally.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += out.tally.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.tally.attempted);
  json += ", \"failed\": " + std::to_string(out.tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const e2e::Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.tally.ok() ? 0 : 1;
}
