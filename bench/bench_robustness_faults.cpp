// Robustness sweep — the fault-injection harness applied to the live
// warning service (one camera through the sequential serving reference,
// StreamServer::run_sequential). For each fault rate a seeded fault
// sequence is replayed and untrustworthy windows produce a conservative
// warn tagged with a DecisionSource code instead of a model verdict. A
// final arm on a clean feed makes every model-switch attempt fail, so no
// model can serve.
// Reports availability, missed-threat rate and false-warning rate per arm
// and writes the sweep as JSON (default BENCH_robustness.json).
//
// Usage: bench_robustness_faults [--frames N] [--json PATH]

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "models/slowfast.h"
#include "serving/stream_server.h"

using namespace safecross;
using namespace safecross::core;

namespace {

struct RunResult {
  std::string policy;
  double fault_rate = 0.0;
  std::size_t frames = 0;
  std::size_t decisions = 0;
  std::size_t opportunities = 0;
  std::size_t model_decisions = 0;
  std::size_t fail_safe = 0;
  std::size_t warnings = 0;
  std::size_t missed_threats = 0;
  std::size_t false_warnings = 0;
  std::size_t frames_dropped = 0;
  std::size_t switch_failures = 0;
  int uncaught_exceptions = 0;

  double availability() const {
    return opportunities == 0 ? 1.0
                              : static_cast<double>(decisions) / static_cast<double>(opportunities);
  }
  double model_availability() const {
    return opportunities == 0
               ? 1.0
               : static_cast<double>(model_decisions) / static_cast<double>(opportunities);
  }
  double missed_rate() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(missed_threats) / static_cast<double>(decisions);
  }
  double false_warning_rate() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(false_warnings) / static_cast<double>(decisions);
  }
};

runtime::FaultPlan plan_for_rate(double rate) {
  runtime::FaultPlan plan;
  plan.drop_prob = rate;
  plan.freeze_prob = rate / 2.0;
  plan.noise_prob = rate / 2.0;
  plan.blackout_prob = rate / 100.0;  // rare but long: 45 blind frames
  plan.blackout_frames = 45;
  return plan;
}

RunResult run_arm(SafeCross& sc, const char* policy, double fault_rate,
                  const runtime::FaultPlan& plan, int frames, std::uint64_t sim_seed) {
  RunResult r;
  r.policy = policy;
  r.fault_rate = fault_rate;
  r.frames = static_cast<std::size_t>(frames);
  const std::size_t failed_before = sc.switcher().failed_switches();
  try {
    serving::StreamServerConfig cfg;
    cfg.frames = static_cast<std::size_t>(frames);
    serving::StreamConfig cam;
    cam.sim_seed = sim_seed;
    cam.collector_seed = sim_seed + 1;
    cam.faults = plan;
    cam.fault_seed = 0xFA17u;
    cfg.streams.push_back(cam);
    serving::StreamServer server(sc, cfg);
    server.run_sequential();
    const core::StreamScorecard& card = server.stream(0).scorecard();
    r.decisions = card.decisions();
    r.opportunities = card.decision_opportunities();
    r.model_decisions = card.model_decisions();
    r.fail_safe = card.fail_safe_decisions();
    r.warnings = card.warnings();
    r.missed_threats = card.missed_threats();
    r.false_warnings = card.false_warnings();
    const runtime::FaultInjector* injector = server.stream(0).injector();
    r.frames_dropped = injector != nullptr ? injector->frames_dropped() : 0;
  } catch (const std::exception& e) {
    ++r.uncaught_exceptions;
    std::printf("  !! uncaught exception (%s, rate %.2f): %s\n", r.policy.c_str(), fault_rate,
                e.what());
  }
  r.switch_failures = sc.switcher().failed_switches() - failed_before;
  return r;
}

void print_result(const RunResult& r) {
  std::printf("  %5.2f  %-9s %10zu %7.3f %7.3f %11zu %9.4f %9.4f %6d\n", r.fault_rate,
              r.policy.c_str(), r.decisions, r.availability(), r.model_availability(), r.fail_safe,
              r.missed_rate(), r.false_warning_rate(), r.uncaught_exceptions);
}

void json_result(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"fault_rate\": %.4f, \"policy\": \"%s\", \"frames\": %zu, "
               "\"decisions\": %zu, \"opportunities\": %zu, \"model_decisions\": %zu, "
               "\"fail_safe_decisions\": %zu, \"warnings\": %zu, \"missed_threats\": %zu, "
               "\"false_warnings\": %zu, \"availability\": %.6f, \"model_availability\": %.6f, "
               "\"missed_threat_rate\": %.6f, \"false_warning_rate\": %.6f, "
               "\"frames_dropped\": %zu, \"switch_failures\": %zu, \"uncaught_exceptions\": %d}%s\n",
               r.fault_rate, r.policy.c_str(), r.frames, r.decisions, r.opportunities,
               r.model_decisions, r.fail_safe, r.warnings, r.missed_threats, r.false_warnings,
               r.availability(), r.model_availability(), r.missed_rate(), r.false_warning_rate(),
               r.frames_dropped, r.switch_failures, r.uncaught_exceptions, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::quiet_logs();
  int frames = 30 * 180;  // three simulated minutes per arm
  std::string json_path = "BENCH_robustness.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--frames N] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("Robustness: training the daytime model");
  dataset::BuildRequest req;
  req.target_segments = bench::scaled(60);
  req.max_sim_hours = 4.0;
  req.seed = 2022;
  const auto day = dataset::build_dataset(req);
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  cfg.basic_train.epochs = 3;
  SafeCross sc(cfg);
  sc.train_basic(bench::ptrs(day.segments));
  std::printf("  trained on %zu daytime segments, %d frames per arm\n",
              day.segments.size(), frames);

  bench::print_header("Fault-rate sweep: fail-safe gates under frame faults");
  std::printf("  %5s  %-9s %10s %7s %7s %11s %9s %9s %6s\n", "rate", "policy", "decisions",
              "avail", "mavail", "fail-safe", "missed", "false-w", "exc");
  const double rates[] = {0.0, 0.05, 0.10, 0.20};
  std::vector<RunResult> results;
  for (const double rate : rates) {
    results.push_back(run_arm(sc, "fail-safe", rate, plan_for_rate(rate), frames, 4242));
    print_result(results.back());
  }

  bench::print_header("Model-switch failure: clean feed, every swap attempt dies");
  // A cold engine (no model active yet) whose switcher fails every
  // attempt: no model can be made to serve, so every verdict must be a
  // conservative warn. The feed is clean so that every due window would
  // otherwise have gone to the model.
  SafeCross cold(cfg);
  cold.set_model(dataset::Weather::Daytime, std::make_unique<models::SlowFast>(cfg.model));
  cold.switcher().set_failure_hook([](const std::string&) { return true; });
  const auto switch_run = run_arm(cold, "switch-down", 0.0, plan_for_rate(0.0), frames, 4242);
  print_result(switch_run);
  results.push_back(switch_run);
  std::printf("  %zu failed switch attempts; %zu of %zu decisions came from the model: the\n"
              "  intersection kept its warning service (availability %.3f).\n",
              switch_run.switch_failures, switch_run.model_decisions, switch_run.decisions,
              switch_run.availability());

  int total_exceptions = 0;
  for (const RunResult& r : results) total_exceptions += r.uncaught_exceptions;
  std::printf("\n  verdict: %d uncaught exceptions across all arms.\n", total_exceptions);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"robustness_faults\",\n  \"frames_per_run\": %d,\n", frames);
  std::fprintf(f, "  \"uncaught_exceptions_total\": %d,\n  \"runs\": [\n", total_exceptions);
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_result(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());
  return total_exceptions == 0 ? 0 : 1;
}
