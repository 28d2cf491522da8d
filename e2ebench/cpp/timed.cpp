// The timed run: K cameras through StreamServer::run(), in whole rounds
// until --seconds have passed, with tracing off. Every round is checked
// after its run() returns; the reference checks sample round 0 after the
// timed region ends.

#include <sys/resource.h>

#include <cstdio>

#include "reference.h"
#include "report.h"

namespace e2e {

namespace {

/// Verdicts per block of whole rounds for the p99: enough that twenty
/// samples lie beyond each block's p99.
constexpr std::size_t kBlockVerdicts = 2000;

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

RunOutput timed_run(const Workload& w, const Args& a) {
  RunOutput out;
  const float warn_threshold = safecross::core::SafeCrossConfig{}.warn_threshold;
  auto round_dir = [&](std::uint64_t r) { return a.work_dir / ("round-" + std::to_string(r)); };

  // Set-up: engine, models and the first server, timed from process start.
  auto engine = make_engine(w);
  auto cfg = server_config(w, a.seed, 0, w.round_frames, round_dir(0));
  auto server = std::make_unique<safecross::serving::StreamServer>(*engine, cfg);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - a.t0).count();

  const auto cfg0 = cfg;
  std::vector<std::vector<safecross::serving::DecisionRecord>> traces0;
  std::vector<double> latencies;
  // Consecutive whole rounds grouped into blocks of >= kBlockVerdicts
  // verdicts; the p99 is the median of the blocks' p99s, so one stretch of
  // host noise moves one block, not the whole run's tail.
  std::vector<std::vector<double>> blocks(1);
  double run_ms = 0.0, run_cpu_s = 0.0;
  std::size_t frames = 0, rounds = 0, batches = 0, batched = 0;
  const auto measure_start = Clock::now();
  for (std::uint64_t r = 0;; ++r) {
    if (r > 0) {
      cfg = server_config(w, a.seed, r, w.round_frames, round_dir(r));
      server = std::make_unique<safecross::serving::StreamServer>(*engine, cfg);
    }
    const double cpu0 = cpu_seconds();
    const auto t = Clock::now();
    server->run();
    const double round_ms = ms_since(t);
    const double round_cpu_s = cpu_seconds() - cpu0;
    run_ms += round_ms;
    run_cpu_s += round_cpu_s;

    check_server(*server, cfg, warn_threshold, /*batched=*/true, out.tally);
    std::size_t round_frames = 0;
    for (std::size_t i = 0; i < server->stream_count(); ++i) {
      round_frames += server->stream(i).frames_run();
      if (r == 0) traces0.push_back(server->stream(i).trace());
    }
    frames += round_frames;
    latencies.insert(latencies.end(), server->latency_log().begin(),
                     server->latency_log().end());
    if (blocks.back().size() >= kBlockVerdicts) blocks.emplace_back();
    blocks.back().insert(blocks.back().end(), server->latency_log().begin(),
                         server->latency_log().end());
    char line[200];
    std::snprintf(line, sizeof(line),
                  "round %zu: %zu frames, %zu verdicts, %.1f frames/s, %.1f frames/CPU-s, "
                  "p50 %.2f ms, p99 %.2f ms",
                  static_cast<std::size_t>(r), round_frames, server->latency_log().size(),
                  1000.0 * round_frames / round_ms, round_frames / round_cpu_s,
                  percentile(server->latency_log(), 50.0), percentile(server->latency_log(), 99.0));
    out.lines.push_back(line);
    batches += server->batch_log().size();
    batched += server->windows_batched();
    server.reset();
    std::filesystem::remove_all(round_dir(r));
    ++rounds;
    if (std::chrono::duration<double>(Clock::now() - measure_start).count() >= a.seconds) break;
  }
  const double rss_mb = peak_rss_mb();
  // A short last block joins the one before it.
  if (blocks.size() > 1 && blocks.back().size() < kBlockVerdicts) {
    blocks[blocks.size() - 2].insert(blocks[blocks.size() - 2].end(), blocks.back().begin(),
                                     blocks.back().end());
    blocks.pop_back();
  }
  std::vector<double> block_p99;
  for (const auto& b : blocks) block_p99.push_back(percentile(b, 99.0));

  out.lines.push_back(reference_checks(*engine, cfg0, traces0,
                                       derive_seed(a.seed, 0, 0, 0x5A3D), out.tally));

  char line[320];
  std::snprintf(line, sizeof(line),
                "timed: %zu rounds x %zu cameras x %zu frames, %zu frames in %.3f s run() wall "
                "(%.3f CPU-s); %zu windows, %zu verdicts (%zu batched in %zu batches); "
                "p99 over %zu blocks",
                rounds, w.cameras.size(), w.round_frames, frames, run_ms / 1000.0, run_cpu_s,
                out.tally.attempted, latencies.size(), batched, batches, blocks.size());
  out.lines.push_back(line);
  if (blocks.front().size() < 1000) {
    out.lines.push_back("note: fewer than 1000 verdicts, so p99 has fewer than 10 samples beyond it");
  }

  out.metrics = {
      {"setup_s", "s", setup_s},
      {"frames_per_s", "frames/s", 1000.0 * static_cast<double>(frames) / run_ms},
      {"frames_per_cpu_s", "frames/CPU-s", static_cast<double>(frames) / run_cpu_s},
      {"verdict_latency_p50_ms", "ms", percentile(latencies, 50.0)},
      {"verdict_latency_p99_ms", "ms", percentile(block_p99, 50.0)},
      {"peak_rss_mb", "MB", rss_mb},
  };
  return out;
}

}  // namespace e2e
