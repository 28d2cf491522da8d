// Live deployment: SafeCross watching an intersection it has never seen
// (fresh traffic seed), issuing blind-area warnings in real time while
// the simulator's ground truth scores every decision. The camera is
// served by the sequential reference engine (StreamServer::run_sequential).

#include <cstdio>

#include "common/logging.h"
#include "dataset/builder.h"
#include "serving/stream_server.h"

using namespace safecross;

int main() {
  set_log_level(LogLevel::Warn);

  // Train the daytime basic model.
  dataset::BuildRequest req;
  req.weather = dataset::Weather::Daytime;
  req.target_segments = 150;
  req.seed = 5;
  const auto day = dataset::build_dataset(req);
  std::vector<const dataset::VideoSegment*> train;
  for (const auto& s : day.segments) train.push_back(&s);

  core::SafeCrossConfig cfg;
  cfg.basic_train.epochs = 5;
  core::SafeCross sc(cfg);
  std::printf("training on %zu segments...\n", train.size());
  sc.train_basic(train);

  // Deploy on fresh traffic: 20 sim-minutes of one 30 Hz camera.
  constexpr double kFps = 30.0;
  serving::StreamServerConfig live;
  live.frames = static_cast<std::size_t>(20 * 60 * kFps);
  live.record_traces = true;
  serving::StreamConfig cam;
  cam.name = "intersection";
  cam.sim_seed = 987654;
  cam.collector_seed = 42;
  live.streams.push_back(cam);
  serving::StreamServer server(sc, live);

  std::printf("monitoring live traffic (20 sim-minutes)...\n\n");
  server.run_sequential();

  const serving::StreamContext& stream = server.stream(0);
  int printed = 0;
  for (const serving::DecisionRecord& d : stream.trace()) {
    if (printed++ == 12) break;
    std::printf("  t=%7.1fs  P(danger)=%.2f -> %-18s truth=%s%s\n", d.frame / kFps,
                d.prob_danger, d.warn ? "WARN (hold)" : "clear (turn ok)",
                d.danger_truth ? "danger" : "safe",
                (d.predicted_class == 0) == d.danger_truth ? "" : "  <- wrong");
  }

  const core::StreamScorecard& card = stream.scorecard();
  std::printf("\nscorecard after %.0f sim-minutes:\n", stream.frames_run() / kFps / 60.0);
  std::printf("  decisions        %zu\n", card.decisions());
  std::printf("  warnings issued  %zu\n", card.warnings());
  std::printf("  accuracy         %.3f\n", card.accuracy());
  std::printf("  missed threats   %zu (said safe while a threat approached)\n",
              card.missed_threats());
  std::printf("                   (these cluster at horizon-entry moments: a fast vehicle\n"
              "                    entering the camera's field of view is ground-truth danger\n"
              "                    a few frames before the occupancy window can show it)\n");
  std::printf("  false warnings   %zu (held a turn that was safe)\n", card.false_warnings());
  std::printf("  latency p50/p99  %.2f / %.2f ms (capture -> verdict)\n", card.latency_p50(),
              card.latency_p99());
  return 0;
}
