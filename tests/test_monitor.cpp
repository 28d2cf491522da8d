// One camera's live warning service over a trained framework: decision
// cadence and scorecard bookkeeping of the sequential serving reference
// (StreamServer::run_sequential), with StreamContext::tick() driven
// directly where a test must watch each frame.

#include <memory>

#include <gtest/gtest.h>

#include "dataset/builder.h"
#include "fewshot/trainer.h"
#include "models/slowfast.h"
#include "serving/stream_server.h"
#include "sim/weather.h"

namespace safecross::core {
namespace {

using serving::StreamConfig;
using serving::StreamContext;
using serving::StreamServer;

SafeCross& trained_framework() {
  static SafeCross* sc = [] {
    dataset::BuildRequest req;
    req.target_segments = 60;
    req.max_sim_hours = 2.0;
    req.seed = 777;
    const auto day = dataset::build_dataset(req);
    SafeCrossConfig cfg;
    cfg.model.slow_channels = 4;
    cfg.model.fast_channels = 2;
    cfg.basic_train.epochs = 3;
    auto* framework = new SafeCross(cfg);
    std::vector<const dataset::VideoSegment*> train;
    for (const auto& s : day.segments) train.push_back(&s);
    framework->train_basic(train);
    return framework;
  }();
  return *sc;
}

StreamConfig camera(std::uint64_t sim_seed, std::uint64_t collector_seed) {
  StreamConfig cfg;
  cfg.sim_seed = sim_seed;
  cfg.collector_seed = collector_seed;
  return cfg;
}

std::unique_ptr<StreamServer> run_camera(SafeCross& sc, const StreamConfig& cam,
                                         std::size_t frames) {
  serving::StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.record_traces = true;
  cfg.streams.push_back(cam);
  auto server = std::make_unique<StreamServer>(sc, cfg);
  server->run_sequential();
  return server;
}

TEST(Monitor, NoDecisionsBeforeWindowFills) {
  StreamContext ctx(camera(31, 32));
  for (int i = 0; i < 31; ++i) {  // fewer frames than one window
    EXPECT_FALSE(ctx.tick().has_value());
  }
  EXPECT_EQ(ctx.windows_produced(), 0u);
}

TEST(Monitor, CountersAreConsistent) {
  const auto server = run_camera(trained_framework(), camera(33, 34), 30 * 240);
  const StreamScorecard& card = server->stream(0).scorecard();
  EXPECT_GT(card.decisions(), 0u);
  EXPECT_EQ(card.decisions(), server->stream(0).trace().size());
  EXPECT_EQ(card.decisions(), server->stream(0).windows_produced());
  EXPECT_EQ(card.decisions(), card.correct() + card.missed_threats() + card.false_warnings());
  EXPECT_LE(card.warnings(), card.decisions());
}

TEST(Monitor, DecisionsOnlyWhileSubjectWaits) {
  // The collector advances its simulator exactly one step per frame, so
  // an identically seeded twin stepped in lockstep shows the world each
  // tick() saw.
  const StreamConfig cam = camera(35, 36);
  StreamContext ctx(cam);
  sim::TrafficSimulator twin(sim::weather_params(cam.weather), cam.sim_seed);
  std::size_t decisions = 0;
  for (int i = 0; i < 30 * 240; ++i) {
    const auto w = ctx.tick();
    twin.step();
    if (!w) continue;
    ++decisions;
    const sim::Vehicle* subject = twin.subject(cam.vp.approach);
    ASSERT_NE(subject, nullptr) << "frame " << w->frame;
    EXPECT_EQ(subject->state, sim::DriverState::HoldingAtStop);
    EXPECT_EQ(w->danger_truth, twin.dangerous_to_turn(cam.vp.approach));
  }
  EXPECT_GT(decisions, 0u);
}

TEST(Monitor, DecisionStrideRateLimits) {
  StreamConfig cam = camera(37, 38);
  cam.decision_stride = 30;  // at most one decision per second
  const auto server = run_camera(trained_framework(), cam, 30 * 300);
  std::size_t last = 0;
  for (const serving::DecisionRecord& d : server->stream(0).trace()) {
    if (last != 0) {
      EXPECT_GE(d.frame - last, 30u);
    }
    last = d.frame;
  }
  EXPECT_GT(last, 0u);
}

TEST(Monitor, ServesTheStreamSceneForModelVerdicts) {
  // The engine starts on daytime; a rain camera's verdicts must come from
  // the rain model, so serving it swaps the engine's active scene.
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  SafeCross sc(cfg);
  sc.set_model(dataset::Weather::Daytime, std::make_unique<models::SlowFast>(cfg.model));
  sc.set_model(dataset::Weather::Rain, std::make_unique<models::SlowFast>(cfg.model));
  sc.on_scene_change(dataset::Weather::Daytime);
  StreamConfig cam = camera(39, 40);
  cam.weather = dataset::Weather::Rain;
  const auto server = run_camera(sc, cam, 30 * 120);
  EXPECT_GT(server->stream(0).scorecard().model_decisions(), 0u);
  EXPECT_EQ(sc.active_weather(), dataset::Weather::Rain);
}

}  // namespace
}  // namespace safecross::core
