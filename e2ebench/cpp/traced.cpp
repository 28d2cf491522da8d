// The traced run. Every layer is timed from outside, through the public
// functions of its module, on round 0's seeds at traced_frames per camera:
//
//   serving   a batched run(): batch log, queue high water, engine switches
//   reference run_sequential() camera by camera: the untraced single-thread
//             wall time, whose verdict traces must equal run()'s bit for bit
//   ledger    right after each camera's run_sequential(), the same loop
//             rebuilt from public calls with a span around each: tick,
//             model switch, classify_as, journal append, apply, snapshot
//   dataset   SegmentCollector::step() per frame, each camera after its replay
//   sim       TrafficSimulator::step, CameraModel::render / rasterize_topdown
//   vision    RunningAverageBackground::apply, opening, Homography::warp +
//             threshold, and the share of mask pixels the warp reads
//   core      SafeCross::classify_as and classify_batch_as (batch 8)
//   nn        standalone Conv3D (+ BatchNorm) / Linear per SlowFast layer,
//             with the served weights and batch-1 input shapes
//   runtime   Journal::append and SnapshotStore::write in a fresh directory
//
// The ledger's summed spans must match the untraced wall within
// kLedgerTolerance; the standalone collector and sim timings split the
// tick spans into sim, VP and serving.

#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "common/rng.h"
#include "common/state_io.h"
#include "models/slowfast.h"
#include "nn/batchnorm.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "reference.h"
#include "report.h"
#include "runtime/journal.h"
#include "sim/camera.h"
#include "sim/weather.h"
#include "vision/background_subtraction.h"
#include "vision/morphology.h"

namespace e2e {

namespace {

using safecross::runtime::DecisionSource;
using safecross::vision::Image;

/// |stage total - sequential wall| allowed, as a share of the wall.
constexpr double kLedgerTolerance = 0.25;
/// Frames per camera the rendering layers are timed on when the workload
/// does not render (FastTopdown): enough for a stable mean.
constexpr std::size_t kUnservedRenderFrames = 300;

template <typename F>
double time_ms(F&& f) {
  const auto t = Clock::now();
  f();
  return ms_since(t);
}

/// Mean of repeated calls: a few warm-up calls, then at least `min_calls`
/// and at least `min_ms` of timed calls.
double mean_call_ms(const std::function<void()>& f, int min_calls, double min_ms) {
  for (int i = 0; i < 3; ++i) f();
  int calls = 0;
  const auto t = Clock::now();
  while (calls < min_calls || ms_since(t) < min_ms) {
    f();
    ++calls;
  }
  return ms_since(t) / calls;
}

struct SimVisionTimes {
  std::vector<double> step, render, rasterize, bgsub, opening, warp;
};

/// sim + vision layers on camera `sc`'s own seeds, in collector order;
/// appends to `t`.
void time_sim_vision(const safecross::serving::StreamConfig& sc, std::size_t frames,
                     std::size_t render_frames, SimVisionTimes& t) {
  safecross::sim::TrafficSimulator sim(safecross::sim::weather_params(sc.weather), sc.sim_seed);
  const safecross::sim::CameraModel camera(sim.intersection().geometry());
  safecross::Rng rng(sc.collector_seed);
  const safecross::vision::BackgroundSubtractionConfig bg_cfg;
  safecross::vision::RunningAverageBackground bg(bg_cfg);
  const safecross::vision::Homography to_grid = camera.image_to_grid(sc.vp.grid_w, sc.vp.grid_h);
  for (std::size_t f = 0; f < frames; ++f) {
    t.step.push_back(time_ms([&] { sim.step(); }));
    Image grid;
    t.rasterize.push_back(
        time_ms([&] { grid = camera.rasterize_topdown(sim, sc.vp.grid_w, sc.vp.grid_h); }));
    if (f >= render_frames) continue;
    Image frame, mask, opened, warped;
    t.render.push_back(time_ms([&] { frame = camera.render(sim, rng); }));
    t.bgsub.push_back(time_ms([&] { mask = bg.apply(frame); }));
    // The raw |F - B| > t mask that apply() opened, for timing opening alone.
    const Image raw = Image::absdiff(frame, bg.background()).threshold(bg_cfg.threshold);
    t.opening.push_back(time_ms([&] { opened = safecross::vision::opening(raw); }));
    t.warp.push_back(time_ms(
        [&] { warped = to_grid.warp(mask, sc.vp.grid_w, sc.vp.grid_h).threshold(0.5f); }));
  }
}

/// Distinct mask pixels the warp's bilinear taps read, over the mask size.
double warp_read_fraction(const safecross::serving::StreamConfig& sc) {
  safecross::sim::TrafficSimulator sim(safecross::sim::weather_params(sc.weather), sc.sim_seed);
  const safecross::sim::CameraModel camera(sim.intersection().geometry());
  const int w = camera.config().width, h = camera.config().height;
  const safecross::vision::Homography inv =
      camera.image_to_grid(sc.vp.grid_w, sc.vp.grid_h).inverse();
  std::set<int> read;
  for (int gy = 0; gy < sc.vp.grid_h; ++gy) {
    for (int gx = 0; gx < sc.vp.grid_w; ++gx) {
      const safecross::vision::Point2 s = inv.apply({static_cast<double>(gx), static_cast<double>(gy)});
      if (s.x < 0 || s.y < 0 || s.x > w - 1 || s.y > h - 1) continue;
      const int x0 = static_cast<int>(static_cast<float>(s.x));
      const int y0 = static_cast<int>(static_cast<float>(s.y));
      const int x1 = std::min(x0 + 1, w - 1), y1 = std::min(y0 + 1, h - 1);
      for (int y : {y0, y1}) {
        for (int x : {x0, x1}) read.insert(y * w + x);
      }
    }
  }
  return static_cast<double>(read.size()) / (static_cast<double>(w) * h);
}

struct NnLayerTime {
  std::string name;
  double ms = 0.0;
  double gflops = 0.0;
};

/// Standalone nn layers with the served SlowFast's weights and the shapes
/// one batch-1 forward feeds them. GFLOP/s counts 2 x multiply-adds of the
/// convolution or matrix product (batch norm is timed, not counted).
std::vector<NnLayerTime> time_nn_layers(safecross::models::SlowFast& model, int t, int h, int w,
                                        std::uint64_t seed) {
  namespace nn = safecross::nn;
  const std::vector<nn::Param*> p = model.params();
  const std::vector<nn::Tensor*> b = model.buffers();
  if (p.size() != 22 || b.size() != 8) {
    throw std::runtime_error("nn layers: unexpected SlowFast parameter layout");
  }
  const int alpha = model.config().alpha;
  safecross::Rng rng(seed);
  auto input = [&](std::vector<int> shape) {
    nn::Tensor x(std::move(shape));
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
    return x;
  };
  std::vector<NnLayerTime> out;
  // One Conv3D (+ BatchNorm when bn_param >= 0) with params p[first..].
  auto conv = [&](const char* name, int first, int bn_param, int bn_buf, std::vector<int> in_shape,
                  int st, int ss, int pt, int ps) {
    const nn::Tensor& weight = p[first]->value;
    nn::Conv3DConfig c;
    c.out_channels = weight.dim(0);
    c.in_channels = weight.dim(1);
    c.kernel_t = weight.dim(2);
    c.kernel_s = weight.dim(3);
    c.stride_t = st;
    c.stride_s = ss;
    c.pad_t = pt;
    c.pad_s = ps;
    nn::Conv3D layer(c);
    layer.params()[0]->value = weight;
    layer.params()[1]->value = p[first + 1]->value;
    nn::BatchNorm bn(c.out_channels);
    if (bn_param >= 0) {
      bn.params()[0]->value = p[bn_param]->value;
      bn.params()[1]->value = p[bn_param + 1]->value;
      *bn.buffers()[0] = *b[bn_buf];
      *bn.buffers()[1] = *b[bn_buf + 1];
    }
    const nn::Tensor x = input(in_shape);
    nn::Tensor y;
    const double ms = mean_call_ms(
        [&] {
          y = layer.forward(x, false);
          if (bn_param >= 0) y = bn.forward(y, false);
        },
        50, 30.0);
    const double macs = static_cast<double>(y.numel()) * c.in_channels * c.kernel_t *
                        c.kernel_s * c.kernel_s;
    out.push_back({name, ms, 2.0 * macs / (ms * 1e6)});
    return y.shape();
  };
  const std::vector<int> s1 = conv("slow_stem", 0, 2, 0, {1, 1, t / alpha, h, w}, 1, 2, 0, 1);
  const std::vector<int> f1 = conv("fast_stem", 8, 10, 4, {1, 1, t, h, w}, 1, 2, 2, 1);
  const std::vector<int> l1 = conv("lateral1", 16, -1, 0, f1, alpha, 1, 0, 0);
  conv("slow_stage2", 4, 6, 2, {1, s1[1] + l1[1], s1[2], s1[3], s1[4]}, 1, 2, 1, 1);
  const std::vector<int> f2 = conv("fast_stage2", 12, 14, 6, f1, 1, 2, 1, 1);
  conv("lateral2", 18, -1, 0, f2, alpha, 1, 0, 0);

  const nn::Tensor& hw = p[20]->value;
  nn::Linear head(hw.dim(1), hw.dim(0));
  head.params()[0]->value = hw;
  head.params()[1]->value = p[21]->value;
  const nn::Tensor x = input({1, hw.dim(1)});
  nn::Tensor y;
  const double ms = mean_call_ms([&] { y = head.forward(x, false); }, 200, 10.0);
  out.push_back({"head", ms, 2.0 * hw.dim(0) * hw.dim(1) / (ms * 1e6)});
  return out;
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0, double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

using Windows = std::vector<std::pair<Weather, std::vector<Image>>>;

/// Span totals (ms) and call counts of the traced sequential replay.
struct Spans {
  std::vector<double> tick;  // per frame
  double forward = 0.0, journal = 0.0, snapshot = 0.0, other = 0.0;
  std::size_t model_verdicts = 0, journal_records = 0, snapshots = 0;
  std::vector<safecross::runtime::JournalRecord> decisions;  // as journaled
};

/// run_sequential()'s loop for one stream, rebuilt from public functions
/// with a span around every call: tick, model switch, classify_as, journal
/// append, apply, snapshot. `dur` is null for a non-durable workload.
/// Collects full collector windows every 50 frames into `windows`.
void traced_sequential(safecross::core::SafeCross& engine,
                       const safecross::serving::StreamConfig& sc, std::size_t frames,
                       const safecross::serving::DurabilityConfig* dur, Spans& s,
                       Windows& windows) {
  using safecross::core::SafeCross;
  using safecross::runtime::JournalRecord;
  using safecross::runtime::JournalRecordType;
  safecross::serving::StreamContext ctx(sc);
  ctx.set_record_trace(true);
  safecross::runtime::Journal journal;
  std::unique_ptr<safecross::serving::SnapshotStore> store;
  if (dur != nullptr) {
    store = std::make_unique<safecross::serving::SnapshotStore>(dur->dir, dur->keep_snapshots);
    journal.open(dur->dir / "journal.wal", dur->journal);
  }
  auto append = [&](const JournalRecord& r) {
    if (!journal.is_open()) return;
    s.journal += time_ms([&] { journal.append(r); });
    ++s.journal_records;
  };
  std::size_t since_snapshot = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    std::optional<safecross::serving::ReadyWindow> w;
    s.tick.push_back(time_ms([&] { w = ctx.tick(); }));
    const auto& win = ctx.collector().window();
    if ((f + 1) % 50 == 0 && win.size() == static_cast<std::size_t>(sc.vp.frames_per_segment) &&
        windows.size() < 48) {
      windows.push_back({sc.weather, std::vector<Image>(win.begin(), win.end())});
    }
    if (!w) continue;
    SafeCross::Decision d = SafeCross::fail_safe_decision(w->gate);
    double latency = 0.0;
    if (w->gate == DecisionSource::Model) {
      SafeCross::SceneChangeStatus st;
      s.other += time_ms([&] { st = engine.try_on_scene_change(w->model_weather); });
      if (st.ok && st.delay_ms > 0.0) {
        JournalRecord r;
        r.type = JournalRecordType::ModelSwitch;
        r.model_switch.weather = static_cast<std::uint8_t>(st.active);
        r.model_switch.delay_ms = st.delay_ms;
        append(r);
      }
      if (st.ok) {
        latency = time_ms([&] { d = engine.classify_as(st.active, w->window); });
        s.forward += latency;
        ++s.model_verdicts;
      } else {
        d = SafeCross::fail_safe_decision(DecisionSource::FailSafeSwitchInFlight);
      }
    }
    JournalRecord r;
    r.decision.seq = w->seq;
    r.decision.frame = w->frame;
    r.decision.danger_truth = w->danger_truth;
    r.decision.predicted_class = d.predicted_class;
    r.decision.prob_danger = d.prob_danger;
    r.decision.warn = d.warn;
    r.decision.source = static_cast<std::uint8_t>(d.source);
    r.decision.latency_ms = latency;
    append(r);
    s.decisions.push_back(r);
    s.other += time_ms(
        [&] { ctx.apply(*w, d.predicted_class, d.prob_danger, d.warn, d.source, latency); });
    if (store != nullptr && dur->snapshot_every_decisions > 0 &&
        ++since_snapshot >= dur->snapshot_every_decisions) {
      s.snapshot += time_ms([&] {
        safecross::common::StateWriter payload;
        ctx.save_state(payload);
        store->write(payload.take());
      });
      ++s.snapshots;
      since_snapshot = 0;
    }
  }
  if (journal.is_open()) {
    s.journal += time_ms([&] {
      journal.sync();
      journal.close();
    });
  }
}

}  // namespace

RunOutput traced_run(const Workload& w, const Args& a) {
  RunOutput out;
  const float warn_threshold = safecross::core::SafeCrossConfig{}.warn_threshold;
  const std::size_t frames = w.traced_frames;
  const bool fullvp = w.mode == PipelineMode::FullVP;
  auto engine = make_engine(w);

  // --- serving: the batched run over round 0's seeds.
  const auto cfg = server_config(w, a.seed, 0, frames, a.work_dir / "batched");
  safecross::serving::StreamServer batched(*engine, cfg);
  batched.run();
  check_server(batched, cfg, warn_threshold, /*batched=*/true, out.tally);

  // --- reference and trace, camera by camera so that each untraced
  // run_sequential() and its traced replay run back to back.
  double untraced_ms = 0.0;
  Spans spans;
  Windows windows;
  std::string payload;
  std::vector<double> collector_ms;
  SimVisionTimes sv;
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    auto one = cfg;
    one.streams = {cfg.streams[i]};
    one.durability.dir = w.durable ? a.work_dir / ("sequential-" + std::to_string(i)) : "";
    safecross::serving::StreamServer sequential(*engine, one);
    untraced_ms += time_ms([&] { sequential.run_sequential(); });
    Tally seq_tally;
    check_server(sequential, one, warn_threshold, /*batched=*/false, seq_tally);
    for (const std::string& e : seq_tally.errors) out.tally.error("sequential: " + e);
    if (seq_tally.failed != 0) out.tally.error("sequential: verdicts failed their checks");
    check_traces_equal(batched.stream(i).trace(), sequential.stream(0).trace(),
                       cfg.streams[i].name, out.tally);
    safecross::common::StateWriter state;
    sequential.stream(0).save_state(state);
    payload += state.bytes();

    auto dur = one.durability;
    dur.dir = a.work_dir / ("traced-" + std::to_string(i));
    traced_sequential(*engine, cfg.streams[i], frames, w.durable ? &dur : nullptr, spans, windows);

    // --- dataset + sim + vision, standalone on the same camera's seeds,
    // right after its replay so that host speed drifts hit both alike.
    const auto& sc = cfg.streams[i];
    safecross::sim::TrafficSimulator sim(safecross::sim::weather_params(sc.weather), sc.sim_seed);
    const safecross::sim::CameraModel camera(sim.intersection().geometry());
    safecross::dataset::SegmentCollector collector(sim, camera, sc.vp, sc.collector_seed);
    for (std::size_t f = 0; f < frames; ++f) {
      collector_ms.push_back(time_ms([&] { collector.step(); }));
    }
    time_sim_vision(sc, frames, fullvp ? frames : std::min(frames, kUnservedRenderFrames), sv);
  }
  if (windows.empty()) throw std::runtime_error("no full collector window to classify");
  const auto& sc0 = cfg.streams[0];

  // --- core: classify at batch 1 and batch 8 on the collected windows.
  std::size_t next = 0;
  const double b1_ms = mean_call_ms(
      [&] {
        const auto& [weather, win] = windows[next++ % windows.size()];
        engine->classify_as(weather, win);
      },
      128, 100.0);
  std::map<Weather, std::vector<const std::vector<Image>*>> by_weather;
  for (const auto& [weather, win] : windows) by_weather[weather].push_back(&win);
  std::vector<std::pair<Weather, std::vector<const std::vector<Image>*>>> batches8;
  for (const auto& [weather, wins] : by_weather) {
    const std::size_t nb = std::max<std::size_t>(1, wins.size() / 8);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      std::vector<const std::vector<Image>*> batch;
      for (std::size_t i = 0; i < 8; ++i) batch.push_back(wins[(bi * 8 + i) % wins.size()]);
      batches8.push_back({weather, std::move(batch)});
    }
  }
  next = 0;
  const double b8_ms = mean_call_ms(
      [&] {
        const auto& [weather, wins] = batches8[next++ % batches8.size()];
        engine->classify_batch_as(weather, wins);
      },
      32, 100.0) / 8.0;

  // --- nn: per layer, on the served model of camera 0's weather.
  auto* served = dynamic_cast<safecross::models::SlowFast*>(&engine->model_for(sc0.weather));
  if (served == nullptr) throw std::runtime_error("served model is not SlowFast");
  const Image& frame0 = windows[0].second[0];
  const std::vector<NnLayerTime> nn_times =
      time_nn_layers(*served, sc0.vp.frames_per_segment, frame0.height(), frame0.width(),
                     derive_seed(a.seed, 0, 0, 0x4E4E));

  // --- runtime: journal appends and snapshot writes, standalone in a fresh
  // directory, with the default journal config and the run's final state.
  const auto rt_dir = a.work_dir / "runtime";
  std::filesystem::create_directories(rt_dir);
  double journal_ms = 0.0, journal_bytes = 0.0;
  {
    std::vector<safecross::runtime::JournalRecord> records = spans.decisions;
    if (records.empty()) records.emplace_back();
    const auto path = rt_dir / "journal.wal";
    safecross::runtime::Journal journal;
    journal.open(path, safecross::runtime::JournalConfig{});
    std::size_t appended = 0;
    journal_ms = mean_call_ms([&] { journal.append(records[appended++ % records.size()]); },
                              256, 50.0);
    journal.close();
    journal_bytes = static_cast<double>(std::filesystem::file_size(path) -
                                        safecross::runtime::Journal::kHeaderBytes) /
                    static_cast<double>(appended);
  }
  double snapshot_ms = 0.0;
  {
    safecross::serving::SnapshotStore store(rt_dir / "snapshots",
                                            cfg.durability.keep_snapshots);
    snapshot_ms = mean_call_ms([&] { store.write(payload); }, 16, 50.0);
  }

  // --- reference checks on the batched run's verdicts.
  std::vector<std::vector<safecross::serving::DecisionRecord>> traces;
  for (std::size_t i = 0; i < batched.stream_count(); ++i) traces.push_back(batched.stream(i).trace());
  out.lines.push_back(reference_checks(*engine, cfg, traces, derive_seed(a.seed, 0, 0, 0x5A3D),
                                       out.tally));

  // --- the ledger: the traced replay's spans against the untraced wall.
  const double n = static_cast<double>(spans.tick.size());
  const double sim_per_frame = mean(sv.step) + (fullvp ? mean(sv.render) : mean(sv.rasterize));
  const double collector_per_frame = mean(collector_ms);
  double tick_total = 0.0;
  for (double t : spans.tick) tick_total += t;
  struct Row {
    std::string stage;
    double ms;
    std::string what;
  };
  const std::vector<Row> rows = {
      {"sim", n * sim_per_frame,
       fullvp ? "frames x (step + render): simulated world"
              : "frames x (step + rasterize): simulated world"},
      {"vp", n * (collector_per_frame - sim_per_frame),
       fullvp ? "frames x (collector step - sim): bg-sub, opening, warp, threshold"
              : "frames x (collector step - sim): FastTopdown noise"},
      {"serving", tick_total - n * collector_per_frame + spans.other,
       "tick spans - collector steps (gates, window copy) + switch + apply spans"},
      {"forward", spans.forward, "classify_as spans"},
      {"journal", spans.journal, "Journal::append spans"},
      {"snapshot", spans.snapshot, "SnapshotStore::write spans"},
  };
  out.lines.push_back(fmt("ledger: %.0f frames, %.0f model verdicts, ", n,
                          static_cast<double>(spans.model_verdicts)) +
                      fmt("%.0f journal records, %.0f snapshots (run_sequential, camera by camera)",
                          static_cast<double>(spans.journal_records),
                          static_cast<double>(spans.snapshots)));
  double total = 0.0;
  for (const Row& r : rows) {
    total += r.ms;
    char line[256];
    std::snprintf(line, sizeof(line), "ledger  %-9s %10.1f ms  %s", r.stage.c_str(), r.ms,
                  r.what.c_str());
    out.lines.push_back(line);
  }
  const double remainder = untraced_ms - total;
  out.lines.push_back(fmt("ledger  total     %10.1f ms  vs untraced single-thread wall %.1f ms; "
                          "unattributed %.1f ms (%.1f%%)",
                          total, untraced_ms, remainder, 100.0 * remainder / untraced_ms));
  if (!(std::fabs(remainder) <= kLedgerTolerance * untraced_ms)) {
    out.tally.error(fmt("ledger: stage total %.1f ms and single-thread wall %.1f ms differ by "
                        "more than %.0f%%",
                        total, untraced_ms, 100.0 * kLedgerTolerance));
  }
  if (!w.largest_stage.empty()) {
    // The simulated world is the load generator, not the system: rank the
    // system's stages only.
    const Row* top = nullptr;
    for (const Row& r : rows) {
      if (r.stage != "sim" && (top == nullptr || r.ms > top->ms)) top = &r;
    }
    out.lines.push_back("ledger: largest system stage " + top->stage + " (expected " +
                        w.largest_stage + ")");
    if (top->stage != w.largest_stage) {
      out.tally.error("ledger: largest system stage is " + top->stage + ", not " +
                      w.largest_stage);
    }
  }

  // --- metrics.
  std::vector<double> waits;
  std::size_t deadline_fired = 0, high_water = 0, window_copies = 0;
  for (const auto& bl : batched.batch_log()) {
    waits.push_back(bl.max_wait_ms);
    deadline_fired += bl.fired_by_deadline ? 1 : 0;
  }
  for (std::size_t i = 0; i < batched.stream_count(); ++i) {
    high_water = std::max(high_water, batched.queue_high_water(i));
  }
  // Bytes one model window's copy out of the collector holds.
  for (const Image& img : windows[0].second) window_copies += img.size() * sizeof(float);
  const double nbatches = static_cast<double>(batched.batch_log().size());
  out.metrics = {
      {"sim.step_ms", "ms", mean(sv.step)},
      {"sim.render_ms", "ms", mean(sv.render)},
      {"sim.rasterize_ms", "ms", mean(sv.rasterize)},
      {"vision.bgsub_ms", "ms", mean(sv.bgsub)},
      {"vision.opening_ms", "ms", mean(sv.opening)},
      {"vision.warp_ms", "ms", mean(sv.warp)},
      {"vision.warp_read_fraction", "fraction", warp_read_fraction(sc0)},
      {"dataset.collector_step_ms", "ms", collector_per_frame},
      {"serving.tick_ms", "ms", mean(spans.tick)},
      {"serving.window_copy_bytes", "bytes", static_cast<double>(window_copies)},
      {"serving.batch_size_mean", "windows",
       nbatches > 0 ? static_cast<double>(batched.windows_batched()) / nbatches : 0.0},
      {"serving.batch_wait_p50_ms", "ms", percentile(waits, 50.0)},
      {"serving.deadline_fired_fraction", "fraction",
       nbatches > 0 ? static_cast<double>(deadline_fired) / nbatches : 0.0},
      {"serving.queue_high_water", "windows", static_cast<double>(high_water)},
      {"core.classify_b1_ms", "ms", b1_ms},
      {"core.classify_b8_ms_per_window", "ms", b8_ms},
      {"core.engine_switches", "count", static_cast<double>(batched.engine_switches())},
  };
  for (const NnLayerTime& l : nn_times) {
    out.metrics.push_back({"nn." + l.name + "_ms", "ms", l.ms});
    out.metrics.push_back({"nn." + l.name + "_gflops", "GFLOP/s", l.gflops});
  }
  out.metrics.push_back({"runtime.journal_append_ms", "ms", journal_ms});
  out.metrics.push_back({"runtime.journal_bytes_per_verdict", "bytes", journal_bytes});
  out.metrics.push_back({"runtime.snapshot_write_ms", "ms", snapshot_ms});
  out.metrics.push_back(
      {"reference.sequential_frames_per_s", "frames/s", 1000.0 * n / untraced_ms});
  return out;
}

}  // namespace e2e
