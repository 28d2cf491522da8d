#include "workload.h"

#include "models/slowfast.h"

namespace e2e {

namespace {

// A round is one StreamServer::run(). Subjects first wait at the stop line
// some 600-1200 frames into a fresh simulation, so a round needs well over
// that many frames to decide at all; timed runs repeat whole rounds until
// --seconds pass. Traced sizes keep the single-thread reference short.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fullvp_day", PipelineMode::FullVP, {Weather::Daytime, Weather::Daytime, Weather::Daytime},
       /*decision_stride=*/1, /*round_frames=*/1800, /*traced_frames=*/1200, /*durable=*/false,
       /*largest_stage=*/"vp"},
      {"topdown_day_dense", PipelineMode::FastTopdown,
       {Weather::Daytime, Weather::Daytime, Weather::Daytime},
       /*decision_stride=*/1, /*round_frames=*/3600, /*traced_frames=*/3600, /*durable=*/false,
       /*largest_stage=*/"forward"},
      {"topdown_mixed_durable", PipelineMode::FastTopdown,
       {Weather::Daytime, Weather::Rain, Weather::Snow},
       /*decision_stride=*/1, /*round_frames=*/3600, /*traced_frames=*/3600, /*durable=*/true,
       /*largest_stage=*/""},
  };
  return all;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t round, std::uint64_t camera,
                          std::uint64_t salt) {
  return splitmix64(splitmix64(splitmix64(splitmix64(seed) ^ round) ^ camera) ^ salt);
}

std::unique_ptr<safecross::core::SafeCross> make_engine(const Workload& w) {
  safecross::core::SafeCrossConfig cfg;
  auto engine = std::make_unique<safecross::core::SafeCross>(cfg);
  for (Weather weather : w.cameras) {
    if (engine->has_model(weather)) continue;
    safecross::models::SlowFastConfig mc = cfg.model;
    mc.init_seed = cfg.model.init_seed + static_cast<std::uint64_t>(weather);
    engine->set_model(weather, std::make_unique<safecross::models::SlowFast>(mc));
  }
  return engine;
}

safecross::serving::StreamServerConfig server_config(const Workload& w, std::uint64_t seed,
                                                     std::uint64_t round, std::size_t frames,
                                                     const std::filesystem::path& durable_dir) {
  safecross::serving::StreamServerConfig cfg;
  cfg.frames = frames;
  // Durability forbids shedding, and the checks need every window decided.
  cfg.shed_on_overload = false;
  // Per-seq verdicts, for the conservation, property and reference checks.
  cfg.record_traces = true;
  if (w.durable) cfg.durability.dir = durable_dir;
  for (std::size_t c = 0; c < w.cameras.size(); ++c) {
    safecross::serving::StreamConfig s;
    s.name = "cam" + std::to_string(c);
    s.weather = w.cameras[c];
    s.sim_seed = derive_seed(seed, round, c, 1);
    s.collector_seed = derive_seed(seed, round, c, 2);
    s.decision_stride = w.decision_stride;
    s.vp.mode = w.mode;
    cfg.streams.push_back(std::move(s));
  }
  return cfg;
}

}  // namespace e2e
