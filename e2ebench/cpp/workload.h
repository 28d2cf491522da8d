#pragma once
// Workload definitions for the camera→verdict benchmark: which cameras
// run, on which VP path, how densely they decide, and how every stream
// seed derives from the workload seed. The program under test receives
// only the StreamServerConfig built here.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/safecross.h"
#include "serving/stream_server.h"

namespace e2e {

using safecross::dataset::PipelineMode;
using safecross::dataset::Weather;

struct Workload {
  std::string name;
  PipelineMode mode = PipelineMode::FastTopdown;
  std::vector<Weather> cameras;   // one sim weather (and model) per camera
  int decision_stride = 1;        // frames between decisions while a subject waits
  std::size_t round_frames = 0;   // frame slots per camera in one timed round
  std::size_t traced_frames = 0;  // frame slots per camera in the traced run
  bool durable = false;           // write-ahead journal + periodic snapshots
  /// The system stage the traced ledger must rank largest ("vp",
  /// "forward"), or empty for no claim.
  std::string largest_stage;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// splitmix64 of (seed, round, camera, salt): every stream seed of round
/// `round` derives from the workload seed alone.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t round, std::uint64_t camera,
                          std::uint64_t salt);

/// The engine with one distinct, deterministically initialised (untrained)
/// default SlowFast per weather the workload serves.
std::unique_ptr<safecross::core::SafeCross> make_engine(const Workload& w);

/// Server config for one round. `durable_dir` must be a fresh directory
/// when the workload is durable; it is ignored otherwise.
safecross::serving::StreamServerConfig server_config(const Workload& w, std::uint64_t seed,
                                                     std::uint64_t round, std::size_t frames,
                                                     const std::filesystem::path& durable_dir);

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace e2e
