#pragma once
// Output checks applied to every server run the benchmark makes:
// conservation (every frame ran, every produced window got exactly one
// applied verdict, nothing shed, no stream down) and the properties each
// verdict is guaranteed to have (P(danger) in [0, 1]; a model verdict warns
// exactly when P(danger) >= warn_threshold and its class agrees with the
// softmax row; a fail-safe verdict always warns).

#include <cstddef>
#include <string>
#include <vector>

#include "serving/stream_server.h"

namespace e2e {

/// Operation accounting. An operation is a produced window; it fails when
/// it has no applied verdict or its verdict fails a check. Errors that are
/// not tied to one window (a stream that did not run its frames, a shed
/// window) are kept in `errors` and make the run incorrect.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void error(std::string what);
  bool ok() const { return failed == 0 && errors.empty(); }
};

/// Conservation and verdict properties of a finished run() (`batched`) or
/// run_sequential(). Adds the run's windows to `t.attempted`.
void check_server(const safecross::serving::StreamServer& server,
                  const safecross::serving::StreamServerConfig& cfg, float warn_threshold,
                  bool batched, Tally& t);

/// Bit-for-bit equality of one stream's verdict trace in two runs of the
/// same stream config (batched run() against the run_sequential()
/// reference).
void check_traces_equal(const std::vector<safecross::serving::DecisionRecord>& batched,
                        const std::vector<safecross::serving::DecisionRecord>& sequential,
                        const std::string& name, Tally& t);

}  // namespace e2e
