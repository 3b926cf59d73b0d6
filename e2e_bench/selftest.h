// The benchmark's own checks, run at the start of every invocation on
// small grids (a second or so):
//   * decorator byte and frame counts match the frames the other end
//     received and sent, one-shot and streamed, on a 32^3 grid;
//   * the reducer gives the right self times on a hand-built span forest;
//   * the oracle comparison rejects a perturbed PolyData;
//   * the same seed gives the same request sequence and the same wire
//     bytes per contour, on every workload's wiring at 32^3.
#pragma once

#include <ostream>

namespace vizndp::e2e {

// Logs each failure to `log`; true when all pass.
bool RunSelfTests(std::ostream& log);

}  // namespace vizndp::e2e
