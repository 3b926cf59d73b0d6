// Timing utilities for the reproduction benches: a wall-clock stopwatch,
// summary statistics over repetitions, and the combined real+virtual
// load timer that implements the paper's "data load time" metric on the
// emulated testbed (measured compute + modeled I/O; see DESIGN.md).
#pragma once

#include <chrono>
#include <vector>

#include "net/link_model.h"
#include "storage/ssd_model.h"

namespace vizndp::bench_util {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct Summary {
  double mean = 0, min = 0, max = 0, stddev = 0;
  size_t count = 0;
};

Summary Summarize(const std::vector<double>& samples);

// Measures one load operation: real seconds on the calling thread plus
// virtual seconds charged to the link and SSD models in the interval.
class LoadTimer {
 public:
  LoadTimer(const net::SimulatedLink& link, const storage::SsdModel& ssd)
      : link_(link),
        ssd_(ssd),
        link0_(link.virtual_seconds()),
        ssd0_(ssd.virtual_seconds()),
        bytes0_(link.bytes_transferred()) {}

  struct Result {
    double total_s = 0;    // real + virtual
    double real_s = 0;     // measured compute (decompress, filter, copy)
    double network_s = 0;  // modeled link time
    double storage_s = 0;  // modeled SSD/MinIO time
    std::uint64_t network_bytes = 0;
  };

  Result Stop() const {
    Result r;
    r.real_s = clock_.Seconds();
    r.network_s = link_.virtual_seconds() - link0_;
    r.storage_s = ssd_.virtual_seconds() - ssd0_;
    r.network_bytes = link_.bytes_transferred() - bytes0_;
    r.total_s = r.real_s + r.network_s + r.storage_s;
    return r;
  }

 private:
  const net::SimulatedLink& link_;
  const storage::SsdModel& ssd_;
  Stopwatch clock_;
  double link0_;
  double ssd0_;
  std::uint64_t bytes0_;
};

}  // namespace vizndp::bench_util
