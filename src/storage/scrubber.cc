#include "storage/scrubber.h"

#include <utility>

#include "common/error.h"
#include "net/retry.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace vizndp::storage {

namespace {

obs::Gauge& QuarantinedGauge() {
  static obs::Gauge& g =
      obs::DefaultRegistry().GetGauge("scrub_quarantined");
  return g;
}

obs::Counter& PassCounter() {
  static obs::Counter& c =
      obs::DefaultRegistry().GetCounter("scrub_pass_total");
  return c;
}

const obs::Audit kObjectError("scrub_object_error_total",
                               "scrub.object_error");

}  // namespace

bool QuarantineSet::Add(const BrickRef& brick) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool added = bricks_.insert(brick).second;
  if (added) QuarantinedGauge().Set(static_cast<double>(bricks_.size()));
  return added;
}

bool QuarantineSet::Remove(const BrickRef& brick) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool removed = bricks_.erase(brick) > 0;
  if (removed) QuarantinedGauge().Set(static_cast<double>(bricks_.size()));
  return removed;
}

bool QuarantineSet::Contains(const std::string& key, const std::string& array,
                             std::int64_t brick) const {
  std::lock_guard<std::mutex> lock(mu_);
  return bricks_.count(BrickRef{key, array, brick}) > 0;
}

size_t QuarantineSet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bricks_.size();
}

std::vector<BrickRef> QuarantineSet::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<BrickRef>(bricks_.begin(), bricks_.end());
}

Scrubber::Scrubber(FileGateway gateway, ScrubVerifier verifier,
                   QuarantineSet& quarantine, ScrubberOptions options)
    : gateway_(std::move(gateway)),
      verifier_(std::move(verifier)),
      quarantine_(quarantine),
      options_(std::move(options)) {}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  status_.running = true;
  thread_ = std::thread([this] { ThreadMain(); });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  status_.running = false;
}

ScrubObjectReport Scrubber::RunPassNow() {
  ScrubObjectReport pass;
  std::vector<ObjectInfo> keys;
  try {
    keys = gateway_.List();
  } catch (const Error&) {
    // A store that cannot even list heals or fails on the serving path;
    // the scrubber just tries again next pass.
    kObjectError.Record("op=list");
    return pass;
  }
  std::uint64_t objects = 0;
  for (const ObjectInfo& info : keys) {
    const std::string& suffix = options_.key_suffix;
    if (info.key.size() < suffix.size() ||
        info.key.compare(info.key.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    ++objects;
    try {
      const ScrubObjectReport report = verifier_(info.key);
      pass.bricks_checked += report.bricks_checked;
      pass.corrupt += report.corrupt;
      pass.quarantined += report.quarantined;
      pass.readmitted += report.readmitted;
      pass.budget_skips += report.budget_skips;
    } catch (const Error&) {
      // Unreadable or unparseable object: the serving path has its own
      // ladder for this; scrubbing moves on and retries next pass.
      kObjectError.Record("key=" + info.key);
    }
    if (options_.per_object_pause.count() > 0) {
      std::this_thread::sleep_for(options_.per_object_pause);
    }
  }
  PassCounter().Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++status_.passes;
    status_.objects_checked += objects;
    status_.bricks_checked += pass.bricks_checked;
    status_.corrupt_found += pass.corrupt;
    status_.readmitted += pass.readmitted;
    status_.budget_skips += pass.budget_skips;
  }
  return pass;
}

ScrubStatus Scrubber::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  ScrubStatus out = status_;
  out.quarantined_now = quarantine_.size();
  return out;
}

std::chrono::milliseconds Scrubber::NextSleep(std::uint64_t pass) {
  // Jitter is a pure function of (seed, pass) so a seeded run replays:
  // uniform in [period * (1 - jitter), period].
  const double u =
      static_cast<double>(net::MixBits(options_.seed ^ pass) >> 11) *
      0x1.0p-53;
  const double scale = 1.0 - options_.jitter * u;
  const auto ms = static_cast<std::int64_t>(
      static_cast<double>(options_.period.count()) * scale);
  return std::chrono::milliseconds(ms < 1 ? 1 : ms);
}

void Scrubber::ThreadMain() {
  std::uint64_t pass = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, NextSleep(pass), [this] { return stop_; });
      if (stop_) return;
    }
    RunPassNow();
    ++pass;
  }
}

}  // namespace vizndp::storage
