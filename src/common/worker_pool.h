// One process-wide pool of worker threads for data-parallel parts of a
// single call: the bricked select splits a brick batch into parts that
// CRC-check, decode, classify and deduplicate on all cores.
//
// Run(parts, fn) calls fn(0) .. fn(parts - 1), each exactly once, and
// returns when every part has finished. Parts are claimed by index, by
// the pool's workers and by the calling thread alike, so the caller
// runs every part no worker has taken: a saturated pool (every worker
// busy with other callers' parts) falls back to the serial loop on the
// calling thread and cannot deadlock. A call made from a pool thread
// runs inline.
//
// Errors: every part runs even when another throws, and Run then
// rethrows the exception of the lowest-index part that threw, so the
// error a caller sees does not depend on scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vizndp {

class WorkerPool {
 public:
  // Starts `workers` threads; they block while idle.
  explicit WorkerPool(size_t workers);
  ~WorkerPool();  // joins the workers

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Threads one call can use at once: the workers plus the caller.
  size_t threads() const { return workers_.size() + 1; }

  void Run(size_t parts, const std::function<void(size_t)>& fn);

 private:
  struct Job;
  void WorkerLoop();
  // Claims `job`'s next part; the claim of its last part takes the job
  // off the queue. mu_ held.
  size_t Claim(Job& job);
  // Runs part `part` of `job` with mu_ released, then counts it done.
  void RunPart(Job& job, size_t part, std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable wake_;  // a job was queued, or stop_ was set
  std::deque<Job*> queue_;        // jobs with unclaimed parts, oldest first
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: started after what they use
};

// The process's pool: hardware threads - 1 workers (none on one core),
// started at the first call.
WorkerPool& DefaultPool();

}  // namespace vizndp
