#include "common/worker_pool.h"

#include <algorithm>
#include <exception>

namespace vizndp {

namespace {

thread_local bool t_pool_thread = false;

}  // namespace

// Lives on the caller's stack for the length of one Run. A worker
// touches it only between its claim and the completion count, both
// under mu_, and Run returns only once every part has counted.
struct WorkerPool::Job {
  Job(const std::function<void(size_t)>& fn, size_t parts)
      : fn(fn), parts(parts) {}

  const std::function<void(size_t)>& fn;
  size_t parts;
  size_t next = 0;      // next unclaimed part
  size_t finished = 0;  // parts that have returned or thrown
  size_t error_part = 0;
  std::exception_ptr error;  // of the lowest-index part that threw
  std::condition_variable done;
};

WorkerPool::WorkerPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::Run(size_t parts, const std::function<void(size_t)>& fn) {
  Job job(fn, parts);
  std::unique_lock lock(mu_);
  if (parts > 1 && !workers_.empty() && !t_pool_thread) {
    queue_.push_back(&job);
    const size_t helpers = std::min(parts, threads()) - 1;
    for (size_t i = 0; i < helpers; ++i) wake_.notify_one();
  }
  while (job.next < job.parts) RunPart(job, Claim(job), lock);
  job.done.wait(lock, [&] { return job.finished == job.parts; });
  if (job.error) std::rethrow_exception(job.error);
}

size_t WorkerPool::Claim(Job& job) {
  const size_t part = job.next++;
  if (job.next == job.parts) std::erase(queue_, &job);
  return part;
}

void WorkerPool::RunPart(Job& job, size_t part,
                         std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    job.fn(part);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && (!job.error || part < job.error_part)) {
    job.error = error;
    job.error_part = part;
  }
  // Notified under mu_: the caller cannot wake, return and destroy the
  // job before this thread lets go of the lock.
  if (++job.finished == job.parts) job.done.notify_one();
}

void WorkerPool::WorkerLoop() {
  t_pool_thread = true;
  std::unique_lock lock(mu_);
  while (true) {
    wake_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Job& job = *queue_.front();
    RunPart(job, Claim(job), lock);
  }
}

WorkerPool& DefaultPool() {
  // Leaked: outlives all users, like the process's registry and tracer.
  static WorkerPool* pool = new WorkerPool(
      std::max(std::thread::hardware_concurrency(), 1u) - 1);
  return *pool;
}

}  // namespace vizndp
