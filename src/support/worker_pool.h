// Process-wide pool of persistent worker threads, addressed by index.
//
// A job sent to worker w runs on w's own thread, after every job sent to
// w before it. A caller that hands the same share of the same work to the
// same worker every time therefore keeps that work's heap in one malloc
// arena: glibc returns freed memory to the arena of the thread that
// allocated it, so a worker that refills what it freed last time needs no
// new memory. The partitioned source setup relies on this (DESIGN.md §6
// item 13, "Parallel chunks").
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace cgp::support {

class WorkerPool {
 public:
  /// The process's pool: one worker per CPU beyond the calling thread's
  /// (hardware_concurrency() - 1), and at least one.
  static WorkerPool& instance();

  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();  // quiesce()
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Queues `job` on worker `worker % size()`, starting that worker's
  /// thread if it is not running. The future completes when the job has
  /// run and carries the exception it threw, if any.
  std::future<void> submit(std::size_t worker, std::function<void()> job);

  /// Lets every running worker finish its queued jobs, then joins it; the
  /// next submit starts a fresh thread. No other thread may submit
  /// meanwhile. A process calls this before it forks, so that it forks
  /// with no pool thread alive (runner_proc.cpp).
  void quiesce();

 private:
  struct Worker;
  void loop(Worker& worker);

  std::mutex mutex_;
  bool stopping_ = false;  // guarded by mutex_; set only inside quiesce()
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cgp::support
