#include "support/worker_pool.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

namespace cgp::support {

struct WorkerPool::Worker {
  std::condition_variable wake;
  std::deque<std::packaged_task<void()>> jobs;  // guarded by the pool's mutex_
  std::thread thread;
};

WorkerPool& WorkerPool::instance() {
  // The constructor raises a one-CPU host's zero workers to one.
  static WorkerPool pool(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

WorkerPool::WorkerPool(std::size_t workers) {
  workers_.resize(std::max<std::size_t>(1, workers));
  for (auto& worker : workers_) worker = std::make_unique<Worker>();
}

WorkerPool::~WorkerPool() { quiesce(); }

std::future<void> WorkerPool::submit(std::size_t worker,
                                     std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  std::future<void> done = task.get_future();
  Worker& w = *workers_[worker % workers_.size()];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.jobs.push_back(std::move(task));
    if (!w.thread.joinable()) w.thread = std::thread([this, &w] { loop(w); });
  }
  w.wake.notify_one();
  return done;
}

void WorkerPool::loop(Worker& worker) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    worker.wake.wait(lock,
                     [&] { return stopping_ || !worker.jobs.empty(); });
    if (worker.jobs.empty()) return;  // stopping, with nothing left to run
    std::packaged_task<void()> job = std::move(worker.jobs.front());
    worker.jobs.pop_front();
    lock.unlock();
    job();     // an exception lands in the job's future
    job = {};  // its captures die outside the lock
    lock.lock();
  }
}

void WorkerPool::quiesce() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& worker : workers_) {
      if (!worker->thread.joinable()) continue;
      threads.push_back(std::move(worker->thread));
      worker->wake.notify_one();
    }
  }
  for (std::thread& thread : threads) thread.join();
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = false;
}

}  // namespace cgp::support
