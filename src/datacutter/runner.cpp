#include "datacutter/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "datacutter/checkpoint.h"
#include "datacutter/runner_internal.h"

namespace cgp::dc {

namespace {

using detail::Clock;
using detail::seconds_since;

/// Validates a resume checkpoint against the pipeline's stage list and
/// replica counts. Returns an empty string on match; otherwise a
/// side-by-side diff of expected vs. checkpointed stages × replicas,
/// ready to be thrown.
std::string resume_mismatch_diff(const std::vector<FilterGroup>& groups,
                                 const RunCheckpoint& cut) {
  const std::size_t n_groups = groups.size();
  bool ok = true;
  if (cut.source_copies.size() != static_cast<std::size_t>(groups[0].copies))
    ok = false;
  if (!cut.group_copies.empty()) {
    if (cut.group_copies.size() != n_groups) ok = false;
    for (std::size_t gi = 0; ok && gi < n_groups; ++gi)
      if (cut.group_copies[gi] != groups[gi].copies) ok = false;
  }
  // The file must hold exactly one part per (consuming group, copy).
  std::map<std::string, std::set<int>> parts;
  std::vector<std::string> file_order;  // first-appearance order
  for (const StageSnapshot& s : cut.stages) {
    if (parts.find(s.group) == parts.end()) file_order.push_back(s.group);
    if (!parts[s.group].insert(s.copy).second) ok = false;  // duplicate part
  }
  if (file_order.size() != n_groups - 1) ok = false;
  for (std::size_t gi = 1; gi < n_groups; ++gi) {
    const auto it = parts.find(groups[gi].name);
    if (it == parts.end()) {
      ok = false;
      continue;
    }
    if (it->second.size() != static_cast<std::size_t>(groups[gi].copies)) {
      ok = false;
      continue;
    }
    for (int c = 0; c < groups[gi].copies; ++c)
      if (it->second.count(c) == 0) ok = false;
  }
  if (ok) return {};

  // Side-by-side diff: one row per stage, expected on the left, the
  // checkpoint's record on the right, mismatching rows flagged.
  const auto row_label = [](const std::string& name, std::size_t copies) {
    return name + " x" + std::to_string(copies);
  };
  std::vector<std::string> left, right;
  std::vector<bool> bad;
  const std::size_t rows = std::max(n_groups, file_order.size() + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    std::string l = "(missing)";
    std::string rr = "(missing)";
    bool mismatch = false;
    if (r < n_groups)
      l = row_label(groups[r].name,
                    static_cast<std::size_t>(groups[r].copies));
    if (r == 0) {
      rr = row_label("(source)", cut.source_copies.size());
      mismatch = cut.source_copies.size() !=
                 static_cast<std::size_t>(groups[0].copies);
    } else if (r - 1 < file_order.size()) {
      const std::string& name = file_order[r - 1];
      rr = row_label(name, parts[name].size());
      mismatch = r >= n_groups || name != groups[r].name ||
                 parts[name].size() !=
                     static_cast<std::size_t>(groups[r].copies);
    } else {
      mismatch = true;
    }
    if (r >= n_groups) mismatch = true;
    left.push_back(std::move(l));
    right.push_back(std::move(rr));
    bad.push_back(mismatch);
  }
  std::size_t width = std::string("pipeline").size();
  for (const std::string& l : left) width = std::max(width, l.size());
  std::ostringstream msg;
  msg << "PipelineRunner: resume checkpoint does not match the pipeline "
         "(stages x replicas):\n";
  msg << "     " << "pipeline" << std::string(width - 8 + 4, ' ')
      << "checkpoint";
  for (std::size_t r = 0; r < rows; ++r) {
    msg << '\n'
        << (bad[r] ? "  != " : "     ") << left[r]
        << std::string(width - left[r].size() + 4, ' ') << right[r];
  }
  return msg.str();
}

}  // namespace

support::PipelineTrace detail::trace_skeleton(
    const std::vector<FilterGroup>& groups, const RunnerConfig& config,
    const FaultPolicy& policy) {
  support::PipelineTrace trace;
  trace.fault_policy = FaultPolicy::action_name(policy.action);
  trace.batch_size = static_cast<std::int64_t>(config.batch_size);
  for (const FilterGroup& g : groups) {
    trace.stage_metrics.emplace_back().name = g.name;
    trace.stage_replicas.push_back(g.copies);
  }
  trace.link_metrics.resize(groups.size() - 1);
  for (support::LinkMetrics& link : trace.link_metrics)
    link.transport = backend_name(config.backend);
  return trace;
}

detail::StallWatch::StallWatch(const std::vector<FilterGroup>& groups,
                               double timeout_seconds,
                               Clock::time_point start)
    : groups_(groups),
      timeout_seconds_(timeout_seconds),
      start_(start),
      last_progress_(groups.size(), -1),
      stalled_since_(groups.size()),
      stalled_(groups.size(), 0) {}

std::optional<support::FaultRecord> detail::StallWatch::sample(
    std::size_t gi, int live, int waiting, std::int64_t progress,
    Clock::time_point now) {
  if (fired_) return std::nullopt;
  if (live <= 0) {
    stalled_[gi] = 0;
    return std::nullopt;
  }
  if (progress != last_progress_[gi] || waiting >= live) {
    last_progress_[gi] = progress;
    stalled_[gi] = 0;
    return std::nullopt;
  }
  if (!stalled_[gi]) {
    stalled_[gi] = 1;
    stalled_since_[gi] = now;
    return std::nullopt;
  }
  if (std::chrono::duration<double>(now - stalled_since_[gi]).count() <
      timeout_seconds_)
    return std::nullopt;
  fired_ = true;
  std::ostringstream msg;
  msg << "watchdog: stage '" << groups_[gi].name << "' made no progress for "
      << timeout_seconds_ << "s";
  support::FaultRecord fault;
  fault.group = groups_[gi].name;
  fault.copy = -1;
  fault.what = msg.str();
  fault.resolution = support::FaultResolution::kWatchdog;
  fault.at_seconds = seconds_since(start_);
  return fault;
}

const char* FaultPolicy::action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kFailFast:
      return "fail-fast";
    case FaultAction::kRestartCopy:
      return "restart-copy";
    case FaultAction::kDropPacket:
      return "drop-packet";
  }
  return "fail-fast";
}

std::optional<FaultAction> FaultPolicy::parse_action(std::string_view name) {
  if (name == "fail-fast") return FaultAction::kFailFast;
  if (name == "restart-copy") return FaultAction::kRestartCopy;
  if (name == "drop-packet") return FaultAction::kDropPacket;
  return std::nullopt;
}

PipelineRunner::PipelineRunner(std::vector<FilterGroup> groups,
                               std::size_t stream_capacity,
                               FaultPolicy policy)
    : PipelineRunner(std::move(groups),
                     RunnerConfig{stream_capacity, 1, 64}, policy) {}

PipelineRunner::PipelineRunner(std::vector<FilterGroup> groups,
                               RunnerConfig config, FaultPolicy policy)
    : groups_(std::move(groups)), config_(config), policy_(policy) {
  if (config_.stream_capacity == 0) config_.stream_capacity = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (groups_.empty())
    throw std::invalid_argument("PipelineRunner: empty pipeline");
  for (const FilterGroup& g : groups_) {
    if (!g.factory)
      throw std::invalid_argument("PipelineRunner: group '" + g.name +
                                  "' has no factory");
    if (g.copies < 1)
      throw std::invalid_argument("PipelineRunner: group '" + g.name +
                                  "' has non-positive copy count");
  }
}

support::PipelineTrace PipelineRunner::run() {
  RunOutcome outcome = run_supervised();
  if (outcome.error) std::rethrow_exception(outcome.error);
  return std::move(outcome.stats);
}

RunOutcome PipelineRunner::run_supervised() {
  // Run-level checkpointing captures a consistent cut via markers on the
  // FIFO chain. The streams barrier-merge each marker across producer
  // copies and broadcast it to consumer copies, so the cut stays aligned
  // on the same prefix even when stages are transparently replicated.
  // Self-healing restores from cuts the collector keeps in memory, so
  // markers must flow even without a checkpoint file (with interval 0 a
  // respawn restarts from scratch instead — legal, just slower).
  const bool run_ckpt =
      !config_.checkpoint_path.empty() || config_.resume != nullptr ||
      (config_.self_heal() && config_.checkpoint_interval > 0);
  if (run_ckpt) {
    if (!config_.checkpoint_path.empty() && config_.checkpoint_interval == 0)
      throw std::invalid_argument(
          "PipelineRunner: run-level checkpointing requires a checkpoint "
          "interval > 0");
    if (config_.resume) {
      const std::string diff = resume_mismatch_diff(groups_, *config_.resume);
      if (!diff.empty()) throw std::invalid_argument(diff);
    }
  }
  if (config_.backend != TransportBackend::kThread) {
    if (policy_.stage_timeout_seconds > 0.0 &&
        config_.heartbeat_seconds <= 0.0)
      throw std::invalid_argument(
          "PipelineRunner: the no-progress watchdog (stage timeout) on a "
          "process backend requires heartbeats — per-copy progress "
          "counters live inside worker processes, so the supervisor can "
          "only sample them from the heartbeat stream (set "
          "heartbeat_seconds / --heartbeat-ms)");
  }
  // A single-group pipeline has no cross-group links: nothing to put a
  // process boundary on, so it runs in-process under every backend.
  const bool multiprocess =
      config_.backend != TransportBackend::kThread && groups_.size() > 1;
  RunOutcome outcome =
      multiprocess ? run_multiprocess(run_ckpt) : run_threaded(run_ckpt);
  outcome.stats.packets = outcome.stats.stage_metrics.front().packets_out;
  return outcome;
}

RunOutcome PipelineRunner::run_threaded(bool run_ckpt) {
  const std::size_t n_groups = groups_.size();
  std::vector<std::unique_ptr<Stream>> streams;
  streams.reserve(n_groups - 1);
  for (std::size_t i = 0; i + 1 < n_groups; ++i) {
    auto stream = std::make_unique<Stream>(config_.stream_capacity);
    stream->set_producers(groups_[i].copies);
    stream->set_consumers(groups_[i + 1].copies);
    streams.push_back(std::move(stream));
  }
  // One pool per run, shared by every copy: storage released downstream is
  // recycled into the batches upstream builds next. Threads join before the
  // pool goes out of scope.
  std::optional<BufferPool> pool;
  if (config_.pool_buffers_per_class > 0) {
    pool.emplace(config_.pool_buffers_per_class);
    // Align retention to this run's batch geometry so batched recycle
    // bursts stay in the freelists instead of being discarded (and then
    // miss-allocated moments later). The runner knows the whole shape:
    // links, stream capacity, batch size, and the widest replica fan.
    int max_copies = 1;
    for (const FilterGroup& g : groups_) max_copies = std::max(max_copies, g.copies);
    pool->set_geometry(n_groups > 0 ? n_groups - 1 : 0,
                       config_.stream_capacity, config_.batch_size,
                       static_cast<std::size_t>(max_copies));
  }

  RunOutcome outcome;
  support::PipelineTrace& stats = outcome.stats;
  stats = detail::trace_skeleton(groups_, config_, policy_);

  std::mutex state_mutex;  // guards stats and the first fatal error
  std::exception_ptr first_error;
  std::vector<GroupRuntime> runtimes(n_groups);
  std::vector<std::atomic<int>> live(n_groups);
  for (std::size_t gi = 0; gi < n_groups; ++gi)
    live[gi].store(groups_[gi].copies, std::memory_order_relaxed);

  const auto start = Clock::now();

  auto record_fault = [&](support::FaultRecord fault) {
    std::lock_guard lock(state_mutex);
    stats.faults.push_back(std::move(fault));
  };
  auto set_error = [&](std::exception_ptr error, const std::string& message) {
    std::lock_guard lock(state_mutex);
    if (!first_error) {
      first_error = std::move(error);
      stats.error = message;
    }
  };
  // Run teardown signal: wakes copies parked in retry backoff so an abort
  // never waits out an exponential-backoff sleep (see the backoff wait in
  // the supervisor loop).
  detail::TeardownLatch teardown;
  auto abort_all = [&] {
    for (const auto& stream : streams) stream->abort();
    teardown.signal();
  };

  // One-time per-group notice when checkpointing is requested but the
  // group's filter cannot snapshot its state.
  std::vector<std::atomic<bool>> warned_no_snapshot(n_groups);

  // ---- run-level cut collector (detail::CutCollector) --------------------
  // Each marker id accumulates one part per copy of every group; completed
  // cuts are persisted atomically and surfaced as trace records. The
  // collector drains into stats promptly so a torn-down run still carries
  // every record of the cuts it finished.
  detail::CutCollector collector(groups_, config_.checkpoint_path, start);
  auto drain_cut_records = [&] {
    std::vector<support::CheckpointRecord> records = collector.take_records();
    if (records.empty()) return;
    std::lock_guard lock(state_mutex);
    for (auto& rec : records) stats.checkpoints.push_back(std::move(rec));
  };
  auto submit_part = [&](std::int64_t id, std::size_t gi, int copy,
                         std::vector<std::byte> state, bool usable,
                         std::int64_t delivered) {
    collector.submit_part(id, gi, copy, std::move(state), usable, delivered);
    drain_cut_records();
  };
  auto register_terminal = [&](std::size_t gi, int copy, bool usable,
                               std::int64_t delivered) {
    collector.register_terminal(gi, copy, usable, delivered);
    drain_cut_records();
  };

  // ---- watchdog (detail::StallWatch) ------------------------------------
  detail::TeardownLatch run_done;
  std::thread watchdog;
  if (policy_.stage_timeout_seconds > 0.0) {
    const double poll =
        policy_.watchdog_poll_seconds > 0.0
            ? policy_.watchdog_poll_seconds
            : std::max(policy_.stage_timeout_seconds / 4.0, 0.001);
    watchdog = std::thread([&, poll] {
      detail::StallWatch watch(groups_, policy_.stage_timeout_seconds, start);
      while (!run_done.wait_for(poll)) {
        const Clock::time_point now = Clock::now();
        for (std::size_t gi = 0; gi < n_groups; ++gi) {
          std::optional<support::FaultRecord> fault = watch.sample(
              gi, live[gi].load(std::memory_order_relaxed),
              runtimes[gi].waiting.load(std::memory_order_relaxed),
              runtimes[gi].progress.load(std::memory_order_relaxed), now);
          if (!fault) continue;
          const std::string what = fault->what;
          {
            std::lock_guard state_lock(state_mutex);
            stats.stage_metrics[gi].faults += 1;
          }
          record_fault(std::move(*fault));
          set_error(std::make_exception_ptr(std::runtime_error(what)), what);
          abort_all();
          return;
        }
      }
    });
  }

  // ---- supervised copies (detail::run_copy) ------------------------------
  std::vector<detail::CopyWorld> worlds(n_groups);
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    detail::CopyWorld& world = worlds[gi];
    world.config = &config_;
    world.policy = &policy_;
    world.group = &groups_[gi];
    world.gi = gi;
    world.run_ckpt = run_ckpt;
    world.start = start;
    world.hooks = &hooks_;
    world.pool = pool ? &*pool : nullptr;
    world.runtime = &runtimes[gi];
    world.live = &live[gi];
    world.warned_no_snapshot = &warned_no_snapshot[gi];
    world.merge_metrics = [&, gi](const support::FilterMetrics& m) {
      std::lock_guard lock(state_mutex);
      stats.stage_metrics[gi].merge(m);
    };
    world.record_fault = record_fault;
    world.set_error = set_error;
    world.abort_all = abort_all;
    world.teardown = &teardown;
    world.submit_part = submit_part;
    world.register_terminal = register_terminal;
  }
  std::vector<std::thread> threads;
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    for (int copy = 0; copy < groups_[gi].copies; ++copy) {
      threads.emplace_back([&, gi, copy] {
        Stream* input = gi == 0 ? nullptr : streams[gi - 1].get();
        Stream* output = gi + 1 < n_groups ? streams[gi].get() : nullptr;
        detail::run_copy(worlds[gi], copy, input, output);
      });
    }
  }
  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) {
    run_done.signal();
    watchdog.join();
  }
  stats.wall_seconds = seconds_since(start);

  for (std::size_t li = 0; li < streams.size(); ++li)
    stats.link_metrics[li].merge(streams[li]->metrics());
  if (pool) stats.pool = pool->metrics();
  outcome.error = first_error;
  stats.completed = !first_error;
  outcome.disposition =
      first_error ? RunOutcome::kFailed : RunOutcome::kComplete;
  return outcome;
}

}  // namespace cgp::dc
