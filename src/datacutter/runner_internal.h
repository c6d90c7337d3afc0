// Shared internals of the pipeline runner, split out so the thread backend
// (runner.cpp) and the process backend (runner_proc.cpp) run the exact
// same per-copy supervisor, cut collector, teardown latch and stall rule.
// A worker process hosts one stage group: it builds a CopyWorld whose
// callbacks write control messages to the supervisor process instead of
// touching shared state directly, and runs the identical run_copy() the
// thread backend runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datacutter/checkpoint.h"
#include "datacutter/filter.h"
#include "datacutter/runner.h"

namespace cgp::dc::detail {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run teardown signal: a flag behind a mutex and a condition variable.
/// Once signaled it stays signaled, so a wait that starts after the
/// signal returns at once.
class TeardownLatch {
 public:
  void signal() {
    {
      std::lock_guard lock(mutex_);
      signaled_ = true;
    }
    cv_.notify_all();
  }
  /// Sleeps up to `seconds`, returning early once signaled. True when the
  /// latch is signaled.
  bool wait_for(double seconds) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [&] { return signaled_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

/// The stage watchdog's no-progress rule, sampled by the thread runner's
/// watchdog thread and by the process supervisor's reaper. A group is
/// stalled while it has live copies, its progress counter stands still,
/// and fewer than all of its live copies wait: a copy parked in a stream
/// wait or a retry backoff is starved or backpressured, not hung. The
/// watch fires once per run, on the first sample at least the timeout
/// after the stall began.
class StallWatch {
 public:
  StallWatch(const std::vector<FilterGroup>& groups, double timeout_seconds,
             Clock::time_point start);

  /// One sample of group `gi`'s counters at `now`. Returns the watchdog's
  /// fault record, stamped against the run epoch, the one time it fires.
  std::optional<support::FaultRecord> sample(std::size_t gi, int live,
                                             int waiting,
                                             std::int64_t progress,
                                             Clock::time_point now);

 private:
  const std::vector<FilterGroup>& groups_;
  const double timeout_seconds_;
  const Clock::time_point start_;
  std::vector<std::int64_t> last_progress_;
  std::vector<Clock::time_point> stalled_since_;
  std::vector<char> stalled_;
  bool fired_ = false;
};

/// Everything one supervised copy needs from its surrounding run. The
/// callbacks are the seams between execution substrates: in thread mode
/// they lock run-local state, in a worker process they serialize control
/// messages to the supervisor.
struct CopyWorld {
  const RunnerConfig* config = nullptr;
  const FaultPolicy* policy = nullptr;
  const FilterGroup* group = nullptr;  // this copy's group
  std::size_t gi = 0;                  // group index within the pipeline
  bool run_ckpt = false;               // run-level cuts enabled
  Clock::time_point start;             // run epoch for fault/cut stamps
  const RunHooks* hooks = nullptr;     // the runner's; never null
  BufferPool* pool = nullptr;
  GroupRuntime* runtime = nullptr;
  std::atomic<int>* live = nullptr;                 // live copies, this group
  std::atomic<bool>* warned_no_snapshot = nullptr;  // once per group

  std::function<void(const support::FilterMetrics&)> merge_metrics;
  std::function<void(support::FaultRecord)> record_fault;
  std::function<void(std::exception_ptr, const std::string&)> set_error;
  std::function<void()> abort_all;
  /// The run's teardown signal. Retry backoff waits on it, so an abort
  /// wakes a copy instead of letting a parked retry delay the drain.
  TeardownLatch* teardown = nullptr;
  /// Cut-collector seams (no-ops when run_ckpt is false).
  std::function<void(std::int64_t id, std::size_t gi, int copy,
                     std::vector<std::byte> state, bool usable,
                     std::int64_t delivered)>
      submit_part;
  std::function<void(std::size_t gi, int copy, bool usable,
                     std::int64_t delivered)>
      register_terminal;
};

/// A run's trace before any copy reports: stage names, the replica plan,
/// the fault policy, the batch size, and one entry per cross-group link
/// tagged with the backend's transport. Every backend starts from it.
support::PipelineTrace trace_skeleton(const std::vector<FilterGroup>& groups,
                                      const RunnerConfig& config,
                                      const FaultPolicy& policy);

/// Runs one transparent copy of one group to completion under the fault
/// policy: the full supervisor loop (checkpointed recovery, marker
/// handling, restart gap repair, bounded retries with backoff, terminal
/// registration, close/retire bookkeeping). Identical on every backend.
void run_copy(const CopyWorld& world, int copy, Stream* input,
              Stream* output);

/// Run-level consistent-cut collector (docs/ROBUSTNESS.md): accumulates
/// one part per (group, copy) per cut id, persists each completed cut
/// atomically, and emits the trace records. Thread-safe; lives in the
/// supervisor (thread mode: this process; proc: the parent, fed by
/// control-channel messages from the workers).
class CutCollector {
 public:
  /// `retain_cuts` keeps the newest usable completed cut in memory (see
  /// take_latest_cut) — the restore source for in-run worker resurrection,
  /// which must work with no checkpoint file configured at all.
  CutCollector(const std::vector<FilterGroup>& groups,
               std::string checkpoint_path, Clock::time_point start,
               bool retain_cuts = false);

  /// A live part: a source copy's delivered mark (gi == 0) or a consumer
  /// copy's state snapshot.
  void submit_part(std::int64_t id, std::size_t gi, int copy,
                   std::vector<std::byte> state, bool usable,
                   std::int64_t delivered);
  /// A copy that will contribute no further live parts (finished or died):
  /// stands in on every pending and future cut.
  void register_terminal(std::size_t gi, int copy, bool usable,
                         std::int64_t delivered);
  /// Drains the trace records of parts and completed cuts, in event order.
  std::vector<support::CheckpointRecord> take_records();
  /// The newest usable completed cut (retain_cuts only); nullopt when no
  /// usable cut completed. Moves it out — call once, at end of run.
  std::optional<RunCheckpoint> take_latest_cut();

 private:
  struct PendingCut {
    RunCheckpoint cut;
    std::set<std::pair<std::size_t, int>> have;
    double injected_at = -1.0;
    bool usable = true;
  };
  struct Terminal {
    bool usable = true;
    std::int64_t delivered = 0;
  };

  void init_cut_locked(PendingCut& pc, std::int64_t id);
  void apply_part_locked(PendingCut& pc, std::size_t gi, int copy,
                         std::vector<std::byte>&& state, bool usable,
                         std::int64_t delivered);
  std::optional<support::CheckpointRecord> complete_locked(std::int64_t id,
                                                           PendingCut& pc);

  const std::vector<FilterGroup>& groups_;
  const std::string checkpoint_path_;
  const Clock::time_point start_;
  const bool retain_cuts_;
  std::optional<RunCheckpoint> latest_cut_;
  std::size_t consuming_parts_ = 0;
  std::size_t total_parts_ = 0;
  std::vector<std::size_t> stage_slot_;
  std::mutex mutex_;
  std::map<std::int64_t, PendingCut> pending_cuts_;
  std::map<std::pair<std::size_t, int>, Terminal> terminals_;
  std::vector<support::CheckpointRecord> records_;
};

/// What the supervisor tells each worker it is (the handshake plan): the
/// stage plan (name, replica count), the transport geometry (stream
/// capacity, batch size, pool depth, ring bytes), the heartbeat cadence,
/// and the restore cut a self-healing attempt rolls back to (id + content
/// digest; the cut's bytes are fork-inherited, so the handshake only has
/// to prove both sides mean the same cut). The worker validates every
/// field against its fork-inherited configuration: a mismatch means the
/// supervisor and worker disagree about the run and the worker refuses to
/// start.
struct WorkerPlan {
  std::uint64_t gi = 0;
  std::uint64_t n_groups = 0;
  std::string group_name;
  std::int64_t copies = 0;
  std::uint64_t stream_capacity = 0;
  std::uint64_t batch_size = 0;
  std::uint64_t pool_buffers_per_class = 0;
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t ring_bytes = 0;
  std::uint8_t run_ckpt = 0;
  double heartbeat_seconds = 0.0;
  // Run-relative epoch of this attempt's fork: the worker stamps its
  // fault records against (now - run_elapsed) so timestamps stay
  // comparable across self-healing attempts. Not validated.
  double run_elapsed_seconds = 0.0;
  std::int64_t restore_cut_id = -1;  // -1: fresh start, no restore
  std::uint64_t restore_digest = 0;  // checkpoint_checksum of the cut
};

/// The plan for group `gi` under `config` (run_elapsed_seconds left 0):
/// what the supervisor sends, and what a worker expects from what it
/// inherited across fork.
WorkerPlan plan_for(std::size_t gi, const std::vector<FilterGroup>& groups,
                    const RunnerConfig& config, bool run_ckpt);

/// The names of the fields on which a received plan disagrees with the
/// expected one, in plan order ("group-index", "stage-name", ...,
/// "restore-cut"); empty when the worker may start.
std::vector<std::string> plan_mismatches(const WorkerPlan& plan,
                                         const WorkerPlan& expected);

/// What the supervisor knows about a worker whose heartbeats it has not
/// read for `silent_seconds` (docs/ROBUSTNESS.md, "Heartbeats and
/// liveness").
struct LapseEvidence {
  double silent_seconds = 0.0;
  /// Bytes waiting on the worker's status pipe: beats not yet read.
  std::size_t unread_status_bytes = 0;
  /// The worker's control reader may hold read but unhandled beats.
  bool reader_holds_beats = false;
  /// The control reader thread's own /proc stat line. State R means it
  /// is not parked in its read: it may have taken a beat off the pipe
  /// without having marked it held yet.
  std::string reader_stat;
  /// One /proc/<pid>/task/<tid>/stat line per thread of the worker.
  std::vector<std::string> task_stats;
};

/// The scheduler state letter of a /proc stat line ('R', 'S', 'T', ...):
/// the field after the command name, which may itself contain spaces and
/// ')', so the parse starts after the line's last ')'. '?' if malformed.
char proc_stat_state(std::string_view stat_line);

/// The lapse verdict: kill only when the silence is the worker's own. It
/// is past `lapse_after`, the supervisor holds none of its beats unread
/// (none on the pipe, none held by a control reader, which is parked),
/// and none of the worker's threads is runnable (one in state R waits for
/// a CPU or a cgroup quota; it is not wedged).
bool lapse_is_workers_own(const LapseEvidence& evidence, double lapse_after);

}  // namespace cgp::dc::detail
