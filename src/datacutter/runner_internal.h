// Shared internals of the pipeline runner, split out so the thread backend
// (runner.cpp) and the multi-process backends (runner_proc.cpp) run the
// exact same per-copy supervisor and cut collector. A worker process hosts
// one stage group: it builds a CopyWorld whose callbacks write control
// messages to the supervisor process instead of touching shared state
// directly, and runs the identical run_copy() the thread backend runs.
#pragma once

#include <atomic>
#include <chrono>
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
  std::function<void()> signal_teardown;
  /// Interruptible retry backoff: sleeps up to `seconds`, returning early
  /// on run teardown. The caller brackets it with the runtime's waiting
  /// counter so the watchdog treats it like a blocked stream wait.
  std::function<void(double)> backoff_wait;
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
/// supervisor (thread mode: this process; proc/tcp: the parent, fed by
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
