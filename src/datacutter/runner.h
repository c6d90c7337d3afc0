// Pipeline runner: places a chain of logical filters, creates the streams
// between consecutive groups, spawns one thread per transparent copy, and
// runs the DataCutter work cycle (init -> process -> finalize) to
// completion. Instrumented: per-stage and per-link counters land in one
// support::PipelineTrace per run.
//
// Fault tolerance (docs/ROBUSTNESS.md): each copy runs under a supervisor
// that catches filter exceptions and applies the configured FaultPolicy —
// tear the run down (fail-fast), restart the copy and replay the in-flight
// packet (restart-copy), or discard the poisoned packet (drop-packet) —
// with bounded consecutive retries and exponential backoff. A watchdog
// thread flags stages that stop making progress. run_supervised() always
// returns the run's support::PipelineTrace, carrying the error instead of
// discarding the run's telemetry.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datacutter/filter.h"
#include "datacutter/transport.h"

namespace cgp::dc {

enum class FaultAction {
  kFailFast,     // any filter exception aborts the whole run (the default)
  kRestartCopy,  // fresh instance, in-flight packet replayed
  kDropPacket,   // fresh instance, poisoned packet discarded
};

struct FaultPolicy {
  FaultAction action = FaultAction::kFailFast;
  /// Bound on *consecutive* fruitless restarts of one copy: a failed
  /// attempt that made no progress (popped no new packet, delivered
  /// nothing) consumes one; any progress resets the count. Exceeding it
  /// declares the copy dead.
  int max_retries = 3;
  /// Exponential backoff between restarts of the same copy.
  double backoff_initial_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 0.05;
  /// Watchdog: a stage with live, non-waiting copies that moves no buffer
  /// for this long is declared stalled and the run is torn down (0
  /// disables). Blocked stream waits are exempt — a starved or
  /// backpressured stage is idle, not hung.
  double stage_timeout_seconds = 0.0;
  /// Watchdog sampling interval (defaults to stage_timeout/4, min 1 ms).
  double watchdog_poll_seconds = 0.0;

  static const char* action_name(FaultAction action);
  /// Parses "fail-fast" | "restart-copy" | "drop-packet".
  static std::optional<FaultAction> parse_action(std::string_view name);
};

/// Fault-injection hook type: invoked once per packet with the group name,
/// copy index, restart attempt, per-copy packet ordinal, and the buffer
/// about to be handed to (or sent by) the filter. May mutate the buffer,
/// sleep, or throw. See support/faultinject.h for the standard
/// implementation.
using PacketHook = std::function<void(const std::string& group, int copy,
                                      int attempt, std::int64_t packet,
                                      Buffer* buffer)>;

/// Checkpoint fault-injection hook: invoked immediately before a copy
/// snapshots its filter state, with the per-copy checkpoint ordinal.
/// Throwing models a fault mid-snapshot (the previous snapshot must
/// survive). See support/faultinject.h (`group:throw@ckpt`).
using CheckpointHook = std::function<void(const std::string& group, int copy,
                                          int attempt,
                                          std::int64_t checkpoint)>;

/// Run-level marker fault-injection hook: invoked on a specific copy the
/// moment a cut marker reaches it (consumers) or is injected by it
/// (sources), with the marker's cut id. Throwing models a fault exactly at
/// the cut boundary — the supervisor must still register the copy's part
/// (unusable) and forward the marker so neither the cut collector nor
/// downstream copies wedge. See support/faultinject.h (`group:throw@markN`).
using MarkerHook = std::function<void(const std::string& group, int copy,
                                      int attempt, std::int64_t marker_id)>;

/// Observer of worker processes the multi-process backends fork: called
/// in the supervisor with (group index, pid) right after each launch.
/// Lets harnesses (chaos tests) target a specific worker with signals.
using ProcessHook = std::function<void(std::size_t group_index, long pid)>;

/// The hooks of one run, installed once on the runner and shared by every
/// copy on every backend. Empty members are not called.
struct RunHooks {
  PacketHook packet;
  CheckpointHook checkpoint;
  MarkerHook marker;
  ProcessHook process;
};

struct RunCheckpoint;  // datacutter/checkpoint.h

/// Transport configuration for one runner (docs/PERFORMANCE.md): stream
/// depth, producer-side packet coalescing, and buffer-storage recycling.
struct RunnerConfig {
  /// Bounded depth of every inter-group stream (backpressure window).
  std::size_t stream_capacity = 16;
  /// Producer-side coalescing factor: each copy accumulates up to this
  /// many packets and enqueues them as one batch (one lock acquisition,
  /// one consumer wakeup). 1 reproduces per-packet transport exactly.
  std::size_t batch_size = 1;
  /// Freelist depth per power-of-two size class of the run's BufferPool;
  /// 0 disables pooling and every packet allocates fresh storage.
  std::size_t pool_buffers_per_class = 64;
  /// Exactly-once stateful recovery (docs/ROBUSTNESS.md): under
  /// restart-copy, snapshot every consuming copy's filter state each time
  /// this many packets have been consumed since the last snapshot; a
  /// restarted instance restores the snapshot and replays only the packets
  /// after it, so accumulated state (reduction replicas, carried scalars)
  /// survives the fault. 0 disables checkpointing (legacy in-flight-replay
  /// recovery only).
  std::size_t checkpoint_interval = 0;
  /// Run-level checkpointing: when non-empty, a consistent cut of the
  /// whole pipeline (per-source-copy progress + a snapshot part from every
  /// copy of every consuming stage) is persisted to this file, atomically
  /// and durably, each time a source copy has delivered
  /// checkpoint_interval packets of its share. Replicated stages are fully
  /// supported: markers are barrier-merged across producer copies and
  /// broadcast to consumer copies, so every part aligns on the same
  /// marker. Requires checkpoint_interval > 0.
  std::string checkpoint_path;
  /// Resume an aborted run from this previously saved cut (see
  /// load_checkpoint): each source copy skips the packets the cut covers
  /// for it, and every consuming copy starts from its recorded per-copy
  /// state, so the resumed run's delivered multiset matches an
  /// uninterrupted one exactly. The pipeline's stage names and replica
  /// counts must match the checkpoint's (validated with a side-by-side
  /// diff on mismatch). Borrowed pointer; must outlive the run.
  const RunCheckpoint* resume = nullptr;
  /// Execution substrate (docs/PERFORMANCE.md, backend selection):
  /// kThread runs every stage group as threads of this process over
  /// in-process queues; kProc forks one worker process per non-sink stage
  /// group and moves packets through shared-memory rings. The sink group
  /// always runs in the supervisor process (its finals are in-memory
  /// results). A single-group pipeline has no links and runs in-process
  /// under every backend. Markers, checkpoint cuts, fault policies, and
  /// run telemetry flow through both; on the process backend the
  /// no-progress watchdog (stage_timeout_seconds) additionally requires
  /// heartbeat_seconds > 0 so the supervisor can observe worker progress
  /// remotely.
  TransportBackend backend = TransportBackend::kThread;
  /// Per-link shared-memory ring capacity in bytes (proc backend). Frames
  /// larger than the ring stream through in chunks; the ring bounds
  /// memory, not frame size.
  std::size_t ring_bytes = 1 << 20;
  /// Self-healing (docs/ROBUSTNESS.md, self-healing runs): on the process
  /// backends, a worker that dies organically (SIGKILL, crash, or
  /// supervisor liveness-kill after a heartbeat lapse) is respawned up to
  /// this many times per worker, the whole topology rolling back to the
  /// last in-run consistent cut held in memory by the collector (with
  /// checkpoint_interval > 0; otherwise the respawn restarts the run from
  /// scratch — still exactly-once, just slower). Budget exhausted means
  /// the run ends degraded: surviving stages drain to a partial result.
  /// 0 disables (a worker death is fatal, the pre-self-healing behavior).
  /// Ignored on the thread backend. The supervisor re-invokes the process
  /// hook with the respawned worker's fresh pid.
  int worker_restarts = 0;
  /// Liveness heartbeat interval: every worker sends a kHeartbeat frame on
  /// its status channel this often, carrying its progress counters. The
  /// supervisor SIGKILLs (and, under worker_restarts, respawns) a worker
  /// silent for max(4x this, 50 ms). Also the sampling feed that makes
  /// stage_timeout_seconds legal on process backends. 0 disables.
  double heartbeat_seconds = 0.0;
  /// Grace between an abort broadcast and the reaper's SIGKILL escalation
  /// of workers that have not exited on their own.
  std::int64_t teardown_grace_ms = 2000;

  /// Whether worker death triggers in-run resurrection instead of run
  /// failure (process backends with a restart budget).
  bool self_heal() const {
    return worker_restarts > 0 && backend != TransportBackend::kThread;
  }
};

/// Result of a supervised run: the trace is always populated — partial
/// metrics survive a failed run — and the first fatal error (if any) rides
/// along instead of being thrown away.
struct RunOutcome {
  /// How the run ended. kDegraded is the self-healing middle ground: the
  /// restart budget ran out, so the surviving stages drained to a partial
  /// result instead of the run aborting — error stays null (the partial
  /// result stands; nothing should be rethrown) but completed is false.
  enum Disposition { kComplete, kDegraded, kFailed };

  support::PipelineTrace stats;
  std::exception_ptr error;  // null when the pipeline completed or degraded
  Disposition disposition = kComplete;
  bool ok() const { return error == nullptr; }
  bool degraded() const { return disposition == kDegraded; }
};

class PipelineRunner {
 public:
  explicit PipelineRunner(std::vector<FilterGroup> groups,
                          std::size_t stream_capacity = 16,
                          FaultPolicy policy = {});
  PipelineRunner(std::vector<FilterGroup> groups, RunnerConfig config,
                 FaultPolicy policy = {});

  void set_fault_policy(const FaultPolicy& policy) { policy_ = policy; }
  const FaultPolicy& fault_policy() const { return policy_; }
  const RunnerConfig& config() const { return config_; }
  /// Installs all of the run's hooks at once (see RunHooks).
  void set_hooks(RunHooks hooks) { hooks_ = std::move(hooks); }
  /// Installs a per-packet fault-injection hook applied to every copy.
  void set_packet_hook(PacketHook hook) { hooks_.packet = std::move(hook); }
  /// Installs a pre-snapshot fault-injection hook (see CheckpointHook).
  void set_checkpoint_hook(CheckpointHook hook) {
    hooks_.checkpoint = std::move(hook);
  }
  /// Installs a run-level marker fault-injection hook (see MarkerHook).
  void set_marker_hook(MarkerHook hook) { hooks_.marker = std::move(hook); }
  /// Installs the worker-process observer (see ProcessHook).
  void set_process_hook(ProcessHook hook) { hooks_.process = std::move(hook); }
  /// Group-state codec for the multi-process backends: after a worker's
  /// group finishes, `exporter(gi)` serializes whatever run state the
  /// filters accumulated in that process (e.g. compiled-pipeline stage
  /// telemetry), and the supervisor folds each blob back with
  /// `importer(gi, blob)`. Unused on the thread backend, where all state
  /// already lives in one address space.
  using GroupStateExport =
      std::function<std::vector<std::byte>(std::size_t group_index)>;
  using GroupStateImport =
      std::function<void(std::size_t group_index,
                         const std::vector<std::byte>& blob)>;
  void set_group_state_codec(GroupStateExport exporter,
                             GroupStateImport importer) {
    group_export_ = std::move(exporter);
    group_import_ = std::move(importer);
  }

  /// Runs the pipeline to completion on real threads; throws the first
  /// fatal error (fail-fast fault, all copies of a stage dead, watchdog),
  /// discarding the trace. Prefer run_supervised() to keep it.
  support::PipelineTrace run();

  /// Runs the pipeline under the fault policy. Never throws on filter
  /// failure: the outcome carries the run's trace (including partial
  /// metrics of a failed run) plus the first fatal error, if any.
  RunOutcome run_supervised();

 private:
  /// Thread backend: every group as threads of this process (historical
  /// path; also serves single-group pipelines under any backend).
  RunOutcome run_threaded(bool run_ckpt);
  /// proc backend: one worker process per non-sink group, the sink and
  /// the cut collector in this process (runner_proc.cpp).
  RunOutcome run_multiprocess(bool run_ckpt);

  std::vector<FilterGroup> groups_;
  RunnerConfig config_;
  FaultPolicy policy_;
  RunHooks hooks_;
  GroupStateExport group_export_;
  GroupStateImport group_import_;
};

}  // namespace cgp::dc
