// Runtime observability counters for the DataCutter pipeline: per-filter
// packet/byte/busy/stall accounting with latency summaries, per-link
// occupancy and blocking time, and a JSON trace serializer. These are the
// measurements the cost model's future-work items (profile-guided
// decomposition, automatic packet sizing) optimize against, and what the
// --trace flag dumps after a run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cgp::support {

/// Fixed log2 histogram of per-packet handling latency. Bucket i counts
/// latencies in [2^i, 2^(i+1)) microseconds; bucket 0 also absorbs
/// sub-microsecond samples, the last bucket is open-ended (>= ~2 s).
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 22;
  std::array<std::int64_t, kBuckets> counts{};

  void record(double seconds);
  std::int64_t total() const;
  void merge(const LatencyHistogram& other);
  /// Lower bound of bucket i in microseconds (0 for bucket 0).
  static double bucket_lo_us(std::size_t i);
};

/// min/mean/max plus the histogram, mergeable across filter copies.
struct LatencySummary {
  std::int64_t count = 0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double sum_seconds = 0.0;
  LatencyHistogram histogram;

  void record(double seconds);
  void merge(const LatencySummary& other);
  double mean_seconds() const {
    return count > 0 ? sum_seconds / static_cast<double>(count) : 0.0;
  }
};

/// Per-logical-filter counters, aggregated over transparent copies.
struct FilterMetrics {
  std::string name;
  int copies = 0;
  std::int64_t packets_in = 0;
  std::int64_t packets_out = 0;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  /// Wall time summed over copies: total lifetime, time blocked reading an
  /// empty input stream, time blocked emitting into a full output stream.
  double total_seconds = 0.0;
  double stall_input_seconds = 0.0;
  double stall_output_seconds = 0.0;
  /// Fault accounting (trace v2): exceptions observed across copies, copy
  /// restarts the supervisor performed, and packets it discarded under the
  /// drop-packet policy.
  std::int64_t faults = 0;
  std::int64_t retries = 0;
  std::int64_t dropped_packets = 0;
  /// Per-copy state snapshots committed under checkpointed recovery
  /// (trace v3).
  std::int64_t checkpoints = 0;
  /// Part of total_seconds spent in Filter::init calls that returned,
  /// summed over copies and attempts (trace v9): a source's dataset
  /// setup, not pipeline work.
  double init_seconds = 0.0;
  LatencySummary latency;

  /// Lifetime minus both stall components (clamped at 0); includes setup.
  double busy_seconds() const;
  void merge(const FilterMetrics& other);
};

/// Per-stream (link) counters.
struct LinkMetrics {
  std::int64_t buffers = 0;
  std::int64_t bytes = 0;
  /// Enqueue operations (one per producer flush). buffers / batches is the
  /// realized mean batch size; 1:1 with buffers when batching is off.
  std::int64_t batches = 0;
  std::int64_t capacity = 0;
  std::int64_t occupancy_high_water = 0;
  /// Buffers that never reached a consumer: pushes rejected after abort()
  /// plus buffers discarded when a dead stage drained its input (trace v2).
  std::int64_t dropped_buffers = 0;
  /// Cumulative time producers spent blocked on backpressure and consumers
  /// spent blocked on an empty queue, summed over threads.
  double producer_block_seconds = 0.0;
  double consumer_block_seconds = 0.0;
  /// Transport substrate of this link (trace v7): "thread" | "proc" (older
  /// documents may say "tcp"). Empty in documents written before backend
  /// support.
  std::string transport;
  /// Wire telemetry (trace v7), all zero on the thread backend where
  /// nothing is serialized: frames and raw bytes the sender put on the
  /// channel, time the sender spent inside blocking transport writes, and
  /// time the receiver spent inside blocking transport reads.
  std::int64_t frames = 0;
  std::int64_t wire_bytes = 0;
  double send_wait_seconds = 0.0;
  double recv_wait_seconds = 0.0;

  /// Folds another slice of the same link (the other endpoint's view, or
  /// an earlier self-healing attempt): counters and waits sum, capacity
  /// and occupancy high-water take the max, and a non-empty transport wins
  /// over an empty one.
  void merge(const LinkMetrics& other);
};

/// Per-size-class buffer-pool counters (trace v6): activity of one
/// power-of-two freelist class, so a sagging hit rate can be attributed
/// to the class that is miss-allocating (e.g. batched packets overflowing
/// a retention cap sized for unbatched traffic).
struct PoolClassMetrics {
  int class_index = 0;           // floor-log2 of the capacities binned here
  std::int64_t class_bytes = 0;  // 1 << class_index
  std::int64_t acquires = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t recycles = 0;
  std::int64_t discarded = 0;
  std::int64_t high_water = 0;  // deepest the freelist got
  void merge(const PoolClassMetrics& other);
};

/// Buffer-pool counters for one pipeline run (see dc::BufferPool): how
/// often packet storage was served from the freelists instead of the
/// allocator. hit_rate ~1 in steady state means transport allocation cost
/// is amortized away (docs/PERFORMANCE.md).
struct PoolMetrics {
  std::int64_t acquires = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t recycles = 0;
  std::int64_t discarded = 0;
  /// Per-size-class breakdown, sparse: only classes that saw activity
  /// (trace v6; empty in documents written before schema v6).
  std::vector<PoolClassMetrics> classes;

  double hit_rate() const {
    return acquires > 0
               ? static_cast<double>(hits) / static_cast<double>(acquires)
               : 0.0;
  }
  void merge(const PoolMetrics& other);
};

/// How the runtime's supervisor resolved one observed fault.
enum class FaultResolution {
  kFatal,          // fail-fast: the run was torn down
  kRetried,        // restart-copy: fresh instance, in-flight packet replayed
  kDroppedPacket,  // drop-packet: the poisoned packet was discarded
  kCopyDead,       // bounded retries exhausted; the copy stayed down
  kWatchdog,       // no-progress timeout fired; the run was torn down
  kRestoredCheckpoint,  // restart-copy: snapshot restored, tail replayed
  kRespawnedWorker,     // dead worker process relaunched from the last
                        // in-run consistent cut (trace v8)
};
const char* fault_resolution_name(FaultResolution r);
FaultResolution fault_resolution_from_name(const std::string& name);

/// One structured fault event: which copy of which group failed on which
/// packet, what the exception said, and what the supervisor did about it.
struct FaultRecord {
  std::string group;
  int copy = 0;
  std::int64_t packet_index = -1;  // per-copy packet ordinal; -1 = unknown
  std::string what;
  int attempt = 0;  // consecutive-failure count when this fault was seen
  FaultResolution resolution = FaultResolution::kFatal;
  double at_seconds = 0.0;  // offset from run start
};

/// One checkpoint event (trace v3, extended in v5). Two shapes share the
/// record: a run-level consistent cut summary (group "run", copy -1,
/// `parts` = per-copy parts it aggregated, `packet_index` = source packets
/// covered), and — new in v5 — one per-copy part record per consuming
/// copy that contributed a snapshot to a cut (group = stage name,
/// copy >= 0, `snapshot_bytes` = that copy's state size, packet_index -1).
struct CheckpointRecord {
  std::int64_t id = 0;
  std::string group;
  int copy = -1;
  std::int64_t packet_index = 0;     // source packets the cut covers
  std::int64_t snapshot_bytes = 0;   // serialized state across stages
  std::int64_t parts = 0;            // per-copy parts in a "run" summary
  double quiesce_seconds = 0.0;      // marker injection -> cut complete
  double at_seconds = 0.0;           // offset from run start
};

/// One worker-resurrection incident (trace v8): a proc worker process
/// died organically (SIGKILL, crash, or supervisor liveness-kill after a
/// heartbeat lapse) and the supervisor relaunched it from the last in-run
/// consistent cut. MTTR spans reaper death detection to the respawned
/// topology completing its plan handshake.
struct RespawnRecord {
  std::string group;          // stage the dead worker hosted
  int worker = 0;             // worker index (== stage-group index)
  int restart = 0;            // 1-based restart ordinal for this worker
  std::int64_t cut_id = -1;   // cut restored from; -1 = from scratch
  double mttr_seconds = 0.0;  // death detection -> handshake complete
  double at_seconds = 0.0;    // death detection, offset from run start
  std::string cause;          // e.g. "died (signal 9)", "heartbeat lapse"
};

/// Per-stage heartbeat liveness telemetry (trace v8): beats the supervisor
/// received from that stage's worker and their one-way control-plane
/// latency (send timestamp to supervisor receipt, same CLOCK_MONOTONIC).
struct HeartbeatMetrics {
  std::string group;
  std::int64_t beats = 0;
  double max_latency_seconds = 0.0;
  double sum_latency_seconds = 0.0;

  double mean_latency_seconds() const {
    return beats > 0 ? sum_latency_seconds / static_cast<double>(beats)
                     : 0.0;
  }
  void merge(const HeartbeatMetrics& other);
};

/// Complete observability record of one pipeline run: the runner returns
/// it, the compiled pipeline's result extends it, worker processes ship
/// their slice of it to the supervisor, and --trace writes it to disk.
struct PipelineTrace {
  double wall_seconds = 0.0;
  /// Packets the run moved: stage 0's packets_out on a plain runner run;
  /// the compiled and manual pipelines keep their sources' own count.
  std::int64_t packets = 0;
  /// Per stage, aggregated over copies (serialized as "filters"), and per
  /// link between consecutive stages (serialized as "links").
  std::vector<FilterMetrics> stage_metrics;
  std::vector<LinkMetrics> link_metrics;
  /// Transport configuration and pool effectiveness for this run: the
  /// configured producer-side coalescing factor and the buffer-pool
  /// counters (all zero when the run predates pooling or disabled it).
  std::int64_t batch_size = 1;
  PoolMetrics pool;
  /// Replica plan in force (trace v4): transparent copies each stage ran
  /// with, whether chosen by the decomposition DP or by the environment's
  /// copies knob. Empty in documents written before replication support.
  std::vector<int> stage_replicas;
  /// Fault-tolerance surface (trace v2): every fault the supervisor saw,
  /// the policy in force, and whether the pipeline ran to normal EOS.
  std::vector<FaultRecord> faults;
  std::string fault_policy;  // "fail-fast" | "restart-copy" | "drop-packet"
  /// Checkpoint surface (trace v3): run-level consistent cuts completed
  /// during the run, interleaved (since v5) with the per-copy part
  /// records each cut aggregated.
  std::vector<CheckpointRecord> checkpoints;
  /// Self-healing surface (trace v8): one record per worker resurrection,
  /// heartbeat liveness telemetry per stage, and whether the run ended
  /// degraded (restart budget exhausted; surviving stages drained to a
  /// partial result). All empty/false in pre-v8 documents.
  std::vector<RespawnRecord> respawns;
  std::vector<HeartbeatMetrics> heartbeats;
  bool degraded = false;
  bool completed = true;
  std::string error;  // first fatal condition; empty on success

  /// Index of the filter with the largest busy time net of setup
  /// (busy_seconds() - init_seconds; -1 when empty) — the measured
  /// bottleneck stage of the paper's analysis.
  int bottleneck_filter() const;
  /// Sum of supervisor retries / dropped packets over all stages.
  std::int64_t total_retries() const;
  std::int64_t total_dropped_packets() const;
  /// Folds another record of the same run into this one — a worker
  /// process's slice, a single fault it reported, or an earlier
  /// self-healing attempt. `packets` sums, stage and link entries merge
  /// index by index (growing to the longer list), event lists (faults,
  /// checkpoints, respawns) append in order, heartbeats merge by group,
  /// the pool merges by size class, wall time and batch size take the max,
  /// the run stays completed only if both were and is degraded if either
  /// was, and an empty policy, replica plan or error takes the other's.
  void merge(const PipelineTrace& other);
};

/// Serializes to the cgpipe-trace-v9 schema documented in
/// docs/OBSERVABILITY.md and docs/ROBUSTNESS.md.
std::string trace_to_json(const PipelineTrace& trace, int indent = 2);

/// Reloads a serialized trace; accepts cgpipe-trace-v1 (fault fields
/// default to their zero values), v2 (checkpoint fields default to their
/// zero values), v3 (stage_replicas defaults to empty), v4 (per-copy
/// checkpoint part records absent, `parts` defaults to 0), v5
/// (pool.classes defaults to empty), v6 (per-link transport fields
/// default to their zero values, transport to ""), v7 (respawn records
/// and heartbeat telemetry default to empty, degraded to false), v8
/// (init_seconds defaults to 0), and v9.
/// Throws std::runtime_error on malformed or schema-incompatible input.
PipelineTrace trace_from_json(const std::string& text);

}  // namespace cgp::support
