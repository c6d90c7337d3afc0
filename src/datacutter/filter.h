// Filter interface of the DataCutter model (§2.2): init / process /
// finalize over stream-connected buffers, with transparent copies.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datacutter/buffer_pool.h"
#include "datacutter/stream.h"
#include "support/metrics.h"

namespace cgp::dc {

/// Shared per-group runtime counters the watchdog samples while copies
/// run: monotonic progress (buffers moved) and how many copies are
/// currently parked in a blocking stream wait (a starved or backpressured
/// copy is idle, not hung, and must not trip the no-progress timeout).
struct GroupRuntime {
  std::atomic<std::int64_t> progress{0};
  std::atomic<int> waiting{0};
};

/// Per-packet interception point used by the fault-injection harness: the
/// hook runs after a consuming filter pops a buffer (or before a source
/// pushes one) and may mutate the buffer, sleep, or throw. The runner
/// binds group/copy/attempt before installing it on a context.
using BoundPacketHook = std::function<void(std::int64_t packet, Buffer*)>;

/// Snapshot trigger installed by the supervisor under restart-copy with a
/// checkpoint interval: read() invokes it at a packet boundary once the
/// interval has elapsed. The callback snapshots the filter, records the
/// delivered mark, and calls checkpoint_committed(); it may throw (the
/// @ckpt fault-injection trigger dies mid-snapshot).
using CheckpointFn = std::function<void()>;

/// Run-level checkpoint-marker handler: invoked when a marker buffer
/// arrives on the input stream (consumers) or right after one is injected
/// (sources), with the marker's cut id.
using MarkerFn = std::function<void(std::int64_t marker_id)>;

/// Execution context handed to each filter instance. In our chain model a
/// filter has at most one input stream (absent for the source filter) and
/// one output stream (absent for the sink), matching §5: "each filter has
/// one input stream, with the exception of the filter that reads from the
/// data source itself."
class FilterContext {
 public:
  FilterContext(Stream* input, Stream* output, int copy_index, int copy_count)
      : input_(input),
        output_(output),
        copy_index_(copy_index),
        copy_count_(copy_count) {}

  bool has_input() const { return input_ != nullptr; }
  bool has_output() const { return output_ != nullptr; }

  /// Blocking read; nullopt = upstream finished. Records packet/byte
  /// counts, input-stall time, and per-packet handling latency (the
  /// interval between successive reads).
  std::optional<Buffer> read() {
    if (!input_) return std::nullopt;
    if (replay_) {
      // Recovery path: re-serve the packet a previous instance of this
      // copy was processing when it failed. The original pop was already
      // counted, so neither packets_in nor the hook fire again.
      std::optional<Buffer> buffer = std::move(replay_);
      replay_.reset();
      if (capture_inflight_) inflight_ = *buffer;
      return buffer;
    }
    for (;;) {
      if (!ckpt_replay_.empty()) {
        // Checkpoint recovery: re-serve the packets consumed after the
        // restored snapshot. The original pops were already counted and
        // hooked, so neither happens again; regenerated emissions are
        // suppressed by skip_emits until past the delivered mark.
        Buffer buffer = std::move(ckpt_replay_.front());
        ckpt_replay_.pop_front();
        ++since_ckpt_;
        return buffer;
      }
      if (ckpt_fn_ && ckpt_interval_ > 0 && since_ckpt_ >= ckpt_interval_) {
        // Snapshot at a packet boundary. Flush first so the recorded
        // delivered mark covers everything the snapshot state reflects.
        flush_output();
        ckpt_fn_();  // may throw (@ckpt fault trigger)
      }
      const Clock::time_point start = Clock::now();
      close_latency_window(start);
      std::optional<Buffer> buffer;
      if (incoming_next_ < incoming_.size()) {
        // Serve from the batch a previous pop already moved out of the
        // stream — no lock, no wakeup.
        buffer = std::move(incoming_[incoming_next_++]);
        if (incoming_next_ == incoming_.size()) {
          incoming_.clear();
          incoming_next_ = 0;
        }
      } else if (batch_size_ > 1) {
        if (runtime_)
          runtime_->waiting.fetch_add(1, std::memory_order_relaxed);
        input_->pop_batch(incoming_, batch_size_, copy_index_);
        if (runtime_)
          runtime_->waiting.fetch_sub(1, std::memory_order_relaxed);
        if (!incoming_.empty()) {
          incoming_next_ = 1;
          buffer = std::move(incoming_.front());
          if (incoming_.size() == 1) {
            incoming_.clear();
            incoming_next_ = 0;
          }
        }
      } else {
        if (runtime_)
          runtime_->waiting.fetch_add(1, std::memory_order_relaxed);
        buffer = input_->pop(copy_index_);
        if (runtime_)
          runtime_->waiting.fetch_sub(1, std::memory_order_relaxed);
      }
      const Clock::time_point done = Clock::now();
      stall_input_ns_ += ns_between(start, done);
      if (buffer && buffer->tag() == kCheckpointMarkerTag) {
        // Run-level cut marker: every packet before it has been consumed
        // and (after the flush) delivered, so the filter state is exactly
        // the prefix state. Snapshot, forward, and keep reading — the
        // filter never sees the marker.
        Buffer marker = std::move(*buffer);
        marker.seek(0);
        const std::int64_t id = marker.read<std::int64_t>();
        flush_output();
        if (marker_fn_) marker_fn_(id);
        continue;
      }
      if (buffer) {
        last_packet_ = packets_in_;
        ++packets_in_;
        bytes_in_ += static_cast<std::int64_t>(buffer->size());
        window_start_ = done;
        if (runtime_)
          runtime_->progress.fetch_add(1, std::memory_order_relaxed);
        if (ckpt_log_enabled_) {
          // Pristine pre-hook copy into the replay arena: one memcpy per
          // packet (same cost as the legacy in-flight capture), zero
          // allocations at steady state — the arena keeps its capacity
          // across commits and Buffers materialize only on a fault.
          ckpt_arena_.insert(ckpt_arena_.end(), buffer->data(),
                             buffer->data() + buffer->size());
          ckpt_sizes_.push_back(buffer->size());
        }
        ++since_ckpt_;
        if (capture_inflight_) inflight_ = *buffer;  // pristine pre-hook copy
        if (hook_) hook_(last_packet_, &*buffer);    // may corrupt/sleep/throw
      } else {
        inflight_.reset();  // EOS: nothing in flight to replay
      }
      return buffer;
    }
  }
  void emit(Buffer&& buffer) {
    if (!output_) return;
    if (!input_) {
      // Source restart recovery: a deterministic source re-computes every
      // packet; emissions a previous instance already delivered are
      // suppressed so downstream sees each packet exactly once.
      const std::int64_t seq = emit_seq_++;
      if (skip_emits_ > 0) {
        --skip_emits_;
        return;
      }
      last_packet_ = seq;
      if (hook_) hook_(seq, &buffer);  // may throw before the send
    } else {
      if (skip_emits_ > 0) {
        // Checkpoint recovery: replaying packets after a restored snapshot
        // regenerates emissions the failed instance already delivered.
        // Deterministic filters regenerate them in sequence, so dropping
        // the first `skip` keeps downstream delivery exactly-once.
        --skip_emits_;
        if (capture_inflight_) inflight_.reset();
        return;
      }
      if (capture_inflight_)
        inflight_.reset();  // the in-flight packet produced its output
    }
    // Sources have no read() to bound a packet window; successive emits do.
    if (!input_) close_latency_window(Clock::now());
    pending_.push_back(std::move(buffer));
    if (pending_.size() >= batch_size_) flush_output();
    if (!input_ && marker_every_ > 0 && ++since_marker_ >= marker_every_) {
      // Run-level consistent cut: flush the aligned prefix, register the
      // cut with the collector, then send the marker down the FIFO chain
      // behind everything it covers.
      since_marker_ = 0;
      const std::int64_t id = marker_seq_++;
      flush_output();
      if (marker_fn_) marker_fn_(id);
      push_marker(id);
    }
    if (!input_) window_start_ = Clock::now();
  }

  /// Pushes coalesced output downstream: one enqueue + one consumer wakeup
  /// for the whole pending batch. Runs automatically once `batch_size`
  /// buffers accumulate, and the runner calls it at the end of every
  /// attempt (success or failure) so no delivered packet is ever stranded
  /// in the producer. Delivery accounting lives here — a batch the aborted
  /// stream dropped was never delivered and must not count as output, or a
  /// restarted source would skip live packets.
  void flush_output() {
    if (!output_ || pending_.empty()) return;
    std::int64_t bytes = 0;
    for (const Buffer& b : pending_)
      bytes += static_cast<std::int64_t>(b.size());
    const std::size_t count = pending_.size();
    const Clock::time_point start = Clock::now();
    if (runtime_) runtime_->waiting.fetch_add(1, std::memory_order_relaxed);
    const std::size_t accepted = output_->push_batch(pending_);
    if (runtime_) runtime_->waiting.fetch_sub(1, std::memory_order_relaxed);
    stall_output_ns_ += ns_between(start, Clock::now());
    pending_.clear();
    if (accepted == count) {
      packets_out_ += static_cast<std::int64_t>(count);
      bytes_out_ += bytes;
      if (runtime_)
        runtime_->progress.fetch_add(static_cast<std::int64_t>(count),
                                     std::memory_order_relaxed);
    }
  }

  int copy_index() const { return copy_index_; }
  int copy_count() const { return copy_count_; }

  // ---- fault-tolerance plumbing (installed by the runner) ---------------
  /// Wires the group's shared progress/waiting counters for the watchdog.
  void attach_runtime(GroupRuntime* runtime) { runtime_ = runtime; }
  /// Installs the per-packet fault-injection hook (already bound to this
  /// group/copy/attempt).
  void set_packet_hook(BoundPacketHook hook) { hook_ = std::move(hook); }
  /// Enables keeping a pristine copy of the in-flight packet so a restarted
  /// instance can replay it (restart-copy policy only — costs one buffer
  /// copy per read).
  void set_capture_inflight(bool on) { capture_inflight_ = on; }
  /// Serves `buffer` from the next read() without counting it or re-running
  /// the hook: the previous instance already popped it.
  void arm_replay(Buffer buffer) { replay_ = std::move(buffer); }
  /// Takes the in-flight packet (if any) for replay after a fault.
  std::optional<Buffer> take_inflight() { return std::move(inflight_); }
  /// Suppresses the first `n` emissions after a restart (packets a
  /// previous instance already delivered downstream). For sources the
  /// count spans all re-computed packets; for checkpointed consumers it is
  /// the delivered count past the restored snapshot's mark.
  void set_skip_emits(std::int64_t n) { skip_emits_ = n; }

  // ---- checkpoint plumbing (installed by the runner) --------------------
  /// Arms the per-copy snapshot trigger: read() fires `fn` at the first
  /// packet boundary where `interval` packets have been consumed since the
  /// last commit, and keeps a pristine log of consumed packets so a
  /// restarted instance can replay everything past the snapshot.
  void set_checkpoint(std::int64_t interval, CheckpointFn fn) {
    ckpt_interval_ = interval;
    ckpt_fn_ = std::move(fn);
    ckpt_log_enabled_ = true;
  }
  /// Installs the run-level marker handler (see MarkerFn).
  void set_marker_handler(MarkerFn fn) { marker_fn_ = std::move(fn); }
  /// Source side of run-level checkpointing: inject a cut marker after
  /// every `every` delivered packets, numbering cuts from `next_id`.
  void set_marker_injection(std::int64_t every, std::int64_t next_id) {
    marker_every_ = every;
    marker_seq_ = next_id;
  }
  /// Cut id the next injected marker will carry (carried across restarts).
  std::int64_t next_marker_id() const { return marker_seq_; }
  /// Registers this copy's arrival at cut marker `id` on the output
  /// stream, bypassing the pending batch (callers flush first) and the
  /// delivery ledger: markers are transport control traffic, not packets.
  /// Blocks in the stream's producer barrier until every sibling copy has
  /// arrived (or closed), which is what keeps this copy's post-cut output
  /// behind the merged marker; the wait is watchdog-exempt.
  void push_marker(std::int64_t id) {
    if (!output_) return;
    if (runtime_) runtime_->waiting.fetch_add(1, std::memory_order_relaxed);
    output_->push_marker(id);
    if (runtime_) runtime_->waiting.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Pristine copies of the packets consumed since the last committed
  /// snapshot in this instance; the supervisor appends them to its replay
  /// log when the instance fails. Fault path only: this is where the
  /// arena's bytes become individual Buffers again.
  std::vector<Buffer> take_checkpoint_log() {
    std::vector<Buffer> log;
    log.reserve(ckpt_sizes_.size());
    std::size_t offset = 0;
    for (const std::size_t size : ckpt_sizes_) {
      Buffer b(size);
      b.write_bytes(ckpt_arena_.data() + offset, size);
      offset += size;
      log.push_back(std::move(b));
    }
    ckpt_arena_.clear();
    ckpt_sizes_.clear();
    return log;
  }
  /// Seeds read() with the replay log: packets a failed instance consumed
  /// after the snapshot now being restored.
  void arm_checkpoint_replay(std::deque<Buffer> packets) {
    ckpt_replay_ = std::move(packets);
  }
  /// Called by the snapshot callback once the snapshot has been taken:
  /// everything consumed so far is covered, so the log restarts empty
  /// (clear() keeps the arena's capacity — no allocation churn).
  void checkpoint_committed() {
    ckpt_arena_.clear();
    ckpt_sizes_.clear();
    since_ckpt_ = 0;
  }
  /// Number of packets this instance actually delivered downstream (used
  /// to compute the next attempt's skip count).
  std::int64_t delivered() const { return packets_out_; }
  /// Per-copy ordinal of the most recent packet handled (-1 before any).
  std::int64_t current_packet() const { return last_packet_; }

  // ---- transport tuning (installed by the runner) -----------------------
  /// Producer-side coalescing factor: emit() buffers up to this many
  /// packets before pushing them downstream as one batch; read() pops up
  /// to this many at a time. 1 (the default) reproduces unbatched
  /// per-packet transport exactly.
  void set_batch_size(std::size_t n) { batch_size_ = n == 0 ? 1 : n; }
  std::size_t batch_size() const { return batch_size_; }
  /// Wires the run-wide buffer pool; acquire_buffer()/recycle() fall back
  /// to plain allocation when absent.
  void set_pool(BufferPool* pool) { pool_ = pool; }
  /// Fresh packet storage, recycled from the pool when possible.
  Buffer acquire_buffer(std::size_t reserve_bytes = 0) {
    return pool_ ? pool_->acquire(reserve_bytes) : Buffer(reserve_bytes);
  }
  /// Returns a fully-consumed buffer's backing storage to the pool.
  void recycle(Buffer&& buffer) {
    if (pool_) pool_->recycle(std::move(buffer));
  }

  /// Buffers pop_batch moved out of the stream that read() has not yet
  /// served. The supervisor carries them over to a restarted instance
  /// (arm_unread) so batching never turns a copy restart into packet loss.
  std::vector<Buffer> take_unread() {
    std::vector<Buffer> rest;
    rest.reserve(incoming_.size() - incoming_next_);
    for (std::size_t i = incoming_next_; i < incoming_.size(); ++i)
      rest.push_back(std::move(incoming_[i]));
    incoming_.clear();
    incoming_next_ = 0;
    return rest;
  }
  /// Seeds read() with buffers a previous instance popped but never read.
  void arm_unread(std::vector<Buffer> buffers) {
    incoming_ = std::move(buffers);
    incoming_next_ = 0;
  }
  std::size_t unread_count() const { return incoming_.size() - incoming_next_; }

  /// Snapshot of this instance's counters (total/busy time are filled in by
  /// the runner, which owns the instance's lifetime window).
  support::FilterMetrics metrics() const {
    support::FilterMetrics m;
    m.copies = 1;
    m.packets_in = packets_in_;
    m.packets_out = packets_out_;
    m.bytes_in = bytes_in_;
    m.bytes_out = bytes_out_;
    m.stall_input_seconds = 1e-9 * static_cast<double>(stall_input_ns_);
    m.stall_output_seconds = 1e-9 * static_cast<double>(stall_output_ns_);
    m.latency = latency_;
    return m;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  void close_latency_window(Clock::time_point now) {
    if (!window_open()) return;
    latency_.record(1e-9 *
                    static_cast<double>(ns_between(window_start_, now)));
    window_start_ = Clock::time_point{};
  }
  bool window_open() const {
    return window_start_ != Clock::time_point{};
  }

  Stream* input_;
  Stream* output_;
  int copy_index_;
  int copy_count_;
  // Transport tuning (see set_batch_size/set_pool).
  std::size_t batch_size_ = 1;
  BufferPool* pool_ = nullptr;
  std::vector<Buffer> pending_;    // emitted, not yet pushed downstream
  std::vector<Buffer> incoming_;   // popped, not yet served to read()
  std::size_t incoming_next_ = 0;  // first unread slot of incoming_
  std::int64_t packets_in_ = 0;
  std::int64_t packets_out_ = 0;
  std::int64_t bytes_in_ = 0;
  std::int64_t bytes_out_ = 0;
  std::int64_t stall_input_ns_ = 0;
  std::int64_t stall_output_ns_ = 0;
  support::LatencySummary latency_;
  Clock::time_point window_start_{};
  // Fault-tolerance state (see the supervisor in runner.cpp).
  GroupRuntime* runtime_ = nullptr;
  BoundPacketHook hook_;
  bool capture_inflight_ = false;
  std::optional<Buffer> replay_;
  std::optional<Buffer> inflight_;
  std::int64_t skip_emits_ = 0;
  std::int64_t emit_seq_ = 0;
  std::int64_t last_packet_ = -1;
  // Checkpoint state (see the supervisor in runner.cpp).
  std::int64_t ckpt_interval_ = 0;
  CheckpointFn ckpt_fn_;
  bool ckpt_log_enabled_ = false;
  // Replay arena: pristine bytes of every packet consumed since the last
  // commit, contiguous, with per-packet sizes alongside (see
  // take_checkpoint_log).
  std::vector<std::byte> ckpt_arena_;
  std::vector<std::size_t> ckpt_sizes_;
  std::deque<Buffer> ckpt_replay_;  // to re-serve after a restore
  std::int64_t since_ckpt_ = 0;     // packets served since last commit
  // Run-level marker state.
  MarkerFn marker_fn_;
  std::int64_t marker_every_ = 0;
  std::int64_t since_marker_ = 0;
  std::int64_t marker_seq_ = 0;
};

class Filter {
 public:
  virtual ~Filter() = default;
  /// Pre-allocate resources for the unit of work.
  virtual void init(FilterContext& ctx) { (void)ctx; }
  /// Main loop: read buffers, compute, emit buffers. Called once; the
  /// filter drains its input until end-of-stream.
  virtual void process(FilterContext& ctx) = 0;
  /// Release resources / flush accumulated state downstream.
  virtual void finalize(FilterContext& ctx) { (void)ctx; }
  /// Serializes the filter's cross-packet state (reduction accumulators,
  /// PRNG cursors, carried scalars) into `out`. Return false if the filter
  /// carries state it cannot snapshot — the supervisor then falls back to
  /// in-flight-replay-only recovery and warns once. Stateless filters
  /// should return true with an empty payload so checkpointed recovery
  /// stays exactly-once across them.
  virtual bool snapshot_state(Buffer& out) {
    (void)out;
    return false;
  }
  /// Restores state written by snapshot_state on a fresh instance. Called
  /// after init(), before process(); must leave the filter exactly as the
  /// snapshotted instance was at the snapshot's packet boundary.
  virtual void restore_state(Buffer& in) { (void)in; }
};

using FilterFactory = std::function<std::unique_ptr<Filter>()>;

/// A logical filter: a factory plus its transparent-copy count and the
/// pipeline stage it is placed on.
struct FilterGroup {
  std::string name;
  FilterFactory factory;
  int copies = 1;
  int stage = 0;  // index into the EnvironmentSpec units
};

}  // namespace cgp::dc
