#include "datacutter/runner_internal.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cgp::dc::detail {

void run_copy(const CopyWorld& world, int copy, Stream* input,
              Stream* output) {
  const RunnerConfig& config = *world.config;
  const FaultPolicy& policy = *world.policy;
  const std::size_t gi = world.gi;
  const auto copy_start = Clock::now();
  const std::string& group_name = world.group->name;
  support::FilterMetrics copy_metrics;
  std::optional<Buffer> replay;
  std::vector<Buffer> unread;  // popped by a dead instance, not read
  std::int64_t delivered_total = 0;
  int consecutive = 0;  // fruitless restarts in a row
  int attempt = 0;      // total restarts (for hook/fault context)
  double backoff = policy.backoff_initial_seconds;
  bool copy_dead = false;
  std::string last_what;
  // Exactly-once checkpointed recovery (restart-copy with a checkpoint
  // interval): the last committed snapshot, the delivered mark it covers,
  // and the pristine packets consumed since it — the replay log a
  // restarted instance consumes after restoring.
  const bool want_ckpt = policy.action == FaultAction::kRestartCopy &&
                         config.checkpoint_interval > 0 && input != nullptr;
  bool ckpt_supported = true;  // until the first probe says otherwise
  bool attempt_ckpt = false;
  Buffer snapshot;
  bool have_snapshot = false;
  std::int64_t snap_delivered = 0;
  std::vector<Buffer> master_log;
  std::int64_t ckpt_ordinal = 0;
  std::int64_t next_marker_id = 0;
  // Marker progress of this copy, for restart gap repair: a failed
  // attempt may have taken a marker off the stream (seen) without
  // registering its part (submitted) or passing it on (forwarded);
  // the transport never redelivers a taken marker, so the fresh
  // attempt must close those gaps itself.
  std::int64_t last_marker_seen = -1;
  std::int64_t last_marker_submitted = -1;
  std::int64_t last_marker_forwarded = -1;
  if (config.resume) {
    if (!input) {
      // The cut covers this many packets of this copy's round-robin
      // share: skip_emits below suppresses their re-computation and
      // numbering continues.
      const auto& sc = config.resume->source_copies;
      delivered_total = static_cast<std::size_t>(copy) < sc.size()
                            ? sc[static_cast<std::size_t>(copy)]
                            : 0;
      next_marker_id = config.resume->id + 1;
    } else {
      for (const StageSnapshot& s : config.resume->stages) {
        if (s.group != group_name || s.copy != copy) continue;
        snapshot.write_bytes(s.state.data(), s.state.size());
        have_snapshot = true;
        break;
      }
    }
  }
  for (;;) {
    FilterContext ctx(input, output, copy, world.group->copies);
    ctx.attach_runtime(world.runtime);
    ctx.set_batch_size(config.batch_size);
    if (world.pool) ctx.set_pool(world.pool);
    attempt_ckpt = want_ckpt && ckpt_supported;
    if (policy.action == FaultAction::kRestartCopy && !attempt_ckpt)
      ctx.set_capture_inflight(true);
    if (replay) {
      ctx.arm_replay(std::move(*replay));
      replay.reset();
    }
    if (!unread.empty()) ctx.arm_unread(std::move(unread));
    unread.clear();
    if (!input) ctx.set_skip_emits(delivered_total);
    if (world.hooks->packet) {
      const PacketHook& hook = world.hooks->packet;
      ctx.set_packet_hook([&hook, &group_name, copy, attempt](
                              std::int64_t packet, Buffer* buffer) {
        hook(group_name, copy, attempt, packet, buffer);
      });
    }
    bool failed = false;
    std::exception_ptr error;
    std::string what;
    std::unique_ptr<Filter> filter;
    // Snapshot commit, shared by the interval trigger and the run-level
    // marker handler: record the filter state and the delivered mark it
    // covers, then restart the replay log.
    auto commit_snapshot = [&]() -> bool {
      Buffer snap;
      if (!filter->snapshot_state(snap)) return false;
      snapshot = std::move(snap);
      have_snapshot = true;
      snap_delivered = delivered_total + ctx.delivered();
      master_log.clear();
      ctx.checkpoint_committed();
      copy_metrics.checkpoints += 1;
      return true;
    };
    try {
      filter = world.group->factory();
      const auto init_start = Clock::now();
      filter->init(ctx);
      copy_metrics.init_seconds += seconds_since(init_start);
      if (attempt_ckpt && !have_snapshot) {
        // Probe: the initial snapshot doubles as support detection and
        // covers faults before the first interval commit.
        Buffer probe;
        if (filter->snapshot_state(probe)) {
          snapshot = std::move(probe);
          have_snapshot = true;
          snap_delivered = delivered_total;
        } else {
          ckpt_supported = false;
          attempt_ckpt = false;
          ctx.set_capture_inflight(true);
          if (!world.warned_no_snapshot->exchange(true))
            std::fprintf(
                stderr,
                "cgpipe: warning: group '%s' does not implement "
                "snapshot_state; restart-copy replays the in-flight "
                "packet only and accumulated state is lost on restart "
                "(see docs/ROBUSTNESS.md)\n",
                group_name.c_str());
        }
      } else if (input && have_snapshot) {
        Buffer snap = snapshot;  // restore consumes the read cursor
        snap.seek(0);
        filter->restore_state(snap);
      }
      if (attempt_ckpt) {
        ctx.set_skip_emits(delivered_total - snap_delivered);
        if (!master_log.empty()) {
          std::deque<Buffer> queue(master_log.begin(), master_log.end());
          ctx.arm_checkpoint_replay(std::move(queue));
        }
        ctx.set_checkpoint(
            static_cast<std::int64_t>(config.checkpoint_interval), [&] {
              const std::int64_t ordinal = ckpt_ordinal++;
              if (world.hooks->checkpoint)
                world.hooks->checkpoint(group_name, copy, attempt, ordinal);
              if (!commit_snapshot() &&
                  !world.warned_no_snapshot->exchange(true))
                std::fprintf(stderr,
                             "cgpipe: warning: group '%s' stopped "
                             "snapshotting its state\n",
                             group_name.c_str());
            });
      }
      if (world.run_ckpt && input) {
        // Run-level cut: snapshot as the merged marker reaches this copy,
        // register the per-copy part, and forward the marker down the
        // FIFO chain (a barrier arrival on the output stream when this
        // stage is replicated).
        ctx.set_marker_handler([&](std::int64_t id) {
          last_marker_seen = id;
          const std::int64_t ordinal = ckpt_ordinal++;
          if (world.hooks->marker)
            world.hooks->marker(group_name, copy, attempt, id);
          if (world.hooks->checkpoint)
            world.hooks->checkpoint(group_name, copy, attempt, ordinal);
          Buffer snap;
          const bool ok = filter->snapshot_state(snap);
          std::vector<std::byte> state;
          if (ok) {
            state.assign(snap.data(), snap.data() + snap.size());
            if (attempt_ckpt) {
              snapshot = std::move(snap);
              have_snapshot = true;
              snap_delivered = delivered_total + ctx.delivered();
              master_log.clear();
              ctx.checkpoint_committed();
              copy_metrics.checkpoints += 1;
            }
          }
          world.submit_part(id, gi, copy, std::move(state), ok, 0);
          last_marker_submitted = id;
          if (output) ctx.push_marker(id);
          last_marker_forwarded = id;
        });
      } else if (world.run_ckpt && !input &&
                 (!config.checkpoint_path.empty() ||
                  (config.self_heal() && config.checkpoint_interval > 0))) {
        // Sources inject markers when cuts have somewhere to go: a
        // checkpoint file, or the in-memory retention self-healing
        // restores from. A resume-only run injects none (status quo).
        ctx.set_marker_injection(
            static_cast<std::int64_t>(config.checkpoint_interval),
            next_marker_id);
        ctx.set_marker_handler([&](std::int64_t id) {
          last_marker_seen = id;
          if (world.hooks->marker)
            world.hooks->marker(group_name, copy, attempt, id);
          world.submit_part(id, gi, copy, {}, true,
                            delivered_total + ctx.delivered());
          last_marker_submitted = id;
          // emit() pushes the marker right after this handler returns and
          // that push cannot throw, so the barrier arrival is as good as
          // done.
          last_marker_forwarded = id;
        });
      }
      if (world.run_ckpt && last_marker_seen >= 0) {
        // Restart gap repair: markers a failed attempt took but never
        // registered or forwarded. The part's aligned state died with the
        // attempt (unusable); the forward must happen before any new data
        // so downstream cuts stay aligned — replayed pre-cut packets only
        // regenerate emissions that skip_emits suppresses, so nothing can
        // slip ahead of it.
        for (std::int64_t id = last_marker_submitted + 1;
             id <= last_marker_seen; ++id)
          world.submit_part(id, gi, copy, {}, input == nullptr,
                            input == nullptr ? delivered_total : 0);
        last_marker_submitted =
            std::max(last_marker_submitted, last_marker_seen);
        for (std::int64_t id = last_marker_forwarded + 1;
             id <= last_marker_seen; ++id)
          if (output) ctx.push_marker(id);
        last_marker_forwarded =
            std::max(last_marker_forwarded, last_marker_seen);
      }
      filter->process(ctx);
      filter->finalize(ctx);
    } catch (const std::exception& e) {
      failed = true;
      error = std::current_exception();
      what = e.what();
    } catch (...) {
      failed = true;
      error = std::current_exception();
      what = "unknown exception";
    }
    // Flush coalesced output on every exit — success or failure — before
    // reading delivered(): packets the attempt emitted must reach
    // downstream (or be counted dropped by an aborted stream) so
    // exactly-once replay accounting stays exact under batching.
    ctx.flush_output();
    // Buffers pop_batch moved out of the stream that read() never served
    // carry over to the next attempt of this copy.
    unread = ctx.take_unread();
    // Harvest the attempt's counters either way: partial progress of a
    // failed instance is real traffic that must stay visible.
    support::FilterMetrics attempt_metrics = ctx.metrics();
    attempt_metrics.copies = 0;  // the copy is counted once, at exit
    copy_metrics.merge(attempt_metrics);
    delivered_total += ctx.delivered();
    if (!input) next_marker_id = ctx.next_marker_id();
    if (!failed) break;

    last_what = what;
    copy_metrics.faults += 1;
    support::FaultRecord fault;
    fault.group = group_name;
    fault.copy = copy;
    fault.packet_index = ctx.current_packet();
    fault.what = what;
    fault.at_seconds = seconds_since(world.start);

    if (policy.action == FaultAction::kFailFast) {
      fault.resolution = support::FaultResolution::kFatal;
      fault.attempt = consecutive;
      world.record_fault(std::move(fault));
      world.set_error(std::move(error), what);
      // Tear down every stream so no peer blocks on backpressure or waits
      // for buffers that will never come.
      world.abort_all();
      copy_dead = true;
      break;
    }
    // Bounded *consecutive* failures: an attempt that got past at least
    // one packet resets the count (the fault is fresh, not the same
    // position failing over and over). The faulting packet itself was
    // popped before it blew up, so popping exactly one packet and
    // delivering nothing is not progress.
    const bool progressed =
        attempt_metrics.packets_in > 1 || ctx.delivered() > 0;
    consecutive = progressed ? 1 : consecutive + 1;
    fault.attempt = consecutive;
    if (consecutive > policy.max_retries) {
      fault.resolution = support::FaultResolution::kCopyDead;
      world.record_fault(std::move(fault));
      if (input && attempt_ckpt && have_snapshot) {
        // Packets consumed past the snapshot whose outputs were never
        // delivered die with the copy: count them so the
        // pushed == delivered + dropped ledger stays exact.
        std::vector<Buffer> log = ctx.take_checkpoint_log();
        const std::int64_t undelivered =
            static_cast<std::int64_t>(master_log.size() + log.size()) -
            (delivered_total - snap_delivered);
        if (undelivered > 0) copy_metrics.dropped_packets += undelivered;
      } else if (input && ctx.current_packet() >= 0) {
        // The in-flight packet dies with the copy: count it so the
        // pushed == delivered + dropped ledger stays exact.
        copy_metrics.dropped_packets += 1;
      }
      copy_dead = true;
      break;
    }
    copy_metrics.retries += 1;
    if (policy.action == FaultAction::kRestartCopy && attempt_ckpt &&
        have_snapshot) {
      // Checkpointed recovery: fold this attempt's consumed packets into
      // the replay log; the fresh instance restores the snapshot and
      // replays exactly the packets after it.
      std::vector<Buffer> log = ctx.take_checkpoint_log();
      for (Buffer& b : log) master_log.push_back(std::move(b));
      fault.resolution = support::FaultResolution::kRestoredCheckpoint;
    } else if (policy.action == FaultAction::kRestartCopy) {
      replay = ctx.take_inflight();
      fault.resolution = support::FaultResolution::kRetried;
    } else if (input && ctx.current_packet() >= 0) {
      // drop-packet: the poisoned packet dies with the failed instance;
      // the fresh one resumes at the next packet.
      copy_metrics.dropped_packets += 1;
      fault.resolution = support::FaultResolution::kDroppedPacket;
    } else {
      // A source has no input packet to drop: the faulting emission is
      // simply retried (skip_emits keeps delivery exactly-once).
      fault.resolution = support::FaultResolution::kRetried;
    }
    world.record_fault(std::move(fault));
    ++attempt;
    if (backoff > 0.0) {
      // Interruptible backoff: run teardown wakes the copy instead of
      // letting a parked retry delay whole-stage drain. The waiting count
      // exempts the wait from the no-progress watchdog, exactly like a
      // blocked stream wait.
      world.runtime->waiting.fetch_add(1, std::memory_order_relaxed);
      world.teardown->wait_for(backoff);
      world.runtime->waiting.fetch_sub(1, std::memory_order_relaxed);
    }
    backoff =
        std::min(backoff * policy.backoff_multiplier,
                 policy.backoff_max_seconds);
  }
  if (copy_dead && !unread.empty()) {
    // Packets this copy popped but never processed die with it: surface
    // them as consumer-side drops so no packet vanishes from the
    // accounting.
    copy_metrics.dropped_packets += static_cast<std::int64_t>(unread.size());
    unread.clear();
  }
  if (world.run_ckpt) {
    // Stand in for this copy's parts on cuts it will no longer reach. A
    // source copy's deliveries all precede any marker merged after its
    // close, so its final count is exact and usable even when the copy
    // died mid-share. A dead consumer copy's aligned state is
    // unrecoverable: later cuts complete but are unusable (not persisted).
    if (!input) {
      world.register_terminal(0, copy, true, delivered_total);
    } else if (copy_dead) {
      world.register_terminal(gi, copy, false, 0);
    }
  }
  if (copy_dead && input) {
    // Stop marker broadcasts from waiting on this consumer index.
    input->retire_consumer();
  }
  // Every exit path closes the output so downstream drains to EOS
  // gracefully instead of waiting for buffers that will never come.
  if (output) output->close();
  const bool last_exit =
      world.live->fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (copy_dead && last_exit && policy.action != FaultAction::kFailFast) {
    // The whole stage is down. Surface the loss as the run error and
    // drain the stage's input so upstream copies finish instead of
    // blocking forever on backpressure (their buffers are counted as
    // dropped by the stream).
    std::ostringstream msg;
    msg << "group '" << group_name << "': all " << world.group->copies
        << " copies dead after bounded retries";
    if (!last_what.empty()) msg << "; last error: " << last_what;
    world.set_error(std::make_exception_ptr(std::runtime_error(msg.str())),
                    msg.str());
    if (input) input->drain();
    world.teardown->signal();  // wake peers parked in retry backoff
  }
  copy_metrics.total_seconds = seconds_since(copy_start);
  copy_metrics.copies = 1;
  world.merge_metrics(copy_metrics);
}

// ---- CutCollector ---------------------------------------------------------

CutCollector::CutCollector(const std::vector<FilterGroup>& groups,
                           std::string checkpoint_path,
                           Clock::time_point start, bool retain_cuts)
    : groups_(groups),
      checkpoint_path_(std::move(checkpoint_path)),
      start_(start),
      retain_cuts_(retain_cuts) {
  const std::size_t n_groups = groups_.size();
  stage_slot_.assign(n_groups, 0);
  for (std::size_t gi = 1; gi < n_groups; ++gi) {
    stage_slot_[gi] = consuming_parts_;
    consuming_parts_ += static_cast<std::size_t>(groups_[gi].copies);
  }
  total_parts_ =
      consuming_parts_ + static_cast<std::size_t>(groups_[0].copies);
}

void CutCollector::init_cut_locked(PendingCut& pc, std::int64_t id) {
  const std::size_t n_groups = groups_.size();
  pc.cut.id = id;
  pc.cut.source_copies.assign(static_cast<std::size_t>(groups_[0].copies),
                              0);
  for (std::size_t gi = 0; gi < n_groups; ++gi)
    pc.cut.group_copies.push_back(groups_[gi].copies);
  pc.cut.stages.resize(consuming_parts_);
  for (std::size_t gi = 1; gi < n_groups; ++gi)
    for (int c = 0; c < groups_[gi].copies; ++c) {
      StageSnapshot& slot = pc.cut.stages[stage_slot_[gi] + c];
      slot.group = groups_[gi].name;
      slot.copy = c;
    }
  // Copies that already finished or died stand in for their parts.
  for (const auto& [key, t] : terminals_) {
    pc.have.insert(key);
    if (key.first == 0)
      pc.cut.source_copies[static_cast<std::size_t>(key.second)] =
          t.delivered;
    if (!t.usable) pc.usable = false;
  }
}

void CutCollector::apply_part_locked(PendingCut& pc, std::size_t gi,
                                     int copy, std::vector<std::byte>&& state,
                                     bool usable, std::int64_t delivered) {
  if (!pc.have.insert({gi, copy}).second) return;
  if (gi == 0) {
    pc.cut.source_copies[static_cast<std::size_t>(copy)] = delivered;
    if (pc.injected_at < 0) pc.injected_at = seconds_since(start_);
  } else {
    pc.cut.stages[stage_slot_[gi] + static_cast<std::size_t>(copy)].state =
        std::move(state);
  }
  if (!usable) pc.usable = false;
}

std::optional<support::CheckpointRecord> CutCollector::complete_locked(
    std::int64_t id, PendingCut& pc) {
  if (pc.have.size() < total_parts_) return std::nullopt;
  const double now = seconds_since(start_);
  pc.cut.at_seconds = now;
  pc.cut.source_delivered = 0;
  for (const std::int64_t d : pc.cut.source_copies)
    pc.cut.source_delivered += d;
  support::CheckpointRecord rec;
  rec.id = id;
  rec.group = "run";
  rec.copy = -1;
  rec.packet_index = pc.cut.source_delivered;
  rec.parts = static_cast<std::int64_t>(consuming_parts_);
  for (const StageSnapshot& s : pc.cut.stages)
    rec.snapshot_bytes += static_cast<std::int64_t>(s.state.size());
  rec.quiesce_seconds = pc.injected_at < 0 ? 0.0 : now - pc.injected_at;
  rec.at_seconds = now;
  if (pc.usable && !checkpoint_path_.empty()) {
    try {
      save_checkpoint(pc.cut, checkpoint_path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cgpipe: warning: checkpoint write failed: %s\n",
                   e.what());
    }
  }
  // In-memory retention for self-healing: the newest usable cut is the
  // restore point a respawned topology rolls back to — no file needed.
  // Cut ids ascend, but completion order can interleave; keep the max.
  if (retain_cuts_ && pc.usable &&
      (!latest_cut_ || pc.cut.id > latest_cut_->id))
    latest_cut_ = std::move(pc.cut);
  pending_cuts_.erase(id);
  return rec;
}

std::optional<RunCheckpoint> CutCollector::take_latest_cut() {
  std::lock_guard lock(mutex_);
  return std::move(latest_cut_);
}

void CutCollector::submit_part(std::int64_t id, std::size_t gi, int copy,
                               std::vector<std::byte> state, bool usable,
                               std::int64_t delivered) {
  std::lock_guard lock(mutex_);
  auto [it, fresh] = pending_cuts_.try_emplace(id);
  PendingCut& pc = it->second;
  if (fresh) init_cut_locked(pc, id);
  if (gi > 0 && pc.have.count({gi, copy}) == 0) {
    support::CheckpointRecord rec;
    rec.id = id;
    rec.group = groups_[gi].name;
    rec.copy = copy;
    rec.packet_index = -1;  // a part covers a copy, not a source count
    rec.snapshot_bytes = static_cast<std::int64_t>(state.size());
    rec.at_seconds = seconds_since(start_);
    records_.push_back(std::move(rec));
  }
  apply_part_locked(pc, gi, copy, std::move(state), usable, delivered);
  if (auto rec = complete_locked(id, pc)) records_.push_back(*rec);
}

void CutCollector::register_terminal(std::size_t gi, int copy, bool usable,
                                     std::int64_t delivered) {
  std::lock_guard lock(mutex_);
  terminals_[{gi, copy}] = Terminal{usable, delivered};
  for (auto it = pending_cuts_.begin(); it != pending_cuts_.end();) {
    auto cur = it++;
    apply_part_locked(cur->second, gi, copy, {}, usable, delivered);
    if (auto rec = complete_locked(cur->first, cur->second))
      records_.push_back(*rec);
  }
}

std::vector<support::CheckpointRecord> CutCollector::take_records() {
  std::lock_guard lock(mutex_);
  return std::move(records_);
}

}  // namespace cgp::dc::detail
