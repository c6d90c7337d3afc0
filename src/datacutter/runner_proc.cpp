// Multi-process backend of the pipeline runner (proc: shared-memory
// rings). Topology: one worker process per non-sink stage group, forked
// BEFORE the supervisor creates any thread and after it has joined the
// setup worker pool's (WorkerPool::quiesce); the sink group and the
// run-level cut collector stay in the supervisor process, because the
// sink's finals are in-memory results.
//
// Each cross-process link is bridged by a pump pair around the worker's
// local Stream: the producer side pops (batched) from its local output
// stream and sends frames, the consumer side receives frames and pushes
// into its local input stream — so every copy runs the exact same
// detail::run_copy() supervisor the thread backend runs, and the Stream
// invariants (marker barriers, batch atomicity, close/abort semantics)
// hold unchanged inside every process.
//
// Control plane: per worker, one status pipe (worker -> supervisor) and
// one command pipe (supervisor -> worker), carrying the same frame codec
// as the data links; the Buffer tag names the message. The handshake
// sends each worker its plan (detail::WorkerPlan: stage name, replica
// count, batch/pool geometry, heartbeat cadence, restore cut) which the
// worker validates against its fork-inherited configuration before
// ACKing. During the run the worker streams cut parts, terminals, faults,
// fatal errors, and periodic kHeartbeat liveness frames; at exit it sends
// its slice of the run's trace and its group-state blob. Faults and the
// slice travel as support::PipelineTrace documents in the JSON codec
// --trace writes, which the supervisor merges into the run's trace.
//
// Teardown discipline: a fatal fault aborts the failing worker's channel
// ends, and every pump that observes an aborted or truncated channel
// aborts its own worker's other end — the abort cascades along the chain
// in both directions, reproducing the thread backend's abort-everything
// semantics without a central coordinator. A worker that dies without a
// word (SIGKILL) is caught by the supervisor's reaper, which aborts the
// rings it retained handles to and broadcasts abort commands, so no
// survivor blocks forever on a peer that is gone.
//
// Self-healing (docs/ROBUSTNESS.md, self-healing runs): with a restart
// budget (RunnerConfig::worker_restarts), run_multiprocess becomes a
// rollback-recovery loop. Each attempt tears all the way down to a
// single-threaded supervisor (so the next fork stays TSan-legal), then
// re-forks the whole topology, restores every stage from the newest
// in-run consistent cut the collector kept in memory, and replays the
// post-cut packets — a worker that dies organically (chaos SIGKILL,
// crash, supervisor liveness-kill after a heartbeat lapse) costs one
// rollback, not the run, and the exactly-once multiset guarantee holds
// because the cut protocol already makes resume-from-cut exact. On an
// organic death the sink's stream is quiesced — not aborted — so the
// queued prefix drains; when the budget runs out the run therefore still
// ends with the surviving stages' partial result (RunOutcome::kDegraded)
// instead of nothing.
#include <dirent.h>
#include <errno.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "datacutter/checkpoint.h"
#include "datacutter/runner.h"
#include "datacutter/runner_internal.h"
#include "datacutter/shm_ring.h"
#include "datacutter/transport.h"
#include "support/worker_pool.h"

namespace cgp::dc {

namespace detail {

char proc_stat_state(std::string_view stat_line) {
  const std::size_t close = stat_line.rfind(')');
  if (close == std::string_view::npos || close + 2 >= stat_line.size() ||
      stat_line[close + 1] != ' ')
    return '?';
  return stat_line[close + 2];
}

bool lapse_is_workers_own(const LapseEvidence& evidence, double lapse_after) {
  if (evidence.silent_seconds <= lapse_after) return false;
  if (evidence.unread_status_bytes > 0 || evidence.reader_holds_beats) return false;
  if (proc_stat_state(evidence.reader_stat) == 'R') return false;  // not parked
  for (const std::string& stat : evidence.task_stats)
    if (proc_stat_state(stat) == 'R') return false;
  return true;
}

WorkerPlan plan_for(std::size_t gi, const std::vector<FilterGroup>& groups,
                    const RunnerConfig& config, bool run_ckpt) {
  WorkerPlan plan;
  plan.gi = gi;
  plan.n_groups = groups.size();
  plan.group_name = groups[gi].name;
  plan.copies = groups[gi].copies;
  plan.stream_capacity = config.stream_capacity;
  plan.batch_size = config.batch_size;
  plan.pool_buffers_per_class = config.pool_buffers_per_class;
  plan.checkpoint_interval = config.checkpoint_interval;
  plan.ring_bytes = config.ring_bytes;
  plan.run_ckpt = run_ckpt ? 1 : 0;
  plan.heartbeat_seconds = config.heartbeat_seconds;
  // The restore cut itself is fork-inherited (config.resume); the plan
  // carries its id and content digest so a supervisor and a worker that
  // somehow disagree about the rollback point refuse to run rather than
  // silently double- or under-delivering.
  plan.restore_cut_id = config.resume ? config.resume->id : -1;
  plan.restore_digest = config.resume ? checkpoint_checksum(*config.resume) : 0;
  return plan;
}

std::vector<std::string> plan_mismatches(const WorkerPlan& plan,
                                         const WorkerPlan& expected) {
  std::vector<std::string> bad;
  const auto check = [&](bool same, const char* field) {
    if (!same) bad.emplace_back(field);
  };
  check(plan.gi == expected.gi, "group-index");
  check(plan.n_groups == expected.n_groups, "pipeline-size");
  check(plan.group_name == expected.group_name, "stage-name");
  check(plan.copies == expected.copies, "replica-count");
  check(plan.stream_capacity == expected.stream_capacity, "stream-capacity");
  check(plan.batch_size == expected.batch_size, "batch-size");
  check(plan.pool_buffers_per_class == expected.pool_buffers_per_class,
        "pool-depth");
  check(plan.checkpoint_interval == expected.checkpoint_interval,
        "checkpoint-interval");
  check(plan.ring_bytes == expected.ring_bytes, "ring-bytes");
  check((plan.run_ckpt != 0) == (expected.run_ckpt != 0), "run-ckpt");
  check(plan.heartbeat_seconds == expected.heartbeat_seconds, "heartbeat");
  check(plan.restore_cut_id == expected.restore_cut_id &&
            plan.restore_digest == expected.restore_digest,
        "restore-cut");
  return bad;
}

}  // namespace detail

namespace {

using detail::Clock;
using detail::seconds_since;
using detail::WorkerPlan;

/// The first line of `path`; empty when it cannot be read.
std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// One stat line per thread of process `pid`; empty once it is gone.
std::vector<std::string> read_task_stats(pid_t pid) {
  std::vector<std::string> stats;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (!tasks) return stats;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::string line = first_line(dir + "/" + entry->d_name + "/stat");
    if (!line.empty()) stats.push_back(std::move(line));
  }
  ::closedir(tasks);
  return stats;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- control-plane messages -----------------------------------------------
// Each message is one kData frame whose Buffer tag is the message type.
enum ControlTag : std::uint32_t {
  kMsgPlan = 1,        // supervisor -> worker: handshake plan
  kMsgAck = 2,         // worker -> supervisor: plan accepted
  kMsgPart = 3,        // worker -> supervisor: one cut part
  kMsgTerminal = 4,    // worker -> supervisor: copy contributes no more
  kMsgFault = 5,       // worker -> supervisor: trace holding one fault
  kMsgFatal = 6,       // worker -> supervisor: first fatal error text
  kMsgStats = 7,       // worker -> supervisor: end-of-run trace slice
  kMsgGroupState = 8,  // worker -> supervisor: group-state codec blob
  kMsgAbort = 9,       // supervisor -> worker: tear the run down
};

void put_blob(Buffer& b, const std::vector<std::byte>& bytes) {
  b.write<std::uint64_t>(bytes.size());
  if (!bytes.empty()) b.write_bytes(bytes.data(), bytes.size());
}

std::vector<std::byte> get_blob(Buffer& b) {
  const auto n = static_cast<std::size_t>(b.read<std::uint64_t>());
  std::vector<std::byte> bytes(n);
  if (n > 0) b.read_bytes(bytes.data(), n);
  return bytes;
}

// Trace documents cross the control plane in the trace's own JSON codec,
// which round-trips every stored field exactly, so a field added to the
// trace reaches the supervisor from every backend.
void put_trace(Buffer& b, const support::PipelineTrace& trace) {
  b.write_string(support::trace_to_json(trace, 0));
}

support::PipelineTrace get_trace(Buffer& b) {
  return support::trace_from_json(b.read_string());
}

Buffer encode_plan(const WorkerPlan& p) {
  Buffer b;
  b.write<std::uint64_t>(p.gi);
  b.write<std::uint64_t>(p.n_groups);
  b.write_string(p.group_name);
  b.write<std::int64_t>(p.copies);
  b.write<std::uint64_t>(p.stream_capacity);
  b.write<std::uint64_t>(p.batch_size);
  b.write<std::uint64_t>(p.pool_buffers_per_class);
  b.write<std::uint64_t>(p.checkpoint_interval);
  b.write<std::uint64_t>(p.ring_bytes);
  b.write<std::uint8_t>(p.run_ckpt);
  b.write<double>(p.heartbeat_seconds);
  b.write<double>(p.run_elapsed_seconds);
  b.write<std::int64_t>(p.restore_cut_id);
  b.write<std::uint64_t>(p.restore_digest);
  return b;
}

WorkerPlan decode_plan(Buffer& b) {
  WorkerPlan p;
  p.gi = b.read<std::uint64_t>();
  p.n_groups = b.read<std::uint64_t>();
  p.group_name = b.read_string();
  p.copies = b.read<std::int64_t>();
  p.stream_capacity = b.read<std::uint64_t>();
  p.batch_size = b.read<std::uint64_t>();
  p.pool_buffers_per_class = b.read<std::uint64_t>();
  p.checkpoint_interval = b.read<std::uint64_t>();
  p.ring_bytes = b.read<std::uint64_t>();
  p.run_ckpt = b.read<std::uint8_t>();
  p.heartbeat_seconds = b.read<double>();
  p.run_elapsed_seconds = b.read<double>();
  p.restore_cut_id = b.read<std::int64_t>();
  p.restore_digest = b.read<std::uint64_t>();
  return p;
}

// Mutex-serialized control sender: copies, pumps, the heartbeat thread,
// and the epilogue all write messages to the same channel.
class ControlWriter {
 public:
  explicit ControlWriter(std::shared_ptr<ByteChannel> channel)
      : link_(std::move(channel)) {}

  bool send(std::uint32_t tag, Buffer&& body) {
    body.set_tag(tag);
    std::lock_guard lock(mutex_);
    return link_.send(Frame::data(std::move(body)));
  }
  /// Raw frame send, for non-kData control traffic (heartbeats).
  bool send_frame(const Frame& frame) {
    std::lock_guard lock(mutex_);
    return link_.send(frame);
  }
  void close_write() {
    std::lock_guard lock(mutex_);
    link_.close_write();
  }

 private:
  std::mutex mutex_;
  FrameLink link_;
};

// Receives one link's frames into a local Stream, enforcing the wire
// protocol (markers arrive alone; Close closes). Returns true on a clean
// Close; false when the link ended without one (peer aborted or died) —
// the stream is then aborted so local consumers never wait on data that
// cannot come, unless `quiesce_on_unclean` asks for a drainable end
// instead: the supervisor's sink pump passes true under self-healing so
// the queued prefix survives an organic worker death (Stream::quiesce).
bool pump_link_into_stream(FrameLink& link, Stream& stream,
                           bool quiesce_on_unclean = false) {
  bool saw_close = false;
  for (;;) {
    std::optional<Frame> frame = link.recv();
    if (!frame) break;
    switch (frame->kind) {
      case FrameKind::kData:
        stream.push(std::move(frame->buffers.front()));
        break;
      case FrameKind::kBatch:
        stream.push_batch(frame->buffers);
        break;
      case FrameKind::kMarker:
        stream.push_marker(frame->marker_id);
        break;
      case FrameKind::kClose:
        saw_close = true;
        stream.close();
        break;
      case FrameKind::kHeartbeat:
        break;  // liveness is control-plane traffic; ignore on data links
    }
  }
  if (!saw_close) {
    if (quiesce_on_unclean)
      stream.quiesce();
    else
      stream.abort();
  }
  return saw_close;
}

// Sends a local output Stream's traffic over a link: data popped in
// batches of the configured coalescing factor (one frame per batch),
// markers — which pop_batch always delivers alone — as Marker frames,
// end-of-stream as a Close frame. Sent buffers' storage is recycled into
// the worker's pool so upstream packing stays allocation-free. A failed
// send means the peer is gone or the run is tearing down: the caller's
// abort callback cascades the teardown.
template <typename AbortFn>
void pump_stream_into_link(Stream& stream, FrameLink& link,
                           std::size_t batch_size, BufferPool* pool,
                           const AbortFn& abort_all) {
  std::vector<Buffer> batch;
  for (;;) {
    batch.clear();
    const std::size_t n = stream.pop_batch(batch, batch_size, 0);
    if (n == 0) break;  // closed and drained, or aborted
    bool ok;
    if (n == 1 && batch.front().tag() == kCheckpointMarkerTag) {
      ok = link.send(Frame::marker(batch.front().peek_at<std::int64_t>(0)));
    } else {
      Frame frame = n == 1 ? Frame::data(std::move(batch.front()))
                           : Frame::batch(std::move(batch));
      ok = link.send(frame);
      if (pool)
        for (Buffer& b : frame.buffers) pool->recycle(std::move(b));
    }
    if (!ok) {
      abort_all();
      break;
    }
  }
  link.send(Frame::close());
  link.close_write();
}

// ---- worker process -------------------------------------------------------

// Ignores SIGPIPE for the duration of the run and restores the caller's
// disposition afterwards: a dead peer must surface as EPIPE / a failed
// write, never a signal, but library code must not permanently rewrite an
// embedding application's signal handling. This covers the control-plane
// pipes. Workers inherit the ignore across fork — which is what they
// need — and _exit before the guard unwinds.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    installed_ = ::sigaction(SIGPIPE, &ignore, &saved_) == 0;
  }
  ~ScopedIgnoreSigpipe() {
    if (installed_) ::sigaction(SIGPIPE, &saved_, nullptr);
  }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction saved_ {};
  bool installed_ = false;
};

struct WorkerSetup {
  std::size_t gi = 0;
  const std::vector<FilterGroup>* groups = nullptr;
  const RunnerConfig* config = nullptr;
  const FaultPolicy* policy = nullptr;
  const RunHooks* hooks = nullptr;
  const PipelineRunner::GroupStateExport* group_export = nullptr;
  bool run_ckpt = false;
  std::shared_ptr<ByteChannel> in_chan;   // ring of link gi-1 (null for gi 0)
  std::shared_ptr<ByteChannel> out_chan;  // ring of link gi
  std::shared_ptr<FdChannel> status_chan;
  std::shared_ptr<FdChannel> command_chan;
};

// Reports the worker's fatal error to the supervisor and exits.
[[noreturn]] void fatal_exit(ControlWriter& status, const std::string& message,
                             int code) {
  Buffer b;
  b.write_string(message);
  status.send(kMsgFatal, std::move(b));
  status.close_write();
  ::_exit(code);
}

// Handshake: receive and validate the plan, then ACK.
WorkerPlan accept_plan(FrameLink& command, ControlWriter& status,
                       const WorkerSetup& setup) {
  const std::string& name = (*setup.groups)[setup.gi].name;
  std::optional<Frame> hello = command.recv();
  if (!hello || hello->kind != FrameKind::kData ||
      hello->buffers.front().tag() != kMsgPlan)
    fatal_exit(status, "worker '" + name + "': handshake carried no plan", 3);
  WorkerPlan plan = decode_plan(hello->buffers.front());
  const std::vector<std::string> bad = detail::plan_mismatches(
      plan,
      detail::plan_for(setup.gi, *setup.groups, *setup.config, setup.run_ckpt));
  if (!bad.empty()) {
    std::string fields;
    for (const std::string& field : bad) fields += " " + field;
    fatal_exit(status,
               "worker '" + name +
                   "': plan disagrees with inherited configuration on:" +
                   fields,
               3);
  }
  Buffer ack;
  ack.write<std::uint64_t>(setup.gi);
  status.send(kMsgAck, std::move(ack));
  return plan;
}

// Liveness heartbeats: from plan ACK until the telemetry epilogue, a
// dedicated thread sends kHeartbeat frames carrying the group's progress
// counters, one every `seconds` (none when `seconds` is 0).
class Heartbeats {
 public:
  Heartbeats(ControlWriter& status, const GroupRuntime& runtime,
             const std::atomic<int>& live, double seconds) {
    if (seconds <= 0.0) return;
    thread_ = std::thread([this, &status, &runtime, &live, seconds] {
      std::int64_t seq = 0;
      do {
        const bool sent = status.send_frame(Frame::heartbeat(
            seq++, steady_now_ns(),
            runtime.progress.load(std::memory_order_relaxed),
            runtime.waiting.load(std::memory_order_relaxed),
            live.load(std::memory_order_relaxed)));
        if (!sent) break;  // supervisor gone; the reaper owns us now
      } while (!stop_.wait_for(seconds));
    });
  }
  ~Heartbeats() { stop(); }
  Heartbeats(const Heartbeats&) = delete;
  Heartbeats& operator=(const Heartbeats&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.signal();
    thread_.join();
  }

 private:
  detail::TeardownLatch stop_;
  std::thread thread_;
};

// End-of-run slice of the run's trace: this stage's metrics, the output
// link's stream and send-side counters, the input link's receive wait,
// and the pool counters.
support::PipelineTrace trace_slice(std::size_t gi, const RunnerConfig& config,
                                   const support::FilterMetrics& metrics,
                                   const Stream& local_out,
                                   const FrameLink& out_link,
                                   const FrameLink* in_link,
                                   const BufferPool* pool) {
  support::PipelineTrace slice;
  slice.batch_size = static_cast<std::int64_t>(config.batch_size);
  slice.stage_metrics.resize(gi + 1);
  slice.stage_metrics[gi] = metrics;
  slice.link_metrics.resize(gi + 1);
  support::LinkMetrics& out = slice.link_metrics[gi];
  out = local_out.metrics();
  out.transport = backend_name(config.backend);
  const TransportCounters sent = out_link.counters();
  out.frames = sent.frames;
  out.wire_bytes = sent.wire_bytes;
  out.send_wait_seconds = sent.send_wait_seconds;
  if (in_link)
    slice.link_metrics[gi - 1].recv_wait_seconds =
        in_link->counters().recv_wait_seconds;
  if (pool) slice.pool = pool->metrics();
  return slice;
}

// Points a worker's CopyWorld reporting seams at the control plane: each
// fault, cut part, terminal and the first fatal error becomes a message
// to the supervisor instead of a write to shared state.
void bind_control_seams(detail::CopyWorld& world, ControlWriter& status,
                        std::atomic<bool>& error_reported) {
  world.record_fault = [&status](support::FaultRecord fault) {
    support::PipelineTrace trace;
    trace.faults.push_back(std::move(fault));
    Buffer b;
    put_trace(b, trace);
    status.send(kMsgFault, std::move(b));
  };
  world.set_error = [&status, &error_reported](std::exception_ptr,
                                               const std::string& what) {
    if (error_reported.exchange(true)) return;
    Buffer b;
    b.write_string(what);
    status.send(kMsgFatal, std::move(b));
  };
  world.submit_part = [&status](std::int64_t id, std::size_t pgi, int copy,
                                std::vector<std::byte> state, bool usable,
                                std::int64_t delivered) {
    Buffer b;
    b.write<std::int64_t>(id);
    b.write<std::uint64_t>(pgi);
    b.write<std::int64_t>(copy);
    b.write<std::uint8_t>(usable ? 1 : 0);
    b.write<std::int64_t>(delivered);
    put_blob(b, state);
    status.send(kMsgPart, std::move(b));
  };
  world.register_terminal = [&status](std::size_t pgi, int copy, bool usable,
                                      std::int64_t delivered) {
    Buffer b;
    b.write<std::uint64_t>(pgi);
    b.write<std::int64_t>(copy);
    b.write<std::uint8_t>(usable ? 1 : 0);
    b.write<std::int64_t>(delivered);
    status.send(kMsgTerminal, std::move(b));
  };
}

[[noreturn]] void worker_main(WorkerSetup setup) {
  const std::size_t gi = setup.gi;
  const FilterGroup& group = (*setup.groups)[gi];
  const RunnerConfig& config = *setup.config;
  ControlWriter status(setup.status_chan);

  try {
    FrameLink command(setup.command_chan);
    const WorkerPlan plan = accept_plan(command, status, setup);

    // Shared progress counters, declared before the heartbeat thread so
    // liveness frames can carry them from the very first beat.
    GroupRuntime runtime;
    std::atomic<int> live{group.copies};
    Heartbeats heartbeats(status, runtime, live, config.heartbeat_seconds);

    std::optional<FrameLink> in_link;
    if (gi > 0) in_link.emplace(setup.in_chan);
    FrameLink out_link(setup.out_chan);

    // Local streams around the process boundary: the recv pump is the
    // single producer of the input stream, the send pump the single
    // consumer of the output stream; the group's copies sit in between
    // exactly as they would in the thread backend.
    std::optional<Stream> local_in;
    if (gi > 0) {
      local_in.emplace(config.stream_capacity);
      local_in->set_producers(1);
      local_in->set_consumers(group.copies);
    }
    Stream local_out(config.stream_capacity);
    local_out.set_producers(group.copies);
    local_out.set_consumers(1);

    std::optional<BufferPool> pool;
    if (config.pool_buffers_per_class > 0) {
      pool.emplace(config.pool_buffers_per_class);
      pool->set_geometry(gi > 0 ? 2 : 1, config.stream_capacity,
                         config.batch_size,
                         static_cast<std::size_t>(group.copies));
    }

    std::mutex metrics_mutex;
    support::FilterMetrics metrics;
    metrics.name = group.name;
    std::atomic<bool> error_reported{false};

    detail::TeardownLatch teardown;
    const auto abort_all = [&] {
      if (local_in) local_in->abort();
      local_out.abort();
      if (in_link) in_link->abort();
      out_link.abort();
      teardown.signal();
    };

    std::atomic<bool> warned_no_snapshot{false};

    detail::CopyWorld world;
    world.config = &config;
    world.policy = setup.policy;
    world.group = &group;
    world.gi = gi;
    world.run_ckpt = setup.run_ckpt;
    // Run epoch: offset by the attempt's fork time so fault stamps stay
    // run-relative across self-healing attempts.
    world.start = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         plan.run_elapsed_seconds));
    world.hooks = setup.hooks;
    world.pool = pool ? &*pool : nullptr;
    world.runtime = &runtime;
    world.live = &live;
    world.warned_no_snapshot = &warned_no_snapshot;
    world.merge_metrics = [&](const support::FilterMetrics& m) {
      std::lock_guard lock(metrics_mutex);
      metrics.merge(m);
    };
    bind_control_seams(world, status, error_reported);
    world.abort_all = abort_all;
    world.teardown = &teardown;

    std::thread recv_pump;
    if (gi > 0)
      recv_pump = std::thread([&] {
        const bool clean = pump_link_into_stream(*in_link, *local_in);
        if (!in_link->error().empty())
          world.set_error(std::make_exception_ptr(
                              std::runtime_error(in_link->error())),
                          in_link->error());
        // Ended without a Close: the upstream aborted or died. Cascade so
        // our own downstream does not wait for data that cannot come.
        if (!clean) abort_all();
      });
    std::thread send_pump([&] {
      pump_stream_into_link(local_out, out_link, config.batch_size,
                            pool ? &*pool : nullptr, abort_all);
    });
    std::thread command_reader([&] {
      for (;;) {
        std::optional<Frame> frame = command.recv();
        if (!frame) break;
        if (frame->kind == FrameKind::kData &&
            frame->buffers.front().tag() == kMsgAbort)
          abort_all();
      }
    });

    std::vector<std::thread> copies;
    for (int copy = 0; copy < group.copies; ++copy)
      copies.emplace_back([&, copy] {
        detail::run_copy(world, copy, local_in ? &*local_in : nullptr,
                         &local_out);
      });
    for (std::thread& t : copies) t.join();
    send_pump.join();
    if (recv_pump.joinable()) recv_pump.join();
    heartbeats.stop();

    {
      // Every copy has joined: the metrics are final.
      Buffer b;
      put_trace(b, trace_slice(gi, config, metrics, local_out, out_link,
                               in_link ? &*in_link : nullptr,
                               pool ? &*pool : nullptr));
      status.send(kMsgStats, std::move(b));
    }
    if (setup.group_export && *setup.group_export) {
      Buffer b;
      put_blob(b, (*setup.group_export)(gi));
      status.send(kMsgGroupState, std::move(b));
    }
    status.close_write();
    // _exit: the command reader may still be parked in a read, and gtest
    // in the forked image must not re-run exit handlers.
    ::_exit(0);
  } catch (const std::exception& e) {
    fatal_exit(status, std::string("worker '") + group.name + "': " + e.what(),
               1);
  } catch (...) {
    fatal_exit(status, "worker '" + group.name + "': unknown fatal error", 1);
  }
}

// ---- self-healing attempt bookkeeping -------------------------------------

// One organic worker death: a candidate for resurrection (SIGKILL, crash,
// or supervisor liveness-kill), as opposed to a nonzero exit or a
// teardown-escalation kill, which stay fatal.
struct WorkerDeath {
  std::size_t wi = 0;
  std::string cause;
  double at_seconds = 0.0;  // against the run epoch
};

// What one rollback-recovery attempt hands the outer loop: its telemetry,
// how it ended, which workers died organically, and the restore material
// (newest usable in-run cut, surviving workers' group-state blobs) the
// next attempt — or the final stats assembly — consumes.
struct AttemptResult {
  support::PipelineTrace stats;
  std::exception_ptr error;
  std::vector<WorkerDeath> organic;
  double handshake_done = 0.0;       // run-relative: all plan ACKs in
  std::optional<RunCheckpoint> cut;  // newest usable in-run cut
  std::vector<char> have_stats;
  std::vector<char> have_state;
  std::vector<std::vector<std::byte>> group_state;
};

// Per-worker heartbeat mirror, written by that worker's control reader
// and sampled by the reaper's lapse/stall monitors.
struct HeartbeatState {
  std::atomic<std::int64_t> last_beat_ns{0};
  std::atomic<std::int64_t> progress{0};
  std::atomic<std::int64_t> waiting{0};
  std::atomic<int> live{0};
  std::atomic<std::int64_t> beats{0};
  std::atomic<std::int64_t> latency_sum_ns{0};
  std::atomic<std::int64_t> latency_max_ns{0};
  std::atomic<pid_t> reader_tid{0};  // the control reader's thread
};

// ---- supervisor: one attempt ----------------------------------------------

// One full topology bring-up, run, and teardown. The phases are the
// methods, in run() order: fork the workers, the handshake, then the
// threads (one control reader per worker, the reaper, the sink pump and
// the sink copies), then the fold of the attempt's trace. By the time
// run() returns this process is single-threaded again (every thread
// joined, every worker reaped), which is what makes the next attempt's
// forks TSan-legal.
class Attempt {
 public:
  Attempt(const std::vector<FilterGroup>& groups, const RunnerConfig& config,
          const FaultPolicy& policy, const RunHooks& hooks,
          const PipelineRunner::GroupStateExport& group_export,
          bool run_ckpt, Clock::time_point run_start, AttemptResult& out)
      : groups_(groups),
        config_(config),
        policy_(policy),
        hooks_(hooks),
        group_export_(group_export),
        run_ckpt_(run_ckpt),
        run_start_(run_start),
        out_(out),
        stats_(out.stats),
        heal_(config.self_heal()),
        n_groups_(groups.size()),
        n_workers_(groups.size() - 1),
        sink_gi_(groups.size() - 1),
        workers_(n_workers_),
        hb_(n_workers_),
        sink_stream_(config.stream_capacity),
        collector_(groups, config.checkpoint_path, run_start, heal_),
        reports_(n_workers_),
        sink_live_(groups[sink_gi_].copies),
        escalated_(n_workers_, 0),
        lapse_killed_(n_workers_, 0),
        hb_on_(config.heartbeat_seconds > 0.0),
        lapse_after_(std::max(4.0 * config.heartbeat_seconds, 0.05)) {
    stats_ = detail::trace_skeleton(groups_, config_, policy_);
    // Link endpoints, created before any fork so both endpoint processes
    // inherit them as shared mappings.
    for (std::size_t i = 0; i < n_workers_; ++i)
      rings_.push_back(ShmRing::create(config_.ring_bytes));
    sink_stream_.set_producers(1);
    sink_stream_.set_consumers(groups_[sink_gi_].copies);
    if (config_.pool_buffers_per_class > 0) {
      pool_.emplace(config_.pool_buffers_per_class);
      pool_->set_geometry(1, config_.stream_capacity, config_.batch_size,
                          static_cast<std::size_t>(groups_[sink_gi_].copies));
    }
  }
  Attempt(const Attempt&) = delete;
  Attempt& operator=(const Attempt&) = delete;

  void run() {
    fork_workers();
    if (!handshake()) return;
    // The lapse clock starts at handshake so a worker that never beats at
    // all is caught.
    const std::int64_t now_ns = steady_now_ns();
    for (HeartbeatState& h : hb_)
      h.last_beat_ns.store(now_ns, std::memory_order_relaxed);
    // The supervisor's own data endpoint: the consumer end of the last
    // link, feeding the in-process sink group.
    sink_link_.emplace(rings_.back());

    std::vector<std::thread> control_readers;
    for (std::size_t wi = 0; wi < n_workers_; ++wi)
      control_readers.emplace_back([this, wi] { read_control(wi); });
    std::thread reaper([this] { reap(); });
    run_sink();
    reaper.join();
    for (std::thread& t : control_readers) t.join();
    drain_cut_records();
    fold_trace();
  }

 private:
  struct WorkerHandle {
    pid_t pid = -1;
    bool reaped = false;
    std::shared_ptr<FdChannel> status_chan;  // worker -> supervisor
    std::unique_ptr<ControlWriter> command;  // supervisor -> worker
    std::unique_ptr<FrameLink> status;
  };
  // Per-worker end-of-run trace slice and group state, filled by that
  // worker's control reader thread and consumed only after the reader
  // joined.
  struct WorkerReport {
    std::optional<support::PipelineTrace> slice;
    bool have_state = false;
    std::vector<std::byte> group_state;
  };

  void fork_workers();
  bool handshake();
  void kill_all_forked();
  void fail_startup(const std::string& message);
  void read_control(std::size_t wi);
  void reap();
  bool reap_exits(std::size_t& remaining);
  void monitor_lapses(std::int64_t& last_monitor_ns);
  void watch_stalls(detail::StallWatch& watch);
  void run_sink();
  void fold_trace();

  void set_error(std::exception_ptr error, const std::string& message) {
    std::lock_guard lock(state_mutex_);
    if (!first_error_) {
      first_error_ = std::move(error);
      stats_.error = message;
    }
  }
  void record_fault(support::FaultRecord fault) {
    std::lock_guard lock(state_mutex_);
    stats_.faults.push_back(std::move(fault));
  }
  void global_teardown(bool preserve_sink);
  void drain_cut_records() {
    std::vector<support::CheckpointRecord> records = collector_.take_records();
    if (records.empty()) return;
    std::lock_guard lock(state_mutex_);
    for (auto& rec : records) stats_.checkpoints.push_back(std::move(rec));
  }
  void submit_part(std::int64_t id, std::size_t gi, int copy,
                   std::vector<std::byte> state, bool usable,
                   std::int64_t delivered) {
    collector_.submit_part(id, gi, copy, std::move(state), usable, delivered);
    drain_cut_records();
  }
  void register_terminal(std::size_t gi, int copy, bool usable,
                         std::int64_t delivered) {
    collector_.register_terminal(gi, copy, usable, delivered);
    drain_cut_records();
  }

  const std::vector<FilterGroup>& groups_;
  const RunnerConfig& config_;
  const FaultPolicy& policy_;
  const RunHooks& hooks_;
  const PipelineRunner::GroupStateExport& group_export_;
  const bool run_ckpt_;
  const Clock::time_point run_start_;
  AttemptResult& out_;
  support::PipelineTrace& stats_;
  const bool heal_;
  const std::size_t n_groups_;
  const std::size_t n_workers_;  // one per link
  const std::size_t sink_gi_;

  std::vector<std::shared_ptr<ShmRing>> rings_;
  std::vector<WorkerHandle> workers_;
  // Heartbeat mirrors, one per worker: the control readers write them,
  // the reaper's lapse and stall monitors sample them.
  std::vector<HeartbeatState> hb_;
  std::optional<FrameLink> sink_link_;
  Stream sink_stream_;
  std::optional<BufferPool> pool_;

  std::mutex state_mutex_;  // guards stats_ and first_error_
  std::exception_ptr first_error_;
  detail::TeardownLatch teardown_;
  std::atomic<bool> abort_broadcast_{false};
  detail::CutCollector collector_;
  std::vector<WorkerReport> reports_;

  // Sink-group counters, sampled by the reaper's stall watchdog
  // alongside the workers' heartbeat mirrors.
  GroupRuntime sink_runtime_;
  std::atomic<int> sink_live_;
  std::atomic<bool> sink_warned_{false};

  // Reaper-only: escalation kills and lapse kills, so neither is mistaken
  // for an organic death.
  std::vector<char> escalated_;
  std::vector<char> lapse_killed_;
  const bool hb_on_;
  const double lapse_after_;
};

void Attempt::kill_all_forked() {
  for (WorkerHandle& w : workers_)
    if (w.pid > 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      int st = 0;
      while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
      }
      w.reaped = true;
    }
}

void Attempt::fork_workers() {
  // Fork every worker before this process creates a single thread (fork
  // in a multithreaded supervisor is undefined enough that TSan rejects
  // it outright). An earlier in-process run may have left the setup
  // worker pool's threads parked (StageFilter::init), so it is quiesced
  // first. Children never return from worker_main.
  support::WorkerPool::instance().quiesce();
  std::vector<int> parent_fds;  // supervisor pipe ends forked so far
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    int status_pipe[2];
    int command_pipe[2];
    if (::pipe(status_pipe) != 0 || ::pipe(command_pipe) != 0) {
      kill_all_forked();
      throw std::system_error(errno, std::generic_category(),
                              "run_multiprocess: pipe");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all_forked();
      throw std::system_error(errno, std::generic_category(),
                              "run_multiprocess: fork");
    }
    if (pid == 0) {
      ::close(status_pipe[0]);
      ::close(command_pipe[1]);
      // Supervisor-side ends of earlier workers' pipes: holding
      // duplicate command-pipe write ends would keep a sibling's EOF
      // from ever firing until this whole cohort exits, and the
      // descriptors are dead weight in every worker.
      for (const int fd : parent_fds) ::close(fd);
      // Rings this worker is not a party to: it reads link gi-1 and
      // writes link gi.
      for (std::size_t li = 0; li < rings_.size(); ++li)
        if (li != wi && !(wi > 0 && li == wi - 1)) rings_[li].reset();
      WorkerSetup setup;
      setup.gi = wi;
      setup.groups = &groups_;
      setup.config = &config_;
      setup.policy = &policy_;
      setup.hooks = &hooks_;
      setup.group_export = &group_export_;
      setup.run_ckpt = run_ckpt_;
      if (wi > 0) setup.in_chan = rings_[wi - 1];
      setup.out_chan = rings_[wi];
      setup.status_chan = std::make_shared<FdChannel>(status_pipe[1]);
      setup.command_chan = std::make_shared<FdChannel>(command_pipe[0]);
      worker_main(std::move(setup));  // never returns
    }
    ::close(status_pipe[1]);
    ::close(command_pipe[0]);
    parent_fds.push_back(status_pipe[0]);
    parent_fds.push_back(command_pipe[1]);
    WorkerHandle& w = workers_[wi];
    w.pid = pid;
    w.status_chan = std::make_shared<FdChannel>(status_pipe[0]);
    w.status = std::make_unique<FrameLink>(w.status_chan);
    w.command = std::make_unique<ControlWriter>(
        std::make_shared<FdChannel>(command_pipe[1]));
    if (hooks_.process) hooks_.process(wi, static_cast<long>(pid));
  }
}

void Attempt::fail_startup(const std::string& message) {
  // A startup failure may itself be an organic death (the chaos sniper
  // does not wait for the handshake): sweep the corpses before the
  // indiscriminate SIGKILL so a self-healing run can tell resurrection
  // candidates from collateral.
  if (heal_) {
    for (std::size_t wi = 0; wi < n_workers_; ++wi) {
      WorkerHandle& w = workers_[wi];
      if (w.pid <= 0 || w.reaped) continue;
      int st = 0;
      if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
      w.reaped = true;
      if (WIFSIGNALED(st))
        out_.organic.push_back(
            {wi,
             "worker process for stage '" + groups_[wi].name +
                 "' died (signal " + std::to_string(WTERMSIG(st)) +
                 ") during startup",
             seconds_since(run_start_)});
    }
  }
  kill_all_forked();
  stats_.error = message;
  stats_.completed = false;
  out_.error = std::make_exception_ptr(std::runtime_error(message));
  out_.handshake_done = seconds_since(run_start_);
}

bool Attempt::handshake() {
  // Still single-threaded: plans out, ACKs back.
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    WorkerPlan plan = detail::plan_for(wi, groups_, config_, run_ckpt_);
    plan.run_elapsed_seconds = seconds_since(run_start_);
    if (!workers_[wi].command->send(kMsgPlan, encode_plan(plan))) {
      fail_startup("run_multiprocess: worker for stage '" +
                   groups_[wi].name + "' rejected the plan pipe");
      return false;
    }
  }
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    std::optional<Frame> ack = workers_[wi].status->recv();
    if (!ack || ack->kind != FrameKind::kData ||
        ack->buffers.front().tag() != kMsgAck) {
      fail_startup("run_multiprocess: worker for stage '" +
                   groups_[wi].name + "' did not acknowledge its plan");
      return false;
    }
  }
  out_.handshake_done = seconds_since(run_start_);
  return true;
}

// Whole-run teardown, used when a worker dies without a word: silent
// death cannot cascade through the data plane on its own (a SIGKILLed
// ring endpoint leaves the ring open), so the supervisor aborts the rings
// it retained (the last is its own sink channel), the sink stream, and
// broadcasts abort commands to every worker. `preserve_sink` is the
// self-healing variant: the sink stream is quiesced instead of aborted,
// so its queued prefix stays deliverable — the basis of both the degraded
// partial result and the rollback (the sink's cut part reflects what it
// actually consumed).
void Attempt::global_teardown(bool preserve_sink) {
  if (abort_broadcast_.exchange(true)) return;
  for (const std::shared_ptr<ShmRing>& ring : rings_) ring->abort();
  for (WorkerHandle& w : workers_) w.command->send(kMsgAbort, Buffer());
  if (preserve_sink)
    sink_stream_.quiesce();
  else
    sink_stream_.abort();
  teardown_.signal();
}

void Attempt::read_control(std::size_t wi) {
  hb_[wi].reader_tid.store(::gettid(), std::memory_order_relaxed);
  WorkerReport& report = reports_[wi];
  for (;;) {
    std::optional<Frame> frame = workers_[wi].status->recv();
    if (!frame) break;
    if (frame->kind == FrameKind::kHeartbeat) {
      HeartbeatState& h = hb_[wi];
      const std::int64_t now_ns = steady_now_ns();
      h.last_beat_ns.store(now_ns, std::memory_order_relaxed);
      h.progress.store(frame->hb_progress, std::memory_order_relaxed);
      h.waiting.store(frame->hb_waiting, std::memory_order_relaxed);
      h.live.store(static_cast<int>(frame->hb_live),
                   std::memory_order_relaxed);
      h.beats.fetch_add(1, std::memory_order_relaxed);
      // Single writer per mirror: plain load/modify/store suffices.
      const std::int64_t lat =
          std::max<std::int64_t>(0, now_ns - frame->hb_send_ns);
      h.latency_sum_ns.store(
          h.latency_sum_ns.load(std::memory_order_relaxed) + lat,
          std::memory_order_relaxed);
      if (lat > h.latency_max_ns.load(std::memory_order_relaxed))
        h.latency_max_ns.store(lat, std::memory_order_relaxed);
      continue;
    }
    if (frame->kind != FrameKind::kData) continue;
    Buffer& body = frame->buffers.front();
    switch (body.tag()) {
      case kMsgPart: {
        const std::int64_t id = body.read<std::int64_t>();
        const auto gi = static_cast<std::size_t>(body.read<std::uint64_t>());
        const int copy = static_cast<int>(body.read<std::int64_t>());
        const bool usable = body.read<std::uint8_t>() != 0;
        const std::int64_t delivered = body.read<std::int64_t>();
        submit_part(id, gi, copy, get_blob(body), usable, delivered);
        break;
      }
      case kMsgTerminal: {
        const auto gi = static_cast<std::size_t>(body.read<std::uint64_t>());
        const int copy = static_cast<int>(body.read<std::int64_t>());
        const bool usable = body.read<std::uint8_t>() != 0;
        const std::int64_t delivered = body.read<std::int64_t>();
        register_terminal(gi, copy, usable, delivered);
        break;
      }
      case kMsgFault: {
        const support::PipelineTrace fault = get_trace(body);
        std::lock_guard lock(state_mutex_);
        stats_.merge(fault);
        break;
      }
      case kMsgFatal: {
        const std::string what = body.read_string();
        set_error(std::make_exception_ptr(std::runtime_error(what)), what);
        break;
      }
      case kMsgStats:
        report.slice = get_trace(body);
        break;
      case kMsgGroupState: {
        report.group_state = get_blob(body);
        report.have_state = true;
        break;
      }
      default:
        break;  // unknown control message: skip, never wedge
    }
  }
}

// Reaper: polls (never waitpid(-1): the host process may own unrelated
// children) so an out-of-order death is noticed within milliseconds. It
// is also the liveness authority: a worker silent past the heartbeat
// lapse window is SIGKILLed (then classified as a lapse death when
// reaped), and with heartbeats on it runs the thread backend's
// no-progress watchdog over the heartbeat mirrors. Once an abort has been
// broadcast, workers that still have not exited after the teardown grace
// are SIGKILLed: a worker wedged mid-teardown must never keep the reaper —
// and with it the whole run — from converging. Escalation kills are
// flagged so they are never mistaken for organic deaths.
void Attempt::reap() {
  std::size_t remaining = 0;
  for (const WorkerHandle& w : workers_)
    if (!w.reaped) ++remaining;
  bool escalation_armed = false;
  Clock::time_point abort_seen{};
  detail::StallWatch watch(groups_, policy_.stage_timeout_seconds, run_start_);
  std::int64_t last_monitor_ns = -1;
  while (remaining > 0) {
    if (reap_exits(remaining)) continue;
    if (abort_broadcast_.load(std::memory_order_relaxed)) {
      if (!escalation_armed) {
        escalation_armed = true;
        abort_seen = Clock::now();
      } else if (seconds_since(abort_seen) >
                 static_cast<double>(config_.teardown_grace_ms) / 1e3) {
        for (std::size_t wi = 0; wi < n_workers_; ++wi)
          if (!workers_[wi].reaped) {
            escalated_[wi] = 1;
            ::kill(workers_[wi].pid, SIGKILL);
          }
      }
    } else if (hb_on_) {
      monitor_lapses(last_monitor_ns);
      if (policy_.stage_timeout_seconds > 0.0) watch_stalls(watch);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Reaps every worker that exited since the last poll and classifies its
// end. True when at least one was reaped.
bool Attempt::reap_exits(std::size_t& remaining) {
  bool progress = false;
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    WorkerHandle& w = workers_[wi];
    if (w.reaped) continue;
    int st = 0;
    const pid_t r = ::waitpid(w.pid, &st, WNOHANG);
    if (r != w.pid) continue;
    w.reaped = true;
    --remaining;
    progress = true;
    if (WIFSIGNALED(st)) {
      if (escalated_[wi]) continue;  // our own teardown kill
      std::ostringstream msg;
      msg << "worker process for stage '" << groups_[wi].name << "' ";
      if (lapse_killed_[wi])
        msg << "was killed after a heartbeat lapse (silent for more "
               "than "
            << lapse_after_ << "s)";
      else
        msg << "died (signal " << WTERMSIG(st) << ")";
      if (heal_) {
        // Resurrection candidate: preserve the sink's queued prefix and
        // let the outer loop roll back and respawn. The reaper is the
        // only concurrent writer of `organic`; the outer loop reads it
        // after every thread joined.
        out_.organic.push_back({wi, msg.str(), seconds_since(run_start_)});
        global_teardown(true);
      } else {
        set_error(std::make_exception_ptr(std::runtime_error(msg.str())),
                  msg.str());
        global_teardown(false);
      }
    } else if (WIFEXITED(st) && WEXITSTATUS(st) != 0) {
      std::ostringstream msg;
      msg << "worker process for stage '" << groups_[wi].name
          << "' exited with status " << WEXITSTATUS(st);
      set_error(std::make_exception_ptr(std::runtime_error(msg.str())),
                msg.str());
      global_teardown(false);
    }
  }
  return progress;
}

// Lapse monitor: a worker whose heartbeats stopped is wedged or half-dead
// in a way the data plane cannot see (e.g. a stuck syscall). Kill it
// crisply; the reap classifies the corpse, and under self-healing it gets
// resurrected. A silence that is not the worker's own spares it: beats
// this process has not read yet, or a worker thread waiting for a CPU
// (detail::lapse_is_workers_own).
void Attempt::monitor_lapses(std::int64_t& last_monitor_ns) {
  const std::int64_t now_ns = steady_now_ns();
  // Self-stall guard: a monitor that just lost the CPU for a sizable
  // slice of the window cannot tell a silent worker from its own
  // starvation — beats may be parked in pipes the control readers have
  // not drained yet. Skip this round's verdicts and let them land (loaded
  // single-core hosts and sanitizer slowdowns hit this constantly).
  const bool monitor_stalled =
      last_monitor_ns >= 0 &&
      static_cast<double>(now_ns - last_monitor_ns) / 1e9 > lapse_after_ / 2.0;
  last_monitor_ns = now_ns;
  for (std::size_t wi = 0; !monitor_stalled && wi < n_workers_; ++wi) {
    WorkerHandle& w = workers_[wi];
    if (w.reaped || lapse_killed_[wi]) continue;
    const std::int64_t last =
        hb_[wi].last_beat_ns.load(std::memory_order_relaxed);
    if (static_cast<double>(now_ns - last) / 1e9 <= lapse_after_) continue;
    // The evidence first, then the silence: a beat handled meanwhile
    // shows in the silence read after it.
    detail::LapseEvidence evidence;
    evidence.unread_status_bytes = w.status_chan->unread_bytes();
    evidence.reader_holds_beats = w.status_chan->reader_holds_bytes();
    const pid_t reader = hb_[wi].reader_tid.load(std::memory_order_relaxed);
    if (reader > 0)
      evidence.reader_stat =
          first_line("/proc/self/task/" + std::to_string(reader) + "/stat");
    evidence.task_stats = read_task_stats(w.pid);
    evidence.silent_seconds =
        static_cast<double>(
            steady_now_ns() -
            hb_[wi].last_beat_ns.load(std::memory_order_relaxed)) /
        1e9;
    if (detail::lapse_is_workers_own(evidence, lapse_after_)) {
      lapse_killed_[wi] = 1;
      ::kill(w.pid, SIGKILL);
    }
  }
}

// Stall watchdog over the heartbeat mirrors: the thread backend's exact
// rule (detail::StallWatch), with the sink group sampled in-process.
void Attempt::watch_stalls(detail::StallWatch& watch) {
  const Clock::time_point now = Clock::now();
  for (std::size_t gi = 0; gi < n_groups_; ++gi) {
    const bool is_sink = gi == sink_gi_;
    // A finished worker's mirror is frozen at its last beat (often still
    // showing live copies): a corpse can't stall.
    const int alive =
        is_sink ? sink_live_.load(std::memory_order_relaxed)
        : workers_[gi].reaped ? 0
                              : hb_[gi].live.load(std::memory_order_relaxed);
    const std::int64_t prog =
        is_sink ? sink_runtime_.progress.load(std::memory_order_relaxed)
                : hb_[gi].progress.load(std::memory_order_relaxed);
    const auto waiting = static_cast<int>(
        is_sink ? sink_runtime_.waiting.load(std::memory_order_relaxed)
                : hb_[gi].waiting.load(std::memory_order_relaxed));
    std::optional<support::FaultRecord> fault =
        watch.sample(gi, alive, waiting, prog, now);
    if (!fault) continue;
    const std::string what = fault->what;
    {
      std::lock_guard state_lock(state_mutex_);
      stats_.stage_metrics[gi].faults += 1;
    }
    record_fault(std::move(*fault));
    set_error(std::make_exception_ptr(std::runtime_error(what)), what);
    global_teardown(false);
    return;
  }
}

// The sink group runs in this process: a pump from the last link into the
// sink stream, and the group's copies under the same run_copy supervisor
// every worker runs.
void Attempt::run_sink() {
  std::thread sink_pump([this] {
    // An unclean end already quiesced or aborted the sink stream.
    pump_link_into_stream(*sink_link_, sink_stream_, heal_);
    if (!sink_link_->error().empty()) {
      set_error(
          std::make_exception_ptr(std::runtime_error(sink_link_->error())),
          sink_link_->error());
      global_teardown(heal_);
    }
  });

  detail::CopyWorld world;
  world.config = &config_;
  world.policy = &policy_;
  world.group = &groups_[sink_gi_];
  world.gi = sink_gi_;
  world.run_ckpt = run_ckpt_;
  world.start = run_start_;
  world.hooks = &hooks_;
  world.pool = pool_ ? &*pool_ : nullptr;
  world.runtime = &sink_runtime_;
  world.live = &sink_live_;
  world.warned_no_snapshot = &sink_warned_;
  world.merge_metrics = [this](const support::FilterMetrics& m) {
    std::lock_guard lock(state_mutex_);
    stats_.stage_metrics[sink_gi_].merge(m);
  };
  world.record_fault = [this](support::FaultRecord fault) {
    record_fault(std::move(fault));
  };
  world.set_error = [this](std::exception_ptr error,
                           const std::string& message) {
    set_error(std::move(error), message);
  };
  world.abort_all = [this] { global_teardown(false); };
  world.teardown = &teardown_;
  world.submit_part = [this](std::int64_t id, std::size_t gi, int copy,
                             std::vector<std::byte> state, bool usable,
                             std::int64_t delivered) {
    submit_part(id, gi, copy, std::move(state), usable, delivered);
  };
  world.register_terminal = [this](std::size_t gi, int copy, bool usable,
                                   std::int64_t delivered) {
    register_terminal(gi, copy, usable, delivered);
  };

  std::vector<std::thread> sink_copies;
  for (int copy = 0; copy < groups_[sink_gi_].copies; ++copy)
    sink_copies.emplace_back([this, &world, copy] {
      detail::run_copy(world, copy, &sink_stream_, nullptr);
    });
  for (std::thread& t : sink_copies) t.join();
  sink_pump.join();
}

// Assembles the attempt's trace once every thread has joined.
void Attempt::fold_trace() {
  stats_.wall_seconds = seconds_since(run_start_);
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    WorkerReport& report = reports_[wi];
    if (report.slice) stats_.merge(*report.slice);
    out_.have_stats[wi] = report.slice ? 1 : 0;
    out_.have_state[wi] = report.have_state ? 1 : 0;
    if (report.have_state) out_.group_state[wi] = std::move(report.group_state);
  }
  // The last link's receiving end is the sink pump in this process.
  stats_.link_metrics.back().recv_wait_seconds +=
      sink_link_->counters().recv_wait_seconds;
  if (pool_) stats_.pool.merge(pool_->metrics());
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    const std::int64_t beats = hb_[wi].beats.load(std::memory_order_relaxed);
    if (beats <= 0) continue;
    support::HeartbeatMetrics m;
    m.group = groups_[wi].name;
    m.beats = beats;
    m.max_latency_seconds =
        static_cast<double>(
            hb_[wi].latency_max_ns.load(std::memory_order_relaxed)) /
        1e9;
    m.sum_latency_seconds =
        static_cast<double>(
            hb_[wi].latency_sum_ns.load(std::memory_order_relaxed)) /
        1e9;
    stats_.heartbeats.push_back(std::move(m));
  }
  out_.cut = collector_.take_latest_cut();
  std::lock_guard lock(state_mutex_);
  out_.error = first_error_;
  stats_.completed = !first_error_;
}

}  // namespace

// ---- supervisor: the rollback-recovery loop -------------------------------

RunOutcome PipelineRunner::run_multiprocess(bool run_ckpt) {
  ScopedIgnoreSigpipe sigpipe_guard;

  const std::size_t n_workers = groups_.size() - 1;  // >= 1 (dispatch)

  // One epoch for the whole run: every attempt's fault stamps, cut
  // records, and respawn records are offsets from here, so a healed run's
  // timeline reads as one run, not a stack of restarts.
  const auto run_start = Clock::now();

  RunOutcome outcome;
  support::PipelineTrace& merged = outcome.stats;
  merged = detail::trace_skeleton(groups_, config_, policy_);

  // Rollback-recovery state carried across attempts: the cut the next
  // attempt restores from (seeded by an explicit --resume, then advanced
  // to each attempt's newest in-run cut), per-worker restart budgets, and
  // the respawn records whose MTTR the next handshake completes.
  std::optional<RunCheckpoint> restore;
  if (config_.resume) restore = *config_.resume;
  std::vector<int> restarts_used(n_workers, 0);
  std::vector<support::RespawnRecord> pending;

  for (;;) {
    RunnerConfig attempt_config = config_;
    attempt_config.resume = restore ? &*restore : nullptr;

    AttemptResult r;
    r.have_stats.assign(n_workers, 0);
    r.have_state.assign(n_workers, 0);
    r.group_state.resize(n_workers);
    Attempt(groups_, attempt_config, policy_, hooks_, group_export_, run_ckpt,
            run_start, r)
        .run();

    // The respawns the previous wave scheduled are recovered the moment
    // the replacement topology finished its handshake: stamp their MTTR.
    for (support::RespawnRecord& rec : pending) {
      rec.mttr_seconds = std::max(0.0, r.handshake_done - rec.at_seconds);
      merged.respawns.push_back(std::move(rec));
    }
    pending.clear();

    const std::string attempt_error_text = r.stats.error;
    merged.merge(r.stats);

    // A death between a worker's final telemetry and its exit is not a
    // failure: if the attempt produced no error and every worker's stats
    // arrived, the pipeline finished — a corpse found afterwards must not
    // trigger a pointless full re-run.
    bool all_stats = true;
    for (std::size_t wi = 0; wi < n_workers; ++wi)
      if (!r.have_stats[wi]) all_stats = false;
    const bool attempt_complete = !r.error && all_stats;
    const bool want_respawn = !r.organic.empty() && !attempt_complete;
    bool exhausted = false;
    for (const WorkerDeath& d : r.organic)
      if (restarts_used[d.wi] >= config_.worker_restarts) exhausted = true;

    if (!want_respawn || exhausted) {
      // Final attempt: import surviving workers' group state exactly once
      // (the last image is the authoritative one; earlier attempts' blobs
      // would double-apply).
      if (group_import_)
        for (std::size_t wi = 0; wi < n_workers; ++wi)
          if (r.have_state[wi]) group_import_(wi, r.group_state[wi]);
      if (want_respawn) {
        // Budget exhausted: graceful degradation. The sink stream was
        // quiesced, so whatever the surviving stages delivered stands as
        // a partial result; error stays null so nothing rethrows it away.
        for (const WorkerDeath& d : r.organic) {
          support::FaultRecord fault;
          fault.group = groups_[d.wi].name;
          fault.copy = -1;
          fault.what = d.cause;
          fault.resolution = support::FaultResolution::kCopyDead;
          fault.attempt = restarts_used[d.wi];
          fault.at_seconds = d.at_seconds;
          merged.faults.push_back(std::move(fault));
        }
        merged.degraded = true;
        merged.completed = false;
        merged.error = "self-heal: restart budget (" +
                       std::to_string(config_.worker_restarts) +
                       ") exhausted for stage '" +
                       groups_[r.organic.front().wi].name +
                       "'; surviving stages drained to a partial result";
        outcome.error = nullptr;
        outcome.disposition = RunOutcome::kDegraded;
      } else {
        outcome.error = r.error;
        outcome.disposition =
            r.error ? RunOutcome::kFailed : RunOutcome::kComplete;
        merged.completed = !r.error;
        merged.error = r.error ? attempt_error_text : "";
      }
      break;
    }

    // Respawn wave: roll the restore point forward to the attempt's
    // newest usable cut (keep the previous one if none completed), charge
    // each dead worker's budget, record the incident, and back off.
    if (r.cut) restore = std::move(r.cut);
    double delay = 0.0;
    for (const WorkerDeath& d : r.organic) {
      const int restart = ++restarts_used[d.wi];
      std::ostringstream what;
      what << d.cause << "; respawning (restart " << restart << " of "
           << config_.worker_restarts << ", ";
      if (restore)
        what << "rolling back to cut " << restore->id << ")";
      else
        what << "restarting from scratch)";
      support::FaultRecord fault;
      fault.group = groups_[d.wi].name;
      fault.copy = -1;
      fault.what = what.str();
      fault.resolution = support::FaultResolution::kRespawnedWorker;
      fault.attempt = restart;
      fault.at_seconds = d.at_seconds;
      merged.faults.push_back(std::move(fault));
      support::RespawnRecord rec;
      rec.group = groups_[d.wi].name;
      rec.worker = static_cast<int>(d.wi);
      rec.restart = restart;
      rec.cut_id = restore ? restore->id : -1;
      rec.at_seconds = d.at_seconds;
      rec.cause = d.cause;
      pending.push_back(std::move(rec));
      double backoff = policy_.backoff_initial_seconds;
      for (int i = 1; i < restart; ++i)
        backoff = std::min(backoff * policy_.backoff_multiplier,
                           policy_.backoff_max_seconds);
      delay = std::max(delay, std::min(backoff, policy_.backoff_max_seconds));
    }
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }

  merged.wall_seconds = seconds_since(run_start);
  return outcome;
}

}  // namespace cgp::dc
