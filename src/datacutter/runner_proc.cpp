// Multi-process backends of the pipeline runner (proc: shared-memory
// rings; tcp: loopback sockets). Topology: one worker process per
// non-sink stage group, forked BEFORE the supervisor creates any thread
// and after it has joined the setup worker pool's (WorkerPool::quiesce);
// the sink group and the run-level cut collector stay in the supervisor
// process, because the sink's finals are in-memory results.
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
// sends each worker its plan (stage name, replica count, batch/pool
// geometry, stage-to-endpoint map, heartbeat cadence, restore cut)
// which the worker validates against its fork-inherited configuration
// before ACKing. During the run the worker streams cut parts, terminals,
// faults, fatal errors, and periodic kHeartbeat liveness frames; at exit
// it sends its slice of the run's trace and its group-state blob. Faults
// and the slice travel as support::PipelineTrace documents in the JSON
// codec --trace writes, which the supervisor merges into the run's trace.
//
// Teardown discipline: a fatal fault aborts the failing worker's channel
// ends, and every pump that observes an aborted or truncated channel
// aborts its own worker's other end — the abort cascades along the chain
// in both directions, reproducing the thread backend's abort-everything
// semantics without a central coordinator. A worker that dies without a
// word (SIGKILL) is caught by the supervisor's reaper, which aborts the
// rings it retained handles to, aborts the sink channel, and broadcasts
// abort commands, so no survivor blocks forever on a peer that is gone.
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
#include <condition_variable>
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
#include "datacutter/tcp_channel.h"
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

}  // namespace detail

namespace {

using detail::Clock;
using detail::seconds_since;

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

void put_string(Buffer& b, const std::string& s) {
  b.write<std::uint64_t>(s.size());
  if (!s.empty()) b.write_bytes(s.data(), s.size());
}

std::string get_string(Buffer& b) {
  const auto n = static_cast<std::size_t>(b.read<std::uint64_t>());
  std::string s(n, '\0');
  if (n > 0) b.read_bytes(s.data(), n);
  return s;
}

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
  put_string(b, support::trace_to_json(trace, 0));
}

support::PipelineTrace get_trace(Buffer& b) {
  return support::trace_from_json(get_string(b));
}

// ---- handshake plan -------------------------------------------------------
// What the supervisor tells each worker it is: the stage plan (name,
// replica count), the transport geometry (stream capacity, batch size,
// pool depth, ring bytes), the stage-to-endpoint map (loopback ports on
// tcp; rings are inherited mappings on proc), the heartbeat cadence, and
// the restore cut a self-healing attempt rolls back to (id + content
// digest; the cut's bytes are fork-inherited, so the handshake only has
// to prove both sides mean the same cut). The worker validates every
// field against its fork-inherited configuration: a mismatch means the
// supervisor and worker disagree about the run and the worker refuses to
// start.
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
  std::uint8_t backend = 0;
  std::uint8_t run_ckpt = 0;
  std::int64_t in_port = -1;   // tcp: link gi-1 (accepted on inherited fd)
  std::int64_t out_port = -1;  // tcp: link gi (worker connects)
  double heartbeat_seconds = 0.0;
  // Run-relative epoch of this attempt's fork: the worker stamps its
  // fault records against (now - run_elapsed) so timestamps stay
  // comparable across self-healing attempts.
  double run_elapsed_seconds = 0.0;
  std::int64_t restore_cut_id = -1;  // -1: fresh start, no restore
  std::uint64_t restore_digest = 0;  // checkpoint_checksum of the cut
};

Buffer encode_plan(const WorkerPlan& p) {
  Buffer b;
  b.write<std::uint64_t>(p.gi);
  b.write<std::uint64_t>(p.n_groups);
  put_string(b, p.group_name);
  b.write<std::int64_t>(p.copies);
  b.write<std::uint64_t>(p.stream_capacity);
  b.write<std::uint64_t>(p.batch_size);
  b.write<std::uint64_t>(p.pool_buffers_per_class);
  b.write<std::uint64_t>(p.checkpoint_interval);
  b.write<std::uint64_t>(p.ring_bytes);
  b.write<std::uint8_t>(p.backend);
  b.write<std::uint8_t>(p.run_ckpt);
  b.write<std::int64_t>(p.in_port);
  b.write<std::int64_t>(p.out_port);
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
  p.group_name = get_string(b);
  p.copies = b.read<std::int64_t>();
  p.stream_capacity = b.read<std::uint64_t>();
  p.batch_size = b.read<std::uint64_t>();
  p.pool_buffers_per_class = b.read<std::uint64_t>();
  p.checkpoint_interval = b.read<std::uint64_t>();
  p.ring_bytes = b.read<std::uint64_t>();
  p.backend = b.read<std::uint8_t>();
  p.run_ckpt = b.read<std::uint8_t>();
  p.in_port = b.read<std::int64_t>();
  p.out_port = b.read<std::int64_t>();
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
// embedding application's signal handling. Sockets already use
// MSG_NOSIGNAL; this covers the control-plane pipes. Workers inherit the
// ignore across fork — which is what they need — and _exit before the
// guard unwinds.
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
  std::shared_ptr<ByteChannel> in_chan;   // proc: ring (null for gi == 0)
  std::shared_ptr<ByteChannel> out_chan;  // proc: ring; tcp: set after plan
  TcpListener* in_listener = nullptr;     // tcp, gi > 0: accept here
  std::shared_ptr<FdChannel> status_chan;
  std::shared_ptr<FdChannel> command_chan;
};

[[noreturn]] void worker_main(WorkerSetup setup) {
  const std::size_t gi = setup.gi;
  const FilterGroup& group = (*setup.groups)[gi];
  const RunnerConfig& config = *setup.config;
  ControlWriter status(setup.status_chan);

  const auto fatal_exit = [&](const std::string& message, int code) {
    Buffer b;
    put_string(b, message);
    status.send(kMsgFatal, std::move(b));
    status.close_write();
    ::_exit(code);
  };

  try {
    // Handshake: receive and validate the plan, then ACK.
    FrameLink command(setup.command_chan);
    std::optional<Frame> hello = command.recv();
    if (!hello || hello->kind != FrameKind::kData ||
        hello->buffers.front().tag() != kMsgPlan)
      fatal_exit("worker '" + group.name + "': handshake carried no plan", 3);
    WorkerPlan plan = decode_plan(hello->buffers.front());
    {
      std::ostringstream mismatch;
      if (plan.gi != gi) mismatch << " group-index";
      if (plan.n_groups != setup.groups->size()) mismatch << " pipeline-size";
      if (plan.group_name != group.name) mismatch << " stage-name";
      if (plan.copies != group.copies) mismatch << " replica-count";
      if (plan.stream_capacity != config.stream_capacity)
        mismatch << " stream-capacity";
      if (plan.batch_size != config.batch_size) mismatch << " batch-size";
      if (plan.pool_buffers_per_class != config.pool_buffers_per_class)
        mismatch << " pool-depth";
      if (plan.checkpoint_interval != config.checkpoint_interval)
        mismatch << " checkpoint-interval";
      if (plan.ring_bytes != config.ring_bytes) mismatch << " ring-bytes";
      if (plan.backend != static_cast<std::uint8_t>(config.backend))
        mismatch << " backend";
      if ((plan.run_ckpt != 0) != setup.run_ckpt) mismatch << " run-ckpt";
      if (plan.heartbeat_seconds != config.heartbeat_seconds)
        mismatch << " heartbeat";
      // The restore cut itself is fork-inherited (config.resume); the
      // plan carries its id and content digest so a supervisor and a
      // worker that somehow disagree about the rollback point refuse to
      // run rather than silently double- or under-delivering.
      const std::int64_t inherited_cut =
          config.resume ? config.resume->id : -1;
      const std::uint64_t inherited_digest =
          config.resume ? checkpoint_checksum(*config.resume) : 0;
      if (plan.restore_cut_id != inherited_cut ||
          plan.restore_digest != inherited_digest)
        mismatch << " restore-cut";
      const std::string bad = mismatch.str();
      if (!bad.empty())
        fatal_exit("worker '" + group.name +
                       "': plan disagrees with inherited configuration on:" +
                       bad,
                   3);
    }
    {
      Buffer ack;
      ack.write<std::uint64_t>(gi);
      status.send(kMsgAck, std::move(ack));
    }

    // Shared progress counters, declared before the heartbeat thread so
    // liveness frames can carry them from the very first beat.
    GroupRuntime runtime;
    std::atomic<int> live{group.copies};

    // Liveness heartbeats: from plan ACK until the telemetry epilogue, a
    // dedicated thread sends kHeartbeat frames carrying the group's
    // progress counters. Started before the tcp connect/accept below on
    // purpose — a worker wedged in a handshake whose peer died must look
    // silent to the supervisor's lapse monitor, not merely slow.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread hb_thread;
    if (config.heartbeat_seconds > 0.0) {
      hb_thread = std::thread([&] {
        std::int64_t seq = 0;
        std::unique_lock lock(hb_mutex);
        while (!hb_stop) {
          lock.unlock();
          const std::int64_t now_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now().time_since_epoch())
                  .count();
          const bool sent = status.send_frame(Frame::heartbeat(
              seq++, now_ns,
              runtime.progress.load(std::memory_order_relaxed),
              runtime.waiting.load(std::memory_order_relaxed),
              live.load(std::memory_order_relaxed)));
          lock.lock();
          if (!sent) break;  // supervisor gone; the reaper owns us now
          hb_cv.wait_for(
              lock, std::chrono::duration<double>(config.heartbeat_seconds),
              [&] { return hb_stop; });
        }
      });
    }
    const auto stop_heartbeats = [&] {
      if (!hb_thread.joinable()) return;
      {
        std::lock_guard lock(hb_mutex);
        hb_stop = true;
      }
      hb_cv.notify_all();
      hb_thread.join();
    };

    // Data endpoints: on tcp, connect the output first (the listener was
    // bound before fork, so the connection queues even before the
    // consumer accepts), then accept the input on the inherited listener.
    // The accept watches the command pipe: if the upstream worker dies
    // before connecting, the supervisor's abort broadcast (or its own
    // death closing the pipe) is the only wakeup this worker will get —
    // the command reader thread does not exist yet.
    if (config.backend == TransportBackend::kTcp) {
      if (plan.out_port >= 0)
        setup.out_chan = tcp_connect_loopback(static_cast<int>(plan.out_port));
      if (gi > 0) {
        setup.in_chan =
            setup.in_listener->accept_one(setup.command_chan->fd());
        if (!setup.in_chan)
          fatal_exit("worker '" + group.name +
                         "': run aborted before its input connected",
                     4);
      }
    }
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

    // Run epoch: offset by the attempt's fork time so fault stamps stay
    // run-relative across self-healing attempts.
    const auto start =
        Clock::now() - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               plan.run_elapsed_seconds));
    std::mutex state_mutex;
    support::FilterMetrics metrics;
    metrics.name = group.name;
    bool error_recorded = false;

    std::mutex teardown_mutex;
    std::condition_variable teardown_cv;
    bool teardown = false;
    const auto signal_teardown = [&] {
      {
        std::lock_guard lock(teardown_mutex);
        teardown = true;
      }
      teardown_cv.notify_all();
    };
    const auto abort_all = [&] {
      if (local_in) local_in->abort();
      local_out.abort();
      if (in_link) in_link->abort();
      out_link.abort();
      signal_teardown();
    };
    const auto set_error = [&](std::exception_ptr, const std::string& what) {
      bool report = false;
      {
        std::lock_guard lock(state_mutex);
        if (!error_recorded) {
          error_recorded = true;
          report = true;
        }
      }
      if (report) {
        Buffer b;
        put_string(b, what);
        status.send(kMsgFatal, std::move(b));
      }
    };

    std::atomic<bool> warned_no_snapshot{false};

    detail::CopyWorld world;
    world.config = &config;
    world.policy = setup.policy;
    world.group = &group;
    world.gi = gi;
    world.run_ckpt = setup.run_ckpt;
    world.start = start;
    world.hooks = setup.hooks;
    world.pool = pool ? &*pool : nullptr;
    world.runtime = &runtime;
    world.live = &live;
    world.warned_no_snapshot = &warned_no_snapshot;
    world.merge_metrics = [&](const support::FilterMetrics& m) {
      std::lock_guard lock(state_mutex);
      metrics.merge(m);
    };
    world.record_fault = [&](support::FaultRecord fault) {
      support::PipelineTrace trace;
      trace.faults.push_back(std::move(fault));
      Buffer b;
      put_trace(b, trace);
      status.send(kMsgFault, std::move(b));
    };
    world.set_error = set_error;
    world.abort_all = abort_all;
    world.signal_teardown = signal_teardown;
    world.backoff_wait = [&](double seconds) {
      std::unique_lock lock(teardown_mutex);
      teardown_cv.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return teardown; });
    };
    world.submit_part = [&](std::int64_t id, std::size_t pgi, int copy,
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
    world.register_terminal = [&](std::size_t pgi, int copy, bool usable,
                                  std::int64_t delivered) {
      Buffer b;
      b.write<std::uint64_t>(pgi);
      b.write<std::int64_t>(copy);
      b.write<std::uint8_t>(usable ? 1 : 0);
      b.write<std::int64_t>(delivered);
      status.send(kMsgTerminal, std::move(b));
    };

    std::thread recv_pump;
    if (gi > 0)
      recv_pump = std::thread([&] {
        const bool clean = pump_link_into_stream(*in_link, *local_in);
        if (!in_link->error().empty())
          set_error(std::make_exception_ptr(
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
    stop_heartbeats();

    // End-of-run slice of the run's trace: this stage's metrics, the
    // output link's stream and send-side counters, the input link's
    // receive wait, and the pool counters.
    {
      support::PipelineTrace slice;
      slice.batch_size = static_cast<std::int64_t>(config.batch_size);
      slice.stage_metrics.resize(gi + 1);
      {
        std::lock_guard lock(state_mutex);
        slice.stage_metrics[gi] = metrics;
      }
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
      Buffer b;
      put_trace(b, slice);
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
    fatal_exit(std::string("worker '") + group.name + "': " + e.what(), 1);
  } catch (...) {
    fatal_exit("worker '" + group.name + "': unknown fatal error", 1);
  }
  ::_exit(1);  // unreachable; fatal_exit never returns
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

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---- supervisor -----------------------------------------------------------

RunOutcome PipelineRunner::run_multiprocess(bool run_ckpt) {
  ScopedIgnoreSigpipe sigpipe_guard;

  const std::size_t n_groups = groups_.size();  // >= 2 (dispatch guarantees)
  const std::size_t n_workers = n_groups - 1;
  const std::size_t n_links = n_groups - 1;
  const std::size_t sink_gi = n_groups - 1;

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

  // One full topology bring-up, run, and teardown. By return this process
  // is single-threaded again (every thread joined, every worker reaped),
  // which is what makes the next attempt's forks TSan-legal.
  const auto run_attempt = [&](const RunnerConfig& config,
                               AttemptResult& out) {
    const bool heal = config.self_heal();
    support::PipelineTrace& stats = out.stats;
    stats = detail::trace_skeleton(groups_, config, policy_);

    // Link endpoints, created before any fork so both endpoint processes
    // inherit them: rings as shared mappings, listeners as bound sockets.
    std::vector<std::shared_ptr<ShmRing>> rings(n_links);
    std::vector<std::unique_ptr<TcpListener>> listeners(n_links);
    for (std::size_t i = 0; i < n_links; ++i) {
      if (config.backend == TransportBackend::kProc)
        rings[i] = ShmRing::create(config.ring_bytes);
      else
        listeners[i] = std::make_unique<TcpListener>();
    }

    struct WorkerHandle {
      pid_t pid = -1;
      bool reaped = false;
      std::shared_ptr<FdChannel> status_chan;  // worker -> supervisor
      std::unique_ptr<ControlWriter> command;  // supervisor -> worker
      std::unique_ptr<FrameLink> status;
    };
    std::vector<WorkerHandle> workers(n_workers);

    const auto kill_all_forked = [&] {
      for (WorkerHandle& w : workers)
        if (w.pid > 0 && !w.reaped) {
          ::kill(w.pid, SIGKILL);
          int st = 0;
          while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
          }
          w.reaped = true;
        }
    };

    // Fork every worker before this process creates a single thread (fork
    // in a multithreaded supervisor is undefined enough that TSan rejects
    // it outright). An earlier in-process run may have left the setup
    // worker pool's threads parked (StageFilter::init), so it is quiesced
    // first. Children never return from worker_main.
    support::WorkerPool::instance().quiesce();
    std::vector<int> parent_fds;  // supervisor pipe ends forked so far
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
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
        // Link endpoints this worker is not a party to: it reads link
        // gi-1 and writes link gi (by port number on tcp — only the
        // input-side listener descriptor is used after fork).
        for (std::size_t li = 0; li < n_links; ++li) {
          if (rings[li] && li != wi && !(wi > 0 && li == wi - 1))
            rings[li].reset();
          if (listeners[li] && !(wi > 0 && li == wi - 1))
            listeners[li]->close();
        }
        WorkerSetup setup;
        setup.gi = wi;
        setup.groups = &groups_;
        setup.config = &config;
        setup.policy = &policy_;
        setup.hooks = &hooks_;
        setup.group_export = &group_export_;
        setup.run_ckpt = run_ckpt;
        if (config.backend == TransportBackend::kProc) {
          if (wi > 0) setup.in_chan = rings[wi - 1];
          setup.out_chan = rings[wi];
        } else if (wi > 0) {
          setup.in_listener = listeners[wi - 1].get();
        }
        setup.status_chan = std::make_shared<FdChannel>(
            status_pipe[1], FdChannel::Kind::kPipe);
        setup.command_chan = std::make_shared<FdChannel>(
            command_pipe[0], FdChannel::Kind::kPipe);
        worker_main(std::move(setup));  // never returns
      }
      ::close(status_pipe[1]);
      ::close(command_pipe[0]);
      parent_fds.push_back(status_pipe[0]);
      parent_fds.push_back(command_pipe[1]);
      WorkerHandle& w = workers[wi];
      w.pid = pid;
      w.status_chan = std::make_shared<FdChannel>(status_pipe[0],
                                                  FdChannel::Kind::kPipe);
      w.status = std::make_unique<FrameLink>(w.status_chan);
      w.command = std::make_unique<ControlWriter>(std::make_shared<FdChannel>(
          command_pipe[1], FdChannel::Kind::kPipe));
      if (hooks_.process) hooks_.process(wi, static_cast<long>(pid));
    }

    // A startup failure may itself be an organic death (the chaos sniper
    // does not wait for the handshake): sweep the corpses before the
    // indiscriminate SIGKILL so a self-healing run can tell resurrection
    // candidates from collateral.
    const auto probe_startup_deaths = [&] {
      if (!heal) return;
      for (std::size_t wi = 0; wi < n_workers; ++wi) {
        WorkerHandle& w = workers[wi];
        if (w.pid <= 0 || w.reaped) continue;
        int st = 0;
        if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
        w.reaped = true;
        if (WIFSIGNALED(st))
          out.organic.push_back(
              {wi,
               "worker process for stage '" + groups_[wi].name +
                   "' died (signal " + std::to_string(WTERMSIG(st)) +
                   ") during startup",
               seconds_since(run_start)});
      }
    };
    const auto fail_startup = [&](const std::string& message) {
      probe_startup_deaths();
      kill_all_forked();
      stats.error = message;
      stats.completed = false;
      out.error = std::make_exception_ptr(std::runtime_error(message));
      out.handshake_done = seconds_since(run_start);
    };

    // Handshake, still single-threaded: plans out, ACKs back.
    const std::int64_t restore_id = config.resume ? config.resume->id : -1;
    const std::uint64_t restore_digest =
        config.resume ? checkpoint_checksum(*config.resume) : 0;
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
      WorkerPlan plan;
      plan.gi = wi;
      plan.n_groups = n_groups;
      plan.group_name = groups_[wi].name;
      plan.copies = groups_[wi].copies;
      plan.stream_capacity = config.stream_capacity;
      plan.batch_size = config.batch_size;
      plan.pool_buffers_per_class = config.pool_buffers_per_class;
      plan.checkpoint_interval = config.checkpoint_interval;
      plan.ring_bytes = config.ring_bytes;
      plan.backend = static_cast<std::uint8_t>(config.backend);
      plan.run_ckpt = run_ckpt ? 1 : 0;
      if (config.backend == TransportBackend::kTcp) {
        if (wi > 0) plan.in_port = listeners[wi - 1]->port();
        plan.out_port = listeners[wi]->port();
      }
      plan.heartbeat_seconds = config.heartbeat_seconds;
      plan.run_elapsed_seconds = seconds_since(run_start);
      plan.restore_cut_id = restore_id;
      plan.restore_digest = restore_digest;
      if (!workers[wi].command->send(kMsgPlan, encode_plan(plan))) {
        fail_startup("run_multiprocess: worker for stage '" +
                     groups_[wi].name + "' rejected the plan pipe");
        return;
      }
    }
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
      std::optional<Frame> ack = workers[wi].status->recv();
      if (!ack || ack->kind != FrameKind::kData ||
          ack->buffers.front().tag() != kMsgAck) {
        fail_startup("run_multiprocess: worker for stage '" +
                     groups_[wi].name + "' did not acknowledge its plan");
        return;
      }
    }
    out.handshake_done = seconds_since(run_start);

    // Heartbeat mirrors, one per worker: the control readers write them,
    // the reaper's lapse and stall monitors sample them. The lapse clock
    // starts at handshake so a worker that never beats at all is caught.
    std::vector<HeartbeatState> hb(n_workers);
    {
      const std::int64_t now_ns = steady_now_ns();
      for (HeartbeatState& h : hb)
        h.last_beat_ns.store(now_ns, std::memory_order_relaxed);
    }

    // The supervisor's own data endpoint: the consumer end of the last
    // link, feeding the in-process sink group. On tcp the accept runs
    // before the reaper thread exists, so it probes worker liveness
    // itself: a worker that dies before the last worker's connect arrives
    // must fail the run, not wedge this thread on a connection that will
    // never come.
    std::shared_ptr<ByteChannel> sink_chan;
    if (config.backend == TransportBackend::kProc) {
      sink_chan = rings[n_links - 1];
    } else {
      std::string abnormal_death;
      std::string peer_gone;
      const auto worker_died = [&] {
        for (std::size_t wi = 0; wi < n_workers; ++wi) {
          WorkerHandle& w = workers[wi];
          if (w.reaped) continue;
          int st = 0;
          if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
          w.reaped = true;
          if (WIFSIGNALED(st)) {
            if (heal)
              out.organic.push_back(
                  {wi,
                   "worker process for stage '" + groups_[wi].name +
                       "' died (signal " + std::to_string(WTERMSIG(st)) +
                       ") before the pipeline connected",
                   seconds_since(run_start)});
            abnormal_death = "worker process for stage '" + groups_[wi].name +
                             "' died (signal " +
                             std::to_string(WTERMSIG(st)) +
                             ") before the pipeline connected";
          } else if (WIFEXITED(st) && WEXITSTATUS(st) != 0) {
            abnormal_death = "worker process for stage '" + groups_[wi].name +
                             "' exited with status " +
                             std::to_string(WEXITSTATUS(st)) +
                             " before the pipeline connected";
          } else if (wi + 1 == n_workers) {
            // The peer that must connect here is gone. If its connection
            // is already queued it exited after a (tiny) complete run and
            // the accept's final poll picks it up; otherwise nothing ever
            // will.
            peer_gone = "worker process for stage '" + groups_[wi].name +
                        "' exited before connecting its output";
          }
        }
        return !abnormal_death.empty() || !peer_gone.empty();
      };
      sink_chan = listeners[n_links - 1]->accept_one(-1, worker_died);
      if (!abnormal_death.empty()) {
        fail_startup("run_multiprocess: " + abnormal_death);
        return;
      }
      if (!sink_chan) {
        fail_startup("run_multiprocess: " + peer_gone);
        return;
      }
    }
    FrameLink sink_link(sink_chan);

    Stream sink_stream(config.stream_capacity);
    sink_stream.set_producers(1);
    sink_stream.set_consumers(groups_[sink_gi].copies);

    std::optional<BufferPool> pool;
    if (config.pool_buffers_per_class > 0) {
      pool.emplace(config.pool_buffers_per_class);
      pool->set_geometry(1, config.stream_capacity, config.batch_size,
                         static_cast<std::size_t>(groups_[sink_gi].copies));
    }

    std::mutex state_mutex;
    std::exception_ptr first_error;
    std::mutex teardown_mutex;
    std::condition_variable teardown_cv;
    bool teardown = false;
    const auto signal_teardown = [&] {
      {
        std::lock_guard lock(teardown_mutex);
        teardown = true;
      }
      teardown_cv.notify_all();
    };
    const auto set_error = [&](std::exception_ptr error,
                               const std::string& message) {
      std::lock_guard lock(state_mutex);
      if (!first_error) {
        first_error = std::move(error);
        stats.error = message;
      }
    };
    // Whole-run teardown, used when a worker dies without a word: silent
    // death cannot cascade through the data plane on its own (a SIGKILLed
    // ring endpoint leaves the ring open), so the supervisor aborts the
    // rings it retained, its own sink channel, the sink stream, and
    // broadcasts abort commands for the socket links it holds no end of.
    // `preserve_sink` is the self-healing variant: the sink stream is
    // quiesced instead of aborted, so its queued prefix stays deliverable
    // — the basis of both the degraded partial result and the rollback
    // (the sink's cut part reflects what it actually consumed).
    std::atomic<bool> abort_broadcast{false};
    const auto global_teardown = [&](bool preserve_sink) {
      if (abort_broadcast.exchange(true)) return;
      for (const std::shared_ptr<ShmRing>& ring : rings)
        if (ring) ring->abort();
      sink_chan->abort();
      for (WorkerHandle& w : workers) w.command->send(kMsgAbort, Buffer());
      if (preserve_sink)
        sink_stream.quiesce();
      else
        sink_stream.abort();
      signal_teardown();
    };
    const auto global_abort = [&] { global_teardown(false); };
    const auto record_fault = [&](support::FaultRecord fault) {
      std::lock_guard lock(state_mutex);
      stats.faults.push_back(std::move(fault));
    };

    detail::CutCollector collector(groups_, config.checkpoint_path,
                                   run_start, heal);
    const auto drain_cut_records = [&] {
      std::vector<support::CheckpointRecord> records =
          collector.take_records();
      if (records.empty()) return;
      std::lock_guard lock(state_mutex);
      for (auto& rec : records) stats.checkpoints.push_back(std::move(rec));
    };
    const auto submit_part = [&](std::int64_t id, std::size_t gi, int copy,
                                 std::vector<std::byte> state, bool usable,
                                 std::int64_t delivered) {
      collector.submit_part(id, gi, copy, std::move(state), usable,
                            delivered);
      drain_cut_records();
    };
    const auto register_terminal = [&](std::size_t gi, int copy, bool usable,
                                       std::int64_t delivered) {
      collector.register_terminal(gi, copy, usable, delivered);
      drain_cut_records();
    };

    // Per-worker end-of-run trace slice and group state, filled by that
    // worker's control reader thread and consumed only after the reader
    // joined.
    struct WorkerReport {
      std::optional<support::PipelineTrace> slice;
      bool have_state = false;
      std::vector<std::byte> group_state;
    };
    std::vector<WorkerReport> reports(n_workers);

    // Sink-group counters, declared before the reaper thread so its stall
    // watchdog can sample the in-process stage alongside the workers'.
    GroupRuntime sink_runtime;
    std::atomic<int> sink_live{groups_[sink_gi].copies};
    std::atomic<bool> sink_warned{false};

    // ---- threads: control readers, reaper, sink pump, sink copies --------
    std::vector<std::thread> control_readers;
    for (std::size_t wi = 0; wi < n_workers; ++wi)
      control_readers.emplace_back([&, wi] {
        hb[wi].reader_tid.store(::gettid(), std::memory_order_relaxed);
        WorkerReport& report = reports[wi];
        for (;;) {
          std::optional<Frame> frame = workers[wi].status->recv();
          if (!frame) break;
          if (frame->kind == FrameKind::kHeartbeat) {
            HeartbeatState& h = hb[wi];
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
              const auto gi =
                  static_cast<std::size_t>(body.read<std::uint64_t>());
              const int copy = static_cast<int>(body.read<std::int64_t>());
              const bool usable = body.read<std::uint8_t>() != 0;
              const std::int64_t delivered = body.read<std::int64_t>();
              submit_part(id, gi, copy, get_blob(body), usable, delivered);
              break;
            }
            case kMsgTerminal: {
              const auto gi =
                  static_cast<std::size_t>(body.read<std::uint64_t>());
              const int copy = static_cast<int>(body.read<std::int64_t>());
              const bool usable = body.read<std::uint8_t>() != 0;
              const std::int64_t delivered = body.read<std::int64_t>();
              register_terminal(gi, copy, usable, delivered);
              break;
            }
            case kMsgFault: {
              const support::PipelineTrace fault = get_trace(body);
              std::lock_guard lock(state_mutex);
              stats.merge(fault);
              break;
            }
            case kMsgFatal: {
              const std::string what = get_string(body);
              set_error(std::make_exception_ptr(std::runtime_error(what)),
                        what);
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
      });

    // Reaper: polls (never waitpid(-1): the host process may own
    // unrelated children) so an out-of-order death is noticed within
    // milliseconds. It is also the liveness authority: a worker silent
    // past the heartbeat lapse window is SIGKILLed (then classified as a
    // lapse death when reaped), and with heartbeats on it runs the
    // thread backend's no-progress watchdog over the heartbeat mirrors.
    // Once an abort has been broadcast, workers that still have not
    // exited after the teardown grace are SIGKILLed: a worker wedged
    // mid-teardown must never keep the reaper — and with it the whole
    // run — from converging. Escalation kills are flagged so they are
    // never mistaken for organic deaths.
    std::vector<char> escalated(n_workers, 0);
    std::vector<char> lapse_killed(n_workers, 0);
    const bool hb_on = config.heartbeat_seconds > 0.0;
    const double lapse_after =
        std::max(4.0 * config.heartbeat_seconds, 0.05);
    std::thread reaper([&] {
      std::size_t remaining = 0;
      for (const WorkerHandle& w : workers)
        if (!w.reaped) ++remaining;
      bool escalation_armed = false;
      Clock::time_point abort_seen{};
      std::vector<std::int64_t> last_progress(n_groups, -1);
      std::vector<Clock::time_point> stalled_since(n_groups);
      std::vector<char> stalled(n_groups, 0);
      std::int64_t last_monitor_ns = -1;
      while (remaining > 0) {
        bool progress = false;
        for (std::size_t wi = 0; wi < n_workers; ++wi) {
          WorkerHandle& w = workers[wi];
          if (w.reaped) continue;
          int st = 0;
          const pid_t r = ::waitpid(w.pid, &st, WNOHANG);
          if (r != w.pid) continue;
          w.reaped = true;
          --remaining;
          progress = true;
          if (WIFSIGNALED(st)) {
            if (escalated[wi]) continue;  // our own teardown kill
            std::ostringstream msg;
            msg << "worker process for stage '" << groups_[wi].name << "' ";
            if (lapse_killed[wi])
              msg << "was killed after a heartbeat lapse (silent for more "
                     "than "
                  << lapse_after << "s)";
            else
              msg << "died (signal " << WTERMSIG(st) << ")";
            if (heal) {
              // Resurrection candidate: preserve the sink's queued prefix
              // and let the outer loop roll back and respawn. The reaper
              // is the only concurrent writer of `organic`; the outer
              // loop reads it after every thread joined.
              out.organic.push_back(
                  {wi, msg.str(), seconds_since(run_start)});
              global_teardown(true);
            } else {
              set_error(
                  std::make_exception_ptr(std::runtime_error(msg.str())),
                  msg.str());
              global_abort();
            }
          } else if (WIFEXITED(st) && WEXITSTATUS(st) != 0) {
            std::ostringstream msg;
            msg << "worker process for stage '" << groups_[wi].name
                << "' exited with status " << WEXITSTATUS(st);
            set_error(std::make_exception_ptr(std::runtime_error(msg.str())),
                      msg.str());
            global_abort();
          }
        }
        if (!progress) {
          if (abort_broadcast.load(std::memory_order_relaxed)) {
            if (!escalation_armed) {
              escalation_armed = true;
              abort_seen = Clock::now();
            } else if (seconds_since(abort_seen) >
                       static_cast<double>(config.teardown_grace_ms) /
                           1e3) {
              for (std::size_t wi = 0; wi < n_workers; ++wi)
                if (!workers[wi].reaped) {
                  escalated[wi] = 1;
                  ::kill(workers[wi].pid, SIGKILL);
                }
            }
          } else if (hb_on) {
            // Lapse monitor: a worker whose heartbeats stopped is wedged
            // or half-dead in a way the data plane cannot see (e.g. a
            // stuck syscall). Kill it crisply; the reap above classifies
            // the corpse, and under self-healing it gets resurrected. A
            // silence that is not the worker's own spares it: beats this
            // process has not read yet, or a worker thread waiting for a
            // CPU (detail::lapse_is_workers_own).
            const std::int64_t now_ns = steady_now_ns();
            // Self-stall guard: a monitor that just lost the CPU for a
            // sizable slice of the window cannot tell a silent worker
            // from its own starvation — beats may be parked in pipes the
            // control readers have not drained yet. Skip this round's
            // verdicts and let them land (loaded single-core hosts and
            // sanitizer slowdowns hit this constantly).
            const bool monitor_stalled =
                last_monitor_ns >= 0 &&
                static_cast<double>(now_ns - last_monitor_ns) / 1e9 >
                    lapse_after / 2.0;
            last_monitor_ns = now_ns;
            for (std::size_t wi = 0; !monitor_stalled && wi < n_workers;
                 ++wi) {
              WorkerHandle& w = workers[wi];
              if (w.reaped || lapse_killed[wi]) continue;
              const std::int64_t last =
                  hb[wi].last_beat_ns.load(std::memory_order_relaxed);
              if (static_cast<double>(now_ns - last) / 1e9 <= lapse_after) continue;
              // The evidence first, then the silence: a beat handled
              // meanwhile shows in the silence read after it.
              detail::LapseEvidence evidence;
              evidence.unread_status_bytes = w.status_chan->unread_bytes();
              evidence.reader_holds_beats = w.status_chan->reader_holds_bytes();
              const pid_t reader = hb[wi].reader_tid.load(std::memory_order_relaxed);
              if (reader > 0)
                evidence.reader_stat =
                    first_line("/proc/self/task/" + std::to_string(reader) + "/stat");
              evidence.task_stats = read_task_stats(w.pid);
              evidence.silent_seconds =
                  static_cast<double>(steady_now_ns() -
                                      hb[wi].last_beat_ns.load(std::memory_order_relaxed)) /
                  1e9;
              if (detail::lapse_is_workers_own(evidence, lapse_after)) {
                lapse_killed[wi] = 1;
                ::kill(w.pid, SIGKILL);
              }
            }
            // Stall watchdog over the heartbeat mirrors: the thread
            // backend's exact rule (blocked stream waits are exempt),
            // with the sink group sampled in-process.
            if (policy_.stage_timeout_seconds > 0.0) {
              const Clock::time_point now = Clock::now();
              for (std::size_t gi = 0; gi < n_groups; ++gi) {
                const bool is_sink = gi == sink_gi;
                if (!is_sink && workers[gi].reaped) {
                  // A finished worker's mirror is frozen at its last beat
                  // (often still showing live copies): a corpse can't
                  // stall.
                  stalled[gi] = 0;
                  continue;
                }
                const int alive =
                    is_sink ? sink_live.load(std::memory_order_relaxed)
                            : hb[gi].live.load(std::memory_order_relaxed);
                if (alive <= 0) {
                  stalled[gi] = 0;
                  continue;
                }
                const std::int64_t prog =
                    is_sink ? sink_runtime.progress.load(
                                  std::memory_order_relaxed)
                            : hb[gi].progress.load(std::memory_order_relaxed);
                const auto waiting = static_cast<int>(
                    is_sink
                        ? sink_runtime.waiting.load(std::memory_order_relaxed)
                        : hb[gi].waiting.load(std::memory_order_relaxed));
                if (prog != last_progress[gi] || waiting >= alive) {
                  last_progress[gi] = prog;
                  stalled[gi] = 0;
                  continue;
                }
                if (!stalled[gi]) {
                  stalled[gi] = 1;
                  stalled_since[gi] = now;
                  continue;
                }
                if (std::chrono::duration<double>(now - stalled_since[gi])
                        .count() < policy_.stage_timeout_seconds)
                  continue;
                std::ostringstream msg;
                msg << "watchdog: stage '" << groups_[gi].name
                    << "' made no progress for "
                    << policy_.stage_timeout_seconds << "s";
                support::FaultRecord fault;
                fault.group = groups_[gi].name;
                fault.copy = -1;
                fault.what = msg.str();
                fault.resolution = support::FaultResolution::kWatchdog;
                fault.at_seconds = seconds_since(run_start);
                {
                  std::lock_guard state_lock(state_mutex);
                  stats.stage_metrics[gi].faults += 1;
                }
                record_fault(std::move(fault));
                set_error(
                    std::make_exception_ptr(std::runtime_error(msg.str())),
                    msg.str());
                global_abort();
                break;
              }
            }
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });

    std::thread sink_pump([&] {
      const bool clean = pump_link_into_stream(sink_link, sink_stream, heal);
      if (!sink_link.error().empty()) {
        set_error(
            std::make_exception_ptr(std::runtime_error(sink_link.error())),
            sink_link.error());
        global_teardown(heal);
      }
      (void)clean;  // !clean already quiesced/aborted the sink stream
    });

    detail::CopyWorld sink_world;
    sink_world.config = &config;
    sink_world.policy = &policy_;
    sink_world.group = &groups_[sink_gi];
    sink_world.gi = sink_gi;
    sink_world.run_ckpt = run_ckpt;
    sink_world.start = run_start;
    sink_world.hooks = &hooks_;
    sink_world.pool = pool ? &*pool : nullptr;
    sink_world.runtime = &sink_runtime;
    sink_world.live = &sink_live;
    sink_world.warned_no_snapshot = &sink_warned;
    sink_world.merge_metrics = [&](const support::FilterMetrics& m) {
      std::lock_guard lock(state_mutex);
      stats.stage_metrics[sink_gi].merge(m);
    };
    sink_world.record_fault = record_fault;
    sink_world.set_error = set_error;
    sink_world.abort_all = global_abort;
    sink_world.signal_teardown = signal_teardown;
    sink_world.backoff_wait = [&](double seconds) {
      std::unique_lock lock(teardown_mutex);
      teardown_cv.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return teardown; });
    };
    sink_world.submit_part = submit_part;
    sink_world.register_terminal = register_terminal;

    std::vector<std::thread> sink_copies;
    for (int copy = 0; copy < groups_[sink_gi].copies; ++copy)
      sink_copies.emplace_back([&, copy] {
        detail::run_copy(sink_world, copy, &sink_stream, nullptr);
      });

    for (std::thread& t : sink_copies) t.join();
    sink_pump.join();
    reaper.join();
    for (std::thread& t : control_readers) t.join();
    drain_cut_records();

    // ---- assemble the attempt's trace ------------------------------------
    stats.wall_seconds = seconds_since(run_start);
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
      WorkerReport& report = reports[wi];
      if (report.slice) stats.merge(*report.slice);
      out.have_stats[wi] = report.slice ? 1 : 0;
      out.have_state[wi] = report.have_state ? 1 : 0;
      if (report.have_state)
        out.group_state[wi] = std::move(report.group_state);
    }
    // The last link's receiving end is the sink pump in this process.
    stats.link_metrics.back().recv_wait_seconds +=
        sink_link.counters().recv_wait_seconds;
    if (pool) stats.pool.merge(pool->metrics());
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
      const std::int64_t beats =
          hb[wi].beats.load(std::memory_order_relaxed);
      if (beats <= 0) continue;
      support::HeartbeatMetrics m;
      m.group = groups_[wi].name;
      m.beats = beats;
      m.max_latency_seconds =
          static_cast<double>(
              hb[wi].latency_max_ns.load(std::memory_order_relaxed)) /
          1e9;
      m.sum_latency_seconds =
          static_cast<double>(
              hb[wi].latency_sum_ns.load(std::memory_order_relaxed)) /
          1e9;
      stats.heartbeats.push_back(std::move(m));
    }
    out.cut = collector.take_latest_cut();
    {
      std::lock_guard lock(state_mutex);
      out.error = first_error;
      stats.completed = !first_error;
    }
  };

  // ---- the rollback-recovery loop ----------------------------------------
  for (;;) {
    RunnerConfig attempt_config = config_;
    attempt_config.resume = restore ? &*restore : nullptr;

    AttemptResult r;
    r.have_stats.assign(n_workers, 0);
    r.have_state.assign(n_workers, 0);
    r.group_state.resize(n_workers);
    run_attempt(attempt_config, r);

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
