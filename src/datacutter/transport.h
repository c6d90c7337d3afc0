// Pluggable transport backends (docs/PERFORMANCE.md, backend selection).
// The original DataCutter ran filters as processes over sockets; this layer
// restores a process boundary behind the existing Stream/batch/pool API.
// A backend names where stage groups execute and how packets cross group
// boundaries:
//
//   thread  in-process bounded queues (the historical runtime; default)
//   proc    one worker process per stage group on the same host, packets
//           crossing through shared-memory byte rings with futex-backed
//           process-shared wakeups (see shm_ring.h)
//
// Every cross-process hop, data ring or control pipe, carries one frame
// codec: [u32 length][u8 kind][payload] frames over an opaque byte
// channel, so framing bugs (torn prefixes, short reads, partial writes)
// are testable once. Marker frames are always sent alone — the
// marker-never-batched-with-data invariant of Stream holds on the wire
// too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datacutter/buffer.h"

namespace cgp::dc {

enum class TransportBackend {
  kThread,  // in-process queues (default)
  kProc,    // worker processes + shared-memory rings
};

const char* backend_name(TransportBackend backend);
/// Parses "thread" | "proc".
std::optional<TransportBackend> parse_backend(std::string_view name);

/// Options the multi-process backends do not honor. `flags_in_order`
/// carries canonical flag names (e.g. "--fault-inject", "--fault-seed")
/// in the order the caller encountered them on the command line; names
/// that do not conflict are ignored. Returns one diagnostic per
/// conflicting flag, in that same order (empty for kThread or when
/// nothing conflicts); cgpc prints each and exits 2, the runner throws
/// the first.
///   * fault injection hooks are per-process state: a seeded plan would
///     draw independently in every worker, breaking the single-seed
///     deterministic contract.
/// The historical --stage-timeout conflict is gone: with heartbeats
/// enabled (RunnerConfig::heartbeat_seconds) the supervisor samples
/// worker progress from the heartbeat stream, so the no-progress
/// watchdog is legal on process backends (docs/ROBUSTNESS.md).
std::vector<std::string> transport_flag_conflicts(
    TransportBackend backend, const std::vector<std::string>& flags_in_order);

/// Per-endpoint wire telemetry (cgpipe-trace-v7): frames and raw bytes
/// that crossed the channel, and time spent inside blocking transport
/// send/recv calls (includes the serialization memcpy, which is part of
/// the transport cost). All zero on the thread backend — nothing is
/// serialized there.
struct TransportCounters {
  std::int64_t frames = 0;
  std::int64_t wire_bytes = 0;
  double send_wait_seconds = 0.0;
  double recv_wait_seconds = 0.0;

  void merge(const TransportCounters& other);
};

/// Opaque byte-stream channel between two endpoints (a shared-memory ring
/// or a pipe). Writes are atomic only at the byte level — framing is the
/// caller's job (see FrameCodec) — and a frame larger than the channel's
/// internal capacity streams through in chunks, mirroring Stream's bounded
/// batch overshoot: capacity bounds memory, never frame size.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;
  /// Blocks until all `n` bytes are accepted. Returns false when the
  /// channel was aborted or the peer is gone (the bytes were dropped).
  virtual bool write_all(const std::byte* src, std::size_t n) = 0;
  /// Blocks for at least one byte. Returns the count read (<= n), 0 on
  /// clean end-of-stream (writer closed and drained), -1 on abort.
  virtual std::ptrdiff_t read_some(std::byte* dst, std::size_t n) = 0;
  /// Ends the write side; the reader drains what is queued, then sees 0.
  virtual void close_write() = 0;
  /// Emergency teardown: unblocks both sides; reads return -1, writes
  /// false. Safe to call from any process that holds the channel.
  virtual void abort() = 0;
};

/// One pipe end behind the ByteChannel interface: the worker control
/// plane. Full short-write/short-read handling (a write may accept fewer
/// bytes than asked; a read may return any prefix — framing above must
/// tolerate both).
class FdChannel : public ByteChannel {
 public:
  explicit FdChannel(int fd);
  ~FdChannel() override;
  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  bool write_all(const std::byte* src, std::size_t n) override;
  std::ptrdiff_t read_some(std::byte* dst, std::size_t n) override;
  /// Closes the descriptor: a pipe end carries one direction, so closing
  /// it is the peer's EOF.
  void close_write() override;
  /// Later reads return -1 and writes false.
  void abort() override;

  /// Bytes the kernel holds for this descriptor's next read (FIONREAD).
  std::size_t unread_bytes() const;
  /// Whether the reader may hold bytes it has read but not yet handled:
  /// true from a read that returned data until the reader's next read.
  /// Acquire: a reader seen back in its read has published what it
  /// handled before.
  bool reader_holds_bytes() const {
    return holding_.load(std::memory_order_acquire);
  }

 private:
  int fd_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> write_closed_{false};
  std::atomic<bool> holding_{false};
};

// ---- frame codec ----------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kData = 1,    // one packet: u32 tag + payload bytes
  kBatch = 2,   // coalesced packets: u32 count, then per packet u32 tag,
                // u32 size, bytes — data only, never a marker
  kMarker = 3,  // run-level cut marker: i64 cut id; always sent alone
  kClose = 4,   // producer end-of-stream; empty payload
  kHeartbeat = 5,  // worker liveness beat: i64 seq, send_ns, progress,
                   // waiting, live (docs/ROBUSTNESS.md, self-healing runs)
};

/// Upper bound on one frame's payload. A length prefix above this is a
/// torn or corrupt prefix and fails decoding immediately instead of
/// waiting for gigabytes that will never come.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

/// One decoded transport frame.
struct Frame {
  FrameKind kind = FrameKind::kData;
  std::int64_t marker_id = -1;   // kMarker only
  std::vector<Buffer> buffers;   // kData: exactly one; kBatch: count
  // kHeartbeat payload — five i64s, exact-size enforced by the decoder.
  // send_ns is CLOCK_MONOTONIC at send time (comparable across processes
  // on one host), so the receiver can derive one-way latency; progress /
  // waiting / live mirror the thread-backend watchdog counters.
  std::int64_t hb_seq = 0;
  std::int64_t hb_send_ns = 0;
  std::int64_t hb_progress = 0;
  std::int64_t hb_waiting = 0;
  std::int64_t hb_live = 0;

  static Frame data(Buffer&& buffer);
  static Frame batch(std::vector<Buffer>&& buffers);
  static Frame marker(std::int64_t id);
  static Frame close();
  static Frame heartbeat(std::int64_t seq, std::int64_t send_ns,
                         std::int64_t progress, std::int64_t waiting,
                         std::int64_t live);
};

/// Appends the frame's wire form ([u32 length][u8 kind][payload]) to
/// `out`. Little-endian fixed-width integers throughout — the same
/// convention the packing layouts use.
void encode_frame(const Frame& frame, std::vector<std::byte>& out);

/// Incremental frame decoder: feed() arbitrary byte slices as they arrive
/// (partial reads, torn boundaries), next() yields complete frames.
/// Throws std::runtime_error on an invalid prefix (length above
/// kMaxFramePayload, unknown kind, payload that does not parse) — a torn
/// or corrupt stream is rejected, never silently resynchronized.
class FrameDecoder {
 public:
  void feed(const std::byte* src, std::size_t n);
  /// Next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();
  /// True when no partial frame is pending — i.e. the stream may cleanly
  /// end here. A clean EOF mid-frame is a truncated stream (an error).
  bool idle() const { return buf_.size() == pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

/// Frame-level endpoint over a ByteChannel: serializes on send, reassembles
/// on recv, and accounts wire telemetry. One sender and one receiver
/// thread per link end; neither method is reentrant.
class FrameLink {
 public:
  explicit FrameLink(std::shared_ptr<ByteChannel> channel)
      : channel_(std::move(channel)) {}

  /// Encodes and writes the frame. Returns false when the channel was
  /// aborted or the peer is gone.
  bool send(const Frame& frame);
  /// Next frame from the peer. nullopt on clean end-of-stream or abort;
  /// error() distinguishes (empty = clean). A decode failure or an EOF
  /// mid-frame sets error() and aborts the channel.
  std::optional<Frame> recv();
  void close_write() { channel_->close_write(); }
  void abort() { channel_->abort(); }

  const std::string& error() const { return error_; }
  const TransportCounters& counters() const { return counters_; }

 private:
  std::shared_ptr<ByteChannel> channel_;
  FrameDecoder decoder_;
  std::vector<std::byte> scratch_;  // encode buffer, capacity reused
  TransportCounters counters_;
  std::string error_;
};

}  // namespace cgp::dc
