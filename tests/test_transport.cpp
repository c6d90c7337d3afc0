// Transport-layer tests (docs/PERFORMANCE.md, backend selection): backend
// parsing and option-conflict diagnostics, the shared frame codec (torn
// prefixes, partial feeds, batch integrity), the shared-memory byte ring
// (wraparound, full/empty blocking, oversize streaming, abort), frame
// links over pipes (short reads/writes, clean EOF, truncation), the
// marker-never-batched-with-data invariant the pumps rely on, and
// end-to-end multi-process pipeline runs on the proc backend — the first
// execution environment of runner_proc.cpp. The Transport* and
// *Backend* cases are the transport-conformance CI job's targets.
#include <errno.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datacutter/buffer.h"
#include "datacutter/checkpoint.h"
#include "datacutter/runner.h"
#include "datacutter/shm_ring.h"
#include "datacutter/stream.h"
#include "datacutter/transport.h"

namespace cgp::dc {
namespace {

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

TEST(TransportBackendNames, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_backend("thread"), TransportBackend::kThread);
  EXPECT_EQ(parse_backend("proc"), TransportBackend::kProc);
  EXPECT_FALSE(parse_backend("tcp").has_value());
  EXPECT_FALSE(parse_backend("mpi").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("Thread").has_value());
  for (TransportBackend b :
       {TransportBackend::kThread, TransportBackend::kProc})
    EXPECT_EQ(parse_backend(backend_name(b)), b);
}

TEST(TransportBackendNames, FlagConflicts) {
  // The thread backend honors everything.
  EXPECT_TRUE(transport_flag_conflicts(TransportBackend::kThread,
                                       {"--fault-inject", "--fault-seed"})
                  .empty());
  // Each unsupported option earns its own diagnostic, naming the backend.
  const std::vector<std::string> one =
      transport_flag_conflicts(TransportBackend::kProc, {"--fault-inject"});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NE(one[0].find("--fault-inject"), std::string::npos);
  EXPECT_NE(one[0].find("--backend=proc"), std::string::npos);
  // Diagnostics come out in the order the flags were given.
  const std::vector<std::string> two = transport_flag_conflicts(
      TransportBackend::kProc, {"--fault-seed", "--fault-inject"});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].find("--fault-seed"), 0u);
  EXPECT_EQ(two[1].find("--fault-inject"), 0u);
  EXPECT_NE(two[0].find("--backend=proc"), std::string::npos);
  // --stage-timeout is no longer a conflict: heartbeats make the watchdog
  // legal on process backends (the heartbeat requirement is validated by
  // the runner, not here). Unknown flags are simply not conflicts.
  EXPECT_TRUE(transport_flag_conflicts(TransportBackend::kProc,
                                       {"--stage-timeout", "--packets"})
                  .empty());
  EXPECT_TRUE(transport_flag_conflicts(TransportBackend::kProc, {}).empty());
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

std::vector<std::byte> encode(const Frame& frame) {
  std::vector<std::byte> out;
  encode_frame(frame, out);
  return out;
}

Buffer payload_buffer(std::uint32_t tag, const std::string& bytes) {
  Buffer b;
  b.set_tag(tag);
  if (!bytes.empty()) b.write_bytes(bytes.data(), bytes.size());
  return b;
}

std::string payload_string(const Buffer& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

TEST(FrameCodec, DataRoundTrip) {
  FrameDecoder decoder;
  const std::vector<std::byte> wire =
      encode(Frame::data(payload_buffer(7, "hello")));
  decoder.feed(wire.data(), wire.size());
  std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kData);
  ASSERT_EQ(frame->buffers.size(), 1u);
  EXPECT_EQ(frame->buffers[0].tag(), 7u);
  EXPECT_EQ(payload_string(frame->buffers[0]), "hello");
  EXPECT_TRUE(decoder.idle());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameCodec, BatchRoundTripIncludingEmptyPayload) {
  std::vector<Buffer> batch;
  batch.push_back(payload_buffer(1, "alpha"));
  batch.push_back(payload_buffer(0, ""));  // zero-length packet is legal
  batch.push_back(payload_buffer(9, std::string(3000, 'x')));
  FrameDecoder decoder;
  const std::vector<std::byte> wire = encode(Frame::batch(std::move(batch)));
  decoder.feed(wire.data(), wire.size());
  std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kBatch);
  ASSERT_EQ(frame->buffers.size(), 3u);
  EXPECT_EQ(frame->buffers[0].tag(), 1u);
  EXPECT_EQ(payload_string(frame->buffers[0]), "alpha");
  EXPECT_EQ(frame->buffers[1].size(), 0u);
  EXPECT_EQ(frame->buffers[2].size(), 3000u);
  EXPECT_TRUE(decoder.idle());
}

TEST(FrameCodec, MarkerAndCloseRoundTrip) {
  FrameDecoder decoder;
  std::vector<std::byte> wire = encode(Frame::marker(-12345));
  const std::vector<std::byte> close_wire = encode(Frame::close());
  wire.insert(wire.end(), close_wire.begin(), close_wire.end());
  decoder.feed(wire.data(), wire.size());
  std::optional<Frame> marker = decoder.next();
  ASSERT_TRUE(marker.has_value());
  EXPECT_EQ(marker->kind, FrameKind::kMarker);
  EXPECT_EQ(marker->marker_id, -12345);
  EXPECT_TRUE(marker->buffers.empty());
  std::optional<Frame> close = decoder.next();
  ASSERT_TRUE(close.has_value());
  EXPECT_EQ(close->kind, FrameKind::kClose);
  EXPECT_TRUE(decoder.idle());
}

TEST(FrameCodec, ByteAtATimeFeedReassemblesEveryKind) {
  // Worst-case fragmentation: one byte per read. Until the final byte of
  // each frame lands, next() must report "need more", never a torn frame.
  std::vector<std::byte> wire = encode(Frame::data(payload_buffer(3, "ab")));
  for (const std::vector<std::byte>& part :
       {encode(Frame::batch([] {
          std::vector<Buffer> b;
          b.push_back(payload_buffer(4, "cd"));
          b.push_back(payload_buffer(5, "efg"));
          return b;
        }())),
        encode(Frame::marker(42)), encode(Frame::close())})
    wire.insert(wire.end(), part.begin(), part.end());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const std::byte b : wire) {
    decoder.feed(&b, 1);
    while (std::optional<Frame> frame = decoder.next())
      frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].kind, FrameKind::kData);
  EXPECT_EQ(payload_string(frames[0].buffers[0]), "ab");
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
  ASSERT_EQ(frames[1].buffers.size(), 2u);
  EXPECT_EQ(payload_string(frames[1].buffers[1]), "efg");
  EXPECT_EQ(frames[2].kind, FrameKind::kMarker);
  EXPECT_EQ(frames[2].marker_id, 42);
  EXPECT_EQ(frames[3].kind, FrameKind::kClose);
  EXPECT_TRUE(decoder.idle());
}

TEST(FrameCodec, TornLengthPrefixRejected) {
  // A length above the frame bound can only be a torn or corrupt prefix;
  // it must fail immediately, not wait for 4 GiB that will never come.
  const std::uint32_t bad_length = kMaxFramePayload + 1;
  std::vector<std::byte> wire(5);
  std::memcpy(wire.data(), &bad_length, sizeof(bad_length));
  wire[4] = static_cast<std::byte>(FrameKind::kData);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(FrameCodec, UnknownKindRejected) {
  std::vector<std::byte> wire(5, std::byte{0});
  wire[4] = std::byte{9};  // no such FrameKind
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(FrameCodec, CorruptBatchInteriorRejected) {
  // A batch whose declared count overruns the frame payload is structural
  // corruption, not a recoverable short read.
  const std::uint32_t length = 4;  // room for the count, nothing else
  const std::uint32_t count = 2;
  std::vector<std::byte> wire(5 + length);
  std::memcpy(wire.data(), &length, sizeof(length));
  wire[4] = static_cast<std::byte>(FrameKind::kBatch);
  std::memcpy(wire.data() + 5, &count, sizeof(count));
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(FrameCodec, MarkerWithWrongPayloadSizeRejected) {
  const std::uint32_t length = 4;  // a marker payload is exactly 8 bytes
  std::vector<std::byte> wire(5 + length, std::byte{0});
  std::memcpy(wire.data(), &length, sizeof(length));
  wire[4] = static_cast<std::byte>(FrameKind::kMarker);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(FrameCodec, HeartbeatRoundTrip) {
  FrameDecoder decoder;
  const std::vector<std::byte> wire =
      encode(Frame::heartbeat(42, 123456789012345, 67890, 3, 4));
  decoder.feed(wire.data(), wire.size());
  std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kHeartbeat);
  EXPECT_TRUE(frame->buffers.empty());
  EXPECT_EQ(frame->hb_seq, 42);
  EXPECT_EQ(frame->hb_send_ns, 123456789012345);
  EXPECT_EQ(frame->hb_progress, 67890);
  EXPECT_EQ(frame->hb_waiting, 3);
  EXPECT_EQ(frame->hb_live, 4);
  EXPECT_TRUE(decoder.idle());
}

TEST(FrameCodec, HeartbeatByteAtATimeReassembles) {
  // A heartbeat can interleave with bulk traffic on the control pipe and
  // arrive in arbitrarily small reads; the decoder must reassemble it.
  const std::vector<std::byte> wire =
      encode(Frame::heartbeat(1, -5, 0, 0, 1));
  FrameDecoder decoder;
  for (const std::byte b : wire) decoder.feed(&b, 1);
  std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kHeartbeat);
  EXPECT_EQ(frame->hb_seq, 1);
  EXPECT_EQ(frame->hb_send_ns, -5);
  EXPECT_EQ(frame->hb_live, 1);
}

TEST(FrameCodec, HeartbeatWithWrongPayloadSizeRejected) {
  // Torn (too short) and oversize heartbeat payloads are both structural
  // corruption: the payload is exactly five 64-bit fields.
  for (const std::uint32_t length : {8u, 32u, 48u}) {
    std::vector<std::byte> wire(5 + length, std::byte{0});
    std::memcpy(wire.data(), &length, sizeof(length));
    wire[4] = static_cast<std::byte>(FrameKind::kHeartbeat);
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    EXPECT_THROW(decoder.next(), std::runtime_error) << length;
  }
}

// ---------------------------------------------------------------------------
// FrameLink over pipes: short reads/writes, truncation, telemetry
// ---------------------------------------------------------------------------

struct PipePair {
  std::shared_ptr<FdChannel> read_end;
  std::shared_ptr<FdChannel> write_end;
};

PipePair make_pipe_pair() {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  return {std::make_shared<FdChannel>(fds[0]),
          std::make_shared<FdChannel>(fds[1])};
}

TEST(FrameLinkPipe, LargeFrameStreamsThroughShortWrites) {
  // 1 MiB through a ~64 KiB pipe: the sender must loop over short writes
  // while the receiver reassembles from short reads.
  PipePair pipe = make_pipe_pair();
  FrameLink sender(pipe.write_end);
  FrameLink receiver(pipe.read_end);
  const std::string big(1 << 20, 'z');
  std::thread writer([&] {
    EXPECT_TRUE(sender.send(Frame::data(payload_buffer(11, big))));
    EXPECT_TRUE(sender.send(Frame::close()));
    sender.close_write();
  });
  std::optional<Frame> frame = receiver.recv();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kData);
  EXPECT_EQ(frame->buffers[0].size(), big.size());
  EXPECT_EQ(payload_string(frame->buffers[0]), big);
  std::optional<Frame> close = receiver.recv();
  ASSERT_TRUE(close.has_value());
  EXPECT_EQ(close->kind, FrameKind::kClose);
  EXPECT_FALSE(receiver.recv().has_value());  // clean EOF
  EXPECT_TRUE(receiver.error().empty());
  writer.join();
  // Both endpoints agree on the wire volume.
  EXPECT_EQ(sender.counters().frames, 2);
  EXPECT_EQ(sender.counters().wire_bytes, receiver.counters().wire_bytes);
  EXPECT_GT(sender.counters().wire_bytes,
            static_cast<std::int64_t>(big.size()));
}

TEST(FrameLinkPipe, TruncatedStreamMidFrameIsAnError) {
  PipePair pipe = make_pipe_pair();
  {
    // A valid prefix claiming 100 payload bytes, then only 10, then EOF.
    const std::uint32_t length = 100;
    std::vector<std::byte> partial(5 + 10, std::byte{0x5a});
    std::memcpy(partial.data(), &length, sizeof(length));
    partial[4] = static_cast<std::byte>(FrameKind::kData);
    EXPECT_TRUE(pipe.write_end->write_all(partial.data(), partial.size()));
    pipe.write_end->close_write();
  }
  FrameLink receiver(pipe.read_end);
  EXPECT_FALSE(receiver.recv().has_value());
  EXPECT_NE(receiver.error().find("truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared-memory ring
// ---------------------------------------------------------------------------

TEST(ShmRingTest, WraparoundPreservesByteStream) {
  // 64 KiB through a 64-byte ring: the cursors wrap ~1000 times and the
  // byte stream must come out identical.
  auto ring = ShmRing::create(64);
  EXPECT_EQ(ring->capacity(), 64u);
  std::vector<std::byte> sent(64 * 1024);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = static_cast<std::byte>(i * 31 + 7);
  std::thread writer([&] {
    // Mixed write sizes so boundaries land everywhere in the ring.
    std::size_t at = 0;
    std::size_t n = 1;
    while (at < sent.size()) {
      const std::size_t take = std::min(n, sent.size() - at);
      EXPECT_TRUE(ring->write_all(sent.data() + at, take));
      at += take;
      n = n % 200 + 3;
    }
    ring->close_write();
  });
  std::vector<std::byte> got;
  std::byte chunk[97];
  for (;;) {
    const std::ptrdiff_t n = ring->read_some(chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    got.insert(got.end(), chunk, chunk + n);
  }
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(ShmRingTest, SingleWriteLargerThanCapacityStreamsThrough) {
  // Capacity bounds memory, never message size: one 8 KiB write_all
  // through a 64-byte ring must stream in chunks as the reader drains.
  auto ring = ShmRing::create(64);
  std::vector<std::byte> sent(8 * 1024);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = static_cast<std::byte>(i ^ (i >> 8));
  std::thread writer([&] {
    EXPECT_TRUE(ring->write_all(sent.data(), sent.size()));
    ring->close_write();
  });
  std::vector<std::byte> got;
  std::byte chunk[256];
  for (;;) {
    const std::ptrdiff_t n = ring->read_some(chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    got.insert(got.end(), chunk, chunk + n);
  }
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(ShmRingTest, EmptyRingBlocksUntilCloseGivesEof) {
  auto ring = ShmRing::create(128);
  std::atomic<bool> eof{false};
  std::thread reader([&] {
    std::byte chunk[16];
    const std::ptrdiff_t n = ring->read_some(chunk, sizeof(chunk));
    EXPECT_EQ(n, 0);
    eof.store(true);
  });
  // The reader parks on the empty ring; close_write releases it with EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(eof.load());
  ring->close_write();
  reader.join();
  EXPECT_TRUE(eof.load());
}

TEST(ShmRingTest, AbortUnblocksBothSides) {
  auto ring = ShmRing::create(16);
  // Fill the ring so a writer blocks on backpressure.
  std::vector<std::byte> fill(16, std::byte{1});
  EXPECT_TRUE(ring->write_all(fill.data(), fill.size()));
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    std::byte more[8] = {};
    writer_failed.store(!ring->write_all(more, sizeof(more)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_failed.load());
  ring->abort();
  writer.join();
  EXPECT_TRUE(writer_failed.load());
  EXPECT_TRUE(ring->aborted());
  std::byte chunk[8];
  EXPECT_EQ(ring->read_some(chunk, sizeof(chunk)), -1);
  EXPECT_FALSE(ring->write_all(chunk, sizeof(chunk)));
}

TEST(ShmRingTest, FrameLinkOverRingKeepsMarkersAlone) {
  // The wire invariant end to end on the proc substrate: batches of data,
  // then a marker frame that must arrive by itself, then more data.
  auto ring = ShmRing::create(256);
  FrameLink sender(ring);
  FrameLink receiver(ring);
  std::thread writer([&] {
    std::vector<Buffer> batch;
    batch.push_back(payload_buffer(1, "one"));
    batch.push_back(payload_buffer(2, "two"));
    EXPECT_TRUE(sender.send(Frame::batch(std::move(batch))));
    EXPECT_TRUE(sender.send(Frame::marker(77)));
    EXPECT_TRUE(sender.send(Frame::data(payload_buffer(3, "three"))));
    EXPECT_TRUE(sender.send(Frame::close()));
    sender.close_write();
  });
  std::vector<Frame> frames;
  while (std::optional<Frame> f = receiver.recv())
    frames.push_back(std::move(*f));
  writer.join();
  EXPECT_TRUE(receiver.error().empty());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].kind, FrameKind::kBatch);
  EXPECT_EQ(frames[0].buffers.size(), 2u);
  EXPECT_EQ(frames[1].kind, FrameKind::kMarker);
  EXPECT_EQ(frames[1].marker_id, 77);
  EXPECT_TRUE(frames[1].buffers.empty());  // nothing rides with a marker
  EXPECT_EQ(frames[2].kind, FrameKind::kData);
  EXPECT_EQ(frames[3].kind, FrameKind::kClose);
}

TEST(ShmRingTest, SurvivorRecoversWhenPeerKilledHoldingTheRing) {
  // A peer SIGKILLed anywhere in the ring protocol — including while it
  // holds the ring mutex mid-copy, leaving it for the survivor to recover
  // via EOWNERDEAD — must end in a clean abort (read_some -> -1), never a
  // thrown std::system_error out of the wait path or a permanent wedge.
  // Several rounds with varied timing so some kills land inside the
  // lock-held window.
  for (int round = 0; round < 8; ++round) {
    auto ring = ShmRing::create(4096);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      std::vector<std::byte> chunk(1024, std::byte{0x7e});
      while (ring->write_all(chunk.data(), chunk.size())) {
      }
      ::_exit(0);
    }
    std::atomic<std::ptrdiff_t> last{1};
    std::thread reader([&] {
      std::byte chunk[512];
      std::ptrdiff_t n;
      do {
        n = ring->read_some(chunk, sizeof(chunk));
      } while (n > 0);
      last.store(n);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round));
    ::kill(child, SIGKILL);
    int st = 0;
    while (::waitpid(child, &st, 0) < 0 && errno == EINTR) {
    }
    // What the supervisor's reaper does on a silent death; if the child
    // died holding the mutex, this (or the parked reader's own wakeup)
    // takes the EOWNERDEAD recovery path instead.
    ring->abort();
    reader.join();
    EXPECT_LE(last.load(), 0);
    EXPECT_TRUE(ring->aborted());
    EXPECT_FALSE(ring->write_all(reinterpret_cast<const std::byte*>("x"), 1));
  }
}

TEST(ShmRingTest, SurvivorsKeepWakingAfterAParkedPeerIsKilled) {
  // A peer SIGKILLed while parked in a ring wait must leave nothing the
  // survivors' wakeups depend on (a process-shared pthread_cond_t keeps the
  // dead waiter's reference and wedges the next signaller). Two survivor
  // processes then push 3200 bytes through the 64-byte ring, so both park
  // and wake each other many times; a wedged survivor fails the test
  // instead of hanging it.
  auto ring = ShmRing::create(64);
  const pid_t parked = ::fork();
  ASSERT_GE(parked, 0);
  if (parked == 0) {
    std::byte buf[8];
    ring->read_some(buf, sizeof(buf));  // parks on the empty ring
    ::_exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::kill(parked, SIGKILL);
  int st = 0;
  while (::waitpid(parked, &st, 0) < 0 && errno == EINTR) {
  }
  const pid_t writer = ::fork();
  ASSERT_GE(writer, 0);
  if (writer == 0) {
    const std::vector<std::byte> chunk(16, std::byte{0x5a});
    for (int i = 0; i < 200; ++i)
      if (!ring->write_all(chunk.data(), chunk.size())) ::_exit(2);
    ::_exit(0);
  }
  const pid_t reader = ::fork();
  ASSERT_GE(reader, 0);
  if (reader == 0) {
    std::byte buf[16];
    for (std::size_t got = 0; got < 3200;) {
      const std::ptrdiff_t n = ring->read_some(buf, sizeof(buf));
      if (n <= 0) ::_exit(2);
      got += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  for (const pid_t survivor : {writer, reader}) {
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(survivor, &st, WNOHANG) == survivor;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(survivor, SIGKILL);
      while (::waitpid(survivor, &st, 0) < 0 && errno == EINTR) {
      }
    }
    EXPECT_TRUE(exited) << "survivor wedged on the ring for 10 s";
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
  }
}

// ---------------------------------------------------------------------------
// The Stream-side invariant the send pumps rely on
// ---------------------------------------------------------------------------

TEST(StreamMarkerInvariant, PopBatchNeverMixesMarkerWithData) {
  Stream stream(16);
  stream.set_producers(1);
  stream.set_consumers(1);
  for (std::int64_t v : {1, 2, 3}) {
    Buffer b;
    b.write<std::int64_t>(v);
    EXPECT_TRUE(stream.push(std::move(b)));
  }
  EXPECT_TRUE(stream.push_marker(42));
  for (std::int64_t v : {4, 5}) {
    Buffer b;
    b.write<std::int64_t>(v);
    EXPECT_TRUE(stream.push(std::move(b)));
  }
  stream.close();

  std::vector<Buffer> batch;
  // The marker ends the first batch early...
  EXPECT_EQ(stream.pop_batch(batch, 8, 0), 3u);
  for (const Buffer& b : batch) EXPECT_NE(b.tag(), kCheckpointMarkerTag);
  batch.clear();
  // ...then is delivered alone, exactly as the send pump expects when it
  // translates a singleton marker batch into a kMarker frame.
  EXPECT_EQ(stream.pop_batch(batch, 8, 0), 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tag(), kCheckpointMarkerTag);
  EXPECT_EQ(batch[0].peek_at<std::int64_t>(0), 42);
  batch.clear();
  EXPECT_EQ(stream.pop_batch(batch, 8, 0), 2u);
  batch.clear();
  EXPECT_EQ(stream.pop_batch(batch, 8, 0), 0u);  // closed and drained
}

// ---------------------------------------------------------------------------
// End-to-end multi-process pipelines (the proc backend)
// ---------------------------------------------------------------------------

class CountingSource : public Filter {
 public:
  explicit CountingSource(int n) : n_(n) {}
  void process(FilterContext& ctx) override {
    for (int i = 0; i < n_; ++i) {
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b;
      b.write<std::int64_t>(i);
      ctx.emit(std::move(b));
    }
  }

 private:
  int n_;
};

class AddOne : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
    }
  }
  bool snapshot_state(Buffer&) override { return true; }  // stateless
};

// Throws once per process on a specific value, then lets the replay pass:
// models a transient fault inside a worker. The flag is process-local
// state, which is exactly what a fork-isolated worker gives every stage.
class FlakyAddOne : public Filter {
 public:
  explicit FlakyAddOne(std::int64_t trip) : trip_(trip) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      if (v == trip_ && !tripped().exchange(true))
        throw std::runtime_error("transient worker fault");
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
    }
  }
  bool snapshot_state(Buffer&) override { return true; }

 private:
  static std::atomic<bool>& tripped() {
    static std::atomic<bool> flag{false};
    return flag;
  }
  std::int64_t trip_;
};

class PoisonedAddOne : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      if (v == 13) throw std::runtime_error("poison packet 13");
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
    }
  }
};

struct SinkState {
  std::mutex mutex;
  std::multiset<std::int64_t> values;
  std::int64_t total = 0;
};

class CollectingSink : public Filter {
 public:
  explicit CollectingSink(std::shared_ptr<SinkState> state)
      : state_(std::move(state)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      std::lock_guard lock(state_->mutex);
      state_->values.insert(v);
      state_->total += v;
    }
  }
  bool snapshot_state(Buffer& out) override {
    std::lock_guard lock(state_->mutex);
    out.write<std::int64_t>(state_->total);
    return true;
  }
  void restore_state(Buffer& in) override {
    std::lock_guard lock(state_->mutex);
    state_->total = in.read<std::int64_t>();
  }

 private:
  std::shared_ptr<SinkState> state_;
};

std::vector<FilterGroup> three_stage(int n, int copies,
                                     std::shared_ptr<SinkState> state) {
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"src", [n] { return std::make_unique<CountingSource>(n); }, copies, 0});
  groups.push_back(
      {"mid", [] { return std::make_unique<AddOne>(); }, copies, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<CollectingSink>(state); }, 1,
       2});
  return groups;
}

std::multiset<std::int64_t> expected_values(int n, std::int64_t offset) {
  std::multiset<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.insert(i + offset);
  return out;
}

class BackendPipeline : public ::testing::TestWithParam<TransportBackend> {};

TEST_P(BackendPipeline, ThreeStageDeliversExactMultiset) {
  const TransportBackend backend = GetParam();
  auto state = std::make_shared<SinkState>();
  RunnerConfig config;
  config.backend = backend;
  config.stream_capacity = 8;
  PipelineRunner runner(three_stage(100, 1, state), config);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(100, 1));
  const support::PipelineTrace& stats = outcome.stats;
  EXPECT_TRUE(stats.completed);
  ASSERT_EQ(stats.link_metrics.size(), 2u);
  EXPECT_EQ(stats.link_metrics[0].buffers, 100);
  EXPECT_EQ(stats.link_metrics[0].bytes, 800);
  ASSERT_EQ(stats.stage_metrics.size(), 3u);
  EXPECT_EQ(stats.stage_metrics[1].packets_in, 100);
  EXPECT_EQ(stats.stage_metrics[2].packets_in, 100);
  // Trace-v7 wire telemetry: both links crossed a process boundary.
  ASSERT_EQ(stats.link_metrics.size(), 2u);
  for (const support::LinkMetrics& link : stats.link_metrics) {
    EXPECT_EQ(link.transport, backend_name(backend));
    EXPECT_GT(link.frames, 0);
    // Payload plus framing overhead.
    EXPECT_GT(link.wire_bytes, link.bytes);
  }
}

TEST_P(BackendPipeline, ReplicatedBatchedPipelineMatches) {
  const TransportBackend backend = GetParam();
  auto state = std::make_shared<SinkState>();
  RunnerConfig config;
  config.backend = backend;
  config.stream_capacity = 4;
  config.batch_size = 4;
  PipelineRunner runner(three_stage(200, 3, state), config);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(200, 1));
  const support::PipelineTrace& stats = outcome.stats;
  EXPECT_EQ(stats.link_metrics[0].buffers, 200);
  // Coalescing survives the wire: fewer enqueues than buffers upstream.
  EXPECT_LT(stats.link_metrics[0].batches, stats.link_metrics[0].buffers);
  EXPECT_EQ(stats.batch_size, 4);
}

TEST_P(BackendPipeline, WorkerFaultFailsFastAndTearsDown) {
  const TransportBackend backend = GetParam();
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"src", [] { return std::make_unique<CountingSource>(5000); }, 1, 0});
  groups.push_back(
      {"mid", [] { return std::make_unique<PoisonedAddOne>(); }, 1, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<CollectingSink>(state); }, 1,
       2});
  RunnerConfig config;
  config.backend = backend;
  config.stream_capacity = 4;
  PipelineRunner runner(std::move(groups), config);  // fail-fast default
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.stats.completed);
  // The worker's fatal message crossed the control plane verbatim.
  EXPECT_NE(outcome.stats.error.find("poison packet 13"), std::string::npos)
      << outcome.stats.error;
}

TEST_P(BackendPipeline, RestartCopyRecoversTransientWorkerFault) {
  const TransportBackend backend = GetParam();
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"src", [] { return std::make_unique<CountingSource>(64); }, 1, 0});
  groups.push_back(
      {"mid", [] { return std::make_unique<FlakyAddOne>(10); }, 1, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<CollectingSink>(state); }, 1,
       2});
  FaultPolicy policy;
  policy.action = FaultAction::kRestartCopy;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  RunnerConfig config;
  config.backend = backend;
  config.stream_capacity = 4;
  PipelineRunner runner(std::move(groups), config, policy);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  // Exactly-once delivery despite the mid-stage restart, and the fault
  // record crossed the control plane with its resolution intact.
  EXPECT_EQ(state->values, expected_values(64, 1));
  ASSERT_FALSE(outcome.stats.faults.empty());
  EXPECT_EQ(outcome.stats.faults[0].group, "mid");
  EXPECT_NE(outcome.stats.faults[0].what.find("transient worker fault"),
            std::string::npos);
  EXPECT_GE(outcome.stats.total_retries(), 1);
}

TEST_P(BackendPipeline, RunLevelCheckpointCutsFlowAcrossProcesses) {
  const TransportBackend backend = GetParam();
  const std::string path = std::string("cgp_ckpt_transport_") +
                           backend_name(backend) + "_test.json";
  auto state = std::make_shared<SinkState>();
  FaultPolicy policy;
  policy.action = FaultAction::kRestartCopy;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  RunnerConfig config;
  config.backend = backend;
  config.stream_capacity = 8;
  config.checkpoint_interval = 16;
  config.checkpoint_path = path;
  PipelineRunner runner(three_stage(128, 1, state), config, policy);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(128, 1));
  // Markers crossed two process boundaries, parts flowed back over the
  // control plane, and the collector committed consistent cuts.
  ASSERT_FALSE(outcome.stats.checkpoints.empty());
  bool saw_run_cut = false;
  for (const support::CheckpointRecord& rec : outcome.stats.checkpoints)
    if (rec.group == "run") {
      saw_run_cut = true;
      EXPECT_EQ(rec.packet_index % 16, 0);
      EXPECT_GT(rec.parts, 0);
    }
  EXPECT_TRUE(saw_run_cut);
  const RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_GT(cut.source_delivered, 0);
  EXPECT_EQ(cut.source_delivered % 16, 0);
  ASSERT_EQ(cut.stages.size(), 2u);
  EXPECT_EQ(cut.stages[0].group, "mid");
  EXPECT_EQ(cut.stages[1].group, "sink");
}

TEST_P(BackendPipeline, TraceMatchesThreadBackendOnDeterministicFields) {
  // Workers ship their slice of the trace to the supervisor, which merges
  // it: every field that does not depend on timing or scheduling must come
  // out exactly as the single-process run records it.
  const auto trace_on = [](TransportBackend backend) {
    auto state = std::make_shared<SinkState>();
    RunnerConfig config;
    config.backend = backend;
    config.stream_capacity = 4;
    config.batch_size = 4;
    PipelineRunner runner(three_stage(200, 3, state), config);
    RunOutcome outcome = runner.run_supervised();
    EXPECT_TRUE(outcome.ok()) << outcome.stats.error;
    return outcome.stats;
  };
  const support::PipelineTrace thread = trace_on(TransportBackend::kThread);
  const support::PipelineTrace remote = trace_on(GetParam());
  ASSERT_EQ(remote.stage_metrics.size(), thread.stage_metrics.size());
  for (std::size_t s = 0; s < thread.stage_metrics.size(); ++s) {
    const support::FilterMetrics& want = thread.stage_metrics[s];
    const support::FilterMetrics& got = remote.stage_metrics[s];
    SCOPED_TRACE("stage " + want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.copies, want.copies);
    EXPECT_EQ(got.packets_in, want.packets_in);
    EXPECT_EQ(got.packets_out, want.packets_out);
    EXPECT_EQ(got.bytes_in, want.bytes_in);
    EXPECT_EQ(got.bytes_out, want.bytes_out);
    EXPECT_EQ(got.faults, want.faults);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.dropped_packets, want.dropped_packets);
    EXPECT_EQ(got.checkpoints, want.checkpoints);
    EXPECT_EQ(got.latency.count, want.latency.count);
  }
  ASSERT_EQ(remote.link_metrics.size(), thread.link_metrics.size());
  for (std::size_t l = 0; l < thread.link_metrics.size(); ++l) {
    const support::LinkMetrics& want = thread.link_metrics[l];
    const support::LinkMetrics& got = remote.link_metrics[l];
    SCOPED_TRACE("link " + std::to_string(l));
    EXPECT_EQ(got.buffers, want.buffers);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.dropped_buffers, want.dropped_buffers);
  }
  EXPECT_EQ(remote.stage_replicas, thread.stage_replicas);
  EXPECT_EQ(remote.batch_size, thread.batch_size);
  EXPECT_EQ(remote.packets, thread.packets);
  EXPECT_EQ(remote.completed, thread.completed);
}

TEST_P(BackendPipeline, WorkerFaultTextCrossesTheWireByteExact) {
  // A quote, a backslash, a newline, a control byte and a two-byte UTF-8
  // letter: everything the trace's JSON codec must escape or pass through.
  static const std::string kWhat = "say \"hi\" \\ then\nbreak \x01 caf\xc3\xa9";
  struct Throwing : Filter {
    void process(FilterContext& ctx) override {
      while (ctx.read()) throw std::runtime_error(kWhat);
    }
  };
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"src", [] { return std::make_unique<CountingSource>(16); }, 1, 0});
  groups.push_back({"mid", [] { return std::make_unique<Throwing>(); }, 1, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<CollectingSink>(state); }, 1,
       2});
  RunnerConfig config;
  config.backend = GetParam();
  PipelineRunner runner(std::move(groups), config);  // fail-fast default
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].group, "mid");
  EXPECT_EQ(outcome.stats.faults[0].what, kWhat);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendPipeline,
                         ::testing::Values(TransportBackend::kProc),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

TEST(MultiprocessRunner, SingleGroupRunsInProcess) {
  // One group means no cross-group links: nothing to put a process
  // boundary on, so every backend runs it in-process.
  auto hits = std::make_shared<std::atomic<int>>(0);
  struct Only : Filter {
    explicit Only(std::shared_ptr<std::atomic<int>> hits)
        : hits_(std::move(hits)) {}
    void process(FilterContext&) override { hits_->fetch_add(1); }
    std::shared_ptr<std::atomic<int>> hits_;
  };
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"only", [hits] { return std::make_unique<Only>(hits); }, 2, 0});
  RunnerConfig config;
  config.backend = TransportBackend::kProc;
  PipelineRunner runner(std::move(groups), config);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  // In-process execution: the shared counter is visible to this test.
  EXPECT_EQ(hits->load(), 2);
  EXPECT_TRUE(outcome.stats.link_metrics.empty());
}

TEST(MultiprocessRunner, StageTimeoutWithoutHeartbeatsRejected) {
  // The watchdog needs worker progress samples, which on a process
  // backend only the heartbeat stream provides; without heartbeats the
  // combination is rejected up front, with a message that names the cure.
  for (TransportBackend backend : {TransportBackend::kProc}) {
    auto state = std::make_shared<SinkState>();
    FaultPolicy policy;
    policy.stage_timeout_seconds = 0.5;
    RunnerConfig config;
    config.backend = backend;
    PipelineRunner runner(three_stage(8, 1, state), config, policy);
    try {
      runner.run_supervised();
      FAIL() << backend_name(backend) << ": expected invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("heartbeat"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(MultiprocessRunner, ProcessHookSeesOneWorkerPerNonSinkGroup) {
  auto state = std::make_shared<SinkState>();
  RunnerConfig config;
  config.backend = TransportBackend::kProc;
  PipelineRunner runner(three_stage(16, 1, state), config);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, long>> launches;
  runner.set_process_hook([&](std::size_t gi, long pid) {
    std::lock_guard lock(mutex);
    launches.emplace_back(gi, pid);
  });
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  ASSERT_EQ(launches.size(), 2u);  // src and mid; the sink stays local
  EXPECT_EQ(launches[0].first, 0u);
  EXPECT_EQ(launches[1].first, 1u);
  EXPECT_GT(launches[0].second, 0);
  EXPECT_NE(launches[0].second, launches[1].second);
}

TEST(MultiprocessRunner, GroupStateCodecRoundTripsWorkerState) {
  // The exporter runs inside each worker's address space; the blobs must
  // come back to the supervisor attributed to the right group.
  auto state = std::make_shared<SinkState>();
  RunnerConfig config;
  config.backend = TransportBackend::kProc;
  PipelineRunner runner(three_stage(32, 1, state), config);
  runner.set_group_state_codec(
      [](std::size_t gi) {
        std::vector<std::byte> blob;
        blob.push_back(static_cast<std::byte>(0xc0 + gi));
        return blob;
      },
      [state](std::size_t gi, const std::vector<std::byte>& blob) {
        ASSERT_EQ(blob.size(), 1u);
        EXPECT_EQ(blob[0], static_cast<std::byte>(0xc0 + gi));
        std::lock_guard lock(state->mutex);
        state->total += 1000 * static_cast<std::int64_t>(gi + 1);
      });
  const std::int64_t payload_total = 32 * 33 / 2;  // 1..32 after AddOne
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  // Both worker blobs were imported: src added 1000, mid added 2000.
  EXPECT_EQ(state->total, payload_total + 3000);
}

TEST(MultiprocessRunner, SigpipeDispositionRestoredAfterRun) {
  // run_multiprocess ignores SIGPIPE for the duration of the run; an
  // embedding application's own disposition must survive it.
  struct sigaction custom {};
  custom.sa_handler = [](int) {};
  sigemptyset(&custom.sa_mask);
  struct sigaction before {};
  ASSERT_EQ(::sigaction(SIGPIPE, &custom, &before), 0);
  auto state = std::make_shared<SinkState>();
  RunnerConfig config;
  config.backend = TransportBackend::kProc;
  PipelineRunner runner(three_stage(16, 1, state), config);
  RunOutcome outcome = runner.run_supervised();
  struct sigaction after {};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &after), 0);
  ::sigaction(SIGPIPE, &before, nullptr);  // leave the test binary as found
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(after.sa_handler, custom.sa_handler);
}

}  // namespace
}  // namespace cgp::dc
