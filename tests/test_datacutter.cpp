// DataCutter runtime tests: buffers, streams, filters, transparent copies,
// buffer pooling, packet batching, and seeded randomized stream stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "datacutter/buffer.h"
#include "datacutter/buffer_pool.h"
#include "datacutter/runner.h"
#include "datacutter/stream.h"
#include "support/rng.h"

namespace cgp::dc {
namespace {

TEST(Buffer, TypedRoundTrip) {
  Buffer buffer;
  buffer.write<std::int32_t>(-7);
  buffer.write<double>(2.5);
  buffer.write<std::uint8_t>(255);
  EXPECT_EQ(buffer.read<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(buffer.read<double>(), 2.5);
  EXPECT_EQ(buffer.read<std::uint8_t>(), 255);
  EXPECT_TRUE(buffer.exhausted());
}

TEST(Buffer, ReadPastEndThrows) {
  Buffer buffer;
  buffer.write<std::int32_t>(1);
  buffer.read<std::int32_t>();
  EXPECT_THROW(buffer.read<std::int32_t>(), std::out_of_range);
}

TEST(Buffer, SlotPatching) {
  Buffer buffer;
  std::size_t slot = buffer.reserve_slot<std::int64_t>();
  buffer.write<std::int32_t>(42);
  buffer.patch_slot<std::int64_t>(slot, 99);
  EXPECT_EQ(buffer.read<std::int64_t>(), 99);
  EXPECT_EQ(buffer.read<std::int32_t>(), 42);
}

TEST(Buffer, SeekAndRemaining) {
  Buffer buffer;
  buffer.write<std::int32_t>(1);
  buffer.write<std::int32_t>(2);
  EXPECT_EQ(buffer.remaining(), 8u);
  buffer.seek(4);
  EXPECT_EQ(buffer.read<std::int32_t>(), 2);
  EXPECT_THROW(buffer.seek(100), std::out_of_range);
}

TEST(Buffer, BytesRoundTrip) {
  Buffer buffer;
  const char payload[] = "filter-stream";
  buffer.write_bytes(payload, sizeof(payload));
  char out[sizeof(payload)];
  buffer.read_bytes(out, sizeof(payload));
  EXPECT_STREQ(out, payload);
}

TEST(Buffer, StringRoundTripIsU32LengthThenBytes) {
  Buffer buffer;
  buffer.write_string("cube");
  buffer.write_string("");
  ASSERT_EQ(buffer.size(), 2 * sizeof(std::uint32_t) + 4);
  EXPECT_EQ(buffer.peek_at<std::uint32_t>(0), 4u);
  EXPECT_EQ(buffer.read_string(), "cube");
  EXPECT_EQ(buffer.read_string(), "");
  EXPECT_TRUE(buffer.exhausted());
}

TEST(Buffer, OversizeStringLengthThrowsBeforeAllocating) {
  // A torn length of 0xFFFFFFFF must be caught by the length check, not
  // by read_bytes after a 4 GiB allocation.
  Buffer buffer;
  buffer.write<std::uint32_t>(0xFFFFFFFFu);
  buffer.write_bytes("abc", 3);
  EXPECT_THROW(buffer.read_string(), std::out_of_range);
  Buffer short_by_one;
  short_by_one.write<std::uint32_t>(4);
  short_by_one.write_bytes("abc", 3);
  EXPECT_THROW(short_by_one.read_string(), std::out_of_range);
}

TEST(Stream, FifoSingleProducer) {
  Stream stream(4);
  stream.set_producers(1);
  for (int i = 0; i < 3; ++i) {
    Buffer b;
    b.write<std::int32_t>(i);
    stream.push(std::move(b));
  }
  stream.close();
  for (int i = 0; i < 3; ++i) {
    auto b = stream.pop();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->read<std::int32_t>(), i);
  }
  EXPECT_FALSE(stream.pop().has_value());
}

TEST(Stream, StatsTrackBytes) {
  Stream stream(4);
  stream.set_producers(1);
  Buffer b;
  b.write<std::int64_t>(5);
  stream.push(std::move(b));
  EXPECT_EQ(stream.buffers_pushed(), 1);
  EXPECT_EQ(stream.bytes_pushed(), 8);
  stream.close();
}

TEST(Stream, ClosesOnlyWhenAllProducersDone) {
  Stream stream(4);
  stream.set_producers(2);
  stream.close();
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto b = stream.pop();
    got = b.has_value();
  });
  Buffer payload;
  payload.write<std::int32_t>(1);
  stream.push(std::move(payload));
  stream.close();
  consumer.join();
  EXPECT_TRUE(got.load());
  EXPECT_FALSE(stream.pop().has_value());
}

TEST(Stream, BackpressureBlocksProducer) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer first;
  first.write<std::int32_t>(0);
  stream.push(std::move(first));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    Buffer b;
    b.write<std::int32_t>(1);
    stream.push(std::move(b));
    second_pushed = true;
    stream.close();
  });
  // Give the producer a chance; it must be blocked on capacity.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  stream.pop();
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(Stream, AbortUnblocksConsumer) {
  Stream stream(4);
  stream.set_producers(1);
  std::atomic<bool> got_eof{false};
  std::thread consumer([&] {
    got_eof = !stream.pop().has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stream.abort();
  consumer.join();
  EXPECT_TRUE(got_eof.load());
}

TEST(Stream, AbortUnblocksBackpressuredProducer) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer first;
  first.write<std::int32_t>(0);
  stream.push(std::move(first));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    Buffer b;
    b.write<std::int32_t>(1);
    stream.push(std::move(b));  // blocked on capacity until abort
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  stream.abort();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(stream.pop().has_value());  // aborted: drained as EOF
}

// ---------------------------------------------------------------------------
// Observability counters
// ---------------------------------------------------------------------------

TEST(StreamMetrics, OccupancyHighWaterTracksDeepestQueue) {
  Stream stream(8);
  stream.set_producers(1);
  for (int i = 0; i < 5; ++i) {
    Buffer b;
    b.write<std::int32_t>(i);
    stream.push(std::move(b));
  }
  EXPECT_EQ(stream.occupancy_high_water(), 5u);
  stream.pop();
  stream.pop();
  // Draining must not lower the mark.
  EXPECT_EQ(stream.occupancy_high_water(), 5u);
  Buffer b;
  b.write<std::int32_t>(9);
  stream.push(std::move(b));
  EXPECT_EQ(stream.occupancy_high_water(), 5u);  // queue is at 4 now
  stream.close();
}

TEST(StreamMetrics, BackpressureAccruesProducerBlockTime) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer first;
  first.write<std::int32_t>(0);
  stream.push(std::move(first));
  EXPECT_DOUBLE_EQ(stream.producer_block_seconds(), 0.0);
  std::thread producer([&] {
    Buffer b;
    b.write<std::int32_t>(1);
    stream.push(std::move(b));  // blocks: capacity 1, slow consumer
    stream.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stream.pop();
  producer.join();
  EXPECT_GE(stream.producer_block_seconds(), 0.02);
  support::LinkMetrics m = stream.metrics();
  EXPECT_EQ(m.buffers, 2);
  EXPECT_EQ(m.capacity, 1);
  EXPECT_EQ(m.occupancy_high_water, 1);
  EXPECT_GE(m.producer_block_seconds, 0.02);
}

TEST(StreamMetrics, EmptyQueueAccruesConsumerBlockTime) {
  Stream stream(4);
  stream.set_producers(1);
  std::thread consumer([&] { stream.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Buffer b;
  b.write<std::int32_t>(1);
  stream.push(std::move(b));
  consumer.join();
  stream.close();
  EXPECT_GE(stream.consumer_block_seconds(), 0.02);
  // A pop that never waits adds nothing further... up to scheduler noise;
  // the counter is monotonic and finite either way.
  const double before = stream.consumer_block_seconds();
  EXPECT_FALSE(stream.pop().has_value());
  EXPECT_GE(stream.consumer_block_seconds(), before);
}

TEST(StreamMetrics, AbortLeavesCountersConsistent) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer first;
  first.write<std::int32_t>(0);
  stream.push(std::move(first));
  std::thread producer([&] {
    Buffer b;
    b.write<std::int32_t>(1);
    stream.push(std::move(b));  // blocked until abort; buffer is dropped
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stream.abort();
  producer.join();
  support::LinkMetrics m = stream.metrics();
  // The dropped push counts block time but never a buffer.
  EXPECT_EQ(m.buffers, 1);
  EXPECT_EQ(m.bytes, 4);
  EXPECT_EQ(m.occupancy_high_water, 1);
  EXPECT_GE(m.producer_block_seconds, 0.01);
  // Post-abort traffic stays invisible to the counters.
  Buffer late;
  late.write<std::int32_t>(7);
  stream.push(std::move(late));
  EXPECT_EQ(stream.buffers_pushed(), 1);
}

TEST(Stream, PushAfterAbortSignalsDrop) {
  Stream stream(4);
  stream.set_producers(1);
  Buffer accepted;
  accepted.write<std::int32_t>(1);
  EXPECT_TRUE(stream.push(std::move(accepted)));
  EXPECT_EQ(stream.dropped_buffers(), 0);
  // Abort discards the queued buffer (a consumer can never reach it) and
  // counts it dropped, keeping pushed == popped + dropped exact.
  stream.abort();
  EXPECT_EQ(stream.dropped_buffers(), 1);
  Buffer dropped;
  dropped.write<std::int32_t>(2);
  EXPECT_FALSE(stream.push(std::move(dropped)));
  EXPECT_EQ(stream.dropped_buffers(), 2);
  EXPECT_EQ(stream.buffers_pushed(), 1);  // drops never count as pushed
  EXPECT_EQ(stream.metrics().dropped_buffers, 2);
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

TEST(BufferPool, AdoptAndReleaseStorageRoundTrip) {
  Buffer buffer(256);
  buffer.write<std::int64_t>(42);
  std::vector<std::byte> storage = buffer.release_storage();
  EXPECT_GE(storage.capacity(), 256u);
  Buffer reborn = Buffer::adopt(std::move(storage));
  EXPECT_EQ(reborn.size(), 0u);  // logically empty, capacity retained
  EXPECT_GE(reborn.capacity(), 256u);
  reborn.write<std::int64_t>(7);
  EXPECT_EQ(reborn.read<std::int64_t>(), 7);
}

TEST(BufferPool, MissThenHit) {
  BufferPool pool;
  Buffer first = pool.acquire(1024);
  EXPECT_EQ(pool.acquires(), 1);
  EXPECT_EQ(pool.hits(), 0);
  EXPECT_EQ(pool.misses(), 1);
  first.write<std::int32_t>(5);
  pool.recycle(std::move(first));
  EXPECT_EQ(pool.recycles(), 1);
  Buffer second = pool.acquire(1024);
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_GE(second.capacity(), 1024u);
  EXPECT_EQ(second.size(), 0u);  // recycled storage comes back empty
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.5);
}

TEST(BufferPool, RecycledCapacityAlwaysCoversRequest) {
  BufferPool pool;
  // Recycle a 100-byte-capacity vector: it lands in class floor-log2(cap).
  Buffer small(100);
  pool.recycle(std::move(small));
  // A request larger than that capacity must not be served by it.
  Buffer big = pool.acquire(100000);
  EXPECT_GE(big.capacity(), 100000u);
}

TEST(BufferPool, PerClassCapDiscardsOverflow) {
  BufferPool pool(/*max_per_class=*/2);
  for (int i = 0; i < 4; ++i) {
    pool.recycle(Buffer(512));
  }
  EXPECT_EQ(pool.recycles(), 4);
  EXPECT_EQ(pool.discarded(), 2);
}

TEST(BufferPool, ZeroCapacityBuffersAreNotPooled) {
  BufferPool pool;
  pool.recycle(Buffer{});
  EXPECT_EQ(pool.recycles(), 0);
  (void)pool.acquire(64);
  EXPECT_EQ(pool.hits(), 0);
}

TEST(BufferPool, MetricsSnapshotMatchesCounters) {
  BufferPool pool;
  pool.recycle(Buffer(64));
  (void)pool.acquire(64);
  (void)pool.acquire(64);
  support::PoolMetrics m = pool.metrics();
  EXPECT_EQ(m.acquires, 2);
  EXPECT_EQ(m.hits, 1);
  EXPECT_EQ(m.misses, 1);
  EXPECT_EQ(m.recycles, 1);
  EXPECT_DOUBLE_EQ(m.hit_rate(), 0.5);
}

TEST(Buffer, ReleaseStorageResetsTag) {
  // Regression: recycled storage must not carry the checkpoint-marker tag
  // into its next life — a pooled data packet would otherwise be eaten by
  // FilterContext::read()'s marker interception downstream.
  Buffer buffer(64);
  buffer.write<std::int32_t>(1);
  buffer.set_tag(kCheckpointMarkerTag);
  std::vector<std::byte> storage = buffer.release_storage();
  EXPECT_EQ(buffer.tag(), 0u);
  Buffer reborn = Buffer::adopt(std::move(storage));
  EXPECT_EQ(reborn.tag(), 0u);
}

TEST(BufferPool, GeometryRaisesRetentionAboveDefaultCap) {
  // With the default cap a batch-sized recycle burst overflows the class
  // and the storage is lost; set_geometry retains enough copies per class
  // for capacity + batch + in-flight replicas, so the burst survives.
  BufferPool capped(/*max_per_class=*/2);
  BufferPool sized(/*max_per_class=*/2);
  sized.set_geometry(/*links=*/1, /*stream_capacity=*/4, /*batch_size=*/8,
                     /*max_copies=*/1);
  EXPECT_GE(sized.retention_per_class(), 4u + 7u + 2u * 8u);
  for (int i = 0; i < 16; ++i) {
    capped.recycle(Buffer(512));
    sized.recycle(Buffer(512));
  }
  EXPECT_EQ(capped.discarded(), 14);
  EXPECT_EQ(sized.discarded(), 0);
  for (int i = 0; i < 16; ++i) (void)sized.acquire(512);
  EXPECT_EQ(sized.hits(), 16);
}

TEST(BufferPool, PerClassCountersTrackTraffic) {
  BufferPool pool;
  // Two size classes: 512B (class 9) and 60000B (floor class 15).
  pool.recycle(Buffer(512));
  (void)pool.acquire(512);    // hit in class 9
  (void)pool.acquire(512);    // miss in class 9
  (void)pool.acquire(60000);  // miss in class 15
  support::PoolMetrics m = pool.metrics();
  ASSERT_EQ(m.classes.size(), 2u);
  const support::PoolClassMetrics& small = m.classes[0];
  EXPECT_EQ(small.class_index, 9);
  EXPECT_EQ(small.class_bytes, 512);
  EXPECT_EQ(small.acquires, 2);
  EXPECT_EQ(small.hits, 1);
  EXPECT_EQ(small.misses, 1);
  EXPECT_EQ(small.recycles, 1);
  EXPECT_EQ(small.high_water, 1);
  const support::PoolClassMetrics& large = m.classes[1];
  EXPECT_EQ(large.class_index, 15);
  EXPECT_EQ(large.acquires, 1);
  EXPECT_EQ(large.hits, 0);
}

// ---------------------------------------------------------------------------
// Packet batching
// ---------------------------------------------------------------------------

TEST(StreamBatch, PushBatchPreservesFifoOrder) {
  Stream stream(16);
  stream.set_producers(1);
  std::vector<Buffer> batch;
  for (int i = 0; i < 5; ++i) {
    Buffer b;
    b.write<std::int32_t>(i);
    batch.push_back(std::move(b));
  }
  EXPECT_EQ(stream.push_batch(batch), 5u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(stream.buffers_pushed(), 5);
  EXPECT_EQ(stream.batches_pushed(), 1);  // one enqueue for the whole batch
  stream.close();
  for (int i = 0; i < 5; ++i) {
    auto b = stream.pop();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->read<std::int32_t>(), i);
  }
  EXPECT_FALSE(stream.pop().has_value());
}

TEST(StreamBatch, BatchOvershootIsBounded) {
  // A batch waits for room for at least one buffer, then lands whole:
  // occupancy may overshoot to capacity + |batch| - 1, never more.
  Stream stream(2);
  stream.set_producers(1);
  Buffer head;
  head.write<std::int32_t>(0);
  stream.push(std::move(head));  // occupancy 1 < capacity: room for one
  std::vector<Buffer> batch;
  for (int i = 0; i < 4; ++i) {
    Buffer b;
    b.write<std::int32_t>(1 + i);
    batch.push_back(std::move(b));
  }
  EXPECT_EQ(stream.push_batch(batch), 4u);
  EXPECT_EQ(stream.occupancy_high_water(), 5u);  // capacity + |batch| - 1
  stream.close();
}

TEST(StreamBatch, PushBatchBlocksUntilRoomThenLandsWhole) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer head;
  head.write<std::int32_t>(-1);
  stream.push(std::move(head));  // stream is now full
  std::atomic<bool> landed{false};
  std::thread producer([&] {
    std::vector<Buffer> batch;
    for (int i = 0; i < 3; ++i) {
      Buffer b;
      b.write<std::int32_t>(i);
      batch.push_back(std::move(b));
    }
    EXPECT_EQ(stream.push_batch(batch), 3u);
    landed = true;
    stream.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(landed.load());  // no room: the whole batch waits
  stream.pop();
  producer.join();
  EXPECT_TRUE(landed.load());
  EXPECT_GE(stream.producer_block_seconds(), 0.01);
}

TEST(StreamBatch, AbortDropsWholeInflightBatch) {
  Stream stream(1);
  stream.set_producers(1);
  Buffer head;
  head.write<std::int32_t>(-1);
  stream.push(std::move(head));
  std::atomic<std::size_t> accepted{99};
  std::thread producer([&] {
    std::vector<Buffer> batch;
    for (int i = 0; i < 3; ++i) {
      Buffer b;
      b.write<std::int32_t>(i);
      batch.push_back(std::move(b));
    }
    accepted = stream.push_batch(batch);  // blocked until abort
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stream.abort();
  producer.join();
  EXPECT_EQ(accepted.load(), 0u);  // all-or-none: nothing partial delivered
  // Dropped: the 3-buffer batch plus the queued head buffer.
  EXPECT_EQ(stream.dropped_buffers(), 4);
  EXPECT_EQ(stream.buffers_pushed(), 1);
}

TEST(StreamBatch, PopBatchMovesUpToMax) {
  Stream stream(16);
  stream.set_producers(1);
  for (int i = 0; i < 7; ++i) {
    Buffer b;
    b.write<std::int32_t>(i);
    stream.push(std::move(b));
  }
  stream.close();
  std::vector<Buffer> out;
  EXPECT_EQ(stream.pop_batch(out, 4), 4u);
  EXPECT_EQ(stream.pop_batch(out, 4), 3u);
  ASSERT_EQ(out.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].read<std::int32_t>(), i);
  }
  EXPECT_EQ(stream.pop_batch(out, 4), 0u);  // EOS
}

TEST(StreamStress, RandomizedProducersConsumersPreserveAccounting) {
  // Seeded property test: random producer/consumer counts, capacities,
  // batch sizes, and interleaved close/abort/drain. The invariant under
  // test: every buffer a producer attempted is accounted for exactly once,
  // attempted == popped + dropped.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng setup(seed * 0x9E3779B9ULL);
    const int producers = static_cast<int>(setup.next_int(1, 4));
    const int consumers = static_cast<int>(setup.next_int(1, 4));
    const std::size_t capacity =
        static_cast<std::size_t>(setup.next_int(1, 16));
    const int per_producer = static_cast<int>(setup.next_int(40, 160));
    const bool chaos_abort = seed % 3 == 0;
    const bool drain_tail = seed % 4 == 0;

    Stream stream(capacity);
    stream.set_producers(producers);
    std::atomic<std::int64_t> attempted{0};
    std::atomic<std::int64_t> popped{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(p));
        int sent = 0;
        while (sent < per_producer) {
          const int batch_n = static_cast<int>(
              rng.next_int(1, std::min(8, per_producer - sent)));
          if (batch_n == 1 || rng.next_below(4) == 0) {
            Buffer b;
            b.write<std::int64_t>(sent);
            attempted.fetch_add(1, std::memory_order_relaxed);
            stream.push(std::move(b));
            ++sent;
          } else {
            std::vector<Buffer> batch;
            for (int i = 0; i < batch_n; ++i) {
              Buffer b;
              b.write<std::int64_t>(sent + i);
              batch.push_back(std::move(b));
            }
            attempted.fetch_add(batch_n, std::memory_order_relaxed);
            stream.push_batch(batch);
            sent += batch_n;
          }
        }
        stream.close();
      });
    }
    const int active_consumers = drain_tail ? consumers - 1 : consumers;
    if (drain_tail) {
      // One consumer slot is a drainer: it discards until EOS, counting
      // everything it swallows as dropped (the dead-stage recovery path).
      threads.emplace_back([&] { stream.drain(); });
    }
    for (int c = 0; c < active_consumers; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed * 2000 + static_cast<std::uint64_t>(c));
        for (;;) {
          if (rng.next_below(2) == 0) {
            std::vector<Buffer> got;
            const std::size_t n = stream.pop_batch(
                got, static_cast<std::size_t>(rng.next_int(1, 6)));
            if (n == 0) break;
            popped.fetch_add(static_cast<std::int64_t>(n),
                             std::memory_order_relaxed);
          } else {
            auto b = stream.pop();
            if (!b) break;
            popped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::optional<std::thread> chaos;
    if (chaos_abort) {
      chaos.emplace([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        stream.abort();
      });
    }
    for (std::thread& t : threads) t.join();
    if (chaos) chaos->join();

    // Every attempted buffer is popped, dropped at abort, rejected after
    // abort, or discarded by drain — never lost, never double-counted.
    EXPECT_EQ(attempted.load(), popped.load() + stream.dropped_buffers())
        << "seed " << seed << ": producers=" << producers
        << " consumers=" << consumers << " capacity=" << capacity
        << " abort=" << chaos_abort;
    EXPECT_LE(stream.batches_pushed(), stream.buffers_pushed());
    if (!chaos_abort) {
      EXPECT_EQ(stream.buffers_pushed(),
                static_cast<std::int64_t>(producers) * per_producer)
          << "seed " << seed;
    }
  }
}

TEST(Stream, DrainCountsDiscardedBuffers) {
  Stream stream(8);
  stream.set_producers(1);
  for (int i = 0; i < 3; ++i) {
    Buffer b;
    b.write<std::int32_t>(i);
    stream.push(std::move(b));
  }
  stream.close();
  EXPECT_EQ(stream.drain(), 3);
  EXPECT_EQ(stream.dropped_buffers(), 3);
  EXPECT_EQ(stream.buffers_pushed(), 3);  // they were genuinely sent
  EXPECT_FALSE(stream.pop().has_value());
}

// ---------------------------------------------------------------------------
// Checkpoint markers: producer-side barrier merge, consumer-side broadcast
// ---------------------------------------------------------------------------

namespace {
bool is_marker(const Buffer& b, std::int64_t id) {
  if (b.tag() != kCheckpointMarkerTag) return false;
  Buffer copy = b;
  copy.seek(0);
  return copy.read<std::int64_t>() == id;
}

Buffer data_buffer(std::int64_t v) {
  Buffer b;
  b.write<std::int64_t>(v);
  return b;
}

std::int64_t data_value(Buffer b) {
  b.seek(0);
  return b.read<std::int64_t>();
}
}  // namespace

TEST(StreamMarker, BarrierMergesAcrossProducersBehindPreCutData) {
  // Two producers; the fast one parks at the barrier, so its post-cut data
  // cannot precede the merged marker in the queue.
  Stream stream(8);
  stream.set_producers(2);
  stream.set_consumers(1);
  std::thread fast([&] {
    stream.push(data_buffer(10));
    stream.push_marker(0);  // blocks until the slow producer arrives
    stream.push(data_buffer(11));
    stream.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stream.push(data_buffer(20));
  stream.push_marker(0);
  stream.close();
  fast.join();
  std::multiset<std::int64_t> before;
  std::optional<Buffer> b;
  while ((b = stream.pop(0)) && !is_marker(*b, 0))
    before.insert(data_value(std::move(*b)));
  ASSERT_TRUE(b.has_value()) << "marker never delivered";
  EXPECT_EQ(before, (std::multiset<std::int64_t>{10, 20}));
  b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(data_value(std::move(*b)), 11);  // post-cut data after the cut
  EXPECT_FALSE(stream.pop(0).has_value());
  // Markers are control traffic: never counted as data.
  EXPECT_EQ(stream.buffers_pushed(), 3);
}

TEST(StreamMarker, BroadcastDeliversToEachConsumerExactlyOnce) {
  Stream stream(8);
  stream.set_producers(1);
  stream.set_consumers(2);
  stream.push(data_buffer(1));
  stream.push_marker(0);
  stream.push(data_buffer(2));
  stream.close();
  // Consumer 0 takes the first data entry; consumer 1's first eligible
  // entry is the marker (data behind it stays competitive afterwards).
  auto b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(data_value(std::move(*b)), 1);
  b = stream.pop(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(is_marker(*b, 0));
  b = stream.pop(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(data_value(std::move(*b)), 2);
  // Consumer 0 still gets its own copy of the marker before end-of-stream.
  b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(is_marker(*b, 0));
  EXPECT_FALSE(stream.pop(0).has_value());
  EXPECT_FALSE(stream.pop(1).has_value());
  EXPECT_EQ(stream.buffers_pushed(), 2);
}

TEST(StreamMarker, PopBatchNeverMixesMarkerWithData) {
  Stream stream(8);
  stream.set_producers(1);
  stream.set_consumers(1);
  stream.push(data_buffer(1));
  stream.push(data_buffer(2));
  stream.push_marker(0);
  stream.push(data_buffer(3));
  stream.push(data_buffer(4));
  stream.close();
  std::vector<Buffer> out;
  // The marker ends the first batch early...
  EXPECT_EQ(stream.pop_batch(out, 10, 0), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(data_value(std::move(out[0])), 1);
  EXPECT_EQ(data_value(std::move(out[1])), 2);
  // ...then travels alone...
  out.clear();
  EXPECT_EQ(stream.pop_batch(out, 10, 0), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(is_marker(out[0], 0));
  // ...and the post-cut data follows in order.
  out.clear();
  EXPECT_EQ(stream.pop_batch(out, 10, 0), 2u);
  out.clear();
  EXPECT_EQ(stream.pop_batch(out, 10, 0), 0u);
}

TEST(StreamMarker, ClosedProducerCountsTowardEveryBarrier) {
  // A copy that finished early must not wedge the cut: its close() counts
  // as arrival at every current and future marker.
  Stream stream(8);
  stream.set_producers(2);
  stream.set_consumers(1);
  stream.push(data_buffer(1));
  stream.close();  // producer A done for good
  EXPECT_TRUE(stream.push_marker(0));  // producer B merges alone
  stream.push(data_buffer(2));
  stream.close();
  auto b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(data_value(std::move(*b)), 1);
  b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(is_marker(*b, 0));
  b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(data_value(std::move(*b)), 2);
  EXPECT_FALSE(stream.pop(0).has_value());
}

TEST(StreamMarker, RetiredConsumerReleasesPendingMarkers) {
  // When a consumer copy dies, queued markers it would have taken are
  // released as soon as every surviving consumer has taken them.
  Stream stream(8);
  stream.set_producers(1);
  stream.set_consumers(2);
  stream.push_marker(0);
  auto b = stream.pop(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(is_marker(*b, 0));
  stream.retire_consumer();  // consumer 1 is gone; the marker is released
  stream.close();
  EXPECT_FALSE(stream.pop(0).has_value());
}

// ---------------------------------------------------------------------------
// Pipelines
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

class Doubler : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      std::int64_t v = b->read<std::int64_t>();
      Buffer out;
      out.write<std::int64_t>(v * 2);
      ctx.emit(std::move(out));
    }
  }
};

struct SumSinkState {
  std::mutex mutex;
  std::int64_t total = 0;
  int buffers = 0;
};

class SumSink : public Filter {
 public:
  explicit SumSink(std::shared_ptr<SumSinkState> state)
      : state_(std::move(state)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      std::lock_guard lock(state_->mutex);
      state_->total += b->read<std::int64_t>();
      ++state_->buffers;
    }
  }

 private:
  std::shared_ptr<SumSinkState> state_;
};

TEST(Runner, ThreeStagePipeline) {
  auto state = std::make_shared<SumSinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back({"source", [] { return std::make_unique<CountingSource>(100); }, 1, 0});
  groups.push_back({"double", [] { return std::make_unique<Doubler>(); }, 1, 1});
  groups.push_back({"sink", [state] { return std::make_unique<SumSink>(state); }, 1, 2});
  PipelineRunner runner(std::move(groups));
  support::PipelineTrace stats = runner.run();
  EXPECT_EQ(state->total, 2 * (99 * 100 / 2));
  EXPECT_EQ(state->buffers, 100);
  ASSERT_EQ(stats.link_metrics.size(), 2u);
  EXPECT_EQ(stats.link_metrics[0].buffers, 100);
  EXPECT_EQ(stats.link_metrics[0].bytes, 800);
}

TEST(Runner, TransparentCopiesPreserveResults) {
  for (int copies : {1, 2, 4}) {
    auto state = std::make_shared<SumSinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(
        {"source", [] { return std::make_unique<CountingSource>(64); }, copies, 0});
    groups.push_back(
        {"double", [] { return std::make_unique<Doubler>(); }, copies, 1});
    groups.push_back(
        {"sink", [state] { return std::make_unique<SumSink>(state); }, 1, 2});
    PipelineRunner runner(std::move(groups));
    runner.run();
    EXPECT_EQ(state->total, 2 * (63 * 64 / 2)) << copies << " copies";
    EXPECT_EQ(state->buffers, 64);
  }
}

TEST(StreamBatch, BatchedPipelineMatchesUnbatched) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    auto state = std::make_shared<SumSinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(
        {"source", [] { return std::make_unique<CountingSource>(100); }, 2, 0});
    groups.push_back(
        {"double", [] { return std::make_unique<Doubler>(); }, 2, 1});
    groups.push_back(
        {"sink", [state] { return std::make_unique<SumSink>(state); }, 1, 2});
    RunnerConfig config;
    config.stream_capacity = 4;
    config.batch_size = batch;
    PipelineRunner runner(std::move(groups), config);
    support::PipelineTrace stats = runner.run();
    EXPECT_EQ(state->total, 2 * (99 * 100 / 2)) << "batch " << batch;
    EXPECT_EQ(state->buffers, 100);
    ASSERT_EQ(stats.link_metrics.size(), 2u);
    EXPECT_EQ(stats.link_metrics[0].buffers, 100);
    EXPECT_GT(stats.link_metrics[0].batches, 0);
    EXPECT_EQ(stats.batch_size, static_cast<std::int64_t>(batch));
    if (batch > 1) {
      // Coalescing must actually reduce enqueue operations.
      EXPECT_LT(stats.link_metrics[0].batches,
                stats.link_metrics[0].buffers);
    } else {
      EXPECT_EQ(stats.link_metrics[0].batches,
                stats.link_metrics[0].buffers);
    }
  }
}

TEST(StreamBatch, PooledPipelineRecyclesStorage) {
  struct RecyclingDoubler : Filter {
    void process(FilterContext& ctx) override {
      while (auto b = ctx.read()) {
        std::int64_t v = b->read<std::int64_t>();
        Buffer out = ctx.acquire_buffer(sizeof(std::int64_t));
        out.write<std::int64_t>(v * 2);
        ctx.recycle(std::move(*b));
        ctx.emit(std::move(out));
      }
    }
  };
  struct RecyclingSource : Filter {
    void process(FilterContext& ctx) override {
      for (int i = 0; i < 200; ++i) {
        if (i % ctx.copy_count() != ctx.copy_index()) continue;
        Buffer b = ctx.acquire_buffer(sizeof(std::int64_t));
        b.write<std::int64_t>(i);
        ctx.emit(std::move(b));
      }
    }
  };
  struct RecyclingSink : Filter {
    explicit RecyclingSink(std::shared_ptr<SumSinkState> state)
        : state_(std::move(state)) {}
    void process(FilterContext& ctx) override {
      while (auto b = ctx.read()) {
        {
          std::lock_guard lock(state_->mutex);
          state_->total += b->read<std::int64_t>();
          ++state_->buffers;
        }
        ctx.recycle(std::move(*b));
      }
    }
    std::shared_ptr<SumSinkState> state_;
  };
  auto state = std::make_shared<SumSinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<RecyclingSource>(); }, 1, 0});
  groups.push_back(
      {"double", [] { return std::make_unique<RecyclingDoubler>(); }, 1, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<RecyclingSink>(state); }, 1,
       2});
  RunnerConfig config;
  config.stream_capacity = 4;
  config.batch_size = 4;
  PipelineRunner runner(std::move(groups), config);
  support::PipelineTrace stats = runner.run();
  EXPECT_EQ(state->total, 2 * (199 * 200 / 2));
  EXPECT_EQ(state->buffers, 200);
  // 400 acquires total; only the warm-up handful (bounded by the number of
  // buffers in flight) may miss.
  EXPECT_EQ(stats.pool.acquires, 400);
  EXPECT_GT(stats.pool.recycles, 0);
  EXPECT_GE(stats.pool.hit_rate(), 0.9);
}

TEST(Runner, EmptyPipelineRejected) {
  EXPECT_THROW(PipelineRunner(std::vector<FilterGroup>{}), std::invalid_argument);
}

TEST(Runner, MissingFactoryRejected) {
  std::vector<FilterGroup> groups;
  groups.push_back({"broken", nullptr, 1, 0});
  EXPECT_THROW(PipelineRunner{std::move(groups)}, std::invalid_argument);
}

TEST(Runner, NonPositiveCopiesRejected) {
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(1); }, 0, 0});
  EXPECT_THROW(PipelineRunner{std::move(groups)}, std::invalid_argument);
}

TEST(Runner, FilterExceptionPropagatesWithoutDeadlock) {
  struct Exploder : Filter {
    void process(FilterContext& ctx) override {
      // Consume one buffer, then fail; upstream keeps producing into a
      // bounded stream — the abort path must unblock it.
      ctx.read();
      throw std::runtime_error("boom");
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(1000); }, 1, 0});
  groups.push_back({"exploder", [] { return std::make_unique<Exploder>(); }, 1, 1});
  auto state = std::make_shared<SumSinkState>();
  groups.push_back({"sink", [state] { return std::make_unique<SumSink>(state); }, 1, 2});
  PipelineRunner runner(std::move(groups));
  EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(Runner, CollectsPerGroupAndPerLinkMetrics) {
  struct SlowSink : Filter {
    void process(FilterContext& ctx) override {
      while (ctx.read()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(20); }, 1, 0});
  groups.push_back({"sink", [] { return std::make_unique<SlowSink>(); }, 1, 1});
  // Capacity-1 stream: the fast source must stall on backpressure.
  PipelineRunner runner(std::move(groups), /*stream_capacity=*/1);
  support::PipelineTrace stats = runner.run();

  ASSERT_EQ(stats.stage_metrics.size(), 2u);
  ASSERT_EQ(stats.link_metrics.size(), 1u);
  const support::FilterMetrics& source = stats.stage_metrics[0];
  const support::FilterMetrics& sink = stats.stage_metrics[1];
  EXPECT_EQ(source.name, "source");
  EXPECT_EQ(source.copies, 1);
  EXPECT_EQ(source.packets_out, 20);
  EXPECT_EQ(source.bytes_out, 20 * 8);
  EXPECT_EQ(source.packets_in, 0);
  EXPECT_GT(source.stall_output_seconds, 0.01);  // blocked behind slow sink
  EXPECT_EQ(sink.packets_in, 20);
  EXPECT_EQ(sink.bytes_in, 20 * 8);
  // The sink sleeps ~2ms per packet between reads: busy time and latency
  // samples must see it.
  EXPECT_GT(sink.busy_seconds(), 0.02);
  EXPECT_EQ(sink.latency.count, 20);  // EOF read closes the last window
  EXPECT_GT(sink.latency.mean_seconds(), 1e-3);
  EXPECT_LE(source.latency.count, 20);

  const support::LinkMetrics& link = stats.link_metrics[0];
  EXPECT_EQ(link.buffers, 20);
  EXPECT_EQ(link.capacity, 1);
  EXPECT_EQ(link.occupancy_high_water, 1);
  EXPECT_GT(link.producer_block_seconds, 0.01);

  support::PipelineTrace trace = stats;
  EXPECT_EQ(trace.packets, 20);
  ASSERT_EQ(trace.stage_metrics.size(), 2u);
  EXPECT_EQ(trace.bottleneck_filter(), 1);  // the sleeping sink
}

TEST(Runner, MetricsAggregateAcrossCopies) {
  auto state = std::make_shared<SumSinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(32); }, 2, 0});
  groups.push_back({"double", [] { return std::make_unique<Doubler>(); }, 3, 1});
  groups.push_back({"sink", [state] { return std::make_unique<SumSink>(state); }, 1, 2});
  PipelineRunner runner(std::move(groups));
  support::PipelineTrace stats = runner.run();
  ASSERT_EQ(stats.stage_metrics.size(), 3u);
  EXPECT_EQ(stats.stage_metrics[0].copies, 2);
  EXPECT_EQ(stats.stage_metrics[1].copies, 3);
  EXPECT_EQ(stats.stage_metrics[0].packets_out, 32);
  EXPECT_EQ(stats.stage_metrics[1].packets_in, 32);
  EXPECT_EQ(stats.stage_metrics[1].packets_out, 32);
  EXPECT_EQ(stats.stage_metrics[2].packets_in, 32);
  EXPECT_EQ(stats.stage_metrics[2].bytes_in, 32 * 8);
  EXPECT_GT(stats.stage_metrics[1].total_seconds, 0.0);
}

TEST(Runner, AbortedRunStillReportsConsistentMetrics) {
  struct Exploder : Filter {
    void process(FilterContext& ctx) override {
      ctx.read();
      throw std::runtime_error("boom");
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(1000); }, 1, 0});
  groups.push_back({"exploder", [] { return std::make_unique<Exploder>(); }, 1, 1});
  PipelineRunner runner(std::move(groups), /*stream_capacity=*/2);
  EXPECT_THROW(runner.run(), std::runtime_error);
  // The throw happens after joins; counters were already harvested into the
  // stats object the runner discards — the invariant under test is simply
  // that teardown neither deadlocks nor trips TSan/ASan on the counters.
}

TEST(Runner, InitFinalizeCalledOncePerCopy) {
  struct Probe : Filter {
    explicit Probe(std::atomic<int>* inits, std::atomic<int>* finals)
        : inits_(inits), finals_(finals) {}
    void init(FilterContext&) override { ++*inits_; }
    void process(FilterContext& ctx) override {
      while (ctx.read()) {
      }
    }
    void finalize(FilterContext&) override { ++*finals_; }
    std::atomic<int>* inits_;
    std::atomic<int>* finals_;
  };
  std::atomic<int> inits{0};
  std::atomic<int> finals{0};
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"source", [] { return std::make_unique<CountingSource>(4); }, 1, 0});
  groups.push_back({"probe", [&] { return std::make_unique<Probe>(&inits, &finals); }, 3, 1});
  PipelineRunner runner(std::move(groups));
  runner.run();
  EXPECT_EQ(inits.load(), 3);
  EXPECT_EQ(finals.load(), 3);
}

}  // namespace
}  // namespace cgp::dc
