// Shared-memory byte ring for the proc backend: a bounded SPSC byte pipe
// living in an anonymous MAP_SHARED mapping created before fork, so both
// endpoint processes address the same pages. Synchronization is a
// process-shared robust pthread mutex plus one futex wakeup word per side,
// with a bounded timed re-check so a waiter never wedges when its peer
// process is SIGKILLed between update and wakeup. The wakeup words hold no
// lock and no waiter references — a process-shared pthread_cond_t does,
// and a peer killed while parked on one wedges the next signaller for
// good. A writer that dies holding the mutex trips EOWNERDEAD on the
// survivor, which marks the ring aborted instead of inheriting torn state.
//
// The ring streams: a frame larger than the capacity flows through in
// chunks (writer refills as the reader drains), mirroring Stream's bounded
// batch overshoot — capacity bounds memory, never message size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "datacutter/transport.h"

namespace cgp::dc {

class ShmRing : public ByteChannel {
 public:
  /// Creates a ring of `capacity_bytes` payload capacity in a fresh
  /// anonymous shared mapping. Create before fork; both processes then use
  /// the same object (the mapping is shared, the handle is per-process).
  static std::shared_ptr<ShmRing> create(std::size_t capacity_bytes);

  ~ShmRing() override;
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  bool write_all(const std::byte* src, std::size_t n) override;
  std::ptrdiff_t read_some(std::byte* dst, std::size_t n) override;
  void close_write() override;
  void abort() override;

  std::size_t capacity() const;
  /// True once abort() was called from either process (or a holder died
  /// with the lock).
  bool aborted() const;

 private:
  struct Header;
  ShmRing(Header* header, std::byte* data, std::size_t map_len);

  /// Locks the ring mutex, recovering it if the previous owner died (the
  /// ring is then marked aborted). Returns true with the lock held; false
  /// when the mutex is beyond recovery (ENOTRECOVERABLE) — the ring is
  /// then marked aborted and the caller must not unlock.
  bool lock() const;

  /// Bounded wait for `word` to be bumped, entered with the ring mutex
  /// held; the mutex is released while parked and re-acquired with the
  /// same died-owner recovery as lock(). Returns true with the mutex held;
  /// false when re-acquisition failed beyond recovery (ring aborted, mutex
  /// not held).
  bool timed_wait(std::uint32_t* word) const;
  /// Bumps `word` and wakes the processes parked on it. Called with the
  /// mutex held, except on the recovery paths that have lost it.
  void wake(std::uint32_t* word) const;

  Header* header_;
  std::byte* data_;
  std::size_t map_len_;
};

}  // namespace cgp::dc
