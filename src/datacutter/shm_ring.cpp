#include "datacutter/shm_ring.h"

#include <errno.h>
#include <linux/futex.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <new>
#include <stdexcept>
#include <system_error>

namespace cgp::dc {

struct ShmRing::Header {
  pthread_mutex_t mutex;
  std::uint32_t readable;  // futex word: bumped when data or EOS arrives
  std::uint32_t writable;  // futex word: bumped when space frees up
  std::uint32_t waiters;   // processes parked on either word (mutex held)
  std::uint64_t head;      // absolute bytes consumed
  std::uint64_t tail;      // absolute bytes produced
  std::uint64_t capacity;  // payload bytes in the ring
  std::uint32_t writer_closed;
  std::uint32_t aborted;
};

namespace {

/// Bounded wait so a waiter re-checks liveness even if the peer process
/// died between its state update and its wakeup (a wakeup from a
/// SIGKILLed process never arrives; the state in shared memory survives).
constexpr long kWaitNs = 50 * 1000 * 1000;  // 50 ms

long futex(std::uint32_t* word, int op, std::uint32_t value,
           const timespec* timeout) {
  return ::syscall(SYS_futex, word, op, value, timeout, nullptr, 0);
}

}  // namespace

std::shared_ptr<ShmRing> ShmRing::create(std::size_t capacity_bytes) {
  if (capacity_bytes == 0) capacity_bytes = 1;
  const std::size_t map_len = sizeof(Header) + capacity_bytes;
  void* map = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(), "ShmRing: mmap");
  Header* header = new (map) Header{};
  header->capacity = capacity_bytes;

  pthread_mutexattr_t mattr;
  pthread_mutexattr_init(&mattr);
  pthread_mutexattr_setpshared(&mattr, PTHREAD_PROCESS_SHARED);
  pthread_mutexattr_setrobust(&mattr, PTHREAD_MUTEX_ROBUST);
  pthread_mutex_init(&header->mutex, &mattr);
  pthread_mutexattr_destroy(&mattr);

  std::byte* data = reinterpret_cast<std::byte*>(map) + sizeof(Header);
  return std::shared_ptr<ShmRing>(new ShmRing(header, data, map_len));
}

ShmRing::ShmRing(Header* header, std::byte* data, std::size_t map_len)
    : header_(header), data_(data), map_len_(map_len) {}

ShmRing::~ShmRing() {
  // Each process unmaps its own view; the kernel frees the pages when the
  // last mapping goes. The mutex lives inside the mapping and is
  // deliberately never destroyed — the peer process may still hold a view.
  ::munmap(header_, map_len_);
}

bool ShmRing::lock() const {
  const int rc = pthread_mutex_lock(&header_->mutex);
  if (rc == 0) return true;
  if (rc == EOWNERDEAD) {
    // The previous owner died holding the lock (SIGKILL mid-update). Its
    // byte ledger may be torn: poison the ring rather than trust it.
    header_->aborted = 1;
    pthread_mutex_consistent(&header_->mutex);
    wake(&header_->readable);
    wake(&header_->writable);
    return true;
  }
  if (rc == ENOTRECOVERABLE) {
    // An owner died and nobody made the mutex consistent before unlocking:
    // the lock is gone for good. The ring is equally dead — record that
    // without the lock (the flag only ever moves 0 -> 1, and every reader
    // of it is already on a teardown path) and wake any parked peers.
    header_->aborted = 1;
    wake(&header_->readable);
    wake(&header_->writable);
    return false;
  }
  throw std::system_error(rc, std::generic_category(),
                          "ShmRing: pthread_mutex_lock");
}

void ShmRing::wake(std::uint32_t* word) const {
  __atomic_fetch_add(word, 1, __ATOMIC_RELEASE);
  // Every caller that may lack the mutex has marked the ring aborted
  // first, and then the waiter count cannot be trusted: wake
  // unconditionally. Otherwise skip the syscall when nobody is parked.
  if (header_->aborted || header_->waiters > 0)
    futex(word, FUTEX_WAKE, INT_MAX, nullptr);
}

bool ShmRing::timed_wait(std::uint32_t* word) const {
  // Registered under the mutex, so a waker holding it either sees this
  // waiter or ran before `seen` was read; a bump that lands between the
  // unlock and the wait makes FUTEX_WAIT return at once.
  const std::uint32_t seen = __atomic_load_n(word, __ATOMIC_ACQUIRE);
  ++header_->waiters;
  pthread_mutex_unlock(&header_->mutex);
  const timespec timeout{0, kWaitNs};
  futex(word, FUTEX_WAIT, seen, &timeout);
  if (!lock()) return false;  // lock() already marked the ring aborted
  --header_->waiters;
  return true;
}

std::size_t ShmRing::capacity() const {
  return static_cast<std::size_t>(header_->capacity);
}

bool ShmRing::aborted() const {
  if (!lock()) return true;
  const bool a = header_->aborted != 0;
  pthread_mutex_unlock(&header_->mutex);
  return a;
}

bool ShmRing::write_all(const std::byte* src, std::size_t n) {
  const std::uint64_t cap = header_->capacity;
  while (n > 0) {
    if (!lock()) return false;
    std::uint64_t free_bytes;
    for (;;) {
      if (header_->aborted) {
        pthread_mutex_unlock(&header_->mutex);
        return false;
      }
      free_bytes = cap - (header_->tail - header_->head);
      if (free_bytes > 0) break;
      if (!timed_wait(&header_->writable)) return false;  // mutex gone
    }
    const std::size_t chunk =
        std::min(n, static_cast<std::size_t>(free_bytes));
    const std::size_t at = static_cast<std::size_t>(header_->tail % cap);
    const std::size_t run = std::min(chunk, static_cast<std::size_t>(cap) - at);
    std::memcpy(data_ + at, src, run);
    if (run < chunk) std::memcpy(data_, src + run, chunk - run);
    header_->tail += chunk;
    wake(&header_->readable);
    pthread_mutex_unlock(&header_->mutex);
    src += chunk;
    n -= chunk;
  }
  return true;
}

std::ptrdiff_t ShmRing::read_some(std::byte* dst, std::size_t n) {
  if (n == 0) return 0;
  const std::uint64_t cap = header_->capacity;
  if (!lock()) return -1;
  std::uint64_t avail;
  for (;;) {
    if (header_->aborted) {
      pthread_mutex_unlock(&header_->mutex);
      return -1;
    }
    avail = header_->tail - header_->head;
    if (avail > 0) break;
    if (header_->writer_closed) {
      pthread_mutex_unlock(&header_->mutex);
      return 0;
    }
    if (!timed_wait(&header_->readable)) return -1;  // mutex gone
  }
  const std::size_t chunk = std::min(n, static_cast<std::size_t>(avail));
  const std::size_t at = static_cast<std::size_t>(header_->head % cap);
  const std::size_t run = std::min(chunk, static_cast<std::size_t>(cap) - at);
  std::memcpy(dst, data_ + at, run);
  if (run < chunk) std::memcpy(dst + run, data_, chunk - run);
  header_->head += chunk;
  wake(&header_->writable);
  pthread_mutex_unlock(&header_->mutex);
  return static_cast<std::ptrdiff_t>(chunk);
}

void ShmRing::close_write() {
  if (!lock()) return;  // ring already poisoned; readers see the abort
  header_->writer_closed = 1;
  wake(&header_->readable);
  pthread_mutex_unlock(&header_->mutex);
}

void ShmRing::abort() {
  if (!lock()) return;  // lock() already marked the ring aborted
  header_->aborted = 1;
  wake(&header_->readable);
  wake(&header_->writable);
  pthread_mutex_unlock(&header_->mutex);
}

}  // namespace cgp::dc
