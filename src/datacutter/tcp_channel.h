// Socket and pipe byte channels for the tcp backend and the worker control
// plane. FdChannel wraps one file descriptor behind the ByteChannel
// interface with full short-write/short-read handling (a send may accept
// fewer bytes than asked; a recv may return any prefix — framing above
// must tolerate both). TcpListener binds a loopback ephemeral port before
// fork so the consumer child can accept on the inherited descriptor while
// the producer child connects by port number.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>

#include "datacutter/transport.h"

namespace cgp::dc {

class FdChannel : public ByteChannel {
 public:
  enum class Kind { kSocket, kPipe };

  FdChannel(int fd, Kind kind);
  ~FdChannel() override;
  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  bool write_all(const std::byte* src, std::size_t n) override;
  std::ptrdiff_t read_some(std::byte* dst, std::size_t n) override;
  /// Sockets: shutdown(SHUT_WR) so the peer drains to a clean EOF. Pipes:
  /// closes the descriptor (one direction per pipe end).
  void close_write() override;
  /// Sockets: shutdown both directions, waking any blocked peer thread.
  void abort() override;

  int fd() const { return fd_; }

  /// Bytes the kernel holds for this descriptor's next read (FIONREAD).
  std::size_t unread_bytes() const;
  /// Whether the reader may hold bytes it has read but not yet handled:
  /// true from a read that returned data until the reader's next read.
  /// Acquire: a reader seen back in its read has published what it
  /// handled before.
  bool reader_holds_bytes() const { return holding_.load(std::memory_order_acquire); }

 private:
  int fd_;
  Kind kind_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> write_closed_{false};
  std::atomic<bool> holding_{false};
};

class TcpListener {
 public:
  /// Binds 127.0.0.1:0 and listens; port() reports the kernel's choice.
  TcpListener();
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int port() const { return port_; }
  int fd() const { return fd_; }
  /// Blocking accept of exactly one connection, with two optional ways to
  /// give up (both return nullptr; a connection already queued always wins
  /// over a simultaneous cancellation):
  ///   * `cancel_fd` >= 0: abandon the accept when that descriptor becomes
  ///     readable or hangs up — a worker passes its command pipe so an
  ///     abort broadcast (or the supervisor dying) unblocks it;
  ///   * `cancelled`: polled every ~20 ms; a true return abandons the
  ///     accept — the supervisor passes a worker-liveness probe so a peer
  ///     that died before connecting cannot wedge it.
  std::shared_ptr<FdChannel> accept_one(
      int cancel_fd = -1, const std::function<bool()>& cancelled = {});
  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Connects to 127.0.0.1:`port`, retrying briefly while the listener's
/// process is still coming up. Throws std::system_error on failure.
std::shared_ptr<FdChannel> tcp_connect_loopback(int port);

}  // namespace cgp::dc
