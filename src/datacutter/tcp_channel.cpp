#include "datacutter/tcp_channel.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>

namespace cgp::dc {

FdChannel::FdChannel(int fd, Kind kind) : fd_(fd), kind_(kind) {}

FdChannel::~FdChannel() {
  if (fd_ >= 0) ::close(fd_);
}

bool FdChannel::write_all(const std::byte* src, std::size_t n) {
  while (n > 0) {
    if (aborted_.load(std::memory_order_relaxed)) return false;
    ssize_t written;
    if (kind_ == Kind::kSocket) {
      // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
      // process — the supervisor handles peer death, not a signal.
      written = ::send(fd_, src, n, MSG_NOSIGNAL);
    } else {
      written = ::write(fd_, src, n);
    }
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE / ECONNRESET / EBADF after abort: peer gone
    }
    src += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

std::ptrdiff_t FdChannel::read_some(std::byte* dst, std::size_t n) {
  holding_.store(false, std::memory_order_release);
  for (;;) {
    if (aborted_.load(std::memory_order_relaxed)) return -1;
    const ssize_t got = kind_ == Kind::kSocket ? ::recv(fd_, dst, n, 0)
                                               : ::read(fd_, dst, n);
    if (got > 0) holding_.store(true, std::memory_order_relaxed);
    if (got >= 0) return got;
    if (errno == EINTR) continue;
    // ECONNRESET and friends read as end-of-stream; a consumer that was
    // mid-frame surfaces the truncation through the frame decoder.
    return aborted_.load(std::memory_order_relaxed) ? -1 : 0;
  }
}

std::size_t FdChannel::unread_bytes() const {
  int queued = 0;
  if (fd_ < 0 || ::ioctl(fd_, FIONREAD, &queued) < 0 || queued < 0) return 0;
  return static_cast<std::size_t>(queued);
}

void FdChannel::close_write() {
  if (write_closed_.exchange(true)) return;
  if (kind_ == Kind::kSocket) {
    ::shutdown(fd_, SHUT_WR);
  } else {
    // A pipe descriptor is unidirectional; closing it is the EOF.
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
}

void FdChannel::abort() {
  if (aborted_.exchange(true)) return;
  if (kind_ == Kind::kSocket && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpListener::TcpListener() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::system_error(errno, std::generic_category(),
                            "TcpListener: socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned ephemeral port
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "TcpListener: bind");
  if (::listen(fd_, 8) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "TcpListener: listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "TcpListener: getsockname");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::shared_ptr<FdChannel> TcpListener::accept_one(
    int cancel_fd, const std::function<bool()>& cancelled) {
  bool last_look = false;  // cancelled, but give a queued connection one poll
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {cancel_fd, POLLIN, 0};
    const nfds_t nfds = cancel_fd >= 0 ? 2 : 1;
    const int timeout_ms = last_look ? 0 : (cancelled ? 20 : -1);
    const int ready = ::poll(fds, nfds, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "TcpListener: poll");
    }
    if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
      const int fd = ::accept(fd_, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return std::make_shared<FdChannel>(fd, FdChannel::Kind::kSocket);
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      throw std::system_error(errno, std::generic_category(),
                              "TcpListener: accept");
    }
    if (last_look) return nullptr;
    if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)))
      return nullptr;
    if (cancelled && cancelled()) last_look = true;
  }
}

std::shared_ptr<FdChannel> tcp_connect_loopback(int port) {
  // Retry with exponential backoff: a worker can race ahead of the peer
  // whose listener it dials (startup) or of a respawned replacement
  // (self-healing runs), and ECONNREFUSED just means "not listening yet".
  // Start near-instant so the common a-few-ms race costs almost nothing,
  // double up to a 40ms cap so a slow peer doesn't get hammered, and give
  // up after a ~3s deadline so a peer that is truly gone fails the run
  // promptly instead of wedging it.
  using namespace std::chrono;
  constexpr auto kDeadline = seconds(3);
  constexpr auto kMaxStep = milliseconds(40);
  const auto give_up_at = steady_clock::now() + kDeadline;
  auto step = microseconds(500);
  int last_errno = 0;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::system_error(errno, std::generic_category(),
                              "tcp_connect_loopback: socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_shared<FdChannel>(fd, FdChannel::Kind::kSocket);
    }
    last_errno = errno;
    ::close(fd);
    if (last_errno != ECONNREFUSED && last_errno != EINTR) break;
    if (steady_clock::now() + step > give_up_at) break;
    std::this_thread::sleep_for(step);
    step = std::min(duration_cast<microseconds>(kMaxStep), step * 2);
  }
  throw std::system_error(last_errno, std::generic_category(),
                          "tcp_connect_loopback: connect");
}

}  // namespace cgp::dc
