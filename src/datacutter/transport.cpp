#include "datacutter/transport.h"

#include <errno.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

namespace cgp::dc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(v));
  std::memcpy(out.data() + offset, &v, sizeof(v));
}

void put_i64(std::vector<std::byte>& out, std::int64_t v) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(v));
  std::memcpy(out.data() + offset, &v, sizeof(v));
}

template <typename T>
T get(const std::byte* src) {
  T v;
  std::memcpy(&v, src, sizeof(T));
  return v;
}

}  // namespace

const char* backend_name(TransportBackend backend) {
  switch (backend) {
    case TransportBackend::kThread:
      return "thread";
    case TransportBackend::kProc:
      return "proc";
  }
  return "thread";
}

std::optional<TransportBackend> parse_backend(std::string_view name) {
  if (name == "thread") return TransportBackend::kThread;
  if (name == "proc") return TransportBackend::kProc;
  return std::nullopt;
}

std::vector<std::string> transport_flag_conflicts(
    TransportBackend backend,
    const std::vector<std::string>& flags_in_order) {
  std::vector<std::string> conflicts;
  if (backend == TransportBackend::kThread) return conflicts;
  const std::string with =
      std::string("--backend=") + backend_name(backend);
  for (const std::string& flag : flags_in_order) {
    if (flag == "--fault-inject" || flag == "--fault-seed")
      conflicts.push_back(
          flag + " cannot be combined with " + with +
          ": injection hooks are process-local, so a seeded plan would draw "
          "independently in every worker process instead of honoring one "
          "deterministic sequence");
  }
  return conflicts;
}

void TransportCounters::merge(const TransportCounters& other) {
  frames += other.frames;
  wire_bytes += other.wire_bytes;
  send_wait_seconds += other.send_wait_seconds;
  recv_wait_seconds += other.recv_wait_seconds;
}

FdChannel::FdChannel(int fd) : fd_(fd) {}

FdChannel::~FdChannel() {
  if (fd_ >= 0) ::close(fd_);
}

bool FdChannel::write_all(const std::byte* src, std::size_t n) {
  while (n > 0) {
    if (aborted_.load(std::memory_order_relaxed)) return false;
    const ssize_t written = ::write(fd_, src, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE / EBADF after abort: peer gone
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
    const ssize_t got = ::read(fd_, dst, n);
    if (got > 0) holding_.store(true, std::memory_order_relaxed);
    if (got >= 0) return got;
    if (errno == EINTR) continue;
    // A failed read reads as end-of-stream; a consumer that was mid-frame
    // surfaces the truncation through the frame decoder.
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
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void FdChannel::abort() { aborted_.store(true); }

Frame Frame::data(Buffer&& buffer) {
  Frame f;
  f.kind = FrameKind::kData;
  f.buffers.push_back(std::move(buffer));
  return f;
}

Frame Frame::batch(std::vector<Buffer>&& buffers) {
  Frame f;
  f.kind = FrameKind::kBatch;
  f.buffers = std::move(buffers);
  return f;
}

Frame Frame::marker(std::int64_t id) {
  Frame f;
  f.kind = FrameKind::kMarker;
  f.marker_id = id;
  return f;
}

Frame Frame::close() {
  Frame f;
  f.kind = FrameKind::kClose;
  return f;
}

Frame Frame::heartbeat(std::int64_t seq, std::int64_t send_ns,
                       std::int64_t progress, std::int64_t waiting,
                       std::int64_t live) {
  Frame f;
  f.kind = FrameKind::kHeartbeat;
  f.hb_seq = seq;
  f.hb_send_ns = send_ns;
  f.hb_progress = progress;
  f.hb_waiting = waiting;
  f.hb_live = live;
  return f;
}

void encode_frame(const Frame& frame, std::vector<std::byte>& out) {
  const std::size_t length_slot = out.size();
  put_u32(out, 0);  // patched below
  out.push_back(static_cast<std::byte>(frame.kind));
  const std::size_t payload_start = out.size();
  switch (frame.kind) {
    case FrameKind::kData: {
      if (frame.buffers.size() != 1)
        throw std::logic_error("encode_frame: data frame needs one buffer");
      const Buffer& b = frame.buffers.front();
      put_u32(out, b.tag());
      out.insert(out.end(), b.data(), b.data() + b.size());
      break;
    }
    case FrameKind::kBatch: {
      put_u32(out, static_cast<std::uint32_t>(frame.buffers.size()));
      for (const Buffer& b : frame.buffers) {
        put_u32(out, b.tag());
        put_u32(out, static_cast<std::uint32_t>(b.size()));
        out.insert(out.end(), b.data(), b.data() + b.size());
      }
      break;
    }
    case FrameKind::kMarker:
      put_i64(out, frame.marker_id);
      break;
    case FrameKind::kClose:
      break;
    case FrameKind::kHeartbeat:
      put_i64(out, frame.hb_seq);
      put_i64(out, frame.hb_send_ns);
      put_i64(out, frame.hb_progress);
      put_i64(out, frame.hb_waiting);
      put_i64(out, frame.hb_live);
      break;
  }
  const std::size_t payload = out.size() - payload_start;
  if (payload > kMaxFramePayload)
    throw std::length_error("encode_frame: payload exceeds kMaxFramePayload");
  const std::uint32_t length = static_cast<std::uint32_t>(payload);
  std::memcpy(out.data() + length_slot, &length, sizeof(length));
}

void FrameDecoder::feed(const std::byte* src, std::size_t n) {
  // Compact consumed bytes before appending so the staging buffer stays
  // bounded by one frame plus one read's worth of tail.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16) && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), src, src + n);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t have = buf_.size() - pos_;
  if (have < sizeof(std::uint32_t) + 1) return std::nullopt;
  const std::byte* p = buf_.data() + pos_;
  const std::uint32_t length = get<std::uint32_t>(p);
  const std::uint8_t kind_byte = static_cast<std::uint8_t>(p[4]);
  if (length > kMaxFramePayload)
    throw std::runtime_error(
        "transport: frame length prefix " + std::to_string(length) +
        " exceeds the frame bound — torn or corrupt stream");
  if (kind_byte < static_cast<std::uint8_t>(FrameKind::kData) ||
      kind_byte > static_cast<std::uint8_t>(FrameKind::kHeartbeat))
    throw std::runtime_error("transport: unknown frame kind " +
                             std::to_string(kind_byte));
  if (have < sizeof(std::uint32_t) + 1 + length) return std::nullopt;
  const std::byte* payload = p + sizeof(std::uint32_t) + 1;
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind_byte);
  switch (frame.kind) {
    case FrameKind::kData: {
      if (length < sizeof(std::uint32_t))
        throw std::runtime_error("transport: data frame shorter than a tag");
      Buffer b;
      b.set_tag(get<std::uint32_t>(payload));
      b.write_bytes(payload + sizeof(std::uint32_t),
                    length - sizeof(std::uint32_t));
      frame.buffers.push_back(std::move(b));
      break;
    }
    case FrameKind::kBatch: {
      if (length < sizeof(std::uint32_t))
        throw std::runtime_error("transport: batch frame missing its count");
      const std::uint32_t count = get<std::uint32_t>(payload);
      std::size_t at = sizeof(std::uint32_t);
      frame.buffers.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (at + 2 * sizeof(std::uint32_t) > length)
          throw std::runtime_error("transport: batch frame truncated");
        const std::uint32_t tag = get<std::uint32_t>(payload + at);
        const std::uint32_t size =
            get<std::uint32_t>(payload + at + sizeof(std::uint32_t));
        at += 2 * sizeof(std::uint32_t);
        if (at + size > length)
          throw std::runtime_error("transport: batch entry overruns frame");
        Buffer b;
        b.set_tag(tag);
        b.write_bytes(payload + at, size);
        at += size;
        frame.buffers.push_back(std::move(b));
      }
      if (at != length)
        throw std::runtime_error("transport: batch frame has trailing bytes");
      break;
    }
    case FrameKind::kMarker:
      if (length != sizeof(std::int64_t))
        throw std::runtime_error("transport: marker frame has wrong size");
      frame.marker_id = get<std::int64_t>(payload);
      break;
    case FrameKind::kClose:
      if (length != 0)
        throw std::runtime_error("transport: close frame carries payload");
      break;
    case FrameKind::kHeartbeat:
      if (length != 5 * sizeof(std::int64_t))
        throw std::runtime_error("transport: heartbeat frame has wrong size");
      frame.hb_seq = get<std::int64_t>(payload);
      frame.hb_send_ns = get<std::int64_t>(payload + 8);
      frame.hb_progress = get<std::int64_t>(payload + 16);
      frame.hb_waiting = get<std::int64_t>(payload + 24);
      frame.hb_live = get<std::int64_t>(payload + 32);
      break;
  }
  pos_ += sizeof(std::uint32_t) + 1 + length;
  return frame;
}

bool FrameLink::send(const Frame& frame) {
  scratch_.clear();
  encode_frame(frame, scratch_);
  const Clock::time_point start = Clock::now();
  const bool ok = channel_->write_all(scratch_.data(), scratch_.size());
  counters_.send_wait_seconds += seconds_between(start, Clock::now());
  if (ok) {
    counters_.frames += 1;
    counters_.wire_bytes += static_cast<std::int64_t>(scratch_.size());
  }
  return ok;
}

std::optional<Frame> FrameLink::recv() {
  try {
    for (;;) {
      if (std::optional<Frame> frame = decoder_.next()) {
        counters_.frames += 1;
        return frame;
      }
      std::byte chunk[16 * 1024];
      const Clock::time_point start = Clock::now();
      const std::ptrdiff_t n = channel_->read_some(chunk, sizeof(chunk));
      counters_.recv_wait_seconds += seconds_between(start, Clock::now());
      if (n < 0) return std::nullopt;  // aborted: not an error of this link
      if (n == 0) {
        if (!decoder_.idle()) {
          error_ = "transport: stream truncated mid-frame";
          channel_->abort();
        }
        return std::nullopt;
      }
      counters_.wire_bytes += n;
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  } catch (const std::exception& e) {
    error_ = e.what();
    channel_->abort();
    return std::nullopt;
  }
}

}  // namespace cgp::dc
