// Buffer abstraction of the DataCutter filter-stream model (§2.2): "a
// contiguous memory region containing useful data"; all transfers to and
// from streams go through buffers. Typed accessors implement the packing
// layouts of §5 (instance-wise / field-wise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cgp::dc {

/// Tag of run-level checkpoint markers injected by the source supervisor
/// (see runner.cpp): a marker flows through the FIFO stream chain like a
/// packet but is intercepted by FilterContext::read() before the filter
/// sees it, delimiting a consistent cut of the pipeline.
inline constexpr std::uint32_t kCheckpointMarkerTag = 0x434b5054u;  // "CKPT"

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t reserve_bytes) { data_.reserve(reserve_bytes); }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  const std::byte* data() const { return data_.data(); }
  std::size_t capacity() const { return data_.capacity(); }

  /// Out-of-band discriminator carried alongside the payload. 0 for
  /// ordinary packets; kCheckpointMarkerTag for checkpoint markers.
  std::uint32_t tag() const { return tag_; }
  void set_tag(std::uint32_t tag) { tag_ = tag; }

  // ---- storage recycling (see buffer_pool.h) -----------------------------
  /// Wraps recycled backing storage: the buffer starts logically empty but
  /// keeps the vector's capacity, so writes into it do not allocate.
  static Buffer adopt(std::vector<std::byte>&& storage) {
    Buffer buffer;
    storage.clear();
    buffer.data_ = std::move(storage);
    return buffer;
  }
  /// Surrenders the backing storage (the buffer becomes empty). The
  /// returned vector keeps its capacity and can back a future packet.
  /// Every logical field resets: a recycled-then-reused buffer carrying a
  /// stale tag would masquerade as a checkpoint marker downstream.
  std::vector<std::byte> release_storage() {
    read_pos_ = 0;
    tag_ = 0;
    return std::move(data_);
  }

  // ---- writing -----------------------------------------------------------
  template <typename T>
  void write(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = data_.size();
    data_.resize(offset + sizeof(T));
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }
  void write_bytes(const void* src, std::size_t n) {
    if (n == 0) return;  // src may be null; memcpy must not see it
    const std::size_t offset = data_.size();
    data_.resize(offset + n);
    std::memcpy(data_.data() + offset, src, n);
  }
  /// Length-prefixed string: u32 byte count, then the bytes. Out of line:
  /// inlined into the recursive value codec it cost 2-3% of the period.
  void write_string(std::string_view s);
  /// Reserves a slot (e.g. a field-wise offset header) to patch later.
  template <typename T>
  std::size_t reserve_slot() {
    const std::size_t offset = data_.size();
    data_.resize(offset + sizeof(T));
    return offset;
  }
  template <typename T>
  void patch_slot(std::size_t offset, T value) {
    if (offset + sizeof(T) > data_.size())
      throw std::out_of_range("Buffer::patch_slot past end");
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }
  /// Grows the buffer by `n` bytes in one resize and returns a pointer to
  /// the fresh region — the bulk-write primitive of the compiled pack
  /// plans (one allocation check per group instead of one per leaf). The
  /// pointer is invalidated by any subsequent write.
  std::byte* append(std::size_t n) {
    const std::size_t offset = data_.size();
    data_.resize(offset + n);
    return data_.data() + offset;
  }
  /// Drops everything past `n` bytes (capacity kept). Lets a compiled pack
  /// plan abandon a partially written group and rewrite it through the
  /// interpreted fallback path.
  void truncate(std::size_t n) {
    if (n > data_.size()) throw std::out_of_range("Buffer::truncate past end");
    data_.resize(n);
  }

  // ---- reading -----------------------------------------------------------
  template <typename T>
  T read() {
    T value = peek_at<T>(read_pos_);
    read_pos_ += sizeof(T);
    return value;
  }
  template <typename T>
  T peek_at(std::size_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset + sizeof(T) > data_.size())
      throw std::out_of_range("Buffer::read past end");
    T value;
    std::memcpy(&value, data_.data() + offset, sizeof(T));
    return value;
  }
  void read_bytes(void* dst, std::size_t n) {
    if (read_pos_ + n > data_.size())
      throw std::out_of_range("Buffer::read_bytes past end");
    if (n == 0) return;  // dst and data() may be null
    std::memcpy(dst, data_.data() + read_pos_, n);
    read_pos_ += n;
  }
  /// Reads a write_string() string. The length is checked against the
  /// unread bytes before anything is allocated: a torn length throws
  /// std::out_of_range instead of first allocating up to 4 GiB.
  std::string read_string();
  std::size_t read_pos() const { return read_pos_; }
  void seek(std::size_t pos) {
    if (pos > data_.size()) throw std::out_of_range("Buffer::seek past end");
    read_pos_ = pos;
  }
  /// Advances the read cursor without copying (the §5 unpacking offset:
  /// a receiver skips a group it does not consume).
  void skip(std::size_t n) {
    if (read_pos_ + n > data_.size())
      throw std::out_of_range("Buffer::skip past end");
    read_pos_ += n;
  }
  /// Bounds-checked span over the payload: the in-place read primitive of
  /// zero-copy packed views. Valid until the buffer is written to, moved,
  /// or recycled (docs/PERFORMANCE.md, view lifetime rules).
  const std::byte* span(std::size_t offset, std::size_t n) const {
    if (offset + n > data_.size())
      throw std::out_of_range("Buffer::span past end");
    return data_.data() + offset;
  }
  std::size_t remaining() const { return data_.size() - read_pos_; }
  bool exhausted() const { return read_pos_ >= data_.size(); }

  void clear() {
    data_.clear();
    read_pos_ = 0;
    tag_ = 0;
  }

 private:
  std::vector<std::byte> data_;
  std::size_t read_pos_ = 0;
  std::uint32_t tag_ = 0;
};

}  // namespace cgp::dc
