// Per-packet clock stamps taken through the runtime's packet hook. The
// source stage calls the hook when it emits a packet and every consumer
// calls it when it reads one, so stage s's stamps are its emission (s = 0)
// or arrival (s > 0) times. The stamp only reads the clock; it never
// touches the buffer.
//
// The stamps live in an anonymous shared mapping created before the run,
// so stage copies that the process backend forks into workers write into
// the same table the benchmark reads afterwards. steady_clock is
// CLOCK_MONOTONIC, one clock for every process on the host.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "datacutter/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class PacketStamps {
 public:
  static constexpr int kStages = 3;
  static constexpr std::int64_t kCapacity = 4096;  // stamps per stage

  PacketStamps();
  ~PacketStamps();
  PacketStamps(const PacketStamps&) = delete;
  PacketStamps& operator=(const PacketStamps&) = delete;

  /// Forgets every stamp; call before each run.
  void reset();
  /// Stamps `stage` now. Safe from any thread of any forked worker.
  void record(int stage);
  /// Stamps of `stage` (in recording order) in seconds since `origin`.
  std::vector<double> seconds_since(int stage, Clock::time_point origin) const;
  /// Stamps `stage` tried to record, including any beyond the capacity.
  std::int64_t attempted(int stage) const;

  /// A packet hook for PipelineCompiler::set_packet_hook that stamps the
  /// stage named by the runtime's "stage<N>" group name.
  cgp::dc::PacketHook hook();

 private:
  struct Table {
    std::atomic<std::int64_t> count[kStages];
    std::int64_t ns[kStages][kCapacity];
  };
  Table* table_ = nullptr;
};

}  // namespace perfbench
