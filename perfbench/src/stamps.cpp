#include "stamps.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

namespace perfbench {

static_assert(std::atomic<std::int64_t>::is_always_lock_free,
              "stamps are shared across processes and must be lock-free");

PacketStamps::PacketStamps() {
  void* memory = mmap(nullptr, sizeof(Table), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("perfbench: mmap of the stamp table failed");
  table_ = new (memory) Table;
  reset();
}

PacketStamps::~PacketStamps() {
  table_->~Table();
  munmap(table_, sizeof(Table));
}

void PacketStamps::reset() {
  for (auto& c : table_->count) c.store(0, std::memory_order_relaxed);
}

void PacketStamps::record(int stage) {
  if (stage < 0 || stage >= kStages) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count();
  const std::int64_t slot = table_->count[stage].fetch_add(1, std::memory_order_relaxed);
  if (slot < kCapacity) table_->ns[stage][slot] = now;
}

std::vector<double> PacketStamps::seconds_since(int stage, Clock::time_point origin) const {
  const std::int64_t n = std::min(attempted(stage), kCapacity);
  const std::int64_t base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(origin.time_since_epoch()).count();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    out.push_back(static_cast<double>(table_->ns[stage][i] - base) * 1e-9);
  return out;
}

std::int64_t PacketStamps::attempted(int stage) const {
  return table_->count[stage].load(std::memory_order_acquire);
}

cgp::dc::PacketHook PacketStamps::hook() {
  return [this](const std::string& group, int, int, std::int64_t, cgp::dc::Buffer*) {
    // Group names are "stage<N>" (PipelineCompiler).
    if (group.size() > 5) record(std::atoi(group.c_str() + 5));
  };
}

}  // namespace perfbench
