// MTTR bench for self-healing multi-process runs (docs/ROBUSTNESS.md,
// self-healing runs): a source -> adder -> sink pipeline on the proc
// backend at batch 16 takes exactly one mid-run SIGKILL to its adder
// worker per repeat; the supervisor must detect the death, quiesce the
// links, re-fork the topology, roll back to the last in-memory consistent
// cut, and replay the tail. The measured figure is the runtime's own
// RespawnRecord::mttr_seconds — death detection to completed handshake —
// best of kRepeats, because MTTR is a latency floor (scheduler noise only
// ever inflates it).
//
// Every repeat's delivered multiset is checked against the fault-free
// oracle: a fast respawn that loses or double-counts a packet is a bug,
// not a result. Emits BENCH_respawn.json (schema cgpipe-bench-respawn-v1)
// for the CI bench-smoke artifact and exits nonzero when the best MTTR
// reaches kMttrBarSeconds (250 ms at batch 16).
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datacutter/runner.h"
#include "support/json.h"

namespace {

using namespace cgp::dc;
namespace support = cgp::support;

constexpr int kRepeats = 5;
constexpr int kPackets = 4096;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kStreamCapacity = 64;
constexpr std::size_t kCutInterval = 256;
constexpr std::int64_t kShotOrdinal = 1024;  // mid-run, many cuts behind it
constexpr double kMttrBarSeconds = 0.250;

// One exclusive marker file per repeat arms a single self-shot: the adder
// incarnation that wins the O_EXCL create raises SIGKILL on itself
// mid-batch; the respawned incarnation finds the marker taken and runs
// clean. Crash-safe (the claim lands before the shot) and thread-free on
// the supervisor side, so every re-fork stays single-threaded.
bool claim_shot(const std::string& marker) {
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

class BenchSource : public Filter {
 public:
  explicit BenchSource(int n) : n_(n) {}
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

class BenchAdder : public Filter {
 public:
  explicit BenchAdder(std::string marker) : marker_(std::move(marker)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      carried_ += v;
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
      if (++seen_ == kShotOrdinal && claim_shot(marker_)) ::raise(SIGKILL);
    }
  }
  bool snapshot_state(Buffer& out) override {
    out.write<std::int64_t>(carried_);
    return true;
  }
  void restore_state(Buffer& in) override {
    carried_ = in.read<std::int64_t>();
  }

 private:
  std::string marker_;
  std::int64_t carried_ = 0;
  std::int64_t seen_ = 0;
};

struct SinkState {
  std::mutex mutex;
  std::multiset<std::int64_t> values;  // overwritten at each finalize
};

class BenchSink : public Filter {
 public:
  explicit BenchSink(std::shared_ptr<SinkState> state)
      : state_(std::move(state)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) local_.insert(b->read<std::int64_t>());
  }
  void finalize(FilterContext&) override {
    std::lock_guard lock(state_->mutex);
    state_->values = local_;
  }
  bool snapshot_state(Buffer& out) override {
    out.write<std::int64_t>(static_cast<std::int64_t>(local_.size()));
    for (const std::int64_t v : local_) out.write<std::int64_t>(v);
    return true;
  }
  void restore_state(Buffer& in) override {
    const std::int64_t n = in.read<std::int64_t>();
    local_.clear();
    for (std::int64_t i = 0; i < n; ++i)
      local_.insert(in.read<std::int64_t>());
  }

 private:
  std::shared_ptr<SinkState> state_;
  std::multiset<std::int64_t> local_;
};

struct Repeat {
  double mttr_seconds = 0.0;
  double wall_seconds = 0.0;
  double death_at_seconds = 0.0;
  std::int64_t cut_id = -1;
  std::string cause;
  bool exact = false;
};

bool run_repeat(int rep, Repeat& out) {
  const std::string marker =
      "cgp_bench_respawn_shot_" + std::to_string(rep) + "_" +
      std::to_string(static_cast<long>(::getpid()));
  std::remove(marker.c_str());
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"src", [] { return std::make_unique<BenchSource>(kPackets); }, 1, 0});
  groups.push_back(
      {"mid", [marker] { return std::make_unique<BenchAdder>(marker); }, 1,
       1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<BenchSink>(state); }, 1, 2});
  RunnerConfig config;
  config.stream_capacity = kStreamCapacity;
  config.batch_size = kBatch;
  config.checkpoint_interval = kCutInterval;  // in-memory cuts only
  config.backend = TransportBackend::kProc;
  config.worker_restarts = 2;
  config.heartbeat_seconds = 0.01;
  FaultPolicy policy;
  policy.action = FaultAction::kRestartCopy;
  PipelineRunner runner(std::move(groups), config, policy);
  const auto start = std::chrono::steady_clock::now();
  RunOutcome outcome = runner.run_supervised();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::remove(marker.c_str());
  if (!outcome.ok() || !outcome.stats.completed) {
    std::fprintf(stderr, "repeat %d: run failed: %s\n", rep,
                 outcome.stats.error.c_str());
    return false;
  }
  if (outcome.stats.respawns.empty()) {
    std::fprintf(stderr, "repeat %d: the shot never landed\n", rep);
    return false;
  }
  const support::RespawnRecord& r = outcome.stats.respawns.front();
  out.mttr_seconds = r.mttr_seconds;
  out.death_at_seconds = r.at_seconds;
  out.cut_id = r.cut_id;
  out.cause = r.cause;
  // Exactly-once: every source value shifted once by the adder, nothing
  // lost to the kill, nothing double-counted by the replay.
  std::multiset<std::int64_t> oracle;
  for (int i = 0; i < kPackets; ++i) oracle.insert(i + 1);
  out.exact = state->values == oracle;
  if (!out.exact)
    std::fprintf(stderr,
                 "repeat %d: delivered %zu values, oracle %zu — the respawn "
                 "broke exactly-once\n",
                 rep, state->values.size(), oracle.size());
  return out.exact;
}

}  // namespace

int main() {
  std::printf(
      "=== worker-respawn MTTR (proc, %d packets, batch %zu, cut "
      "every %zu, best of %d) ===\n",
      kPackets, kBatch, kCutInterval, kRepeats);
  std::printf("%-8s %12s %12s %12s %8s  %s\n", "repeat", "mttr(ms)",
              "death(s)", "wall(s)", "cut", "cause");
  std::vector<Repeat> repeats;
  double best = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Repeat r;
    if (!run_repeat(rep, r)) return 1;
    std::printf("%-8d %12.3f %12.3f %12.3f %8lld  %s\n", rep,
                r.mttr_seconds * 1e3, r.death_at_seconds, r.wall_seconds,
                static_cast<long long>(r.cut_id), r.cause.c_str());
    best = std::min(best, r.mttr_seconds);
    repeats.push_back(std::move(r));
  }

  support::Json::Array repeat_array;
  for (const Repeat& r : repeats) {
    support::Json::Object obj;
    obj.emplace_back("mttr_seconds", support::Json(r.mttr_seconds));
    obj.emplace_back("death_at_seconds", support::Json(r.death_at_seconds));
    obj.emplace_back("wall_seconds", support::Json(r.wall_seconds));
    obj.emplace_back("cut_id", support::Json(r.cut_id));
    obj.emplace_back("cause", support::Json(r.cause));
    obj.emplace_back("exactly_once", support::Json(r.exact));
    repeat_array.emplace_back(std::move(obj));
  }
  const bool pass = best < kMttrBarSeconds;
  support::Json::Object summary;
  summary.emplace_back("best_mttr_seconds", support::Json(best));
  summary.emplace_back("mttr_bar_seconds", support::Json(kMttrBarSeconds));
  summary.emplace_back("pass", support::Json(pass));

  support::Json::Object root;
  root.emplace_back("schema", support::Json("cgpipe-bench-respawn-v1"));
  root.emplace_back("pipeline", support::Json("src->mid->sink"));
  root.emplace_back("backend", support::Json("proc"));
  root.emplace_back("packets", support::Json(kPackets));
  root.emplace_back("batch_size", support::Json(kBatch));
  root.emplace_back("checkpoint_interval", support::Json(kCutInterval));
  root.emplace_back("repeats", support::Json(std::move(repeat_array)));
  root.emplace_back("summary", support::Json(std::move(summary)));
  std::ofstream out("BENCH_respawn.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_respawn.json (best MTTR %.1f ms, bar %.0f ms)\n",
              best * 1e3, kMttrBarSeconds * 1e3);
  if (!pass) {
    std::fprintf(stderr, "FAIL: best MTTR %.1f ms >= %.0f ms bar\n",
                 best * 1e3, kMttrBarSeconds * 1e3);
    return 1;
  }
  return 0;
}
