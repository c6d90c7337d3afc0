// Self-healing multi-process runs (docs/ROBUSTNESS.md, self-healing runs):
// seeded worker-kill chaos storms over the proc backend, where
// workers SIGKILL themselves mid-batch and the supervisor must resurrect
// them in-run — quiesce the links, re-fork the topology, roll back to the
// last in-memory consistent cut, replay the tail — converging to the
// fault-free oracle with no checkpoint file and no --resume. Plus the
// degradation path (restart budget exhausted -> partial result), the
// heartbeat-fed stall watchdog, and liveness kills after a heartbeat
// lapse. Suite names all carry "WorkerRespawn" so CI can select them with
// `ctest -R WorkerRespawn`. The last sections test the stall rule and the
// handshake's plan check without forking.
//
// The kill mechanism is deliberately in-process: a worker that reaches
// the shot ordinal claims one of N exclusive marker files and raises the
// signal on itself. That keeps every fork single-threaded on the
// supervisor side (no sniper thread alive across respawn re-forks, which
// multi-threaded-fork-averse TSan would reject) while still delivering a
// real SIGKILL: no unwind, no flush, the frame on the wire torn mid-batch.
// Claims are crash-safe by construction — the marker lands before the
// shot — so each worker dies exactly its quota across incarnations.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datacutter/buffer.h"
#include "datacutter/runner.h"
#include "datacutter/runner_internal.h"
#include "support/rng.h"

namespace cgp::dc {
namespace {

std::uint64_t storm_seed() {
  if (const char* env = std::getenv("CHAOS_SOAK_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 20260808ull;
}

// TSan's instrumentation can deschedule a perfectly healthy heartbeat
// thread past a native-speed lapse window, turning a liveness safeguard
// into a false positive. Scale every timing knob in this suite so the
// window stays generous relative to the tool's slowdown.
#if defined(__SANITIZE_THREAD__)
constexpr double kTimeScale = 10.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kTimeScale = 10.0;
#else
constexpr double kTimeScale = 1.0;
#endif
#else
constexpr double kTimeScale = 1.0;
#endif

// --- The self-shooting kill switch.

struct KillSpec {
  std::string tag;      // marker-file prefix; empty = never fire
  int quota = 0;        // incarnations that die; < 0 = every incarnation
  std::int64_t at = 0;  // per-incarnation packet ordinal of the shot
  int signo = SIGKILL;
};

// Claims one of `quota` exclusive marker files; true = this incarnation
// takes the shot. The O_EXCL create is the whole protocol: whichever
// incarnation wins the file owns that slot forever, even though it dies
// a microsecond later.
bool claim_shot(const std::string& tag, int quota) {
  if (quota < 0) return true;
  for (int k = 0; k < quota; ++k) {
    const std::string path = tag + "." + std::to_string(k);
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    if (errno != EEXIST) return false;
  }
  return false;
}

void clear_shots(const std::string& tag, int quota) {
  for (int k = 0; k < std::max(quota, 0) + 2; ++k)
    std::remove((tag + "." + std::to_string(k)).c_str());
}

// Serialized per process: with replicated copies inside one worker, only
// the first copy to reach the ordinal claims a slot — the process dies
// once, so a second concurrent claim would silently burn quota.
void maybe_fire(const KillSpec& kill, std::int64_t done) {
  static std::mutex mutex;
  static bool fired = false;
  if (kill.tag.empty() || done != kill.at) return;
  std::lock_guard lock(mutex);
  if (fired) return;
  if (claim_shot(kill.tag, kill.quota)) {
    fired = true;
    ::raise(kill.signo);
  }
}

// --- The storm pipeline: integer packets, a stateful adder, and a sink
// --- whose delivered sequence fingerprints the run.

class StormSource : public Filter {
 public:
  StormSource(int n, KillSpec kill) : n_(n), kill_(std::move(kill)) {}
  void process(FilterContext& ctx) override {
    std::int64_t sent = 0;
    for (int i = 0; i < n_; ++i) {
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b;
      b.write<std::int64_t>(i);
      ctx.emit(std::move(b));
      maybe_fire(kill_, ++sent);
    }
  }

 private:
  int n_;
  KillSpec kill_;
};

// Stateful middle stage: forwards v+1 and carries a per-copy running sum
// that only cut restore keeps exact across resurrections. The per-packet
// stall stretches the run so shots land mid-stream, never racing EOS.
// The shot ordinal is counted per incarnation (not snapshotted), so a
// restored instance walks back into the gun until its quota is spent.
class StormAdder : public Filter {
 public:
  StormAdder(KillSpec kill, std::chrono::microseconds stall)
      : kill_(std::move(kill)), stall_(stall) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      if (stall_.count() > 0) std::this_thread::sleep_for(stall_);
      const std::int64_t v = b->read<std::int64_t>();
      carried_ += v;
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
      maybe_fire(kill_, ++seen_);
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
  KillSpec kill_;
  std::chrono::microseconds stall_;
  std::int64_t carried_ = 0;
  std::int64_t seen_ = 0;
};

// An adder that wedges (no read, no emit, no exit) at a fixed ordinal:
// heartbeats keep flowing — the thread is alive — but progress freezes,
// which is exactly the case the remote stall watchdog exists for.
class WedgingAdder : public Filter {
 public:
  explicit WedgingAdder(std::int64_t hang_at) : hang_at_(hang_at) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      if (++seen_ == hang_at_)
        std::this_thread::sleep_for(std::chrono::seconds(60));
      const std::int64_t v = b->read<std::int64_t>();
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
    }
  }

 private:
  std::int64_t hang_at_;
  std::int64_t seen_ = 0;
};

struct SinkState {
  std::mutex mutex;
  // Finalize OVERWRITES its copy's slot: the sink finalizes once per
  // healing attempt (teardown quiesces its stream to EOS), and only the
  // last attempt's delivery may stand — an inserting sink would count
  // every attempt's prefix.
  std::map<int, std::vector<std::int64_t>> by_copy;
};

class StormSink : public Filter {
 public:
  explicit StormSink(std::shared_ptr<SinkState> state)
      : state_(std::move(state)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) local_.push_back(b->read<std::int64_t>());
  }
  void finalize(FilterContext& ctx) override {
    std::lock_guard lock(state_->mutex);
    state_->by_copy[ctx.copy_index()] = local_;
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
      local_.push_back(in.read<std::int64_t>());
  }

 private:
  std::shared_ptr<SinkState> state_;
  std::vector<std::int64_t> local_;
};

std::multiset<std::int64_t> delivered(const SinkState& state) {
  std::multiset<std::int64_t> out;
  for (const auto& [copy, values] : state.by_copy)
    out.insert(values.begin(), values.end());
  return out;
}

// The fault-free oracle: every source value shifted once by the adder.
std::multiset<std::int64_t> oracle(int packets) {
  std::multiset<std::int64_t> out;
  for (int i = 0; i < packets; ++i) out.insert(i + 1);
  return out;
}

std::vector<std::int64_t> oracle_sequence(int packets) {
  std::vector<std::int64_t> out;
  for (int i = 0; i < packets; ++i) out.push_back(i + 1);
  return out;
}

struct StormShape {
  int packets = 64;
  int src_copies = 1;
  int mid_copies = 1;
  int sink_copies = 1;
  std::size_t batch = 1;
  std::size_t interval = 3;  // cut cadence: in-memory restore points
  std::size_t capacity = 8;
};

std::vector<FilterGroup> storm_groups(const StormShape& shape,
                                      std::shared_ptr<SinkState> state,
                                      KillSpec src_kill, KillSpec mid_kill,
                                      std::chrono::microseconds stall) {
  std::vector<FilterGroup> groups;
  groups.push_back({"src",
                    [n = shape.packets, src_kill] {
                      return std::make_unique<StormSource>(n, src_kill);
                    },
                    shape.src_copies, 0});
  groups.push_back({"mid",
                    [mid_kill, stall] {
                      return std::make_unique<StormAdder>(mid_kill, stall);
                    },
                    shape.mid_copies, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<StormSink>(state); },
       shape.sink_copies, 2});
  return groups;
}

RunnerConfig storm_config(TransportBackend backend, const StormShape& shape,
                          int restarts, double heartbeat_seconds) {
  RunnerConfig config;
  config.stream_capacity = shape.capacity;
  config.batch_size = shape.batch;
  config.checkpoint_interval = shape.interval;  // no checkpoint_path: the
                                                // cuts live in memory only
  config.backend = backend;
  config.worker_restarts = restarts;
  config.heartbeat_seconds = heartbeat_seconds;
  config.teardown_grace_ms = 500;
  return config;
}

FaultPolicy storm_policy() {
  FaultPolicy policy;
  policy.action = FaultAction::kRestartCopy;
  policy.max_retries = 3;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  return policy;
}

int respawns_of(const support::PipelineTrace& stats, const std::string& group) {
  return static_cast<int>(
      std::count_if(stats.respawns.begin(), stats.respawns.end(),
                    [&](const support::RespawnRecord& r) {
                      return r.group == group;
                    }));
}

// ---------------------------------------------------------------------------
// The storm: each non-sink worker is SIGKILLed at least twice mid-batch,
// on the process backend, over a single-copy/unbatched shape (delivery
// must be byte-identical, in order) and a replicated+batched shape
// (multiset-equal). The run converges in-run — one run_supervised call,
// no checkpoint file, no resume — to the fault-free oracle.
// ---------------------------------------------------------------------------

class WorkerRespawnStorm : public ::testing::TestWithParam<TransportBackend> {
};

TEST_P(WorkerRespawnStorm, SeededKillStormConvergesInRunToTheOracle) {
  const TransportBackend backend = GetParam();
  const char* bname = backend_name(backend);
  Rng rng(storm_seed() ^ 0x5e1full);
  struct Round {
    StormShape shape;
    bool ordered;  // single copies everywhere: order is deterministic
  };
  const Round rounds[] = {
      {{64, 1, 1, 1, /*batch=*/1, /*interval=*/3, /*capacity=*/8}, true},
      {{96, 2, 2, 2, /*batch=*/4, /*interval=*/4, /*capacity=*/8}, false},
  };
  int round_index = 0;
  for (const Round& round : rounds) {
    const std::string base = "cgp_respawn_storm_" + std::string(bname) + "_" +
                             std::to_string(round_index++) + "_" +
                             std::to_string(storm_seed());
    const KillSpec src_kill{base + ".src", 2,
                            2 + static_cast<std::int64_t>(rng.next_below(3)),
                            SIGKILL};
    const KillSpec mid_kill{base + ".mid", 2,
                            2 + static_cast<std::int64_t>(rng.next_below(4)),
                            SIGKILL};
    clear_shots(src_kill.tag, src_kill.quota);
    clear_shots(mid_kill.tag, mid_kill.quota);
    auto state = std::make_shared<SinkState>();
    PipelineRunner runner(
        storm_groups(round.shape, state, src_kill, mid_kill,
                     std::chrono::microseconds(100)),
        storm_config(backend, round.shape, /*restarts=*/8,
                     /*heartbeat_seconds=*/0.05 * kTimeScale),
        storm_policy());
    RunOutcome outcome = runner.run_supervised();
    clear_shots(src_kill.tag, src_kill.quota);
    clear_shots(mid_kill.tag, mid_kill.quota);
    ASSERT_TRUE(outcome.ok()) << bname << ": " << outcome.stats.error;
    EXPECT_TRUE(outcome.stats.completed);
    EXPECT_EQ(outcome.disposition, RunOutcome::kComplete);
    EXPECT_FALSE(outcome.stats.degraded);
    // Every non-sink worker drew blood at least its quota: one respawn
    // record per resurrection, MTTR stamped when the next handshake
    // completed.
    EXPECT_GE(respawns_of(outcome.stats, "src"), 2) << bname;
    EXPECT_GE(respawns_of(outcome.stats, "mid"), 2) << bname;
    for (const support::RespawnRecord& r : outcome.stats.respawns) {
      EXPECT_GE(r.restart, 1);
      EXPECT_GE(r.mttr_seconds, 0.0);
      EXPECT_LT(r.mttr_seconds, 60.0);
      EXPECT_GE(r.at_seconds, 0.0);
      EXPECT_FALSE(r.cause.empty());
    }
    EXPECT_EQ(delivered(*state), oracle(round.shape.packets))
        << bname << " round " << round_index;
    if (round.ordered) {
      ASSERT_EQ(state->by_copy.size(), 1u);
      EXPECT_EQ(state->by_copy[0], oracle_sequence(round.shape.packets))
          << bname << ": delivery must be byte-identical at one copy";
    }
    // Heartbeats were on: the supervisor heard from both workers.
    EXPECT_GE(outcome.stats.heartbeats.size(), 1u);
    for (const support::HeartbeatMetrics& h : outcome.stats.heartbeats)
      EXPECT_GT(h.beats, 0) << h.group;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WorkerRespawnStorm, ::testing::Values(TransportBackend::kProc),
    [](const ::testing::TestParamInfo<TransportBackend>& info) {
      return std::string(backend_name(info.param));
    });

// ---------------------------------------------------------------------------
// Degradation: a worker that dies every incarnation exhausts a budget of
// one restart; the run must end kDegraded — error pointer null, partial
// result from the surviving stages intact and a strict subset of the
// oracle, the exhausted stage named in stats.error.
// ---------------------------------------------------------------------------

TEST(WorkerRespawnDegrade, ExhaustedBudgetDrainsSurvivorsToAPartialResult) {
  const StormShape shape{64, 1, 1, 1, /*batch=*/1, /*interval=*/2,
                         /*capacity=*/8};
  const KillSpec mid_kill{"cgp_respawn_degrade", /*quota=*/-1, /*at=*/2,
                          SIGKILL};
  auto state = std::make_shared<SinkState>();
  PipelineRunner runner(
      storm_groups(shape, state, KillSpec{}, mid_kill,
                   std::chrono::microseconds(100)),
      // No heartbeats: SIGKILL deaths reach the reaper through waitpid
      // alone, and a spuriously slow scheduler can't charge a lapse kill
      // against the one-restart budget.
      storm_config(TransportBackend::kProc, shape, /*restarts=*/1,
                   /*heartbeat_seconds=*/0.0),
      storm_policy());
  RunOutcome outcome = runner.run_supervised();
  EXPECT_TRUE(outcome.degraded());
  EXPECT_EQ(outcome.disposition, RunOutcome::kDegraded);
  EXPECT_TRUE(outcome.ok()) << "degraded keeps error null: the partial "
                               "result stands, nothing may be rethrown";
  EXPECT_TRUE(outcome.stats.degraded);
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_NE(outcome.stats.error.find("restart budget"), std::string::npos)
      << outcome.stats.error;
  EXPECT_NE(outcome.stats.error.find("mid"), std::string::npos)
      << outcome.stats.error;
  // Exactly one resurrection happened before the budget ran out, and the
  // exhausting death is recorded as a dead-copy fault.
  EXPECT_EQ(outcome.stats.respawns.size(), 1u);
  EXPECT_TRUE(std::any_of(
      outcome.stats.faults.begin(), outcome.stats.faults.end(),
      [](const support::FaultRecord& f) {
        return f.resolution == support::FaultResolution::kCopyDead;
      }));
  // The surviving prefix drained to the sink: at-most the oracle, never
  // an invented or double-counted value.
  const std::multiset<std::int64_t> got = delivered(*state);
  const std::multiset<std::int64_t> want = oracle(shape.packets);
  EXPECT_TRUE(
      std::includes(want.begin(), want.end(), got.begin(), got.end()));
  EXPECT_LT(got.size(), want.size());
}

// ---------------------------------------------------------------------------
// Stall watchdog over heartbeat mirrors: a worker whose thread is alive
// (beats keep arriving) but whose progress counter freezes must trip the
// no-progress watchdog — the rule the thread backend has always enforced,
// now fed remotely. The wedged worker then ignores the abort broadcast,
// so the reaper's escalation (teardown_grace_ms) has to SIGKILL it.
// ---------------------------------------------------------------------------

TEST(WorkerRespawnWatchdog, HeartbeatMirrorsFeedTheStallWatchdog) {
  const StormShape shape{32, 1, 1, 1, /*batch=*/1, /*interval=*/0,
                         /*capacity=*/8};
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back({"src",
                    [n = shape.packets] {
                      return std::make_unique<StormSource>(n, KillSpec{});
                    },
                    1, 0});
  groups.push_back(
      {"mid", [] { return std::make_unique<WedgingAdder>(3); }, 1, 1});
  groups.push_back(
      {"sink", [state] { return std::make_unique<StormSink>(state); }, 1, 2});
  // A couple of spare restarts so a tool-slowed scheduler's false lapse
  // kill heals instead of failing the run with the wrong error: the
  // watchdog ends the run kFailed regardless of the healing budget.
  RunnerConfig config = storm_config(TransportBackend::kProc, shape,
                                     /*restarts=*/2,
                                     /*heartbeat_seconds=*/0.05 * kTimeScale);
  config.teardown_grace_ms = static_cast<std::int64_t>(100 * kTimeScale);
  FaultPolicy policy = storm_policy();
  policy.stage_timeout_seconds = 0.3 * kTimeScale;
  PipelineRunner runner(std::move(groups), config, policy);
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.disposition, RunOutcome::kFailed);
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_NE(outcome.stats.error.find("watchdog"), std::string::npos)
      << outcome.stats.error;
  EXPECT_NE(outcome.stats.error.find("no progress"), std::string::npos)
      << outcome.stats.error;
  EXPECT_NE(outcome.stats.error.find("mid"), std::string::npos)
      << outcome.stats.error;
  EXPECT_TRUE(std::any_of(
      outcome.stats.faults.begin(), outcome.stats.faults.end(),
      [](const support::FaultRecord& f) {
        return f.resolution == support::FaultResolution::kWatchdog;
      }));
}

// ---------------------------------------------------------------------------
// Heartbeat lapse: a worker that goes completely silent (SIGSTOP freezes
// every thread, including its heartbeat sender) is liveness-killed by the
// supervisor after the lapse window and resurrected like any other
// organic death; the run still converges to the oracle.
// ---------------------------------------------------------------------------

TEST(WorkerRespawnLapse, SilentWorkerIsLivenessKilledAndResurrected) {
  const StormShape shape{48, 1, 1, 1, /*batch=*/1, /*interval=*/3,
                         /*capacity=*/8};
  const std::string tag =
      "cgp_respawn_lapse_" + std::to_string(storm_seed());
  const KillSpec mid_kill{tag, /*quota=*/1, /*at=*/2, SIGSTOP};
  clear_shots(tag, mid_kill.quota);
  auto state = std::make_shared<SinkState>();
  PipelineRunner runner(
      storm_groups(shape, state, KillSpec{}, mid_kill,
                   std::chrono::microseconds(100)),
      storm_config(TransportBackend::kProc, shape, /*restarts=*/5,
                   /*heartbeat_seconds=*/0.05 * kTimeScale),
      storm_policy());
  RunOutcome outcome = runner.run_supervised();
  clear_shots(tag, mid_kill.quota);
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_TRUE(outcome.stats.completed);
  EXPECT_EQ(delivered(*state), oracle(shape.packets));
  ASSERT_GE(outcome.stats.respawns.size(), 1u);
  EXPECT_TRUE(std::any_of(
      outcome.stats.respawns.begin(), outcome.stats.respawns.end(),
      [](const support::RespawnRecord& r) {
        return r.group == "mid" &&
               r.cause.find("heartbeat lapse") != std::string::npos;
      }))
      << outcome.stats.respawns[0].cause;
}

// ---------------------------------------------------------------------------
// The lapse verdict: the monitor kills a silent worker only when the
// silence is the worker's own.
// ---------------------------------------------------------------------------

TEST(WorkerLapseVerdict, StatStateParsesAfterTheCommandNamesLastParen) {
  EXPECT_EQ(detail::proc_stat_state("4242 (cgp_worker) R 1 4242 4242 0 -1"), 'R');
  EXPECT_EQ(detail::proc_stat_state("4242 (a b) S 1 2 3"), 'S');
  // A command name may hold spaces and ')' itself, even ") R ".
  EXPECT_EQ(detail::proc_stat_state("4242 (evil) R (x)) T 1 2 3"), 'T');
  EXPECT_EQ(detail::proc_stat_state("4242 (x) R) D 1"), 'D');
  EXPECT_EQ(detail::proc_stat_state("4242 (x)"), '?');
  EXPECT_EQ(detail::proc_stat_state(""), '?');
}

TEST(WorkerLapseVerdict, KillsOnlyWhenTheSilenceIsTheWorkersOwn) {
  const double lapse_after = 0.05;
  detail::LapseEvidence wedged;
  wedged.silent_seconds = 0.2;
  wedged.task_stats = {"10 (w) S 1", "11 (w hb) S 1", "12 (w) D 1"};
  EXPECT_TRUE(detail::lapse_is_workers_own(wedged, lapse_after));

  detail::LapseEvidence stopped = wedged;  // SIGSTOP: every thread T
  stopped.task_stats = {"10 (w) T 1", "11 (w hb) T 1"};
  EXPECT_TRUE(detail::lapse_is_workers_own(stopped, lapse_after));

  detail::LapseEvidence gone = wedged;  // no /proc entry left
  gone.task_stats.clear();
  EXPECT_TRUE(detail::lapse_is_workers_own(gone, lapse_after));

  detail::LapseEvidence recent = wedged;
  recent.silent_seconds = 0.04;
  EXPECT_FALSE(detail::lapse_is_workers_own(recent, lapse_after));

  // The supervisor still holds beats it has not read.
  detail::LapseEvidence piped = wedged;
  piped.unread_status_bytes = 41;
  EXPECT_FALSE(detail::lapse_is_workers_own(piped, lapse_after));
  detail::LapseEvidence held = wedged;
  held.reader_holds_beats = true;
  EXPECT_FALSE(detail::lapse_is_workers_own(held, lapse_after));
  detail::LapseEvidence reading = wedged;  // the reader is not parked
  reading.reader_stat = "77 (cgp supervisor) R 1 2";
  EXPECT_FALSE(detail::lapse_is_workers_own(reading, lapse_after));
  detail::LapseEvidence parked = wedged;
  parked.reader_stat = "77 (cgp supervisor) S 1 2";
  EXPECT_TRUE(detail::lapse_is_workers_own(parked, lapse_after));

  // A runnable thread waits for a CPU or a quota; the name's ") R" in a
  // blocked thread's line does not count.
  detail::LapseEvidence starved = wedged;
  starved.task_stats = {"10 (w) S 1", "11 (w hb) R 1"};
  EXPECT_FALSE(detail::lapse_is_workers_own(starved, lapse_after));
  detail::LapseEvidence named = wedged;
  named.task_stats = {"10 (w) R (x)) S 1"};
  EXPECT_TRUE(detail::lapse_is_workers_own(named, lapse_after));
}

// ---------------------------------------------------------------------------
// The stage watchdog's no-progress rule, shared by the thread runner's
// watchdog and the supervisor's reaper, driven here by hand-fed samples.
// ---------------------------------------------------------------------------

TEST(StallWatchRule, ProgressResetsTheClockAndTheWatchFiresOnceAtTheTimeout) {
  const std::vector<FilterGroup> groups = {{"src", nullptr, 1, 0},
                                           {"mid", nullptr, 2, 1}};
  const detail::Clock::time_point t0 = detail::Clock::now();
  const auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<detail::Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  detail::StallWatch watch(groups, /*timeout_seconds=*/1.0, t0);
  // The first sample sees fresh progress; the second starts the clock.
  EXPECT_FALSE(watch.sample(1, 2, 0, 5, at(0.0)));
  EXPECT_FALSE(watch.sample(1, 2, 0, 5, at(0.5)));
  EXPECT_FALSE(watch.sample(1, 2, 0, 5, at(1.25)));
  // Progress resets it: a full timeout must pass again from the restart.
  EXPECT_FALSE(watch.sample(1, 2, 0, 6, at(1.5)));
  EXPECT_FALSE(watch.sample(1, 2, 0, 6, at(1.75)));
  EXPECT_FALSE(watch.sample(1, 2, 0, 6, at(2.5)));
  const std::optional<support::FaultRecord> fault =
      watch.sample(1, 2, 0, 6, at(2.75));
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->group, "mid");
  EXPECT_EQ(fault->copy, -1);
  EXPECT_EQ(fault->what, "watchdog: stage 'mid' made no progress for 1s");
  EXPECT_EQ(fault->resolution, support::FaultResolution::kWatchdog);
  EXPECT_GE(fault->at_seconds, 0.0);
  // Once per run: the stall goes on, and so does the other group's, but
  // the watch stays quiet.
  EXPECT_FALSE(watch.sample(1, 2, 0, 6, at(9.0)));
  EXPECT_FALSE(watch.sample(0, 1, 0, 3, at(9.0)));
  EXPECT_FALSE(watch.sample(0, 1, 0, 3, at(9.5)));
  EXPECT_FALSE(watch.sample(0, 1, 0, 3, at(20.0)));
}

TEST(StallWatchRule, WaitingAndDeadGroupsAreExempt) {
  const std::vector<FilterGroup> groups = {{"src", nullptr, 2, 0},
                                           {"sink", nullptr, 1, 1}};
  const detail::Clock::time_point t0 = detail::Clock::now();
  const auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<detail::Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  detail::StallWatch watch(groups, /*timeout_seconds=*/1.0, t0);
  // Every live copy parked in a wait: starved or backpressured, not hung.
  for (double t = 0.0; t < 5.0; t += 0.5)
    EXPECT_FALSE(watch.sample(0, 2, 2, 7, at(t))) << t;
  // One copy computing without moving data is a stall.
  EXPECT_FALSE(watch.sample(0, 2, 1, 7, at(5.0)));
  // A group with no live copy cannot stall, however long it sits.
  for (double t = 0.0; t < 5.0; t += 0.5)
    EXPECT_FALSE(watch.sample(1, 0, 0, 4, at(t))) << t;
  // The exemptions reset the clock: after the dead spell, group 1 needs
  // a full timeout of its own before it fires.
  EXPECT_FALSE(watch.sample(1, 1, 0, 4, at(5.0)));
  EXPECT_FALSE(watch.sample(1, 1, 0, 4, at(5.5)));
  EXPECT_FALSE(watch.sample(1, 1, 0, 4, at(6.4)));
  EXPECT_TRUE(watch.sample(1, 1, 0, 4, at(6.5)).has_value());
}

// ---------------------------------------------------------------------------
// The handshake's plan check: a worker names every field on which the
// supervisor's plan disagrees with what it inherited across fork.
// ---------------------------------------------------------------------------

TEST(WorkerPlanCheck, NamesEachMismatchingField) {
  const std::vector<FilterGroup> groups = {{"src", nullptr, 1, 0},
                                           {"mid", nullptr, 2, 1},
                                           {"sink", nullptr, 1, 2}};
  RunnerConfig config;
  config.backend = TransportBackend::kProc;
  config.batch_size = 4;
  config.checkpoint_interval = 3;
  config.heartbeat_seconds = 0.05;
  const detail::WorkerPlan expected =
      detail::plan_for(1, groups, config, /*run_ckpt=*/true);
  EXPECT_EQ(expected.group_name, "mid");
  EXPECT_EQ(expected.copies, 2);
  EXPECT_EQ(expected.restore_cut_id, -1);
  // A plan that agrees, down to a run epoch the check does not read.
  detail::WorkerPlan plan = expected;
  plan.run_elapsed_seconds = 12.5;
  EXPECT_TRUE(detail::plan_mismatches(plan, expected).empty());

  const auto only = [&](auto mutate) {
    detail::WorkerPlan p = expected;
    mutate(p);
    return detail::plan_mismatches(p, expected);
  };
  using Fields = std::vector<std::string>;
  EXPECT_EQ(only([](auto& p) { p.gi = 0; }), Fields{"group-index"});
  EXPECT_EQ(only([](auto& p) { p.n_groups = 4; }), Fields{"pipeline-size"});
  EXPECT_EQ(only([](auto& p) { p.group_name = "src"; }), Fields{"stage-name"});
  EXPECT_EQ(only([](auto& p) { p.copies = 1; }), Fields{"replica-count"});
  EXPECT_EQ(only([](auto& p) { p.stream_capacity = 1; }),
            Fields{"stream-capacity"});
  EXPECT_EQ(only([](auto& p) { p.batch_size = 1; }), Fields{"batch-size"});
  EXPECT_EQ(only([](auto& p) { p.pool_buffers_per_class = 0; }),
            Fields{"pool-depth"});
  EXPECT_EQ(only([](auto& p) { p.checkpoint_interval = 0; }),
            Fields{"checkpoint-interval"});
  EXPECT_EQ(only([](auto& p) { p.ring_bytes = 1; }), Fields{"ring-bytes"});
  EXPECT_EQ(only([](auto& p) { p.run_ckpt = 0; }), Fields{"run-ckpt"});
  EXPECT_EQ(only([](auto& p) { p.heartbeat_seconds = 0.0; }),
            Fields{"heartbeat"});
  EXPECT_EQ(only([](auto& p) { p.restore_cut_id = 7; }), Fields{"restore-cut"});
  EXPECT_EQ(only([](auto& p) { p.restore_digest = 99; }),
            Fields{"restore-cut"});
  // Several at once come back together, in plan order.
  EXPECT_EQ(only([](auto& p) {
              p.heartbeat_seconds = 1.0;
              p.gi = 2;
              p.batch_size = 8;
            }),
            (Fields{"group-index", "batch-size", "heartbeat"}));

  // A worker that inherited a restore cut expects its id and digest.
  RunCheckpoint cut;
  cut.id = 5;
  cut.source_copies = {9};
  RunnerConfig resumed = config;
  resumed.resume = &cut;
  const detail::WorkerPlan rolled_back =
      detail::plan_for(1, groups, resumed, true);
  EXPECT_EQ(rolled_back.restore_cut_id, 5);
  EXPECT_EQ(rolled_back.restore_digest, checkpoint_checksum(cut));
  EXPECT_EQ(detail::plan_mismatches(expected, rolled_back),
            Fields{"restore-cut"});
}

}  // namespace
}  // namespace cgp::dc
