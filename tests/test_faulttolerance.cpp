// Fault-tolerant execution tests (docs/ROBUSTNESS.md): supervised copies
// under the three fault policies, bounded retries and copy death, graceful
// drain when a whole stage dies, the no-progress watchdog, the
// deterministic fault-injection harness, and exactly-once checkpointed
// recovery (filter-state snapshots, run-level consistent cuts, resume).
// The FaultStress_* and CheckpointStress_* cases are the CI stress jobs'
// targets (Release + TSan, repeated).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "datacutter/buffer.h"
#include "datacutter/checkpoint.h"
#include "datacutter/runner.h"
#include "support/faultinject.h"

namespace cgp::dc {
namespace {

// Tight backoff so retry-heavy tests stay fast.
FaultPolicy policy_for(FaultAction action, int max_retries = 3) {
  FaultPolicy policy;
  policy.action = action;
  policy.max_retries = max_retries;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  return policy;
}

constexpr std::int64_t kMagic = 0x5a5a5a5a5a5a5a5a;

class CountingSource : public Filter {
 public:
  explicit CountingSource(int n) : n_(n) {}
  void process(FilterContext& ctx) override {
    for (int i = 0; i < n_; ++i) {
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b;
      b.write<std::int64_t>(i);
      b.write<std::int64_t>(i ^ kMagic);  // checksum for corruption tests
      ctx.emit(std::move(b));
    }
  }

 private:
  int n_;
};

class AddOne : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      b->read<std::int64_t>();
      Buffer out;
      out.write<std::int64_t>(v + 1);
      out.write<std::int64_t>((v + 1) ^ kMagic);
      ctx.emit(std::move(out));
    }
  }
  // Stateless: an empty snapshot keeps checkpointed recovery exactly-once
  // across this stage (re-emissions after a restart are deduplicated).
  bool snapshot_state(Buffer&) override { return true; }
};

struct SinkState {
  std::mutex mutex;
  std::multiset<std::int64_t> values;
  std::int64_t total = 0;
};

class CollectingSink : public Filter {
 public:
  explicit CollectingSink(std::shared_ptr<SinkState> state, bool validate)
      : state_(std::move(state)), validate_(validate) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      const std::int64_t check = b->read<std::int64_t>();
      if (validate_ && (v ^ kMagic) != check)
        throw std::runtime_error("checksum mismatch");
      std::lock_guard lock(state_->mutex);
      state_->values.insert(v);
      state_->total += v;
    }
  }

 private:
  std::shared_ptr<SinkState> state_;
  bool validate_;
};

FilterGroup source_group(const char* name, int n, int copies, int stage) {
  return {name, [n] { return std::make_unique<CountingSource>(n); }, copies,
          stage};
}
FilterGroup addone_group(const char* name, int copies, int stage) {
  return {name, [] { return std::make_unique<AddOne>(); }, copies, stage};
}
FilterGroup sink_group(const char* name, std::shared_ptr<SinkState> state,
                       int stage, bool validate = false, int copies = 1) {
  return {name,
          [state, validate] {
            return std::make_unique<CollectingSink>(state, validate);
          },
          copies, stage};
}

std::multiset<std::int64_t> expected_values(int n, std::int64_t offset) {
  std::multiset<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.insert(i + offset);
  return out;
}

struct TotalState {
  std::mutex mutex;
  std::int64_t total = 0;
  std::int64_t count = 0;
};

// A genuinely stateful sink: the running sum lives inside the filter and
// only reaches the shared state at finalize, so a restart that loses the
// accumulator produces a visibly wrong total. snapshot_state/restore_state
// make the accumulator survive checkpointed restarts; `snapshottable`
// false models a legacy filter (forces the in-flight-replay fallback).
// `poison` is a value the filter rejects on sight — a fault that refires
// on every replay, unlike hook-injected faults.
class SummingSink : public Filter {
 public:
  SummingSink(std::shared_ptr<TotalState> state, std::int64_t poison = -1,
              bool snapshottable = true)
      : state_(std::move(state)),
        poison_(poison),
        snapshottable_(snapshottable) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      b->read<std::int64_t>();
      if (v == poison_) throw std::runtime_error("poison value");
      sum_ += v;
      count_ += 1;
    }
  }
  void finalize(FilterContext&) override {
    std::lock_guard lock(state_->mutex);
    state_->total += sum_;
    state_->count += count_;
  }
  bool snapshot_state(Buffer& out) override {
    if (!snapshottable_) return false;
    out.write<std::int64_t>(sum_);
    out.write<std::int64_t>(count_);
    return true;
  }
  void restore_state(Buffer& in) override {
    sum_ = in.read<std::int64_t>();
    count_ = in.read<std::int64_t>();
  }

 private:
  std::shared_ptr<TotalState> state_;
  std::int64_t poison_;
  bool snapshottable_;
  std::int64_t sum_ = 0;
  std::int64_t count_ = 0;
};

FilterGroup summing_group(const char* name, std::shared_ptr<TotalState> state,
                          int stage, std::int64_t poison = -1,
                          bool snapshottable = true, int copies = 1) {
  return {name,
          [state, poison, snapshottable] {
            return std::make_unique<SummingSink>(state, poison, snapshottable);
          },
          copies, stage};
}

// Sum of the values an AddOne chain delivers to the sink: the source emits
// 0..n-1 and each AddOne stage shifts by one.
std::int64_t expected_total(int n, std::int64_t offset) {
  std::int64_t total = 0;
  for (int i = 0; i < n; ++i) total += i + offset;
  return total;
}

RunnerConfig checkpointed_config(std::size_t interval, std::size_t batch = 1,
                                 std::size_t capacity = 8) {
  RunnerConfig config;
  config.stream_capacity = capacity;
  config.batch_size = batch;
  config.checkpoint_interval = interval;
  return config;
}

// ---------------------------------------------------------------------------
// Policy plumbing
// ---------------------------------------------------------------------------

TEST(FaultPolicy, ActionNamesRoundTrip) {
  for (FaultAction action : {FaultAction::kFailFast, FaultAction::kRestartCopy,
                             FaultAction::kDropPacket}) {
    const auto parsed = FaultPolicy::parse_action(
        FaultPolicy::action_name(action));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, action);
  }
  EXPECT_FALSE(FaultPolicy::parse_action("retry-forever").has_value());
}

// ---------------------------------------------------------------------------
// restart-copy
// ---------------------------------------------------------------------------

TEST(RestartCopy, ReplaysInflightPacketAndCompletes) {
  // Acceptance scenario: a 4-stage pipeline with a throw-on-Nth fault in a
  // middle stage completes with the exact sink output — the in-flight
  // packet is replayed, nothing is lost or duplicated.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 1, 0));
  groups.push_back(addone_group("mid1", 1, 1));
  groups.push_back(addone_group("mid2", 1, 2));
  groups.push_back(sink_group("sink", state, 3));
  PipelineRunner runner(std::move(groups), 8,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid1:throw@5")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_TRUE(outcome.stats.completed);
  EXPECT_EQ(state->values, expected_values(32, 2));
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].group, "mid1");
  EXPECT_EQ(outcome.stats.faults[0].packet_index, 5);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRetried);
  EXPECT_EQ(outcome.stats.total_retries(), 1);
  EXPECT_EQ(outcome.stats.total_dropped_packets(), 0);
  EXPECT_EQ(outcome.stats.fault_policy, "restart-copy");
  // The trace carries the fault surface.
  const support::PipelineTrace trace = outcome.stats;
  ASSERT_EQ(trace.faults.size(), 1u);
  EXPECT_TRUE(trace.completed);
  EXPECT_EQ(trace.fault_policy, "restart-copy");
}

TEST(RestartCopy, SourceRestartDeliversExactlyOnce) {
  // A deterministic source that faults mid-emission re-computes on restart;
  // skip_emits suppresses what was already delivered, so downstream sees
  // every packet exactly once.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 24, 1, 0));
  groups.push_back(sink_group("sink", state, 1));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("src:throw@3")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(24, 0));
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRetried);
  EXPECT_EQ(outcome.stats.stage_metrics[0].retries, 1);
}

TEST(RestartCopy, RepeatedTransientFaultsAllRecover) {
  // A refiring positional fault hits every restarted instance at its own
  // packet 2; the replay mechanism absorbs each hit without losing data.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 30, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@2!")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(30, 1));
  EXPECT_GE(outcome.stats.total_retries(), 2);
}

TEST(RestartCopy, PoisonPacketExhaustsRetriesAndKillsCopy) {
  // The filter itself rejects one specific payload, so the replayed packet
  // fails on every attempt: bounded consecutive retries must declare the
  // copy dead and surface the loss as the run error.
  struct Poisoned : Filter {
    void process(FilterContext& ctx) override {
      while (auto b = ctx.read()) {
        const std::int64_t v = b->read<std::int64_t>();
        if (v == 13) throw std::runtime_error("poison payload");
      }
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 20, 1, 0));
  groups.push_back(
      {"poisoned", [] { return std::make_unique<Poisoned>(); }, 1, 1});
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kRestartCopy, 2));
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_NE(outcome.stats.error.find("all 1 copies dead"), std::string::npos)
      << outcome.stats.error;
  ASSERT_GE(outcome.stats.faults.size(), 3u);
  EXPECT_EQ(outcome.stats.faults.back().resolution,
            support::FaultResolution::kCopyDead);
  // The source still ran to completion: the dead stage drained its input.
  EXPECT_EQ(outcome.stats.stage_metrics[0].packets_out, 20);
}

// ---------------------------------------------------------------------------
// drop-packet
// ---------------------------------------------------------------------------

TEST(DropPacket, SkipsPoisonedPacketAndCompletes) {
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 40, 1, 0));
  groups.push_back(addone_group("mid1", 1, 1));
  groups.push_back(addone_group("mid2", 1, 2));
  groups.push_back(sink_group("sink", state, 3));
  PipelineRunner runner(std::move(groups), 8,
                        policy_for(FaultAction::kDropPacket));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid2:throw@7")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  // Single-copy stages are FIFO: mid2's packet 7 carried value 8, so the
  // sink is missing exactly 9.
  std::multiset<std::int64_t> expected = expected_values(40, 2);
  expected.erase(expected.find(9));
  EXPECT_EQ(state->values, expected);
  EXPECT_EQ(outcome.stats.total_dropped_packets(), 1);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kDroppedPacket);
  EXPECT_EQ(outcome.stats.stage_metrics[2].dropped_packets, 1);
}

TEST(DropPacket, PersistentFaultKillsStageAndDrainsUpstream) {
  // Every attempt of the only middle copy dies on its first packet: after
  // max_retries fruitless restarts the stage is declared dead. The run
  // fails, but gracefully — the source completes into the drained stream
  // and the sink sees a clean end-of-stream instead of hanging.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 500, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kDropPacket, 2));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@0!")));
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_NE(outcome.stats.error.find("all 1 copies dead"), std::string::npos)
      << outcome.stats.error;
  ASSERT_GE(outcome.stats.faults.size(), 3u);
  EXPECT_EQ(outcome.stats.faults.back().resolution,
            support::FaultResolution::kCopyDead);
  // Upstream finished (drain unblocked it) and the drained buffers are
  // accounted on the link.
  EXPECT_EQ(outcome.stats.stage_metrics[0].packets_out, 500);
  ASSERT_EQ(outcome.stats.link_metrics.size(), 2u);
  EXPECT_GE(outcome.stats.link_metrics[0].dropped_buffers, 490);
  // Downstream saw end-of-stream, not a hang.
  EXPECT_EQ(outcome.stats.stage_metrics[2].packets_in, 0);
}

TEST(DropPacket, CorruptionCaughtByValidatingSinkIsDropped) {
  // Injected corruption + a checksum-validating sink: the bad packet is
  // detected, thrown away under drop-packet, and the run completes.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 20, 1, 0));
  groups.push_back(sink_group("sink", state, 1, /*validate=*/true));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kDropPacket));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("sink:corrupt@2")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  std::multiset<std::int64_t> expected = expected_values(20, 0);
  expected.erase(expected.find(2));
  EXPECT_EQ(state->values, expected);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].what, "checksum mismatch");
  EXPECT_EQ(outcome.stats.total_dropped_packets(), 1);
}

// ---------------------------------------------------------------------------
// fail-fast (the default) keeps its historical shape — but with stats
// ---------------------------------------------------------------------------

TEST(FailFast, RunSupervisedKeepsPartialStatsAndError) {
  struct Exploder : Filter {
    void process(FilterContext& ctx) override {
      ctx.read();
      throw std::runtime_error("boom");
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 1000, 1, 0));
  groups.push_back(
      {"exploder", [] { return std::make_unique<Exploder>(); }, 1, 1});
  PipelineRunner runner(std::move(groups), 2);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_FALSE(outcome.ok());
  EXPECT_THROW(std::rethrow_exception(outcome.error), std::runtime_error);
  // The stats survived the failure: partial metrics, the fault record, and
  // the error text all came back instead of being thrown away.
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_EQ(outcome.stats.error, "boom");
  EXPECT_EQ(outcome.stats.fault_policy, "fail-fast");
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kFatal);
  ASSERT_EQ(outcome.stats.stage_metrics.size(), 2u);
  EXPECT_GT(outcome.stats.stage_metrics[0].packets_out, 0);
  ASSERT_EQ(outcome.stats.link_metrics.size(), 1u);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, FiresOnStalledStage) {
  // A filter that stops moving data (long sleep, not a blocked stream
  // wait) must trip the no-progress timeout; the watchdog tears the run
  // down and records the stall.
  struct Staller : Filter {
    void process(FilterContext& ctx) override {
      int seen = 0;
      while (auto b = ctx.read()) {
        if (++seen == 2)
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 50, 1, 0));
  groups.push_back(
      {"staller", [] { return std::make_unique<Staller>(); }, 1, 1});
  FaultPolicy policy = policy_for(FaultAction::kRestartCopy);
  policy.stage_timeout_seconds = 0.06;
  PipelineRunner runner(std::move(groups), 4, policy);
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_NE(outcome.stats.error.find("watchdog"), std::string::npos)
      << outcome.stats.error;
  ASSERT_GE(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kWatchdog);
  EXPECT_EQ(outcome.stats.faults[0].group, "staller");
}

TEST(Watchdog, QuietOnHealthyPipelineWithBlockedStages) {
  // A slow source keeps the sink parked in a blocking read most of the
  // time; blocked waits are exempt, and the source itself makes progress
  // well inside the timeout — no false positive.
  struct SlowSource : Filter {
    void process(FilterContext& ctx) override {
      for (int i = 0; i < 10; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        Buffer b;
        b.write<std::int64_t>(i);
        b.write<std::int64_t>(i ^ kMagic);
        ctx.emit(std::move(b));
      }
    }
  };
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(
      {"slow-src", [] { return std::make_unique<SlowSource>(); }, 1, 0});
  groups.push_back(sink_group("sink", state, 1));
  FaultPolicy policy;  // fail-fast; only the watchdog is armed
  policy.stage_timeout_seconds = 0.5;
  PipelineRunner runner(std::move(groups), 4, policy);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_TRUE(outcome.stats.faults.empty());
  EXPECT_EQ(state->values.size(), 10u);
}

// ---------------------------------------------------------------------------
// Fault plan parsing and determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryShape) {
  const support::FaultPlan plan = support::parse_fault_plan(
      "stage1:throw@5,decomp#1:sleep@3=0.2,link:drop@~0.05,"
      "mid:corrupt@2+4,src:throw@0!",
      7);
  ASSERT_EQ(plan.specs.size(), 5u);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.specs[0].group, "stage1");
  EXPECT_EQ(plan.specs[0].kind, support::FaultKind::kThrow);
  EXPECT_EQ(plan.specs[0].nth_packet, 5);
  EXPECT_EQ(plan.specs[0].copy, -1);
  EXPECT_FALSE(plan.specs[0].refire);
  EXPECT_EQ(plan.specs[1].group, "decomp");
  EXPECT_EQ(plan.specs[1].copy, 1);
  EXPECT_EQ(plan.specs[1].kind, support::FaultKind::kSleep);
  EXPECT_DOUBLE_EQ(plan.specs[1].sleep_seconds, 0.2);
  EXPECT_EQ(plan.specs[2].kind, support::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.specs[2].probability, 0.05);
  EXPECT_EQ(plan.specs[2].nth_packet, -1);
  EXPECT_EQ(plan.specs[3].repeat_every, 4);
  EXPECT_TRUE(plan.specs[4].refire);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(support::parse_fault_plan("nocolon"), std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:zap@5"), std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:throw"), std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:throw@"), std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:throw@x"), std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:throw@~2"),
               std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan("g:throw@5=0.2"),
               std::invalid_argument);
  EXPECT_THROW(support::parse_fault_plan(":throw@5"), std::invalid_argument);
}

TEST(FaultPlan, DeterministicTriggersRespectAttemptGating) {
  const support::FaultPlan one_shot = support::parse_fault_plan("g:throw@4");
  EXPECT_NE(one_shot.match("g", 0, 0, 4), nullptr);
  EXPECT_EQ(one_shot.match("g", 0, 1, 4), nullptr);  // transient: cleared
  EXPECT_EQ(one_shot.match("g", 0, 0, 3), nullptr);
  EXPECT_EQ(one_shot.match("other", 0, 0, 4), nullptr);
  const support::FaultPlan refire = support::parse_fault_plan("g:throw@4!");
  EXPECT_NE(refire.match("g", 0, 3, 4), nullptr);  // persistent
  const support::FaultPlan strided = support::parse_fault_plan("g:throw@2+3");
  EXPECT_NE(strided.match("g", 0, 0, 2), nullptr);
  EXPECT_NE(strided.match("g", 0, 0, 5), nullptr);
  EXPECT_EQ(strided.match("g", 0, 0, 4), nullptr);
  const support::FaultPlan copy1 = support::parse_fault_plan("g#1:throw@0");
  EXPECT_EQ(copy1.match("g", 0, 0, 0), nullptr);
  EXPECT_NE(copy1.match("g", 1, 0, 0), nullptr);
}

TEST(FaultPlan, ProbabilisticTriggersAreSeededAndAttemptAware) {
  const support::FaultPlan a = support::parse_fault_plan("g:throw@~0.2", 1);
  const support::FaultPlan b = support::parse_fault_plan("g:throw@~0.2", 2);
  int fires_a = 0;
  int fires_b = 0;
  int agree = 0;
  for (std::int64_t p = 0; p < 500; ++p) {
    const bool fa = a.match("g", 0, 0, p) != nullptr;
    const bool fb = b.match("g", 0, 0, p) != nullptr;
    fires_a += fa ? 1 : 0;
    fires_b += fb ? 1 : 0;
    agree += fa == fb ? 1 : 0;
    // Same seed, same coordinates: always the same answer.
    EXPECT_EQ(fa, a.match("g", 0, 0, p) != nullptr);
  }
  EXPECT_GT(fires_a, 50);  // ~100 expected
  EXPECT_LT(fires_a, 200);
  EXPECT_LT(agree, 500);  // different seeds pick different packets
  // A retry re-rolls: at least one faulting packet passes on attempt 1.
  bool some_recover = false;
  for (std::int64_t p = 0; p < 500; ++p) {
    if (a.match("g", 0, 0, p) != nullptr && a.match("g", 0, 1, p) == nullptr)
      some_recover = true;
  }
  EXPECT_TRUE(some_recover);
}

// ---------------------------------------------------------------------------
// Injection shims
// ---------------------------------------------------------------------------

TEST(FlakyLink, DropsPacketsDeterministically) {
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 30, 1, 0));
  groups.push_back({"link",
                    support::make_flaky_link(
                        support::parse_fault_plan("link:drop@4"), "link"),
                    1, 1});
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 8);
  support::PipelineTrace stats = runner.run();
  std::multiset<std::int64_t> expected = expected_values(30, 0);
  expected.erase(expected.find(4));
  EXPECT_EQ(state->values, expected);
  EXPECT_EQ(stats.stage_metrics[1].packets_in, 30);
  EXPECT_EQ(stats.stage_metrics[1].packets_out, 29);
}

TEST(FaultInjectingFilter, WrapsOneGroupOnly) {
  // The wrapper injects faults for its group without a runner-wide hook;
  // under drop-packet the poisoned packet disappears and the run finishes.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 16, 1, 0));
  groups.push_back({"mid",
                    support::wrap_with_faults(
                        [] { return std::make_unique<AddOne>(); },
                        support::parse_fault_plan("mid:throw@3!"), "mid"),
                    1, 1});
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 8,
                        policy_for(FaultAction::kDropPacket, 5));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values.size(),
            16u - static_cast<std::size_t>(
                      outcome.stats.total_dropped_packets()));
  EXPECT_GE(outcome.stats.total_dropped_packets(), 1);
}

TEST(FireFault, CorruptFlipsOneByteInPlace) {
  Buffer b;
  b.write<std::int64_t>(42);
  Buffer original = b;
  support::FaultSpec spec;
  spec.kind = support::FaultKind::kCorrupt;
  support::fire_fault(spec, &b);
  ASSERT_EQ(b.size(), original.size());
  int diffs = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b.peek_at<unsigned char>(i) != original.peek_at<unsigned char>(i))
      ++diffs;
  }
  EXPECT_EQ(diffs, 1);
  // Corrupting is idempotent in shape: firing again flips it back.
  support::fire_fault(spec, &b);
  EXPECT_EQ(b.peek_at<std::int64_t>(0), 42);
}

// ---------------------------------------------------------------------------
// Stress (the CI fault-injection job runs these repeatedly under TSan)
// ---------------------------------------------------------------------------

TEST(FaultStress, ProbabilisticFaultsRecoverExactlyOnceUnderRestartCopy) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 200, 2, 0));
    groups.push_back(addone_group("mid1", 2, 1));
    groups.push_back(addone_group("mid2", 2, 2));
    groups.push_back(sink_group("sink", state, 3));
    PipelineRunner runner(
        std::move(groups), 8,
        policy_for(FaultAction::kRestartCopy, /*max_retries=*/6));
    runner.set_packet_hook(support::make_fault_hook(support::parse_fault_plan(
        "src:throw@~0.03,mid1:throw@~0.06,mid2:throw@~0.06", seed)));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << outcome.stats.error;
    // Exactly-once delivery survives restarts across every stage.
    EXPECT_EQ(state->values, expected_values(200, 2)) << "seed " << seed;
  }
}

TEST(FaultStress, DropPacketConservesAccounting) {
  for (std::uint64_t seed : {3u, 11u}) {
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 200, 2, 0));
    groups.push_back(addone_group("mid", 2, 1));
    groups.push_back(sink_group("sink", state, 2));
    PipelineRunner runner(
        std::move(groups), 8,
        policy_for(FaultAction::kDropPacket, /*max_retries=*/10));
    runner.set_packet_hook(support::make_fault_hook(
        support::parse_fault_plan("mid:throw@~0.08", seed)));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << outcome.stats.error;
    // Every packet is either delivered or accounted as dropped.
    EXPECT_EQ(static_cast<std::int64_t>(state->values.size()),
              200 - outcome.stats.total_dropped_packets())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Batched transport under faults (batch_size > 1): producer-side batches may
// be partially filled when an attempt dies, and consumer-side batches may be
// partially read. Exactly-once replay and drop accounting must both survive.
// ---------------------------------------------------------------------------

RunnerConfig batched_config(std::size_t batch, std::size_t capacity = 8) {
  RunnerConfig config;
  config.stream_capacity = capacity;
  config.batch_size = batch;
  return config;
}

TEST(BatchedFaults, RestartCopyReplaysExactlyOnceWithBatches) {
  for (std::size_t batch : {std::size_t{4}, std::size_t{64}}) {
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 1, 0));
    groups.push_back(addone_group("mid1", 1, 1));
    groups.push_back(addone_group("mid2", 1, 2));
    groups.push_back(sink_group("sink", state, 3));
    PipelineRunner runner(std::move(groups), batched_config(batch),
                          policy_for(FaultAction::kRestartCopy));
    runner.set_packet_hook(
        support::make_fault_hook(support::parse_fault_plan("mid1:throw@5")));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << "batch " << batch << ": "
                              << outcome.stats.error;
    // The failed attempt's partially-filled output batch is flushed before
    // the delivered count is read, so replay suppression stays exact even
    // when the batch never reached batch_size.
    EXPECT_EQ(state->values, expected_values(32, 2)) << "batch " << batch;
    EXPECT_EQ(outcome.stats.total_retries(), 1) << "batch " << batch;
    EXPECT_EQ(outcome.stats.total_dropped_packets(), 0) << "batch " << batch;
    EXPECT_EQ(outcome.stats.batch_size, static_cast<std::int64_t>(batch));
  }
}

TEST(BatchedFaults, SourceRestartFlushesPartialBatchExactlyOnce) {
  // The source faults while its second batch is still open (24 packets,
  // batch 16): what was already coalesced must count as delivered exactly
  // when it landed on the stream, so the replay skips the right prefix.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 24, 1, 0));
  groups.push_back(sink_group("sink", state, 1));
  PipelineRunner runner(std::move(groups), batched_config(16),
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("src:throw@19")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(24, 0));
  EXPECT_EQ(outcome.stats.total_retries(), 1);
}

TEST(BatchedFaults, DropPacketDropsExactlyTheFaultedPacket) {
  for (std::size_t batch : {std::size_t{4}, std::size_t{16}}) {
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 40, 1, 0));
    groups.push_back(addone_group("mid", 1, 1));
    groups.push_back(sink_group("sink", state, 2));
    PipelineRunner runner(std::move(groups), batched_config(batch),
                          policy_for(FaultAction::kDropPacket));
    runner.set_packet_hook(
        support::make_fault_hook(support::parse_fault_plan("mid:throw@7")));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << "batch " << batch << ": "
                              << outcome.stats.error;
    EXPECT_EQ(outcome.stats.total_dropped_packets(), 1) << "batch " << batch;
    EXPECT_EQ(static_cast<std::int64_t>(state->values.size()),
              40 - outcome.stats.total_dropped_packets())
        << "batch " << batch;
  }
}

TEST(BatchedFaults, DeadStageAccountsUnreadBatchedBuffersAsDropped) {
  // A persistently-failing middle copy dies holding popped-but-unread
  // buffers from its last input batch. Those must surface in the dropped
  // accounting rather than vanish: every buffer the source pushed is either
  // dropped by the dying stage (read-then-faulted or unread at death) or
  // discarded by the post-mortem drain.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 200, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), batched_config(8),
                        policy_for(FaultAction::kDropPacket, 2));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@0!")));
  RunOutcome outcome = runner.run_supervised();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.stats.stage_metrics[0].packets_out, 200);
  ASSERT_EQ(outcome.stats.link_metrics.size(), 2u);
  const support::LinkMetrics& in_link = outcome.stats.link_metrics[0];
  EXPECT_EQ(in_link.buffers, 200);
  EXPECT_EQ(outcome.stats.stage_metrics[1].dropped_packets +
                in_link.dropped_buffers,
            200);
  // Downstream saw a clean end-of-stream, not a hang.
  EXPECT_EQ(outcome.stats.stage_metrics[2].packets_in, 0);
}

TEST(BatchedFaults, StressExactlyOnceAcrossSeedsAndBatchSizes) {
  for (std::uint64_t seed : {1u, 9u}) {
    for (std::size_t batch : {std::size_t{4}, std::size_t{64}}) {
      auto state = std::make_shared<SinkState>();
      std::vector<FilterGroup> groups;
      groups.push_back(source_group("src", 200, 2, 0));
      groups.push_back(addone_group("mid1", 2, 1));
      groups.push_back(addone_group("mid2", 2, 2));
      groups.push_back(sink_group("sink", state, 3));
      PipelineRunner runner(std::move(groups), batched_config(batch),
                            policy_for(FaultAction::kRestartCopy, 6));
      runner.set_packet_hook(
          support::make_fault_hook(support::parse_fault_plan(
              "src:throw@~0.03,mid1:throw@~0.06,mid2:throw@~0.06", seed)));
      RunOutcome outcome = runner.run_supervised();
      ASSERT_TRUE(outcome.ok()) << "seed " << seed << " batch " << batch
                                << ": " << outcome.stats.error;
      EXPECT_EQ(state->values, expected_values(200, 2))
          << "seed " << seed << " batch " << batch;
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpointed recovery: restart-copy + checkpoint_interval makes stateful
// stages exactly-once — a restarted instance restores the last snapshot and
// replays only the packets consumed after it (docs/ROBUSTNESS.md).
// ---------------------------------------------------------------------------

TEST(CheckpointedRecovery, StatefulSinkStateSurvivesRestart) {
  for (std::size_t interval : {std::size_t{1}, std::size_t{16}}) {
    auto state = std::make_shared<TotalState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 1, 0));
    groups.push_back(addone_group("mid", 1, 1));
    groups.push_back(summing_group("sum", state, 2));
    PipelineRunner runner(std::move(groups), checkpointed_config(interval),
                          policy_for(FaultAction::kRestartCopy));
    runner.set_packet_hook(
        support::make_fault_hook(support::parse_fault_plan("sum:throw@9")));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << "interval " << interval << ": "
                              << outcome.stats.error;
    // The restored accumulator plus the replayed suffix reproduce the
    // fault-free total exactly — nothing lost, nothing double-counted.
    EXPECT_EQ(state->total, expected_total(32, 1)) << "interval " << interval;
    EXPECT_EQ(state->count, 32) << "interval " << interval;
    ASSERT_EQ(outcome.stats.faults.size(), 1u);
    EXPECT_EQ(outcome.stats.faults[0].resolution,
              support::FaultResolution::kRestoredCheckpoint);
    EXPECT_EQ(outcome.stats.total_dropped_packets(), 0);
    EXPECT_GE(outcome.stats.stage_metrics[2].checkpoints, 1);
  }
}

TEST(CheckpointedRecovery, MidStageRestartDedupsReemissions) {
  // The faulting stage sits mid-pipeline: after the restore its replayed
  // input would re-emit packets the sink already received. skip_emits
  // suppresses exactly the delivered prefix, so the downstream multiset
  // stays byte-exact.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(sink_group("sink", state, 2, /*validate=*/true));
  PipelineRunner runner(std::move(groups), checkpointed_config(4),
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@9")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(32, 1));
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRestoredCheckpoint);
  EXPECT_GE(outcome.stats.stage_metrics[1].checkpoints, 1);
  EXPECT_EQ(outcome.stats.total_dropped_packets(), 0);
}

TEST(CheckpointedRecovery, WithoutSnapshotFallsBackToInflightReplay) {
  // A filter that declines to snapshot keeps the legacy behavior: the
  // in-flight packet is replayed but the accumulator restarts from zero,
  // so the prefix consumed before the fault is missing from the total.
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(
      summing_group("sum", state, 2, /*poison=*/-1, /*snapshottable=*/false));
  PipelineRunner runner(std::move(groups), checkpointed_config(4),
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("sum:throw@9")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  // Values 1..9 were summed by the dead instance and lost; the replayed
  // packet (value 10) and everything after it survive.
  EXPECT_EQ(state->total, expected_total(32, 1) - expected_total(9, 1));
  EXPECT_EQ(state->count, 23);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRetried);
  EXPECT_EQ(outcome.stats.stage_metrics[2].checkpoints, 0);
}

TEST(CheckpointedRecovery, MidSnapshotFaultKeepsPreviousSnapshot) {
  // A fault thrown mid-snapshot (the @ckpt trigger fires inside the commit
  // callback, before the new snapshot is recorded) must leave the previous
  // snapshot intact: the restart restores it and the run stays exact.
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(summing_group("sum", state, 2));
  PipelineRunner runner(std::move(groups), checkpointed_config(4),
                        policy_for(FaultAction::kRestartCopy));
  const support::FaultPlan plan =
      support::parse_fault_plan("sum:throw@ckpt1");
  runner.set_checkpoint_hook(support::make_checkpoint_fault_hook(plan));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->total, expected_total(32, 1));
  EXPECT_EQ(state->count, 32);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRestoredCheckpoint);
  // The failed commit does not count; the surviving instance keeps
  // snapshotting on the interval.
  EXPECT_GE(outcome.stats.stage_metrics[2].checkpoints, 2);
}

// ---------------------------------------------------------------------------
// Run-level checkpointing: consistent cuts persisted to a file, and resume.
// ---------------------------------------------------------------------------

TEST(RunCheckpointFile, SaveLoadRoundTrip) {
  RunCheckpoint ckpt;
  ckpt.id = 7;
  ckpt.source_delivered = 112;
  ckpt.at_seconds = 1.25;
  ckpt.source_copies = {60, 52};
  ckpt.group_copies = {2, 2, 1};
  ckpt.stages.push_back({"mid", 0, {std::byte{0x00}, std::byte{0xfe}}});
  ckpt.stages.push_back({"mid", 1, {std::byte{0x7f}}});
  ckpt.stages.push_back({"sink", 0, {}});
  const std::string path = "cgp_ckpt_roundtrip_test.json";
  save_checkpoint(ckpt, path);
  const RunCheckpoint loaded = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.id, 7);
  EXPECT_EQ(loaded.source_delivered, 112);
  EXPECT_DOUBLE_EQ(loaded.at_seconds, 1.25);
  EXPECT_EQ(loaded.source_copies, (std::vector<std::int64_t>{60, 52}));
  EXPECT_EQ(loaded.group_copies, (std::vector<int>{2, 2, 1}));
  ASSERT_EQ(loaded.stages.size(), 3u);
  EXPECT_EQ(loaded.stages[0].group, "mid");
  EXPECT_EQ(loaded.stages[0].copy, 0);
  EXPECT_EQ(loaded.stages[0].state,
            (std::vector<std::byte>{std::byte{0x00}, std::byte{0xfe}}));
  EXPECT_EQ(loaded.stages[1].group, "mid");
  EXPECT_EQ(loaded.stages[1].copy, 1);
  EXPECT_EQ(loaded.stages[2].group, "sink");
  EXPECT_EQ(loaded.stages[2].copy, 0);
  EXPECT_TRUE(loaded.stages[2].state.empty());
  EXPECT_THROW(load_checkpoint("cgp_no_such_checkpoint.json"),
               std::runtime_error);
}

TEST(RunCheckpointFile, LoadRejectsCorruptTruncatedEmptyFiles) {
  RunCheckpoint ckpt;
  ckpt.id = 3;
  ckpt.source_delivered = 24;
  ckpt.source_copies = {24};
  ckpt.group_copies = {1, 1};
  ckpt.stages.push_back({"sum", 0, {std::byte{0x2a}, std::byte{0x2a}}});
  const std::string path = "cgp_ckpt_corrupt_test.json";
  save_checkpoint(ckpt, path);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  auto write_file = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  };
  // A single flipped bit in the snapshot payload must fail the checksum
  // with a diagnostic, never hand back a cut with silently different state.
  {
    std::string flipped = text;
    const std::size_t pos = flipped.find("2a2a");
    ASSERT_NE(pos, std::string::npos);
    flipped[pos] = '2' == flipped[pos] ? 'b' : '2';
    write_file(flipped);
    try {
      load_checkpoint(path);
      FAIL() << "bit-flipped checkpoint loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
  // A torn write (truncated JSON) must fail as corrupt/truncated.
  write_file(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  // So must an empty file.
  write_file("");
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  // And a file missing its checksum field entirely (v2 requires it).
  {
    std::string stripped = text;
    const std::size_t pos = stripped.find("\"checksum\"");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t end = stripped.find('\n', pos);
    stripped.erase(pos, end - pos + 1);
    // Remove the dangling comma on the previous line if present.
    write_file(stripped);
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(RunCheckpointFile, EveryRejectionNamesThePathAndAReason) {
  // Operators resume from checkpoints by path, often several per run
  // directory: a rejection that does not say WHICH file failed and WHY is
  // useless at 3am. Exercise every rejection class and require both.
  const std::string path = "cgp_ckpt_diagnostics_test.json";
  auto write_file = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  };
  const auto expect_names_path = [&](const std::string& file,
                                     const std::string& reason_word) {
    try {
      load_checkpoint(file);
      FAIL() << "expected rejection mentioning '" << reason_word << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file), std::string::npos) << what;
      EXPECT_NE(what.find(reason_word), std::string::npos) << what;
    }
  };
  // Missing file.
  expect_names_path("cgp_no_such_checkpoint.json", "cannot open");
  // Unparseable JSON.
  write_file("{ not json");
  expect_names_path(path, "corrupt or truncated");
  // Valid JSON, but not a checkpoint at all.
  write_file("{\"hello\": 1}");
  expect_names_path(path, "not a cgpipe checkpoint file");
  // A schema from the future.
  write_file("{\"schema\": \"cgpipe-checkpoint-v99\"}");
  expect_names_path(path, "unknown schema");
  // Structurally a checkpoint, but a field is the wrong shape.
  write_file(
      "{\"schema\": \"cgpipe-checkpoint-v2\", \"id\": \"three\", "
      "\"source_delivered\": 0, \"at_seconds\": 0, \"stages\": []}");
  expect_names_path(path, "is malformed");
  // Bad hex in a stage snapshot is a malformed-field rejection too.
  write_file(
      "{\"schema\": \"cgpipe-checkpoint-v2\", \"id\": 1, "
      "\"source_delivered\": 0, \"at_seconds\": 0, \"stages\": "
      "[{\"group\": \"sum\", \"state\": \"zz\"}]}");
  expect_names_path(path, "is malformed");
  // Complete but missing the integrity checksum.
  write_file(
      "{\"schema\": \"cgpipe-checkpoint-v2\", \"id\": 1, "
      "\"source_delivered\": 0, \"at_seconds\": 0, \"stages\": []}");
  expect_names_path(path, "missing checksum");
  std::remove(path.c_str());
}

TEST(RunCheckpointFile, LoadsLegacyV1Files) {
  // Files written before replication support: no checksum, no per-copy
  // arrays. They must still load, with source_copies defaulting to the
  // single implicit source cursor.
  const std::string path = "cgp_ckpt_legacy_v1_test.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\n"
           "  \"schema\": \"cgpipe-checkpoint-v1\",\n"
           "  \"id\": 2,\n"
           "  \"source_delivered\": 12,\n"
           "  \"at_seconds\": 0.5,\n"
           "  \"stages\": [\n"
           "    {\"group\": \"mid\", \"state\": \"\"},\n"
           "    {\"group\": \"sum\", \"state\": \"0a00\"}\n"
           "  ]\n"
           "}\n";
  }
  const RunCheckpoint loaded = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.id, 2);
  EXPECT_EQ(loaded.source_delivered, 12);
  EXPECT_EQ(loaded.source_copies, (std::vector<std::int64_t>{12}));
  EXPECT_TRUE(loaded.group_copies.empty());
  ASSERT_EQ(loaded.stages.size(), 2u);
  EXPECT_EQ(loaded.stages[0].copy, 0);
  EXPECT_EQ(loaded.stages[1].group, "sum");
  EXPECT_EQ(loaded.stages[1].state,
            (std::vector<std::byte>{std::byte{0x0a}, std::byte{0x00}}));
}

TEST(RunLevelCheckpoint, HealthyRunWritesConsistentCuts) {
  const std::string path = "cgp_ckpt_healthy_test.json";
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(summing_group("sum", state, 2));
  RunnerConfig config = checkpointed_config(4);
  config.checkpoint_path = path;
  PipelineRunner runner(std::move(groups), config,
                        policy_for(FaultAction::kRestartCopy));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->total, expected_total(32, 1));
  // The run surface records every completed cut...
  ASSERT_FALSE(outcome.stats.checkpoints.empty());
  const support::CheckpointRecord& last = outcome.stats.checkpoints.back();
  EXPECT_EQ(last.group, "run");
  EXPECT_EQ(last.copy, -1);
  EXPECT_GT(last.packet_index, 0);
  EXPECT_GE(last.quiesce_seconds, 0.0);
  // ...and the file holds the latest one: aligned source progress plus one
  // snapshot per consuming group, in pipeline order.
  const RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_GT(cut.source_delivered, 0);
  EXPECT_EQ(cut.source_delivered % 4, 0);
  ASSERT_EQ(cut.stages.size(), 2u);
  EXPECT_EQ(cut.stages[0].group, "mid");
  EXPECT_EQ(cut.stages[1].group, "sum");
  EXPECT_FALSE(cut.stages[1].state.empty());
}

TEST(RunLevelCheckpoint, RejectsInvalidConfigurations) {
  // The marker protocol needs a positive interval to pace injections.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 8, 1, 0));
  groups.push_back(sink_group("sink", state, 1));
  RunnerConfig config;  // interval 0
  config.checkpoint_path = "cgp_ckpt_invalid_test.json";
  PipelineRunner runner(std::move(groups), config);
  EXPECT_THROW(runner.run_supervised(), std::invalid_argument);
}

TEST(RunLevelCheckpoint, ReplicatedStagesWriteConsistentCuts) {
  // The lifted restriction: every copy of every stage contributes a part
  // and the committed file records per-copy source cursors, per-copy
  // snapshots, and the replica plan.
  const std::string path = "cgp_ckpt_replicated_test.json";
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 2, 0));
  groups.push_back(addone_group("mid", 2, 1));
  groups.push_back(summing_group("sum", state, 2, -1, true, 2));
  RunnerConfig config = checkpointed_config(4);
  config.checkpoint_path = path;
  PipelineRunner runner(std::move(groups), config,
                        policy_for(FaultAction::kRestartCopy));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->total, expected_total(32, 1));
  EXPECT_EQ(state->count, 32);
  // The run surface ends on a completed cut summary whose parts cover
  // every consuming copy (2x mid + 2x sum), preceded by per-copy part
  // records.
  ASSERT_FALSE(outcome.stats.checkpoints.empty());
  const support::CheckpointRecord& last = outcome.stats.checkpoints.back();
  EXPECT_EQ(last.group, "run");
  EXPECT_EQ(last.copy, -1);
  EXPECT_EQ(last.parts, 4);
  bool saw_part = false;
  for (const support::CheckpointRecord& c : outcome.stats.checkpoints)
    if (c.group == "mid" && c.copy == 1) saw_part = true;
  EXPECT_TRUE(saw_part);
  // The committed file is a fully replicated cut: aligned per-copy source
  // cursors, the replica plan, and one part per (stage, copy).
  const RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  ASSERT_EQ(cut.source_copies.size(), 2u);
  EXPECT_EQ(cut.source_copies[0] + cut.source_copies[1],
            cut.source_delivered);
  EXPECT_EQ(cut.group_copies, (std::vector<int>{2, 2, 2}));
  ASSERT_EQ(cut.stages.size(), 4u);
  EXPECT_EQ(cut.stages[0].group, "mid");
  EXPECT_EQ(cut.stages[0].copy, 0);
  EXPECT_EQ(cut.stages[1].group, "mid");
  EXPECT_EQ(cut.stages[1].copy, 1);
  EXPECT_EQ(cut.stages[2].group, "sum");
  EXPECT_EQ(cut.stages[2].copy, 0);
  EXPECT_EQ(cut.stages[3].group, "sum");
  EXPECT_EQ(cut.stages[3].copy, 1);
  // At least one summing copy accumulated state by the last cut.
  EXPECT_FALSE(cut.stages[2].state.empty() && cut.stages[3].state.empty());
}

TEST(RunLevelCheckpoint, ReplicatedResumeAfterFatalFaultCompletesExactly) {
  const std::string path = "cgp_ckpt_replicated_resume_test.json";
  // Run 1: replicated source and mid stages; the single summing copy
  // rejects value 14 on sight, dies, and the run fails. Cuts completed
  // before the poison survive on disk.
  {
    auto state = std::make_shared<TotalState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 2, 0));
    groups.push_back(addone_group("mid", 2, 1));
    groups.push_back(summing_group("sum", state, 2, /*poison=*/14));
    RunnerConfig config = checkpointed_config(4);
    config.checkpoint_path = path;
    PipelineRunner runner(std::move(groups), config,
                          policy_for(FaultAction::kRestartCopy, 2));
    RunOutcome outcome = runner.run_supervised();
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.stats.faults.back().resolution,
              support::FaultResolution::kCopyDead);
  }
  RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_GT(cut.source_delivered, 0);
  ASSERT_EQ(cut.source_copies.size(), 2u);
  EXPECT_EQ(cut.group_copies, (std::vector<int>{2, 2, 1}));
  // Run 2: same shape, poison gone, resumed copy-by-copy. Each source copy
  // skips exactly the packets the cut covers for it, so the delivered
  // multiset — and therefore the total — matches an uninterrupted run.
  {
    auto state = std::make_shared<TotalState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 2, 0));
    groups.push_back(addone_group("mid", 2, 1));
    groups.push_back(summing_group("sum", state, 2));
    RunnerConfig config = checkpointed_config(4);
    config.resume = &cut;
    PipelineRunner runner(std::move(groups), config,
                          policy_for(FaultAction::kRestartCopy));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
    EXPECT_TRUE(outcome.stats.faults.empty());
    EXPECT_EQ(state->total, expected_total(32, 1));
    EXPECT_EQ(state->count, 32);
    // Only the uncovered suffix was re-emitted.
    EXPECT_EQ(outcome.stats.stage_metrics[0].packets_out,
              32 - cut.source_delivered);
  }
}

TEST(RunLevelCheckpoint, ResumeAfterFatalFaultCompletesExactly) {
  const std::string path = "cgp_ckpt_resume_test.json";
  // Run 1: the sink rejects value 14 on sight — the replayed packet fails
  // every attempt, the copy dies, the run fails. Cuts completed before the
  // poison survive on disk.
  {
    auto state = std::make_shared<TotalState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 1, 0));
    groups.push_back(addone_group("mid", 1, 1));
    groups.push_back(summing_group("sum", state, 2, /*poison=*/14));
    RunnerConfig config = checkpointed_config(4);
    config.checkpoint_path = path;
    PipelineRunner runner(std::move(groups), config,
                          policy_for(FaultAction::kRestartCopy, 2));
    RunOutcome outcome = runner.run_supervised();
    EXPECT_FALSE(outcome.ok());
    EXPECT_NE(outcome.stats.error.find("all 1 copies dead"),
              std::string::npos)
        << outcome.stats.error;
    EXPECT_EQ(outcome.stats.faults.back().resolution,
              support::FaultResolution::kCopyDead);
  }
  // The file holds the last cut completed before the fatal packet: the
  // source had delivered 12 and the sink had summed values 1..12.
  RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(cut.source_delivered, 12);
  ASSERT_EQ(cut.stages.size(), 2u);
  EXPECT_EQ(cut.stages[0].group, "mid");
  EXPECT_EQ(cut.stages[1].group, "sum");
  // Run 2: same pipeline shape, poison gone, resumed from the cut. The
  // source skips the 12 covered packets and the sink's restored
  // accumulator plus the remainder reproduce the fault-free total exactly.
  {
    auto state = std::make_shared<TotalState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 32, 1, 0));
    groups.push_back(addone_group("mid", 1, 1));
    groups.push_back(summing_group("sum", state, 2));
    RunnerConfig config = checkpointed_config(4);
    config.resume = &cut;
    PipelineRunner runner(std::move(groups), config,
                          policy_for(FaultAction::kRestartCopy));
    RunOutcome outcome = runner.run_supervised();
    ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
    EXPECT_TRUE(outcome.stats.completed);
    EXPECT_TRUE(outcome.stats.faults.empty());
    EXPECT_EQ(state->total, expected_total(32, 1));
    EXPECT_EQ(state->count, 32);
    // Only the uncovered suffix was re-emitted.
    EXPECT_EQ(outcome.stats.stage_metrics[0].packets_out, 32 - 12);
  }
}

TEST(RunLevelCheckpoint, ResumeRejectsMismatchedPipeline) {
  // Wrong stage name: rejected with a side-by-side diff naming both sides.
  {
    RunCheckpoint cut;
    cut.id = 0;
    cut.source_delivered = 4;
    cut.source_copies = {4};
    cut.group_copies = {1, 1};
    cut.stages.push_back({"other", 0, {}});
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 8, 1, 0));
    groups.push_back(sink_group("sink", state, 1));
    RunnerConfig config;
    config.resume = &cut;
    PipelineRunner runner(std::move(groups), config);
    try {
      runner.run_supervised();
      FAIL() << "mismatched resume accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("does not match"), std::string::npos) << what;
      EXPECT_NE(what.find("sink"), std::string::npos) << what;
      EXPECT_NE(what.find("other"), std::string::npos) << what;
    }
  }
  // Right stage names, wrong replica counts: also a diff, naming the
  // counts on both sides.
  {
    RunCheckpoint cut;
    cut.id = 0;
    cut.source_delivered = 4;
    cut.source_copies = {4};
    cut.group_copies = {1, 2};
    cut.stages.push_back({"sink", 0, {}});
    cut.stages.push_back({"sink", 1, {}});
    auto state = std::make_shared<SinkState>();
    std::vector<FilterGroup> groups;
    groups.push_back(source_group("src", 8, 1, 0));
    groups.push_back(sink_group("sink", state, 1));
    RunnerConfig config;
    config.resume = &cut;
    PipelineRunner runner(std::move(groups), config);
    try {
      runner.run_supervised();
      FAIL() << "replica-mismatched resume accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sink x1"), std::string::npos) << what;
      EXPECT_NE(what.find("sink x2"), std::string::npos) << what;
    }
  }
}

TEST(RunLevelCheckpoint, MarkerFaultOnConsumerCopyDoesNotWedgeTheCut) {
  // @mark fires the instant cut 0's marker reaches mid copy 1. The
  // supervisor's gap repair registers the failed copy's part (unusable)
  // and forwards the marker on restart, so neither the cut collector nor
  // the downstream stage wedges, and later cuts commit to disk normally.
  const std::string path = "cgp_ckpt_marker_fault_test.json";
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 2, 0));
  groups.push_back(addone_group("mid", 2, 1));
  groups.push_back(summing_group("sum", state, 2, -1, true, 2));
  RunnerConfig config = checkpointed_config(4);
  config.checkpoint_path = path;
  PipelineRunner runner(std::move(groups), config,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_marker_hook(support::make_marker_fault_hook(
      support::parse_fault_plan("mid#1:throw@mark0")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->total, expected_total(32, 1));
  EXPECT_EQ(state->count, 32);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].group, "mid");
  EXPECT_EQ(outcome.stats.faults[0].copy, 1);
  // A later cut (unaffected by the fault) still reached the file with a
  // full complement of per-copy parts.
  const RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_GT(cut.id, 0);
  ASSERT_EQ(cut.stages.size(), 4u);
}

TEST(RunLevelCheckpoint, MarkerFaultOnSourceCopyStaysExact) {
  // The source-side variant: the hook throws between marker injection and
  // the copy's progress-part submission. Gap repair submits the cursor and
  // forwards the marker on restart; replay dedup keeps delivery exact.
  const std::string path = "cgp_ckpt_marker_src_fault_test.json";
  auto state = std::make_shared<TotalState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 32, 2, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(summing_group("sum", state, 2));
  RunnerConfig config = checkpointed_config(4);
  config.checkpoint_path = path;
  PipelineRunner runner(std::move(groups), config,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_marker_hook(support::make_marker_fault_hook(
      support::parse_fault_plan("src#0:throw@mark1")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->total, expected_total(32, 1));
  EXPECT_EQ(state->count, 32);
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].group, "src");
  const RunCheckpoint cut = load_checkpoint(path);
  std::remove(path.c_str());
  ASSERT_EQ(cut.source_copies.size(), 2u);
  EXPECT_EQ(cut.source_copies[0] + cut.source_copies[1],
            cut.source_delivered);
}

// ---------------------------------------------------------------------------
// Retry backoff: watchdog-exempt while parked, interruptible by teardown.
// ---------------------------------------------------------------------------

TEST(RetryBackoff, BackoffWaitIsExemptFromWatchdog) {
  // The backoff sleep (0.3s) is far longer than the stage timeout (0.08s):
  // a parked copy must read as waiting, not hung, so the run completes
  // without a watchdog fault.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 30, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(sink_group("sink", state, 2));
  FaultPolicy policy = policy_for(FaultAction::kRestartCopy);
  policy.backoff_initial_seconds = 0.3;
  policy.backoff_max_seconds = 0.3;
  policy.stage_timeout_seconds = 0.08;
  PipelineRunner runner(std::move(groups), 4, policy);
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@5")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(30, 1));
  ASSERT_EQ(outcome.stats.faults.size(), 1u);
  EXPECT_EQ(outcome.stats.faults[0].resolution,
            support::FaultResolution::kRetried);
  // The copy really did park for the full backoff before recovering.
  EXPECT_GE(outcome.stats.wall_seconds, 0.25);
}

TEST(RetryBackoff, TeardownInterruptsParkedBackoff) {
  // One stage trips the watchdog while another stage's copy sits at the
  // start of a 5-second backoff. Teardown must wake the parked copy
  // immediately — the run ends in well under the backoff, not after it.
  struct Staller : Filter {
    void process(FilterContext& ctx) override {
      int seen = 0;
      while (auto b = ctx.read()) {
        if (++seen == 2)
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
      }
    }
  };
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 50, 1, 0));
  groups.push_back(addone_group("mid", 1, 1));
  groups.push_back(
      {"staller", [] { return std::make_unique<Staller>(); }, 1, 2});
  FaultPolicy policy = policy_for(FaultAction::kRestartCopy);
  policy.backoff_initial_seconds = 5.0;
  policy.backoff_max_seconds = 5.0;
  policy.stage_timeout_seconds = 0.08;
  PipelineRunner runner(std::move(groups), 4, policy);
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@2")));
  const auto t0 = std::chrono::steady_clock::now();
  RunOutcome outcome = runner.run_supervised();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.stats.error.find("watchdog"), std::string::npos)
      << outcome.stats.error;
  EXPECT_LT(elapsed, 2.0);
}

// ---------------------------------------------------------------------------
// @ckpt fault-plan triggers
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesCheckpointTriggers) {
  const support::FaultPlan plan = support::parse_fault_plan(
      "a:throw@ckpt,b:throw@ckpt2+3!,c:sleep@ckpt1=0.01");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_TRUE(plan.specs[0].at_checkpoint);
  EXPECT_EQ(plan.specs[0].nth_packet, 0);  // bare "ckpt" = first snapshot
  EXPECT_FALSE(plan.specs[0].refire);
  EXPECT_TRUE(plan.specs[1].at_checkpoint);
  EXPECT_EQ(plan.specs[1].nth_packet, 2);
  EXPECT_EQ(plan.specs[1].repeat_every, 3);
  EXPECT_TRUE(plan.specs[1].refire);
  EXPECT_TRUE(plan.specs[2].at_checkpoint);
  EXPECT_EQ(plan.specs[2].kind, support::FaultKind::kSleep);
  EXPECT_DOUBLE_EQ(plan.specs[2].sleep_seconds, 0.01);
  EXPECT_THROW(support::parse_fault_plan("g:throw@ckptx"),
               std::invalid_argument);
}

TEST(FaultPlan, CheckpointTriggersMatchOnlyCheckpoints) {
  const support::FaultPlan plan =
      support::parse_fault_plan("g:throw@ckpt1,g:throw@4");
  // @ckpt specs are invisible to the per-packet matcher and vice versa.
  EXPECT_NE(plan.match("g", 0, 0, 4), nullptr);
  EXPECT_EQ(plan.match("g", 0, 0, 1), nullptr);
  EXPECT_NE(plan.match_checkpoint("g", 0, 0, 1), nullptr);
  EXPECT_EQ(plan.match_checkpoint("g", 0, 0, 4), nullptr);
  // Same attempt gating as packet triggers: transient unless refired.
  EXPECT_EQ(plan.match_checkpoint("g", 0, 1, 1), nullptr);
  const support::FaultPlan refire = support::parse_fault_plan("g:throw@ckpt!");
  EXPECT_NE(refire.match_checkpoint("g", 0, 3, 0), nullptr);
}

TEST(FaultPlan, ParsesAndMatchesMarkerTriggers) {
  const support::FaultPlan plan =
      support::parse_fault_plan("a:throw@mark,b#1:throw@mark2,b:throw@4");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_TRUE(plan.specs[0].at_marker);
  EXPECT_EQ(plan.specs[0].nth_packet, 0);  // bare "mark" = first cut
  EXPECT_TRUE(plan.specs[1].at_marker);
  EXPECT_EQ(plan.specs[1].nth_packet, 2);
  EXPECT_EQ(plan.specs[1].copy, 1);
  // @mark specs are invisible to the packet and checkpoint matchers, and
  // match only the named copy at the named cut id, first attempt only.
  EXPECT_EQ(plan.match("a", 0, 0, 0), nullptr);
  EXPECT_EQ(plan.match_checkpoint("a", 0, 0, 0), nullptr);
  EXPECT_NE(plan.match_marker("a", 0, 0, 0), nullptr);
  EXPECT_EQ(plan.match_marker("a", 0, 0, 1), nullptr);
  EXPECT_NE(plan.match_marker("b", 1, 0, 2), nullptr);
  EXPECT_EQ(plan.match_marker("b", 0, 0, 2), nullptr);
  EXPECT_EQ(plan.match_marker("b", 1, 1, 2), nullptr);
  EXPECT_EQ(plan.match_marker("b", 1, 0, 4), nullptr);  // @4 is per-packet
  EXPECT_THROW(support::parse_fault_plan("g:throw@markx"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Checkpoint stress (the CI checkpoint-stress job runs these repeatedly
// under TSan): stateful exactly-once recovery must hold under probabilistic
// faults, batching, and both tight and loose snapshot intervals.
// ---------------------------------------------------------------------------

TEST(CheckpointStress, ProbabilisticFaultsKeepStatefulTotalsExact) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    for (std::size_t interval : {std::size_t{1}, std::size_t{4}}) {
      auto state = std::make_shared<TotalState>();
      std::vector<FilterGroup> groups;
      groups.push_back(source_group("src", 200, 1, 0));
      groups.push_back(addone_group("mid", 2, 1));
      groups.push_back(summing_group("sum", state, 2));
      PipelineRunner runner(
          std::move(groups), checkpointed_config(interval, /*batch=*/4),
          policy_for(FaultAction::kRestartCopy, /*max_retries=*/8));
      runner.set_packet_hook(support::make_fault_hook(
          support::parse_fault_plan("mid:throw@~0.05,sum:throw@~0.04",
                                    seed)));
      RunOutcome outcome = runner.run_supervised();
      ASSERT_TRUE(outcome.ok()) << "seed " << seed << " interval " << interval
                                << ": " << outcome.stats.error;
      EXPECT_EQ(state->total, expected_total(200, 1))
          << "seed " << seed << " interval " << interval;
      EXPECT_EQ(state->count, 200)
          << "seed " << seed << " interval " << interval;
    }
  }
}

TEST(CheckpointStress, BatchedDeterministicFaultsAcrossIntervals) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
    for (std::size_t interval : {std::size_t{1}, std::size_t{16}}) {
      auto state = std::make_shared<TotalState>();
      std::vector<FilterGroup> groups;
      groups.push_back(source_group("src", 96, 1, 0));
      groups.push_back(addone_group("mid", 1, 1));
      groups.push_back(summing_group("sum", state, 2));
      PipelineRunner runner(std::move(groups),
                            checkpointed_config(interval, batch),
                            policy_for(FaultAction::kRestartCopy));
      runner.set_packet_hook(support::make_fault_hook(
          support::parse_fault_plan("mid:throw@3,sum:throw@7")));
      RunOutcome outcome = runner.run_supervised();
      ASSERT_TRUE(outcome.ok()) << "batch " << batch << " interval "
                                << interval << ": " << outcome.stats.error;
      EXPECT_EQ(state->total, expected_total(96, 1))
          << "batch " << batch << " interval " << interval;
      EXPECT_EQ(outcome.stats.total_dropped_packets(), 0)
          << "batch " << batch << " interval " << interval;
    }
  }
}

TEST(FaultStress, SleepFaultsOnlyDelayTheRun) {
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 60, 2, 0));
  groups.push_back(addone_group("mid", 2, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 8);
  runner.set_packet_hook(support::make_fault_hook(
      support::parse_fault_plan("mid:sleep@~0.1=0.002", 5)));
  support::PipelineTrace stats = runner.run();
  EXPECT_EQ(state->values, expected_values(60, 1));
  EXPECT_TRUE(stats.faults.empty());  // sleeps are not failures
}

}  // namespace
}  // namespace cgp::dc
