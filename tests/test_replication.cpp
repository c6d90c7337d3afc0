// Replicated-stage stress tests (ROADMAP item 1): hand-built pipelines
// whose middle stage runs several transparent copies, driven hard under
// fault injection and restarts. The ReplicationStress_* cases are the CI
// replication job's until-fail targets (Release + TSan, repeated): a race
// between competing copies — a double-pop, a lost in-flight packet during
// a copy restart, a replica merge that drops a contribution — shows up as
// a multiset mismatch or a sanitizer report.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "datacutter/buffer.h"
#include "datacutter/runner.h"
#include "support/faultinject.h"

namespace cgp::dc {
namespace {

FaultPolicy policy_for(FaultAction action, int max_retries = 3) {
  FaultPolicy policy;
  policy.action = action;
  policy.max_retries = max_retries;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  return policy;
}

class CountingSource : public Filter {
 public:
  explicit CountingSource(int n) : n_(n) {}
  void process(FilterContext& ctx) override {
    for (int i = 0; i < n_; ++i) {
      // Round-robin domain split across transparent copies — the scheme
      // the compiler emits for a replicated data host.
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b;
      b.write<std::int64_t>(i);
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
      Buffer out;
      out.write<std::int64_t>(v + 1);
      ctx.emit(std::move(out));
    }
  }
  bool snapshot_state(Buffer&) override { return true; }  // stateless
};

struct SinkState {
  std::mutex mutex;
  std::multiset<std::int64_t> values;
};

class CollectingSink : public Filter {
 public:
  explicit CollectingSink(std::shared_ptr<SinkState> state)
      : state_(std::move(state)) {}
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const std::int64_t v = b->read<std::int64_t>();
      std::lock_guard lock(state_->mutex);
      state_->values.insert(v);
    }
  }

 private:
  std::shared_ptr<SinkState> state_;
};

FilterGroup source_group(const char* name, int n, int copies, int stage) {
  return {name, [n] { return std::make_unique<CountingSource>(n); }, copies,
          stage};
}
FilterGroup addone_group(const char* name, int copies, int stage) {
  return {name, [] { return std::make_unique<AddOne>(); }, copies, stage};
}
FilterGroup sink_group(const char* name, std::shared_ptr<SinkState> state,
                       int stage) {
  return {name, [state] { return std::make_unique<CollectingSink>(state); },
          1, stage};
}

std::multiset<std::int64_t> expected_values(int n, std::int64_t offset) {
  std::multiset<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.insert(i + offset);
  return out;
}

TEST(ReplicationStress, ReplicatedWorkerDeliversExactMultiset) {
  // source -> 4-copy worker -> sink: the copies compete for input packets
  // on the shared stream; every packet must surface exactly once.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 512, 1, 0));
  groups.push_back(addone_group("mid", 4, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 4);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(512, 1));
  ASSERT_EQ(outcome.stats.stage_replicas.size(), 3u);
  EXPECT_EQ(outcome.stats.stage_replicas[1], 4);
}

TEST(ReplicationStress, RoundRobinSourcesCoverTheDomain) {
  // A replicated data host splits the packet domain round-robin; nothing
  // may be emitted twice or skipped, even through a replicated middle.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 384, 4, 0));
  groups.push_back(addone_group("mid", 2, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 2);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(384, 1));
}

TEST(ReplicationStress, FaultedReplicaRestartsWithoutLoss) {
  // Positional fault counters are per copy: every competing copy that
  // reaches its own 7th packet throws under restart-copy, and the
  // supervisor replays each in-flight packet on the restarted instance
  // while the siblings keep draining the stream.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 256, 1, 0));
  groups.push_back(addone_group("mid", 4, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kRestartCopy));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@7")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(256, 1));
  ASSERT_GE(outcome.stats.faults.size(), 1u);
  for (const support::FaultRecord& fault : outcome.stats.faults) {
    EXPECT_EQ(fault.group, "mid");
  }
  EXPECT_EQ(outcome.stats.total_dropped_packets(), 0);
}

TEST(ReplicationStress, RepeatedFaultsAcrossReplicasAllRecover) {
  // A refiring positional fault hits every restarted copy at its own
  // packet 3 — several copies take hits over the run, and each replayed
  // packet must still surface exactly once.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 320, 1, 0));
  groups.push_back(addone_group("mid", 3, 1));
  groups.push_back(sink_group("sink", state, 2));
  PipelineRunner runner(std::move(groups), 4,
                        policy_for(FaultAction::kRestartCopy, 8));
  runner.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("mid:throw@3!")));
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(320, 1));
  EXPECT_GE(outcome.stats.total_retries(), 1);
}

TEST(ReplicationStress, TwoReplicatedStagesBackToBack) {
  // Two adjacent replicated stages with a tight stream between them: the
  // narrow capacity forces constant producer/consumer contention among
  // all copies on both ends.
  auto state = std::make_shared<SinkState>();
  std::vector<FilterGroup> groups;
  groups.push_back(source_group("src", 512, 2, 0));
  groups.push_back(addone_group("mid1", 4, 1));
  groups.push_back(addone_group("mid2", 4, 2));
  groups.push_back(sink_group("sink", state, 3));
  PipelineRunner runner(std::move(groups), 1);
  RunOutcome outcome = runner.run_supervised();
  ASSERT_TRUE(outcome.ok()) << outcome.stats.error;
  EXPECT_EQ(state->values, expected_values(512, 2));
}

}  // namespace
}  // namespace cgp::dc
