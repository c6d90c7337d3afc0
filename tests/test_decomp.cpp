// Filter decomposition tests (§4.4): DP vs brute force, placements,
// properties on random instances.
#include <gtest/gtest.h>

#include "decomp/decompose.h"
#include "support/rng.h"

namespace cgp {
namespace {

DecompositionInput make_input(std::vector<double> tasks,
                              std::vector<double> volumes, double input_bytes,
                              int stages, double power = 100.0,
                              double bandwidth = 10.0) {
  DecompositionInput input;
  input.task_ops = std::move(tasks);
  input.boundary_bytes = std::move(volumes);
  input.input_bytes = input_bytes;
  input.env = EnvironmentSpec::uniform(stages, power, bandwidth);
  return input;
}

TEST(Decomp, PlacementCuts) {
  Placement p;
  p.unit_of_filter = {0, 0, 1, 2};
  std::vector<int> cuts = p.cuts(3);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0], 1);  // filters 0..1 before link 0
  EXPECT_EQ(cuts[1], 2);  // filters 0..2 before link 1
}

TEST(Decomp, AllOnLastStage) {
  Placement p;
  p.unit_of_filter = {2, 2};
  std::vector<int> cuts = p.cuts(3);
  EXPECT_EQ(cuts[0], -1);  // raw input crosses both links
  EXPECT_EQ(cuts[1], -1);
}

TEST(Decomp, DpPrefersDataNodeFilteringWhenVolumeShrinks) {
  // Filter 0 shrinks the data 10x: the DP should place it on stage 0.
  DecompositionInput input = make_input(
      /*tasks=*/{100.0, 100.0, 10.0},
      /*volumes=*/{100.0, 100.0, 10.0},
      /*input=*/1000.0, /*stages=*/3);
  DecompositionResult result = decompose_dp(input);
  EXPECT_EQ(result.placement.unit_of_filter[0], 0);
}

TEST(Decomp, DpForwardsEarlyWhenComputeCheapAndVolumesEqual) {
  // With equal volumes everywhere the chain latency is placement-invariant;
  // the DP must still produce a valid non-decreasing placement.
  DecompositionInput input = make_input({10, 10, 10}, {50, 50, 50}, 50.0, 3);
  DecompositionResult result = decompose_dp(input);
  int prev = 0;
  for (int unit : result.placement.unit_of_filter) {
    EXPECT_GE(unit, prev);
    prev = unit;
  }
}

TEST(Decomp, DpMatchesBruteForceOnLatency) {
  Rng rng(2003);
  for (int trial = 0; trial < 60; ++trial) {
    int n_filters = static_cast<int>(rng.next_int(1, 7));
    int stages = static_cast<int>(rng.next_int(2, 4));
    std::vector<double> tasks;
    std::vector<double> volumes;
    for (int i = 0; i < n_filters; ++i) {
      tasks.push_back(rng.next_double(1.0, 500.0));
      volumes.push_back(rng.next_double(1.0, 500.0));
    }
    DecompositionInput input =
        make_input(tasks, volumes, rng.next_double(1.0, 500.0), stages);
    DecompositionResult dp = decompose_dp(input);
    DecompositionResult brute =
        decompose_bruteforce(input, Objective::PerPacketLatency);
    EXPECT_NEAR(dp.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost))
        << "trial " << trial;
    // And the DP placement's evaluated latency matches its claimed cost.
    EXPECT_NEAR(placement_latency(input, dp.placement), dp.cost,
                1e-9 * std::max(1.0, dp.cost));
  }
}

TEST(Decomp, RollingSpaceVariantMatchesFullTable) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    int n_filters = static_cast<int>(rng.next_int(1, 9));
    int stages = static_cast<int>(rng.next_int(2, 5));
    std::vector<double> tasks;
    std::vector<double> volumes;
    for (int i = 0; i < n_filters; ++i) {
      tasks.push_back(rng.next_double(1.0, 100.0));
      volumes.push_back(rng.next_double(1.0, 100.0));
    }
    DecompositionInput input =
        make_input(tasks, volumes, rng.next_double(1.0, 100.0), stages);
    EXPECT_NEAR(decompose_dp(input).cost, decompose_dp_cost_only(input), 1e-9);
  }
}

TEST(Decomp, DpCellCountIsLinearInNM) {
  DecompositionInput input = make_input(std::vector<double>(10, 1.0),
                                        std::vector<double>(10, 1.0), 1.0, 4);
  DecompositionResult result = decompose_dp(input);
  // (n+1) filters x m units plus the init row.
  EXPECT_LE(result.cells_evaluated, 10u * 4u + 4u);
}

TEST(Decomp, HeterogeneousPowersRespected) {
  // Stage 1 is 100x faster: heavy filters should land there even at some
  // communication cost.
  DecompositionInput input;
  input.task_ops = {1000.0, 1000.0};
  input.boundary_bytes = {10.0, 10.0};
  input.input_bytes = 10.0;
  input.env.units = {ComputeUnit{"slow", 10.0, 1},
                     ComputeUnit{"fast", 1000.0, 1},
                     ComputeUnit{"slow2", 10.0, 1}};
  input.env.links = {Link{100.0, 0.0, 1}, Link{100.0, 0.0, 1}};
  DecompositionResult result = decompose_dp(input);
  EXPECT_EQ(result.placement.unit_of_filter[0], 1);
  EXPECT_EQ(result.placement.unit_of_filter[1], 1);
}

TEST(Decomp, Figure3VerbatimIgnoresInputMovement) {
  // With input_bytes = 0 (Figure 3 as printed) and huge input volume
  // otherwise, the optima differ: the corrected model pins filter 0 early.
  DecompositionInput corrected =
      make_input({10.0}, {1.0}, /*input=*/10000.0, 3);
  DecompositionInput verbatim = corrected;
  verbatim.input_bytes = 0.0;
  double cost_corrected = decompose_dp(corrected).cost;
  double cost_verbatim = decompose_dp(verbatim).cost;
  EXPECT_LT(cost_verbatim, cost_corrected);
}

TEST(Decomp, FullPipelineTimeUsesBottleneck) {
  DecompositionInput input = make_input({100.0, 100.0}, {10.0, 10.0}, 10.0, 3);
  Placement spread;
  spread.unit_of_filter = {0, 1};
  double t1 = full_pipeline_time(input, spread, 1);
  double t100 = full_pipeline_time(input, spread, 100);
  // Spread placement pipelines: cost grows by ~bottleneck per packet.
  EXPECT_GT(t100, t1);
  Placement stacked;
  stacked.unit_of_filter = {1, 1};
  // Stacking both filters doubles the bottleneck stage time.
  EXPECT_GT(full_pipeline_time(input, stacked, 100),
            full_pipeline_time(input, spread, 100));
}

TEST(Decomp, BruteForceFullObjectiveCanDisagreeWithLatency) {
  // A case where minimizing per-packet latency (the paper's DP objective)
  // differs from minimizing total pipeline time: splitting work across
  // stages halves the bottleneck even though latency is unchanged.
  DecompositionInput input = make_input({100.0, 100.0}, {10.0, 10.0}, 10.0, 3,
                                        /*power=*/100.0, /*bandwidth=*/1e9);
  DecompositionResult latency_opt =
      decompose_bruteforce(input, Objective::PerPacketLatency);
  DecompositionResult total_opt =
      decompose_bruteforce(input, Objective::PipelineTotal, 1000);
  double latency_total =
      full_pipeline_time(input, latency_opt.placement, 1000);
  double best_total = full_pipeline_time(input, total_opt.placement, 1000);
  EXPECT_LE(best_total, latency_total);
}

TEST(Decomp, DefaultPlacementAllOnCompute) {
  DecompositionInput input = make_input({1, 2, 3}, {1, 1, 1}, 1.0, 3);
  Placement def = default_placement(input);
  for (int unit : def.unit_of_filter) EXPECT_EQ(unit, 1);
}

// --- stage replication (ROADMAP item 1) ---

// Random instance with a replication surface: per-filter parallel flags,
// a replica budget, and a small per-replica overhead.
DecompositionInput make_replicated_input(Rng& rng, int max_replicas) {
  int n_filters = static_cast<int>(rng.next_int(1, 6));
  int stages = static_cast<int>(rng.next_int(2, 4));
  std::vector<double> tasks;
  std::vector<double> volumes;
  std::vector<char> flags;
  for (int i = 0; i < n_filters; ++i) {
    tasks.push_back(rng.next_double(1.0, 500.0));
    volumes.push_back(rng.next_double(1.0, 500.0));
    flags.push_back(rng.next_int(0, 2) != 0 ? 1 : 0);
  }
  DecompositionInput input =
      make_input(tasks, volumes, rng.next_double(1.0, 500.0), stages);
  input.parallelizable = std::move(flags);
  input.max_replicas = max_replicas;
  input.replication_overhead_sec = rng.next_double(0.0, 0.5);
  input.source_io_ops = rng.next_double(0.0, 200.0);
  return input;
}

TEST(Decomp, ReplicaPlanRespectsBudgetAndClassifier) {
  Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    const int budget = static_cast<int>(rng.next_int(2, 5));
    DecompositionInput input = make_replicated_input(rng, budget);
    DecompositionResult result = decompose_dp(input);
    const int stages = static_cast<int>(input.env.units.size());
    ASSERT_EQ(result.placement.replicas.size(),
              static_cast<std::size_t>(stages))
        << "trial " << trial;
    for (int s = 0; s < stages; ++s) {
      const int r = result.placement.replicas_of(s);
      EXPECT_GE(r, 1) << "trial " << trial;
      EXPECT_LE(r, budget) << "trial " << trial;
    }
    // The result stage merges replicas and stays singular.
    EXPECT_EQ(result.placement.replicas_of(stages - 1), 1)
        << "trial " << trial;
    // A stage hosting any sequential filter keeps one copy.
    for (std::size_t i = 0; i < input.task_ops.size(); ++i) {
      if (input.parallelizable[i]) continue;
      EXPECT_EQ(result.placement.replicas_of(
                    result.placement.unit_of_filter[i]),
                1)
          << "trial " << trial << " filter " << i;
    }
  }
}

TEST(Decomp, MaxReplicasOneReproducesLegacyExactly) {
  // With the budget at 1 the replicated table reduces to Figure 3's:
  // identical placement, bit-identical cost, and no replica plan.
  Rng rng(515);
  for (int trial = 0; trial < 60; ++trial) {
    DecompositionInput replicated = make_replicated_input(rng, 1);
    DecompositionInput legacy = replicated;
    legacy.parallelizable.clear();
    legacy.max_replicas = 1;
    legacy.replication_overhead_sec = 0.0;
    DecompositionResult a = decompose_dp(replicated);
    DecompositionResult b = decompose_dp(legacy);
    EXPECT_EQ(a.placement.unit_of_filter, b.placement.unit_of_filter)
        << "trial " << trial;
    EXPECT_EQ(a.cost, b.cost) << "trial " << trial;  // bit-for-bit
    EXPECT_TRUE(a.placement.replicas.empty()) << "trial " << trial;
    EXPECT_TRUE(a.placement == b.placement) << "trial " << trial;
  }
}

// Seeded R = 1 instance for the pinned DP values below. Every third one is
// a uniform pipeline; the others are the paper's 2-2-1 and 4-4-1 clusters,
// whose units carry copies > 1. Batching, checkpoint and replication
// overheads are all nonzero (replication must not matter at R = 1).
DecompositionInput pinned_dp_input(int trial) {
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(trial));
  DecompositionInput input;
  switch (trial % 3) {
    case 0:
      input.env = EnvironmentSpec::uniform(
          static_cast<int>(rng.next_int(2, 5)), rng.next_double(1e8, 1e9),
          rng.next_double(1e7, 1e8), rng.next_double(0.0, 5e-5));
      break;
    case 1:
      input.env = EnvironmentSpec::paper_cluster(2);
      break;
    default:
      input.env = EnvironmentSpec::paper_cluster(4);
      break;
  }
  const int n_filters = static_cast<int>(rng.next_int(1, 7));
  for (int i = 0; i < n_filters; ++i) {
    input.task_ops.push_back(rng.next_double(1e3, 1e6));
    input.boundary_bytes.push_back(rng.next_double(1e2, 1e6));
    input.parallelizable.push_back(rng.next_int(0, 1) ? 1 : 0);
  }
  input.input_bytes = rng.next_double(1e2, 1e6);
  input.source_io_ops = rng.next_double(0.0, 1e5);
  input.link_batch_overhead_sec = rng.next_double(1e-6, 1e-4);
  input.batch_size = static_cast<double>(rng.next_int(1, 16));
  input.checkpoint_snapshot_sec = rng.next_double(1e-6, 1e-3);
  input.checkpoint_interval = static_cast<double>(rng.next_int(1, 32));
  input.replication_overhead_sec = rng.next_double(0.0, 1e-4);
  input.max_replicas = 1;
  return input;
}

TEST(Decomp, UnreplicatedDpPinnedBitExact) {
  // Placements and costs of the R = 1 DP, written down as hex floats when
  // it still had its own unreplicated table; the replicated table serving
  // R = 1 must reproduce every bit, full table and rolling grid alike.
  struct Pin {
    const char* placement;
    double cost;
  };
  const Pin pins[] = {
      {"[f1->C1 f2->C2 f3->C2]", 0x1.6a53226986cb6p-10},
      {"[f1->C1 f2->C1 f3->C1 f4->C1 f5->C1 f6->C1]", 0x1.734b138180244p-8},
      {"[f1->C1 f2->C1]", 0x1.94b7edc13a79dp-10},
      {"[f1->C1 f2->C1 f3->C4]", 0x1.ee0e135b22669p-6},
      {"[f1->C1 f2->C1 f3->C1 f4->C1 f5->C1 f6->C1]", 0x1.08f69f41a7488p-7},
      {"[f1->C3 f2->C3 f3->C3]", 0x1.e7b1f017f3477p-8},
      {"[f1->C2 f2->C2]", 0x1.0e8f4677f721ep-6},
      {"[f1->C1 f2->C1 f3->C3 f4->C3 f5->C3]", 0x1.6e60862eb38b2p-7},
      {"[f1->C3]", 0x1.84b3af071875cp-7},
      {"[f1->C1 f2->C1 f3->C5 f4->C5 f5->C5 f6->C5]", 0x1.5a4e7be00018p-7},
      {"[f1->C1 f2->C3 f3->C3 f4->C3]", 0x1.4b1f24355418fp-7},
      {"[f1->C1 f2->C1 f3->C1 f4->C1 f5->C1 f6->C1]", 0x1.b590d8623d98fp-7},
      {"[f1->C1]", 0x1.61b215d62d11ep-8},
      {"[f1->C3 f2->C3 f3->C3]", 0x1.11b4bac2f5484p-8},
      {"[f1->C1 f2->C1 f3->C3 f4->C3 f5->C3 f6->C3]", 0x1.abc70c7664059p-7},
      {"[f1->C1 f2->C1 f3->C4 f4->C4]", 0x1.09f2294c092edp-4},
      {"[f1->C1 f2->C1 f3->C1 f4->C1 f5->C1 f6->C2 f7->C2]",
       0x1.4880c16f0d0c4p-7},
      {"[f1->C1 f2->C3 f3->C3 f4->C3]", 0x1.2384389177d97p-7},
  };
  for (int trial = 0; trial < static_cast<int>(std::size(pins)); ++trial) {
    const DecompositionInput input = pinned_dp_input(trial);
    const DecompositionResult result = decompose_dp(input);
    EXPECT_EQ(result.placement.to_string(), pins[trial].placement)
        << "trial " << trial;
    EXPECT_TRUE(result.placement.replicas.empty()) << "trial " << trial;
    EXPECT_EQ(result.cost, pins[trial].cost) << "trial " << trial;
    EXPECT_EQ(decompose_dp_cost_only(input), pins[trial].cost)
        << "trial " << trial;
  }
}

TEST(Decomp, ReplicatedDpMatchesBruteForceOnLatency) {
  Rng rng(8080);
  for (int trial = 0; trial < 60; ++trial) {
    const int budget = static_cast<int>(rng.next_int(2, 4));
    DecompositionInput input = make_replicated_input(rng, budget);
    DecompositionResult dp = decompose_dp(input);
    DecompositionResult brute =
        decompose_bruteforce(input, Objective::PerPacketLatency);
    EXPECT_NEAR(dp.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost))
        << "trial " << trial << " dp=" << dp.placement.to_string()
        << " brute=" << brute.placement.to_string();
    EXPECT_NEAR(placement_latency(input, dp.placement), dp.cost,
                1e-9 * std::max(1.0, dp.cost))
        << "trial " << trial;
  }
}

TEST(Decomp, ReplicatedRollingVariantMatchesFullTable) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int budget = static_cast<int>(rng.next_int(2, 5));
    DecompositionInput input = make_replicated_input(rng, budget);
    EXPECT_NEAR(decompose_dp(input).cost, decompose_dp_cost_only(input), 1e-9)
        << "trial " << trial;
  }
}

TEST(Decomp, ReplicationBudgetNeverWorsensTheOptimum) {
  // r = 1 everywhere is always in the enlarged search space, so the
  // replicated optimum can only match or beat the legacy one.
  Rng rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    DecompositionInput input = make_replicated_input(rng, 4);
    DecompositionInput legacy = input;
    legacy.max_replicas = 1;
    EXPECT_LE(decompose_dp(input).cost,
              decompose_dp(legacy).cost + 1e-12)
        << "trial " << trial;
  }
}

TEST(Decomp, HotStatelessStageGetsReplicated) {
  // One heavy parallel filter dominates the pipeline; with cheap links and
  // negligible replication overhead the DP must spend the budget on it.
  DecompositionInput input = make_input(/*tasks=*/{10.0, 2000.0, 10.0},
                                        /*volumes=*/{8.0, 8.0, 8.0},
                                        /*input=*/8.0, /*stages=*/3,
                                        /*power=*/100.0,
                                        /*bandwidth=*/1e9);
  input.parallelizable = {1, 1, 1};
  input.max_replicas = 4;
  input.replication_overhead_sec = 1e-6;
  DecompositionResult result = decompose_dp(input);
  bool replicated = false;
  for (std::size_t i = 0; i < input.task_ops.size(); ++i) {
    if (input.task_ops[i] < 1000.0) continue;
    replicated = result.placement.replicas_of(
                     result.placement.unit_of_filter[i]) > 1;
  }
  EXPECT_TRUE(replicated) << result.placement.to_string();
  EXPECT_LT(result.cost, decompose_dp([&] {
              DecompositionInput one = input;
              one.max_replicas = 1;
              return one;
            }()).cost);
}

TEST(Decomp, ReplicatedBruteForceAgreesOnTotalObjective) {
  // The total-time objective (what the compiler ships) also enumerates
  // replica plans; its optimum is never worse than the unreplicated one
  // and respects the classifier.
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const int budget = static_cast<int>(rng.next_int(2, 4));
    DecompositionInput input = make_replicated_input(rng, budget);
    DecompositionInput legacy = input;
    legacy.max_replicas = 1;
    DecompositionResult best =
        decompose_bruteforce(input, Objective::PipelineTotal, 64);
    DecompositionResult base =
        decompose_bruteforce(legacy, Objective::PipelineTotal, 64);
    EXPECT_LE(best.cost, base.cost + 1e-12) << "trial " << trial;
    for (std::size_t i = 0; i < input.task_ops.size(); ++i) {
      if (input.parallelizable[i]) continue;
      EXPECT_EQ(best.placement.replicas_of(best.placement.unit_of_filter[i]),
                1)
          << "trial " << trial;
    }
  }
}

TEST(Decomp, SingleStagePipeline) {
  DecompositionInput input = make_input({5.0, 5.0}, {1.0, 1.0}, 1.0, 1);
  // m = 1: everything on the only unit; no links.
  input.env = EnvironmentSpec::uniform(1, 100.0, 1.0);
  DecompositionResult result = decompose_dp(input);
  EXPECT_EQ(result.placement.unit_of_filter[0], 0);
  EXPECT_EQ(result.placement.unit_of_filter[1], 0);
  EXPECT_NEAR(result.cost, 0.1, 1e-12);
}

}  // namespace
}  // namespace cgp
