// Tests of the benchmark's own arithmetic (src/bench_math.h).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "apps/app_configs.h"
#include "bench_math.h"
#include "codegen/interp.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(64), 50.0);   // 6.4 beyond p90
  EXPECT_EQ(highest_supported_percentile(100), 90.0);  // exactly 10 beyond
  EXPECT_EQ(highest_supported_percentile(199), 90.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Percentile, LinearBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90), 10.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 90), 1.9);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Matching, ExactForFifoOrder) {
  // One copy per stage: packets arrive in emission order.
  const std::vector<double> lat = match_latencies({0.0, 1.0, 2.0}, {2.2, 0.5, 1.7});
  ASSERT_EQ(lat.size(), 3u);
  EXPECT_DOUBLE_EQ(lat[0], 0.5);
  EXPECT_DOUBLE_EQ(lat[1], 0.7);
  EXPECT_NEAR(lat[2], 0.2, 1e-12);
}

TEST(Matching, MeanPreservingForInterleavedCopies) {
  // Two source copies; packet 1 (emitted at 1.0) overtakes packet 0
  // (emitted at 0.0) through a faster replica. True latencies: 5.0, 1.5,
  // 2.0, 3.0.
  const std::vector<double> emits = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> arrivals = {5.0, 2.5, 4.0, 6.0};
  const double true_mean = (5.0 + 1.5 + 2.0 + 3.0) / 4.0;
  const std::vector<double> lat = match_latencies(emits, arrivals);
  ASSERT_EQ(lat.size(), 4u);
  EXPECT_DOUBLE_EQ(std::accumulate(lat.begin(), lat.end(), 0.0) / 4.0, true_mean);
  EXPECT_DOUBLE_EQ(lat[0], 2.5);  // crossed pair: 2.5 - 0.0
}

TEST(Matching, IgnoresUnmatchedStamps) {
  EXPECT_EQ(match_latencies({0.0, 1.0, 2.0}, {0.5}).size(), 1u);
}

TEST(Period, GapsBetweenSinkArrivals) {
  const std::vector<double> gaps = arrival_gaps({3.0, 1.0, 2.0, 6.0});
  ASSERT_EQ(gaps.size(), 3u);  // the first arrival opens no gap
  EXPECT_DOUBLE_EQ(gaps[0], 1.0);
  EXPECT_DOUBLE_EQ(gaps[1], 1.0);
  EXPECT_DOUBLE_EQ(gaps[2], 3.0);
  EXPECT_DOUBLE_EQ(median(gaps), 1.0);
  EXPECT_TRUE(arrival_gaps({4.0}).empty());
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {"run", -1, 1, 0.0, 10.0},
      {"stage0", 0, 1, 1.0, 4.0},
      {"stage1", 0, 1, 3.0, 6.0},   // overlaps stage0
      {"drain", 0, 1, 8.0, 12.0},   // clipped to the parent
      {"inner", 1, 1, 2.0, 3.0},
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);  // covered: [1,6] and [8,10]
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, NestedChildInsideAnother) {
  const std::vector<Span> spans = {
      {"run", -1, 1, 0.0, 4.0},
      {"a", 0, 1, 0.5, 3.5},
      {"b", 0, 1, 1.0, 2.0},  // inside a
  };
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 1.0);
}

class OracleCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    const cgp::apps::AppConfig config = cgp::apps::tiny_config(256, 8);
    cgp::DiagnosticEngine diags;
    auto program = cgp::Parser::parse(config.source, diags);
    cgp::SemaResult sema = cgp::Sema(*program, diags).run();
    ASSERT_TRUE(sema.ok) << diags.render();
    cgp::Interpreter interp(sema.registry, config.runtime_constants);
    oracle_ = interp.run("Tiny", "main").flatten();

    cgp::CompileOptions options;
    options.runtime_constants = config.runtime_constants;
    options.size_bindings = config.size_bindings;
    options.n_packets = config.n_packets;
    const cgp::CompileResult compiled = cgp::compile_pipeline(config.source, options);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
    finals_ = compiled
                  .make_runner(compiled.decomposition.placement,
                               cgp::EnvironmentSpec::paper_cluster(1))
                  .run()
                  .finals;
    ASSERT_TRUE(finals_.count("result"));
  }

  std::map<std::string, cgp::Value> oracle_;
  std::map<std::string, cgp::Value> finals_;
};

TEST_F(OracleCheck, MatchingRunPasses) {
  EXPECT_TRUE(compare_exact(finals_, oracle_).ok);
  EXPECT_TRUE(compare_structural(finals_, oracle_, {"result"}, 1e-9).ok);
}

TEST_F(OracleCheck, PerturbedFinalIsDetected) {
  double& result = std::get<double>(finals_["result"]);
  result = std::nextafter(result, 1e300);  // one ulp off
  const Verdict exact = compare_exact(finals_, oracle_);
  EXPECT_FALSE(exact.ok);
  EXPECT_NE(exact.detail.find("result"), std::string::npos) << exact.detail;
  // Within tolerance structurally, but not once perturbed beyond it.
  EXPECT_TRUE(compare_structural(finals_, oracle_, {"result"}, 1e-9).ok);
  result *= 1.001;
  EXPECT_FALSE(compare_structural(finals_, oracle_, {"result"}, 1e-9).ok);
}

TEST_F(OracleCheck, SkippedAndMissingNames) {
  finals_["result"] = cgp::Value{std::int64_t{7}};
  EXPECT_TRUE(compare_exact(finals_, oracle_, {"result"}).ok);
  EXPECT_FALSE(compare_structural(finals_, oracle_, {"no_such_final"}, 0.0).ok);
  EXPECT_FALSE(compare_exact({}, oracle_).ok);
}

}  // namespace
}  // namespace perfbench
