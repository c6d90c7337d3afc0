// Driver facade tests: full compile flow, diagnostics, decomposition
// artifacts, simulate bridge, failure injection — plus CLI-surface tests
// that spawn the real cgpc binary (CGPC_BINARY, injected by CMake).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "apps/app_configs.h"
#include "driver/compiler.h"
#include "driver/simulate.h"

namespace cgp {
namespace {

CompileOptions options_for(const apps::AppConfig& config, int width = 1) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(width);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  return options;
}

TEST(Driver, ParseErrorSurfaces) {
  CompileResult result = compile_pipeline("class {", CompileOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics.find("parser"), std::string::npos);
}

TEST(Driver, SemaErrorSurfaces) {
  CompileResult result = compile_pipeline(
      "class A { void main() { x = 1; } }", CompileOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics.find("sema"), std::string::npos);
}

TEST(Driver, MissingPipelinedLoopSurfaces) {
  CompileResult result = compile_pipeline(
      "class A { void main() { int x = 1; } }", CompileOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics.find("no PipelinedLoop"), std::string::npos);
}

TEST(Driver, ProducesBothDecompositions) {
  apps::AppConfig config = apps::tiny_config(256, 8);
  CompileResult result = compile_pipeline(config.source, options_for(config));
  ASSERT_TRUE(result.ok) << result.diagnostics;
  EXPECT_EQ(result.dp_figure3.placement.unit_of_filter.size(),
            result.model.filters.size());
  EXPECT_EQ(result.decomposition.placement.unit_of_filter.size(),
            result.model.filters.size());
  // The total-time optimum is never worse than the latency-DP placement
  // when evaluated on the total-time objective.
  double dp_total = full_pipeline_time(result.decomp_input,
                                       result.dp_figure3.placement, 8);
  double opt_total = full_pipeline_time(result.decomp_input,
                                        result.decomposition.placement, 8);
  EXPECT_LE(opt_total, dp_total + 1e-12);
}

TEST(Driver, DecompInputDimensions) {
  apps::AppConfig config = apps::knn_config(3);
  CompileResult result = compile_pipeline(config.source, options_for(config));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.decomp_input.task_ops.size(), result.model.filters.size());
  EXPECT_EQ(result.decomp_input.boundary_bytes.size(),
            result.model.filters.size());
  EXPECT_GT(result.decomp_input.input_bytes, 0.0);
  EXPECT_GT(result.decomp_input.source_io_ops, 0.0);
  EXPECT_EQ(result.decomp_input.updates_reduction.size(),
            result.model.filters.size());
  // knn updates the KnnResult reduction: replica estimates must be set.
  EXPECT_GT(result.decomp_input.replica_payload_bytes, 0.0);
  EXPECT_GT(result.decomp_input.replica_merge_ops, 0.0);
}

TEST(Driver, ReductionEpilogueGrowsWithEarlierPlacement) {
  apps::AppConfig config = apps::tiny_config(256, 8);
  CompileResult result = compile_pipeline(config.source, options_for(config, 4));
  ASSERT_TRUE(result.ok);
  // Placing the reduction-updating filter on stage 0 (4 copies, 2 hops)
  // must cost at least as much epilogue as on the last stage (none).
  Placement early;
  early.unit_of_filter.assign(result.model.filters.size(), 0);
  Placement late;
  late.unit_of_filter.assign(result.model.filters.size(), 2);
  double epi_early = reduction_epilogue_time(result.decomp_input, early);
  double epi_late = reduction_epilogue_time(result.decomp_input, late);
  EXPECT_GT(epi_early, 0.0);
  EXPECT_DOUBLE_EQ(epi_late, 0.0);
}

TEST(Driver, InvalidPlacementArityThrows) {
  apps::AppConfig config = apps::tiny_config(64, 4);
  CompileResult result = compile_pipeline(config.source, options_for(config));
  ASSERT_TRUE(result.ok);
  Placement bogus;
  bogus.unit_of_filter = {0};  // wrong arity
  EXPECT_THROW(result.make_runner(bogus, EnvironmentSpec::paper_cluster(1)),
               std::invalid_argument);
}

TEST(Driver, FissionToggle) {
  apps::AppConfig config = apps::isosurface_zbuffer_config(false);
  CompileOptions with = options_for(config);
  CompileOptions without = options_for(config);
  without.apply_fission = false;
  CompileResult fissioned = compile_pipeline(config.source, with);
  CompileResult plain = compile_pipeline(config.source, without);
  ASSERT_TRUE(fissioned.ok);
  ASSERT_TRUE(plain.ok);
  // Fission exposes more candidate boundaries.
  EXPECT_GT(fissioned.model.filters.size(), plain.model.filters.size());
}

TEST(Driver, SimulateBridge) {
  apps::AppConfig config = apps::tiny_config(512, 8);
  CompileResult result = compile_pipeline(config.source, options_for(config, 2));
  ASSERT_TRUE(result.ok);
  EnvironmentSpec env = EnvironmentSpec::paper_cluster(2);
  PipelineRunResult run =
      result.make_runner(result.decomposition.placement, env).run();
  SimResult sim = simulate_run_full(run, env);
  EXPECT_GT(sim.total_time, 0.0);
  EXPECT_FALSE(sim.bottleneck_name.empty());
  // Epilogue split: per-copy ops are totals / copies.
  SimEpilogue epilogue = make_epilogue(run, env);
  ASSERT_EQ(epilogue.per_copy_stage_ops.size(), 3u);
  EXPECT_DOUBLE_EQ(epilogue.per_copy_stage_ops[1] * env.units[1].copies,
                   run.stage_replica_ops[1]);
}

TEST(Driver, WiderEnvironmentSimulatesFaster) {
  apps::AppConfig config = apps::knn_config(3);
  double previous = 1e30;
  for (int width : {1, 2, 4}) {
    CompileResult result =
        compile_pipeline(config.source, options_for(config, width));
    ASSERT_TRUE(result.ok);
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(width);
    PipelineRunResult run =
        result.make_runner(result.decomposition.placement, env).run();
    double t = simulate_run(run, env);
    EXPECT_LT(t, previous * 1.02) << "width " << width;  // monotone-ish
    previous = t;
  }
}

// ---- cgpc CLI surface -----------------------------------------------------

struct CliResult {
  int status = -1;        // process exit code, or -1 on abnormal exit
  std::string output;     // stdout + stderr, interleaved
};

/// Runs the real cgpc binary with `args` appended, capturing both output
/// streams and the exit code.
CliResult run_cgpc(const std::string& args) {
  CliResult result;
  const std::string command = std::string(CGPC_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (!pipe) return result;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0)
    result.output.append(chunk, n);
  const int raw = pclose(pipe);
  if (raw >= 0 && WIFEXITED(raw)) result.status = WEXITSTATUS(raw);
  return result;
}

class CgpcCli : public ::testing::Test {
 protected:
  // Per process: ctest runs each test of the suite in its own process,
  // in parallel, and every process removes its file at teardown.
  static inline const std::string kSourcePath =
      "cgp_driver_cli_tiny_" + std::to_string(::getpid()) + ".cgp";

  static void SetUpTestSuite() {
    std::ofstream out(kSourcePath);
    out << apps::tiny_config(64, 8).source;
  }
  static void TearDownTestSuite() { std::remove(kSourcePath.c_str()); }

  /// --define/--bind arguments matching an app's configuration (by
  /// default the tiny app's).
  static std::string binding_args(
      const apps::AppConfig& config = apps::tiny_config(64, 8)) {
    std::string args;
    // Quoted: binding names like "len(values)" are shell metacharacters.
    for (const auto& [name, value] : config.runtime_constants)
      args += " --define '" + name + "=" + std::to_string(value) + "'";
    for (const auto& [name, value] : config.size_bindings)
      args += " --bind '" + name + "=" + std::to_string(value) + "'";
    return args;
  }
};

TEST_F(CgpcCli, UnknownBackendRejected) {
  for (const char* name : {"mpi", "tcp"}) {
    const CliResult r =
        run_cgpc(std::string(kSourcePath) + " --backend=" + name);
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("unknown backend '" + std::string(name) +
                            "' (thread | proc)"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CgpcCli, ProcBackendRejectsFaultInject) {
  const CliResult r = run_cgpc(std::string(kSourcePath) +
                               " --backend=proc --fault-inject=stage1:throw@5");
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find("--fault-inject"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--backend=proc"), std::string::npos) << r.output;
}

TEST_F(CgpcCli, ProcStageTimeoutRequiresHeartbeat) {
  // No longer a hard conflict: --stage-timeout is legal on the process
  // backend, but only with heartbeats (that is where the supervisor
  // samples worker progress from). Without --heartbeat-ms it exits 2 with
  // a diagnostic naming the cure.
  const CliResult r = run_cgpc(std::string(kSourcePath) +
                               " --backend=proc --stage-timeout=2");
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find("--stage-timeout"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--heartbeat-ms"), std::string::npos) << r.output;
}

TEST_F(CgpcCli, ConflictsReportedTogetherInFlagOrder) {
  const CliResult r = run_cgpc(std::string(kSourcePath) +
                               " --backend=proc --fault-seed=7 "
                               "--fault-inject=stage0:throw@1");
  EXPECT_EQ(r.status, 2) << r.output;
  // One diagnostic per conflicting option, in command-line order.
  const std::size_t seed_at = r.output.find("--fault-seed");
  const std::size_t inject_at = r.output.find("--fault-inject");
  EXPECT_NE(seed_at, std::string::npos) << r.output;
  EXPECT_NE(inject_at, std::string::npos) << r.output;
  EXPECT_LT(seed_at, inject_at) << r.output;
}

TEST_F(CgpcCli, WorkerRestartsRejectsGarbage) {
  for (const char* bad : {"--worker-restarts=two", "--worker-restarts=-1",
                          "--worker-restarts="}) {
    const CliResult r =
        run_cgpc(std::string(kSourcePath) + " --backend=proc " + bad);
    EXPECT_EQ(r.status, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("--worker-restarts expects an integer"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CgpcCli, HeartbeatMsRejectsGarbage) {
  for (const char* bad :
       {"--heartbeat-ms=fast", "--heartbeat-ms=0", "--heartbeat-ms=2.5"}) {
    const CliResult r =
        run_cgpc(std::string(kSourcePath) + " --backend=proc " + bad);
    EXPECT_EQ(r.status, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("--heartbeat-ms expects an integer"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CgpcCli, TeardownGraceMsRejectsGarbage) {
  const CliResult r = run_cgpc(std::string(kSourcePath) +
                               " --backend=proc --teardown-grace-ms=-5");
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find("--teardown-grace-ms expects an integer"),
            std::string::npos)
      << r.output;
}

TEST_F(CgpcCli, ProcBackendRunsPipelineEndToEnd) {
  const CliResult r = run_cgpc(std::string(kSourcePath) + binding_args() +
                               " --backend=proc --run --packets 8");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("ran 8 packets"), std::string::npos) << r.output;
  // The group-state codec must fold worker-side telemetry back into the
  // supervisor's result: a zero byte count on the first link would mean
  // the forked source's counters were dropped.
  EXPECT_NE(r.output.find("link 0:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("link 0: 0 packet bytes"), std::string::npos)
      << r.output;
}

TEST_F(CgpcCli, AnalysisPrintsSourceSetupVerdict) {
  const CliResult tiny =
      run_cgpc(std::string(kSourcePath) + binding_args() + " --analysis");
  EXPECT_EQ(tiny.status, 0) << tiny.output;
  const std::size_t input_at = tiny.output.find("  input ");
  const std::size_t verdict_at = tiny.output.find(
      "\nsource setup: partitioned fill of data over "
      "[p*psize:p*psize + psize - 1]\n");
  EXPECT_NE(input_at, std::string::npos) << tiny.output;
  EXPECT_NE(verdict_at, std::string::npos) << tiny.output;
  EXPECT_LT(input_at, verdict_at) << tiny.output;

  const apps::AppConfig knn = apps::knn_config(3);
  const std::string knn_path =
      "cgp_driver_cli_knn_" + std::to_string(::getpid()) + ".cgp";
  std::ofstream(knn_path) << knn.source;
  const CliResult whole =
      run_cgpc(knn_path + binding_args(knn) + " --analysis");
  std::remove(knn_path.c_str());
  EXPECT_EQ(whole.status, 0) << whole.output;
  EXPECT_NE(whole.output.find(
                "\nsource setup: whole (pts is filled by a for loop carrying "
                "seed)\n"),
            std::string::npos)
      << whole.output;
}

}  // namespace
}  // namespace cgp
