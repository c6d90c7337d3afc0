// Application end-to-end tests: the four paper applications compile, run
// under Decomp and Default placements at all widths, and agree with the
// sequential oracle; manual pipelines agree with compiled ones.
#include <gtest/gtest.h>

#include "apps/app_configs.h"
#include "apps/manual_filters.h"
#include "codegen/interp.h"
#include "codegen/serialize.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct Oracle {
  std::map<std::string, Value> values;
};

Oracle run_sequential(const apps::AppConfig& config, const std::string& cls) {
  DiagnosticEngine diags;
  auto program = Parser::parse(config.source, diags);
  Sema sema(*program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  Interpreter interp(result.registry, config.runtime_constants);
  Env env = interp.run(cls, "main");
  return Oracle{env.flatten()};
}

CompileResult compile_app(const apps::AppConfig& config, int width = 1) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(width);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  CompileResult result = compile_pipeline(config.source, options);
  EXPECT_TRUE(result.ok) << config.name << ": " << result.diagnostics;
  return result;
}

void expect_close(const Value& a, const Value& b, const std::string& what) {
  EXPECT_TRUE(value_equal(a, b, 1e-6)) << what << ": " << value_to_string(a)
                                       << " vs " << value_to_string(b);
}

class AppsTest : public ::testing::TestWithParam<int> {};

TEST(Apps, IsosurfaceZbufferMatchesOracle) {
  apps::AppConfig config = apps::isosurface_zbuffer_config(false);
  Oracle oracle = run_sequential(config, "IsoZBuffer");
  CompileResult result = compile_app(config);
  EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  for (const Placement& placement :
       {result.decomposition.placement, result.baseline}) {
    PipelineRunResult run = result.make_runner(placement, env).run();
    expect_close(run.finals.at("checksum"), oracle.values.at("checksum"),
                 config.name + " checksum " + placement.to_string());
    expect_close(run.finals.at("lit"), oracle.values.at("lit"),
                 config.name + " lit");
  }
}

TEST(Apps, IsosurfaceActivePixelsMatchesOracle) {
  apps::AppConfig config = apps::isosurface_active_pixels_config(false);
  Oracle oracle = run_sequential(config, "IsoActivePixels");
  CompileResult result = compile_app(config);
  EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  for (const Placement& placement :
       {result.decomposition.placement, result.baseline}) {
    PipelineRunResult run = result.make_runner(placement, env).run();
    expect_close(run.finals.at("checksum"), oracle.values.at("checksum"),
                 config.name + " checksum " + placement.to_string());
    expect_close(run.finals.at("lit"), oracle.values.at("lit"),
                 config.name + " lit");
  }
}

TEST(Apps, KnnMatchesOracle) {
  for (std::int64_t k : {3, 200}) {
    apps::AppConfig config = apps::knn_config(k);
    Oracle oracle = run_sequential(config, "Knn");
    CompileResult result = compile_app(config);
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
    PipelineRunResult run =
        result.make_runner(result.decomposition.placement, env).run();
    expect_close(run.finals.at("kth"), oracle.values.at("kth"),
                 config.name + " kth");
    expect_close(run.finals.at("dsum"), oracle.values.at("dsum"),
                 config.name + " dsum");
  }
}

TEST(Apps, KnnBruteForceOracle) {
  // Independent native verification of the k-nearest result.
  apps::AppConfig config = apps::knn_config(3);
  Oracle oracle = run_sequential(config, "Knn");
  const auto& c = config.runtime_constants;
  const std::int64_t npoints = c.at("runtime_define_num_points");
  const double qx = c.at("runtime_define_qx_mille") * 0.001;
  const double qy = c.at("runtime_define_qy_mille") * 0.001;
  const double qz = c.at("runtime_define_qz_mille") * 0.001;
  std::vector<double> dists;
  std::int64_t seed = 123456789;
  for (std::int64_t i = 0; i < npoints; ++i) {
    double coord[3];
    for (int d = 0; d < 3; ++d) {
      seed = (seed * 1103515245 + 12345) % 2147483647;
      coord[d] = static_cast<float>(static_cast<double>(seed % 10000) * 0.0001);
    }
    const double dx = static_cast<float>(coord[0]) - static_cast<float>(qx);
    const double dy = coord[1] - static_cast<float>(qy);
    const double dz = coord[2] - static_cast<float>(qz);
    dists.push_back(static_cast<float>(dx * dx + dy * dy + dz * dz));
  }
  std::sort(dists.begin(), dists.end());
  const double kth_expected = dists[2];
  EXPECT_NEAR(as_double(oracle.values.at("kth")), kth_expected,
              1e-6 * std::max(1.0, kth_expected));
}

TEST(Apps, VmscopeMatchesOracle) {
  for (bool large : {false, true}) {
    apps::AppConfig config = apps::vmscope_config(large);
    Oracle oracle = run_sequential(config, "VMScope");
    CompileResult result = compile_app(config);
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
    for (const Placement& placement :
         {result.decomposition.placement, result.baseline}) {
      PipelineRunResult run = result.make_runner(placement, env).run();
      expect_close(run.finals.at("total"), oracle.values.at("total"),
                   config.name + " total " + placement.to_string());
      expect_close(run.finals.at("filled"), oracle.values.at("filled"),
                   config.name + " filled");
    }
  }
}

TEST(Apps, WidthsPreserveResults) {
  apps::AppConfig config = apps::knn_config(3);
  Oracle oracle = run_sequential(config, "Knn");
  for (int width : {2, 4}) {
    CompileResult result = compile_app(config, width);
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(width);
    PipelineRunResult run =
        result.make_runner(result.decomposition.placement, env).run();
    expect_close(run.finals.at("kth"), oracle.values.at("kth"),
                 "knn width " + std::to_string(width));
  }
}

TEST(Apps, ManualKnnMatchesCompiled) {
  apps::AppConfig config = apps::knn_config(3);
  Oracle oracle = run_sequential(config, "Knn");
  EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  PipelineRunResult manual = apps::run_knn_manual(config.runtime_constants, env);
  expect_close(manual.finals.at("kth"), oracle.values.at("kth"), "manual kth");
  expect_close(manual.finals.at("dsum"), oracle.values.at("dsum"),
               "manual dsum");
}

TEST(Apps, ManualVmscopeMatchesCompiled) {
  for (bool large : {false, true}) {
    apps::AppConfig config = apps::vmscope_config(large);
    Oracle oracle = run_sequential(config, "VMScope");
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
    PipelineRunResult manual =
        apps::run_vmscope_manual(config.runtime_constants, env);
    expect_close(manual.finals.at("total"), oracle.values.at("total"),
                 config.name + " manual total");
    expect_close(manual.finals.at("filled"), oracle.values.at("filled"),
                 config.name + " manual filled");
  }
}

TEST(Apps, DecompReducesLinkVolume) {
  // The headline mechanism: compiler decomposition reduces bytes on the
  // data->compute link versus the Default forward-everything version.
  for (apps::AppConfig config :
       {apps::isosurface_zbuffer_config(false), apps::knn_config(3)}) {
    CompileResult result = compile_app(config);
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
    PipelineRunResult decomp =
        result.make_runner(result.decomposition.placement, env).run();
    PipelineRunResult fallback =
        result.make_runner(result.baseline, env).run();
    EXPECT_LT(decomp.link_packet_bytes[0], fallback.link_packet_bytes[0])
        << config.name;
  }
}

TEST(Apps, OpCountsArePinned) {
  // Exact op counts of every paper app: the sequential oracle's total and,
  // per stage of the width-1 DP placement, the measured packet and
  // end-of-run (replica merge) ops. The simulated figures in EXPERIMENTS.md
  // are computed from these counts, so any change to how the interpreter
  // executes or charges code must leave them bit-identical.
  struct Pinned {
    apps::AppConfig config;
    std::string main_class;
    double oracle_ops;
    std::vector<double> stage_ops;
    std::vector<double> replica_ops;
  };
  const std::vector<Pinned> pinned = {
      {apps::tiny_config(4096, 16), "Tiny", 0x1.e8efp+16,
       {0x1.de34p+16, 0.0, 0x1.924p+12}, {0x1.984p+8, 0.0, 0x1.7p+3}},
      {apps::isosurface_zbuffer_config(false), "IsoZBuffer", 0x1.860a2ap+25,
       {0x1.1df68p+22, 0x1.fcef08p+21, 0x1.1d571p+21}, {0.0, 0.0, 0x1.803dp+15}},
      {apps::isosurface_active_pixels_config(false), "IsoActivePixels", 0x1.6da09b8p+25,
       {0x1.7756cp+21, 0x1.70e77p+20, 0x1.4677c8p+21}, {0.0, 0.0, 0x1.803dp+15}},
      {apps::knn_config(3), "Knn", 0x1.27a9edp+22,
       {0x1.f195ep+20, 0x1.36bbfp+19, 0x1.2f6p+13}, {0.0, 0x1.a34p+8, 0x1.7dp+8}},
      {apps::vmscope_config(false), "VMScope", 0x1.599086p+23,
       {0x1.217ap+18, 0.0, 0x1.255p+19}, {0.0, 0.0, 0x1.0e078p+16}},
  };
  for (const Pinned& p : pinned) {
    DiagnosticEngine diags;
    auto program = Parser::parse(p.config.source, diags);
    SemaResult sema = Sema(*program, diags).run();
    ASSERT_TRUE(sema.ok) << diags.render();
    Interpreter interp(sema.registry, p.config.runtime_constants);
    interp.run(p.main_class, "main");
    EXPECT_EQ(interp.ops(), p.oracle_ops) << p.config.name;

    CompileResult result = compile_app(p.config);
    PipelineRunResult run =
        result.make_runner(result.decomposition.placement, EnvironmentSpec::paper_cluster(1))
            .run();
    EXPECT_EQ(run.stage_ops, p.stage_ops) << p.config.name;
    EXPECT_EQ(run.stage_replica_ops, p.replica_ops) << p.config.name;
  }
}

}  // namespace
}  // namespace cgp
