// Cross-module integration scenarios beyond the paper's four applications:
// nested classes crossing boundaries, longer and heterogeneous pipelines,
// fission interacting with end-to-end execution, failure injection.
#include <gtest/gtest.h>

#include "codegen/emitter.h"
#include "codegen/interp.h"
#include "driver/compiler.h"
#include "support/faultinject.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

std::map<std::string, Value> run_sequential(
    const std::string& source,
    const std::map<std::string, std::int64_t>& constants,
    const std::string& cls) {
  DiagnosticEngine diags;
  auto program = Parser::parse(source, diags);
  Sema sema(*program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  Interpreter interp(result.registry, constants);
  Env env = interp.run(cls, "main");
  return env.flatten();
}

CompileResult compile_ok(const std::string& source, CompileOptions options) {
  CompileResult result = compile_pipeline(source, options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  return result;
}

TEST(Integration, NestedClassFieldsCrossBoundaries) {
  // Elements whose communicated fields live in a NESTED class: the packing
  // planner must expand Particle -> pos.x / pos.y / charge and rebuild the
  // nested skeletons on the receiving side.
  const std::string source = R"(
interface Reducinterface { }
class Vec { float x; float y; }
class Particle { Vec pos; float charge; }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    Particle[] ps = new Particle[n];
    foreach (i in [0 : n - 1]) {
      Particle q = new Particle();
      Vec v = new Vec();
      v.x = i * 0.5;
      v.y = i * 0.25;
      q.pos = v;
      q.charge = 1.0 + i % 3;
      ps[i] = q;
    }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] vals = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        Particle q = ps[i];
        vals[i - base] = q.pos.x * q.charge + q.pos.y;
      }
      foreach (j in [0 : psize - 1]) {
        acc.add(vals[j]);
      }
    }
    double result = acc.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 256}, {"runtime_define_num_packets", 8}};
  auto oracle = run_sequential(source, constants, "App");
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 256}, {"psize", 32}, {"base", 0}};
  options.n_packets = 8;
  CompileResult result = compile_ok(source, options);

  // Force a placement that communicates the particle fields: everything on
  // the compute stage.
  PipelineRunResult run =
      result.make_runner(result.baseline, options.env).run();
  EXPECT_NEAR(as_double(run.finals.at("result")),
              as_double(oracle.at("result")), 1e-6);
}

TEST(Integration, FiveStageHeterogeneousPipeline) {
  // The model is not limited to data->compute->view: five stages with
  // heterogeneous powers, the middle one 10x faster.
  const std::string source = R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = i * 0.125; }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] a = new double[psize];
      foreach (i in [base : base + psize - 1]) { a[i - base] = data[i] * 2.0; }
      double[] b = new double[psize];
      foreach (j in [0 : psize - 1]) {
        double v = a[j];
        for (int k = 0; k < 32; k++) { v = v * 1.01 + 0.1; }
        b[j] = v;
      }
      double[] c = new double[psize];
      foreach (j in [0 : psize - 1]) { c[j] = b[j] + 1.0; }
      foreach (j in [0 : psize - 1]) { acc.add(c[j]); }
    }
    double result = acc.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 512}, {"runtime_define_num_packets", 8}};
  auto oracle = run_sequential(source, constants, "App");

  CompileOptions options;
  options.env.units = {ComputeUnit{"data", 100e6, 1},
                       ComputeUnit{"edge", 200e6, 1},
                       ComputeUnit{"hpc", 2000e6, 2},
                       ComputeUnit{"edge2", 200e6, 1},
                       ComputeUnit{"desktop", 100e6, 1}};
  options.env.links.assign(4, Link{50e6, 20e-6, 1});
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 512}, {"psize", 64}, {"base", 0}, {"k", 0}};
  options.n_packets = 8;
  CompileResult result = compile_ok(source, options);

  // The heavy middle foreach must land on the fast unit.
  const std::vector<int>& units = result.decomposition.placement.unit_of_filter;
  bool heavy_on_hpc = false;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (result.decomp_input.task_ops[i] ==
        *std::max_element(result.decomp_input.task_ops.begin(),
                          result.decomp_input.task_ops.end())) {
      heavy_on_hpc = units[i] == 2;
    }
  }
  EXPECT_TRUE(heavy_on_hpc) << result.decomposition.placement.to_string();

  PipelineRunResult run =
      result.make_runner(result.decomposition.placement, options.env).run();
  EXPECT_NEAR(as_double(run.finals.at("result")),
              as_double(oracle.at("result")), 1e-6);
}

TEST(Integration, FissionedLoopRunsDecomposedAtWidth) {
  // A foreach whose body mixes calls and conditionals: fission splits it,
  // scalar expansion carries the temps, and the decomposed pipeline still
  // matches the sequential oracle at width 2.
  const std::string source = R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  double boost(double v) { return v * 1.5 + 0.25; }
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = i * 0.2; }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] out = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        double t = data[i] + 1.0;
        double u = boost(t);
        if (u > 10.0) {
          u = u - 5.0;
        }
        out[i - base] = u + t;
      }
      foreach (j in [0 : psize - 1]) { acc.add(out[j]); }
    }
    double result = acc.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 512}, {"runtime_define_num_packets", 8}};
  auto oracle = run_sequential(source, constants, "App");

  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(2);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 512}, {"psize", 64}, {"base", 0}};
  options.n_packets = 8;
  CompileResult result = compile_ok(source, options);
  // Fission split the mixed foreach: more than 3 atomic filters.
  EXPECT_GT(result.model.filters.size(), 3u);

  for (const Placement& placement :
       {result.decomposition.placement, result.baseline}) {
    PipelineRunResult run = result.make_runner(placement, options.env).run();
    EXPECT_NEAR(as_double(run.finals.at("result")),
                as_double(oracle.at("result")), 1e-6)
        << placement.to_string();
  }
}

TEST(Integration, TwoReductionVariables) {
  // Two independent reduction objects updated in different filters: both
  // replicate, cascade and merge correctly.
  const std::string source = R"(
interface Reducinterface { }
class Sum implements Reducinterface {
  double total;
  Sum() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Sum other) { total = total + other.total; }
}
class MaxVal implements Reducinterface {
  double best;
  MaxVal() { best = -1.0e30; }
  void offer(double v) { if (v > best) { best = v; } }
  void merge(MaxVal other) { offer(other.best); }
}
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = (i * 37 % 101) * 0.5; }
    Sum sum = new Sum();
    MaxVal peak = new MaxVal();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] sq = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        sq[i - base] = data[i] * data[i];
        sum.add(data[i]);
      }
      foreach (j in [0 : psize - 1]) {
        peak.offer(sq[j]);
      }
    }
    double total = sum.total;
    double best = peak.best;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 256}, {"runtime_define_num_packets", 8}};
  auto oracle = run_sequential(source, constants, "App");
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(2);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 256}, {"psize", 32}, {"base", 0}};
  options.n_packets = 8;
  CompileResult result = compile_ok(source, options);
  EXPECT_EQ(result.model.reduction_decls.size(), 2u);

  PipelineRunResult run =
      result.make_runner(result.decomposition.placement, options.env).run();
  EXPECT_NEAR(as_double(run.finals.at("total")),
              as_double(oracle.at("total")), 1e-6);
  EXPECT_NEAR(as_double(run.finals.at("best")),
              as_double(oracle.at("best")), 1e-6);
}

TEST(Integration, NoReductionProgramStillWorks) {
  // §8: "applications that do not involve generalized reductions" — a
  // transform-only pipeline whose result is carried to the sink as packet
  // data (the last packet's carry provides the post-loop values).
  const std::string source = R"(
interface Reducinterface { }
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = i * 1.0; }
    double last = 0.0;
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] out = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        out[i - base] = data[i] * 3.0;
      }
      last = out[psize - 1];
    }
    double result = last;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 64}, {"runtime_define_num_packets", 4}};
  auto oracle = run_sequential(source, constants, "App");
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 64}, {"psize", 16}, {"base", 0}};
  options.n_packets = 4;
  CompileResult result = compile_ok(source, options);
  EXPECT_TRUE(result.model.reduction_decls.empty());
  // Sequential packet order means "last" is well-defined only because the
  // runtime preserves per-copy packet order and width is 1.
  PipelineRunResult run =
      result.make_runner(result.baseline, options.env).run();
  EXPECT_NEAR(as_double(run.finals.at("result")),
              as_double(oracle.at("result")), 1e-6);
}

TEST(Integration, RuntimeErrorInFilterPropagates) {
  // Failure injection: a divide-by-zero inside a filter must surface as an
  // exception from the pipeline run, not a hang or silent corruption.
  const std::string source = R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    int[] data = new int[n];
    foreach (i in [0 : n - 1]) { data[i] = i; }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      foreach (i in [base : base + psize - 1]) {
        acc.add(100 / data[i] * 1.0);
      }
    }
    double result = acc.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 16}, {"runtime_define_num_packets", 4}};
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = constants;
  options.n_packets = 4;
  CompileResult result = compile_ok(source, options);
  EXPECT_THROW(result.make_runner(result.baseline, options.env).run(),
               InterpError);
}

TEST(Integration, CompiledPipelineRecoversFromInjectedFaultUnderRestartCopy) {
  // Fault tolerance end-to-end through the compiled path: an injected
  // throw-on-Nth-packet in the source stage under restart-copy must leave
  // the final reduction identical to the sequential oracle, with the fault
  // and retry surfaced in the run result. (The source is the right target:
  // it restarts by deterministic re-compute with already-delivered packets
  // suppressed. Stages carrying reduction replica state lose their partial
  // accumulation on restart — see docs/ROBUSTNESS.md.)
  const std::string source = R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  void main() {
    int n = runtime_define_n;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = i * 0.5 + 1.0; }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] vals = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        vals[i - base] = data[i] * 2.0;
      }
      foreach (j in [0 : psize - 1]) {
        acc.add(vals[j]);
      }
    }
    double result = acc.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_n", 128}, {"runtime_define_num_packets", 8}};
  auto oracle = run_sequential(source, constants, "App");
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 128}, {"psize", 16}, {"base", 0}};
  options.n_packets = 8;
  CompileResult result = compile_ok(source, options);

  PipelineCompiler compiler = result.make_runner(result.baseline, options.env);
  dc::FaultPolicy policy;
  policy.action = dc::FaultAction::kRestartCopy;
  policy.backoff_initial_seconds = 1e-4;
  compiler.set_fault_policy(policy);
  compiler.set_packet_hook(
      support::make_fault_hook(support::parse_fault_plan("stage0:throw@2")));
  PipelineRunResult run = compiler.run();
  EXPECT_TRUE(run.completed) << run.error;
  EXPECT_NEAR(as_double(run.finals.at("result")),
              as_double(oracle.at("result")), 1e-6);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].group, "stage0");
  EXPECT_EQ(run.faults[0].resolution, support::FaultResolution::kRetried);
  EXPECT_EQ(run.fault_policy, "restart-copy");
  // The trace carries the fault surface end to end.
  const support::PipelineTrace& trace = run;
  EXPECT_TRUE(trace.completed);
  ASSERT_EQ(trace.faults.size(), 1u);
}

TEST(Integration, PassthroughForwardsUntouchedCollectionVerbatim) {
  // A middle stage that consumes `sq` but merely relays `raw` to a later
  // consumer: the compiler must plan a passthrough route for `raw` (copied
  // bytes-for-bytes, never unpacked into Values) and the run must still
  // match the sequential oracle exactly. The boundary into the forwarding
  // stage packs `raw` field-wise (later consumer) while the boundary out
  // of it packs instance-wise (immediate consumer), so this also exercises
  // the single-item flag-byte patch.
  const std::string source = R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class App {
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) {
      data[i] = i * 0.5;
    }
    Acc acc = new Acc();
    Acc acc2 = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] sq = new double[psize];
      double[] raw = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        sq[i - base] = data[i] * data[i];
        raw[i - base] = data[i] + 1.0;
      }
      foreach (j in [0 : psize - 1]) {
        acc.add(sq[j]);
      }
      foreach (j in [0 : psize - 1]) {
        acc2.add(raw[j]);
      }
    }
    double result = acc.total + acc2.total;
  }
}
)";
  std::map<std::string, std::int64_t> constants = {
      {"runtime_define_num_items", 4096},
      {"runtime_define_num_packets", 16}};
  auto oracle = run_sequential(source, constants, "App");
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(4);
  options.runtime_constants = constants;
  options.size_bindings = {{"n", 4096},        {"npackets", 16},
                           {"psize", 256},     {"base", 0},
                           {"len(data)", 4096}, {"len(sq)", 256},
                           {"len(raw)", 256}};
  options.n_packets = 16;
  CompileResult result = compile_ok(source, options);

  // Spread the consumers over the middle stages: the sq-consumer on stage
  // 1 sees raw pass through, the raw-consumer on stage 2 drains it.
  Placement placement = result.decomposition.placement;
  const int n_filters = static_cast<int>(result.model.filters.size());
  ASSERT_GE(n_filters, 3);
  placement.unit_of_filter.assign(static_cast<std::size_t>(n_filters), 0);
  placement.unit_of_filter[static_cast<std::size_t>(n_filters - 2)] = 1;
  placement.unit_of_filter[static_cast<std::size_t>(n_filters - 1)] = 2;
  placement.replicas.clear();

  PipelineCompiler runner = result.make_runner(placement, options.env);
  const StagePlan& forwarder = runner.plans()[1];
  ASSERT_EQ(forwarder.passthrough.size(), 1u);
  const StagePlan::PassthroughRoute& route = forwarder.passthrough[0];
  EXPECT_EQ(forwarder.output_layout
                .groups[static_cast<std::size_t>(route.out_group)]
                .collection,
            "raw");
  EXPECT_TRUE(route.patch_flag);  // field-wise in, instance-wise out

  // The emitted DataCutter source documents the route instead of a repack.
  const std::string code = emit_datacutter_source(result.model, runner.plans());
  EXPECT_NE(code.find("zero-copy passthrough for 'raw'"), std::string::npos);
  EXPECT_NE(code.find("layout flag byte patched"), std::string::npos);
  EXPECT_NE(code.find("PackedView::parse"), std::string::npos);

  PipelineRunResult run = runner.run();
  // Exact equality: single-copy execution is deterministic and the
  // passthrough bytes are the sender's bytes.
  EXPECT_EQ(as_double(run.finals.at("result")),
            as_double(oracle.at("result")));
}

}  // namespace
}  // namespace cgp
