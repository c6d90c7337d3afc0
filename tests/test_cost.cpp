// Cost model tests (§4.3): volumes, op counts, pipeline time formulas,
// and the per-backend transport cost fold (docs/PERFORMANCE.md).
#include <gtest/gtest.h>

#include "apps/app_configs.h"
#include "cost/environment.h"
#include "cost/opcount.h"
#include "cost/volume.h"
#include "decomp/decompose.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

TEST(Environment, UniformFactory) {
  EnvironmentSpec env = EnvironmentSpec::uniform(4, 1e9, 1e8);
  EXPECT_TRUE(env.valid());
  EXPECT_EQ(env.stages(), 4);
  EXPECT_EQ(env.links.size(), 3u);
}

TEST(Environment, PaperClusterWidths) {
  for (int width : {1, 2, 4}) {
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(width);
    EXPECT_TRUE(env.valid());
    EXPECT_EQ(env.units[0].copies, width);
    EXPECT_EQ(env.units[1].copies, width);
    EXPECT_EQ(env.units[2].copies, 1);
    EXPECT_EQ(env.links[0].lanes, width);
  }
}

TEST(Environment, CostPrimitives) {
  ComputeUnit unit{"u", 100.0, 2};
  EXPECT_DOUBLE_EQ(cost_comp(unit, 400.0), 2.0);  // 400 ops / (100*2)
  Link link{50.0, 0.5, 1};
  EXPECT_DOUBLE_EQ(cost_comm(link, 100.0), 2.5);
}

TEST(Environment, PipelineTotalTimeFormula) {
  // (N-1) * bottleneck + full traversal (§4.3 formulas 1/2).
  std::vector<double> units = {1.0, 3.0, 2.0};
  std::vector<double> links = {0.5, 0.5};
  double total = pipeline_total_time(10, units, links);
  EXPECT_DOUBLE_EQ(total, 9.0 * 3.0 + (1.0 + 3.0 + 2.0 + 0.5 + 0.5));
}

TEST(Environment, LinkBottleneck) {
  std::vector<double> units = {1.0, 1.0};
  std::vector<double> links = {5.0};
  EXPECT_DOUBLE_EQ(pipeline_total_time(3, units, links), 2.0 * 5.0 + 7.0);
}

TEST(Environment, ZeroPacketsIsZero) {
  EXPECT_DOUBLE_EQ(pipeline_total_time(0, {1.0}, {}), 0.0);
}

// ---------------------------------------------------------------------------
// Volume
// ---------------------------------------------------------------------------

TEST(Volume, ScalarSizes) {
  ClassRegistry registry;
  SizeEnv sizes(registry);
  ValueSet set;
  set.add(ValueId{"x", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  set.add(ValueId{"y", {}},
          ValueEntry{Type::primitive(PrimKind::Double), {}});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 12.0);
}

TEST(Volume, SectionedElements) {
  ClassRegistry registry;
  SizeEnv sizes(registry);
  ValueSet set;
  set.add(ValueId{"a", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(0), SymPoly(99))});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 400.0);
}

TEST(Volume, SymbolicSectionNeedsBinding) {
  ClassRegistry registry;
  SizeEnv sizes(registry);
  ValueSet set;
  set.add(ValueId{"a", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(0),
                                       SymPoly::symbol("n") - 1)});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 4.0);  // default extent 1
  sizes.bind("n", 50);
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 200.0);
}

TEST(Volume, WholeCollectionUsesLength) {
  ClassRegistry registry;
  SizeEnv sizes(registry);
  sizes.bind_length("xs", 32);
  ValueSet set;
  set.add(ValueId{"xs", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Double), {}});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 256.0);
}

TEST(Volume, ClassPayload) {
  ClassRegistry registry;
  ClassInfo cube;
  cube.name = "Cube";
  for (int i = 0; i < 11; ++i) {
    cube.fields.push_back(
        FieldInfo{"f" + std::to_string(i), Type::primitive(PrimKind::Float), i});
  }
  registry.add(cube);
  SizeEnv sizes(registry);
  ValueSet set;
  set.add(ValueId{"c", {kElemStep}},
          ValueEntry{Type::class_type("Cube"),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 440.0);  // 10 cubes x 44 bytes
}

TEST(Volume, NormalizationAvoidsDoubleCounting) {
  ClassRegistry registry;
  ClassInfo p;
  p.name = "P";
  p.fields.push_back(FieldInfo{"v", Type::primitive(PrimKind::Float), 0});
  registry.add(p);
  SizeEnv sizes(registry);
  ValueSet set;
  set.add(ValueId{"c", {kElemStep}},
          ValueEntry{Type::class_type("P"),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  set.add(ValueId{"c", {kElemStep, "v"}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  EXPECT_DOUBLE_EQ(sizes.bytes_of(set), 40.0);  // counted once
}

// ---------------------------------------------------------------------------
// Op counting
// ---------------------------------------------------------------------------

struct CountFixture {
  std::unique_ptr<Program> program;
  ClassRegistry registry;
  const MethodDecl* method = nullptr;
};

CountFixture prepare(std::string_view source) {
  CountFixture f;
  DiagnosticEngine diags;
  f.program = Parser::parse(source, diags);
  Sema sema(*f.program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  f.registry = std::move(result.registry);
  f.method = f.registry.find("A")->find_method("f");
  return f;
}

std::vector<const Stmt*> stmts_of(const CountFixture& f) {
  std::vector<const Stmt*> out;
  for (const StmtPtr& s : f.method->body->statements) out.push_back(s.get());
  return out;
}

TEST(OpCount, LoopMultipliesBody) {
  CountFixture f = prepare(R"(
    class A {
      void f(double[] xs) {
        foreach (i in [0 : 99]) {
          xs[i] = xs[i] * 2.0;
        }
      }
    }
  )");
  SizeEnv sizes(f.registry);
  OpCounter counter(f.registry, sizes);
  OpCounts counts = counter.count_stmts(stmts_of(f));
  // 100 iterations, each with a float multiply.
  EXPECT_GE(counts.float_ops, 100.0);
  EXPECT_GE(counts.mem_ops, 200.0);
  EXPECT_GE(counts.total(), 500.0);
}

TEST(OpCount, SymbolicBoundsUseBindings) {
  CountFixture f = prepare(R"(
    class A {
      void f(double[] xs, int n) {
        foreach (i in [0 : n - 1]) {
          xs[i] = 1.0;
        }
      }
    }
  )");
  SizeEnv sizes(f.registry);
  sizes.bind("n", 1000);
  OpCounter counter(f.registry, sizes);
  OpCounts counts = counter.count_stmts(stmts_of(f));
  EXPECT_GE(counts.mem_ops, 1000.0);

  SizeEnv unbound(f.registry);
  OpCounter fallback(f.registry, unbound);
  EXPECT_LT(fallback.count_stmts(stmts_of(f)).total(), counts.total());
}

TEST(OpCount, ConditionalWeightedBySelectivity) {
  CountFixture f = prepare(R"(
    class A {
      void f(double[] xs) {
        foreach (i in [0 : 99]) {
          if (xs[i] > 0.5) {
            xs[i] = xs[i] * 2.0;
          }
        }
      }
    }
  )");
  SizeEnv sizes(f.registry);
  OpCountOptions half;
  half.branch_selectivity = 0.5;
  OpCountOptions tenth;
  tenth.branch_selectivity = 0.1;
  OpCounts c_half = OpCounter(f.registry, sizes, half).count_stmts(stmts_of(f));
  OpCounts c_tenth =
      OpCounter(f.registry, sizes, tenth).count_stmts(stmts_of(f));
  EXPECT_GT(c_half.total(), c_tenth.total());
}

TEST(TransportCost, SpecOrderingAcrossBackends) {
  const TransportCostSpec thread = transport_cost_spec("thread");
  const TransportCostSpec proc = transport_cost_spec("proc");
  // The thread backend moves pointers: the paper's free-link model.
  EXPECT_EQ(thread.ops_per_byte, 0.0);
  EXPECT_EQ(thread.ops_per_frame, 0.0);
  // Crossing a process boundary costs real work in both terms.
  EXPECT_GT(proc.ops_per_byte, 0.0);
  EXPECT_GT(proc.ops_per_frame, 0.0);
  // Unknown names degrade to the zero-cost spec instead of throwing.
  EXPECT_EQ(transport_cost_spec("mpi").ops_per_byte, 0.0);
}

TEST(TransportCost, BackendFoldsIntoLinkModel) {
  const apps::AppConfig config = apps::tiny_config(256, 8);
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  CompileResult compiled = compile_pipeline(config.source, options);
  ASSERT_TRUE(compiled.ok) << compiled.diagnostics;

  DecompositionInput inputs[2];
  const char* backends[2] = {"thread", "proc"};
  for (int i = 0; i < 2; ++i) {
    options.backend = backends[i];
    inputs[i] =
        make_decomposition_input(compiled.model, options.env, options);
  }
  // thread leaves the environment untouched; proc degrades every link's
  // effective bandwidth and adds latency.
  for (std::size_t k = 0; k < inputs[0].env.links.size(); ++k) {
    EXPECT_DOUBLE_EQ(inputs[0].env.links[k].bandwidth_bytes_per_sec,
                     options.env.links[k].bandwidth_bytes_per_sec);
    EXPECT_DOUBLE_EQ(inputs[0].env.links[k].latency_sec,
                     options.env.links[k].latency_sec);
    EXPECT_LT(inputs[1].env.links[k].bandwidth_bytes_per_sec,
              inputs[0].env.links[k].bandwidth_bytes_per_sec);
    EXPECT_GT(inputs[1].env.links[k].latency_sec,
              inputs[0].env.links[k].latency_sec);
  }
  // A placement that crosses links therefore costs more on the heavier
  // substrate: thread < proc.
  const Placement baseline = default_placement(inputs[0]);
  const double t_thread =
      full_pipeline_time(inputs[0], baseline, options.n_packets);
  const double t_proc =
      full_pipeline_time(inputs[1], baseline, options.n_packets);
  EXPECT_LT(t_thread, t_proc);
}

TEST(TransportCost, BatchingAmortizesFrameOverhead) {
  const apps::AppConfig config = apps::tiny_config(256, 8);
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.backend = "proc";
  CompileResult compiled = compile_pipeline(config.source, options);
  ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
  options.batch_size = 1;
  const DecompositionInput unbatched =
      make_decomposition_input(compiled.model, options.env, options);
  options.batch_size = 16;
  const DecompositionInput batched =
      make_decomposition_input(compiled.model, options.env, options);
  for (std::size_t k = 0; k < unbatched.env.links.size(); ++k) {
    // The per-frame term is per enqueue: coalescing 16 packets into one
    // frame divides it by 16. The per-byte term is batch-invariant.
    EXPECT_LT(batched.env.links[k].latency_sec,
              unbatched.env.links[k].latency_sec);
    EXPECT_DOUBLE_EQ(batched.env.links[k].bandwidth_bytes_per_sec,
                     unbatched.env.links[k].bandwidth_bytes_per_sec);
  }
}

TEST(OpCount, CallsCountedInterprocedurally) {
  CountFixture f = prepare(R"(
    class A {
      double heavy(double v) {
        double acc = v;
        foreach (i in [0 : 9]) { acc = acc * 1.01; }
        return acc;
      }
      void f(double[] xs) {
        foreach (i in [0 : 9]) {
          xs[i] = heavy(xs[i]);
        }
      }
    }
  )");
  SizeEnv sizes(f.registry);
  OpCounter counter(f.registry, sizes);
  OpCounts counts = counter.count_stmts(stmts_of(f));
  // 10 outer x 10 inner multiplies at least.
  EXPECT_GE(counts.float_ops, 100.0);
}

TEST(OpCount, IntrinsicLatencies) {
  CountFixture f = prepare(R"(
    class A {
      void f(double v) {
        double a = sqrt(v);
        double b = v + 1.0;
      }
    }
  )");
  SizeEnv sizes(f.registry);
  OpCounter counter(f.registry, sizes);
  OpCounts counts = counter.count_stmts(stmts_of(f));
  EXPECT_GE(counts.float_ops, 15.0);  // sqrt latency table
}

}  // namespace
}  // namespace cgp
