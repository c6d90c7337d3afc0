// Property-based tests (parameterized sweeps) over the compiler's core
// invariants:
//   * SymPoly ring axioms on random polynomials;
//   * §4.2's boundary-skip invariant: ReqComm computed through a boundary
//     equals ReqComm computed across merged segments, on generated
//     programs;
//   * DP optimality vs brute force across (n, m) grids;
//   * codec round-trips across element counts and section shapes;
//   * end-to-end result equality across all placements x widths.
#include <gtest/gtest.h>

#include "analysis/gencons.h"
#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/packing.h"
#include "decomp/decompose.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"
#include "support/rng.h"

namespace cgp {
namespace {

// ---------------------------------------------------------------------------
// SymPoly ring axioms
// ---------------------------------------------------------------------------

class SymPolyProperty : public ::testing::TestWithParam<std::uint64_t> {};

SymPoly random_poly(Rng& rng, int depth = 0) {
  switch (rng.next_below(depth > 2 ? 2 : 5)) {
    case 0:
      return SymPoly(rng.next_int(-9, 9));
    case 1: {
      const char* symbols[] = {"x", "y", "z", "n"};
      return SymPoly::symbol(symbols[rng.next_below(4)]);
    }
    case 2:
      return random_poly(rng, depth + 1) + random_poly(rng, depth + 1);
    case 3:
      return random_poly(rng, depth + 1) - random_poly(rng, depth + 1);
    default:
      return random_poly(rng, depth + 1) * random_poly(rng, depth + 1);
  }
}

TEST_P(SymPolyProperty, RingAxiomsAndEvalHomomorphism) {
  Rng rng(GetParam());
  SymPoly a = random_poly(rng);
  SymPoly b = random_poly(rng);
  SymPoly c = random_poly(rng);

  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_TRUE((a - a).is_zero());
  EXPECT_EQ(a + SymPoly(0), a);
  EXPECT_EQ(a * SymPoly(1), a);

  // Evaluation is a ring homomorphism.
  std::map<std::string, std::int64_t> env = {
      {"x", rng.next_int(-5, 5)},
      {"y", rng.next_int(-5, 5)},
      {"z", rng.next_int(-5, 5)},
      {"n", rng.next_int(-5, 5)},
  };
  auto ev = [&](const SymPoly& p) { return *p.evaluate(env); };
  EXPECT_EQ(ev(a + b), ev(a) + ev(b));
  EXPECT_EQ(ev(a * b), ev(a) * ev(b));
  EXPECT_EQ(ev(a - c), ev(a) - ev(c));

  // Substitution commutes with evaluation.
  SymPoly substituted = a.substitute("x", b);
  std::map<std::string, std::int64_t> env2 = env;
  env2["x"] = ev(b);
  EXPECT_EQ(*substituted.evaluate(env), *a.evaluate(env2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymPolyProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// §4.2 boundary-skip invariant on generated programs
// ---------------------------------------------------------------------------

class ReqCommSkipProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Generates a straight-line sequence of foreach stages with random
/// producer/consumer wiring over a pool of arrays.
std::string random_stage_program(Rng& rng, int stages) {
  std::string body;
  int n_arrays = 3 + static_cast<int>(rng.next_below(3));
  for (int a = 0; a < n_arrays; ++a) {
    body += "    double[] v" + std::to_string(a) + " = new double[n];\n";
  }
  for (int s = 0; s < stages; ++s) {
    int dst = static_cast<int>(rng.next_below(n_arrays));
    int src1 = static_cast<int>(rng.next_below(n_arrays));
    int src2 = static_cast<int>(rng.next_below(n_arrays));
    body += "    foreach (i in [0 : n - 1]) {\n";
    body += "      v" + std::to_string(dst) + "[i] = v" +
            std::to_string(src1) + "[i] * 1.5 + v" + std::to_string(src2) +
            "[i];\n";
    body += "    }\n";
  }
  return "class A {\n  void f(int n, double[] out) {\n" + body +
         "    foreach (i in [0 : n - 1]) { out[i] = v0[i]; }\n  }\n}\n";
}

TEST_P(ReqCommSkipProperty, MergedSegmentsGiveSameReqComm) {
  Rng rng(GetParam());
  const int stages = 2 + static_cast<int>(rng.next_below(4));
  std::string source = random_stage_program(rng, stages);
  DiagnosticEngine diags;
  auto program = Parser::parse(source, diags);
  Sema sema(*program, diags);
  SemaResult sr = sema.run();
  ASSERT_TRUE(sr.ok) << diags.render() << "\n" << source;

  const MethodDecl* method = sr.registry.find("A")->find_method("f");
  std::vector<const Stmt*> stmts;
  for (const StmtPtr& s : method->body->statements) stmts.push_back(s.get());

  GenConsAnalyzer analyzer(sr.registry, diags);
  // Final needs: `out` whole.
  ValueSet final_needs;
  final_needs.add(ValueId{"out", {kElemStep}},
                  ValueEntry{Type::primitive(PrimKind::Double), std::nullopt});

  // Propagate ReqComm per-statement (every boundary selected)...
  ValueSet per_stmt = final_needs;
  for (auto it = stmts.rbegin(); it != stmts.rend(); ++it) {
    SegmentSets sets = analyzer.analyze_segment({*it});
    per_stmt = ValueSet::req_comm(per_stmt, sets.gen, sets.cons);
  }
  // ...and with a random subset of boundaries (merged segments).
  ValueSet merged = final_needs;
  std::size_t index = stmts.size();
  while (index > 0) {
    std::size_t take = 1 + rng.next_below(3);
    std::size_t begin = index > take ? index - take : 0;
    std::vector<const Stmt*> segment(stmts.begin() +
                                         static_cast<std::ptrdiff_t>(begin),
                                     stmts.begin() +
                                         static_cast<std::ptrdiff_t>(index));
    SegmentSets sets = analyzer.analyze_segment(segment);
    merged = ValueSet::req_comm(merged, sets.gen, sets.cons);
    index = begin;
  }
  EXPECT_EQ(per_stmt.to_string(), merged.to_string()) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReqCommSkipProperty,
                         ::testing::Range<std::uint64_t>(100, 140));

// ---------------------------------------------------------------------------
// DP optimality across (n, m)
// ---------------------------------------------------------------------------

class DpOptimality
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpOptimality, MatchesBruteForce) {
  auto [n_filters, stages] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_filters * 131 + stages));
  for (int trial = 0; trial < 10; ++trial) {
    DecompositionInput input;
    for (int i = 0; i < n_filters; ++i) {
      input.task_ops.push_back(rng.next_double(1.0, 1e4));
      input.boundary_bytes.push_back(rng.next_double(1.0, 1e4));
    }
    input.input_bytes = rng.next_double(1.0, 1e4);
    input.source_io_ops = rng.next_double(0.0, 1e4);
    input.env = EnvironmentSpec::uniform(stages, rng.next_double(1e2, 1e4),
                                         rng.next_double(1e2, 1e4));
    DecompositionResult dp = decompose_dp(input);
    DecompositionResult brute =
        decompose_bruteforce(input, Objective::PerPacketLatency);
    EXPECT_NEAR(dp.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost));
    EXPECT_NEAR(decompose_dp_cost_only(input), dp.cost,
                1e-9 * std::max(1.0, dp.cost));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DpOptimality,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(2, 3, 4, 5)));

// ---------------------------------------------------------------------------
// Codec round-trips across shapes
// ---------------------------------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperty, RoundTripPreservesSectionContents) {
  const int n = GetParam();
  ClassRegistry registry;
  ClassInfo point;
  point.name = "P";
  point.fields = {FieldInfo{"a", Type::primitive(PrimKind::Float), 0},
                  FieldInfo{"b", Type::primitive(PrimKind::Int), 1},
                  FieldInfo{"c", Type::primitive(PrimKind::Double), 2}};
  registry.add(point);

  Rng rng(static_cast<std::uint64_t>(n) + 7);
  ArrayRef arr = ArrayVal::make();
  for (int i = 0; i < n; ++i) {
    const Value a{static_cast<double>(static_cast<float>(rng.next_double()))};
    const Value b{rng.next_int(-1000, 1000)};
    arr->elems.push_back(Object::make(intern_class("P"), {a, b, Value{rng.next_double()}}));
  }

  const std::int64_t lo = rng.next_int(0, n - 1);
  const std::int64_t hi = rng.next_int(lo, n - 1);
  ValueSet req;
  for (const char* field : {"a", "b", "c"}) {
    req.add(ValueId{"ps", {kElemStep, field}},
            ValueEntry{registry.find("P")->find_field(field)->type,
                       RectSection::dim1(SymPoly(lo), SymPoly(hi))});
  }
  req.add(ValueId{"count", {}}, ValueEntry{Type::primitive(PrimKind::Long), {}});

  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);
  Env sender;
  sender.declare("ps", arr);
  sender.declare("count", Value{static_cast<std::int64_t>(n)});
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; }, buffer);

  Env receiver;
  codec.unpack(buffer, receiver);
  const auto& out = std::get<ArrayRef>(receiver.get("ps"));
  ASSERT_EQ(out->base_index, lo);
  ASSERT_EQ(static_cast<std::int64_t>(out->elems.size()), hi - lo + 1);
  for (std::int64_t i = lo; i <= hi; ++i) {
    const auto& a = std::get<ObjectRef>(
        arr->elems[static_cast<std::size_t>(i)]);
    const auto& b = std::get<ObjectRef>(
        out->elems[static_cast<std::size_t>(i - lo)]);
    for (int f = 0; f < 3; ++f) {
      EXPECT_NEAR(as_double(a->field(static_cast<std::size_t>(f))),
                  as_double(b->field(static_cast<std::size_t>(f))), 1e-6)
          << "element " << i << " field " << f;
    }
  }
  EXPECT_EQ(as_int(receiver.get("count")), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecProperty,
                         ::testing::Values(1, 2, 7, 33, 256, 1000));

// ---------------------------------------------------------------------------
// End-to-end: all placements x widths preserve results (knn, small scale)
// ---------------------------------------------------------------------------

struct E2ECase {
  int width;
  int cut_a;  // last filter on stage 0
  int cut_b;  // last filter on stage <= 1
};

class PipelinePlacementProperty : public ::testing::TestWithParam<E2ECase> {};

TEST_P(PipelinePlacementProperty, KnnInvariantUnderPlacementAndWidth) {
  const E2ECase param = GetParam();
  static apps::AppConfig config = [] {
    apps::AppConfig c = apps::knn_config(5);
    // Shrink for the sweep.
    c.runtime_constants["runtime_define_num_points"] = 4096;
    c.runtime_constants["runtime_define_num_packets"] = 8;
    c.size_bindings["npoints"] = 4096;
    c.size_bindings["psize"] = 512;
    c.size_bindings["len(pts)"] = 4096;
    c.size_bindings["len(dists)"] = 512;
    c.n_packets = 8;
    return c;
  }();
  static const double expected = [] {
    DiagnosticEngine diags;
    auto program = Parser::parse(config.source, diags);
    Sema sema(*program, diags);
    SemaResult sr = sema.run();
    Interpreter interp(sr.registry, config.runtime_constants);
    Env env = interp.run("Knn", "main");
    return as_double(env.get("dsum"));
  }();

  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(param.width);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  CompileResult result = compile_pipeline(config.source, options);
  ASSERT_TRUE(result.ok) << result.diagnostics;

  const int n_filters = static_cast<int>(result.model.filters.size());
  Placement placement;
  for (int f = 0; f < n_filters; ++f) {
    int stage = f <= param.cut_a ? 0 : (f <= param.cut_b ? 1 : 2);
    placement.unit_of_filter.push_back(stage);
  }
  PipelineRunResult run =
      result.make_runner(placement, options.env).run();
  ASSERT_TRUE(run.finals.count("dsum"));
  EXPECT_NEAR(as_double(run.finals.at("dsum")), expected,
              1e-6 * std::max(1.0, std::abs(expected)))
      << placement.to_string() << " width " << param.width;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePlacementProperty,
    ::testing::Values(E2ECase{1, -1, -1}, E2ECase{1, -1, 0}, E2ECase{1, 0, 0},
                      E2ECase{1, 0, 1}, E2ECase{1, 1, 1}, E2ECase{1, 1, 2},
                      E2ECase{2, 0, 1}, E2ECase{2, -1, 2}, E2ECase{4, 0, 0},
                      E2ECase{4, 1, 1}));

}  // namespace
}  // namespace cgp
