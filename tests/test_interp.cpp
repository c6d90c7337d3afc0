// Interpreter unit tests: evaluation, control flow, methods, reductions,
// runtime errors, op counting, Env scoping and lowered-code reuse.
#include <gtest/gtest.h>

#include "codegen/interp.h"
#include "codegen/serialize.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct Fixture {
  std::unique_ptr<Program> program;
  ClassRegistry registry;
};

Fixture prepare(std::string_view source) {
  Fixture fixture;
  DiagnosticEngine diags;
  fixture.program = Parser::parse(source, diags);
  Sema sema(*fixture.program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  fixture.registry = std::move(result.registry);
  return fixture;
}

double get_double(const Env& env, const std::string& name) {
  return as_double(env.get(name));
}

std::int64_t get_int(const Env& env, const std::string& name) {
  return as_int(env.get(name));
}

TEST(Interp, Arithmetic) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int a = 2 + 3 * 4;
        int b = (2 + 3) * 4;
        int c = 17 % 5;
        double d = 7.0 / 2.0;
        int e = 7 / 2;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "a"), 14);
  EXPECT_EQ(get_int(env, "b"), 20);
  EXPECT_EQ(get_int(env, "c"), 2);
  EXPECT_DOUBLE_EQ(get_double(env, "d"), 3.5);
  EXPECT_EQ(get_int(env, "e"), 3);
}

TEST(Interp, ControlFlow) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int total = 0;
        for (int i = 0; i < 10; i++) {
          if (i % 2 == 0) { continue; }
          if (i == 9) { break; }
          total = total + i;   // 1+3+5+7
        }
        int loops = 0;
        while (loops < 5) { loops++; }
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "total"), 16);
  EXPECT_EQ(get_int(env, "loops"), 5);
}

TEST(Interp, ForeachOverRectdomainAndArray) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double[] xs = new double[5];
        foreach (i in [0 : 4]) { xs[i] = i * 1.5; }
        double total = 0.0;
        foreach (v in xs) { total = total + v; }
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_DOUBLE_EQ(get_double(env, "total"), 15.0);
}

TEST(Interp, MethodsAndConstructors) {
  Fixture f = prepare(R"(
    class Counter {
      int value;
      Counter(int start) { value = start; }
      void bump(int by) { value = value + by; }
      int get() { return value; }
    }
    class A {
      void main() {
        Counter c = new Counter(10);
        c.bump(5);
        c.bump(-2);
        int result = c.get();
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "result"), 13);
}

TEST(Interp, UnqualifiedFieldAndMethodAccess) {
  Fixture f = prepare(R"(
    class A {
      int x;
      int twice() { return x * 2; }
      void run() { x = 21; }
    }
    class B {
      void main() {
        A a = new A();
        a.run();
        int result = a.twice();
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("B", "main");
  EXPECT_EQ(get_int(env, "result"), 42);
}

TEST(Interp, Intrinsics) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double a = sqrt(16.0);
        double b = max(2.0, 3.5);
        int c = min(7, 4);
        double d = abs(-2.5);
        double e = floor(3.9);
        double g = pow(2.0, 8.0);
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_DOUBLE_EQ(get_double(env, "a"), 4.0);
  EXPECT_DOUBLE_EQ(get_double(env, "b"), 3.5);
  EXPECT_EQ(get_int(env, "c"), 4);
  EXPECT_DOUBLE_EQ(get_double(env, "d"), 2.5);
  EXPECT_DOUBLE_EQ(get_double(env, "e"), 3.0);
  EXPECT_DOUBLE_EQ(get_double(env, "g"), 256.0);
}

TEST(Interp, RuntimeConstants) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int n = runtime_define_n * 2;
      }
    }
  )");
  Interpreter interp(f.registry, {{"runtime_define_n", 21}});
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "n"), 42);
}

TEST(Interp, UnboundRuntimeConstantThrows) {
  Fixture f = prepare(R"(
    class A { void main() { int n = runtime_define_n; } }
  )");
  Interpreter interp(f.registry);
  EXPECT_THROW(interp.run("A", "main"), InterpError);
}

TEST(Interp, PipelinedLoopSequentialSemantics) {
  Fixture f = prepare(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
      Acc() { total = 0.0; }
      void add(double v) { total = total + v; }
    }
    class A {
      void main() {
        Acc acc = new Acc();
        PipelinedLoop (p in [0 : 3]) {
          acc.add(p * 1.0);
        }
        double result = acc.total;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_DOUBLE_EQ(get_double(env, "result"), 6.0);
}

TEST(Interp, PipelinedHookIntercepts) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int ran = 0;
        PipelinedLoop (p in [0 : 3]) {
          ran = ran + 1;
        }
      }
    }
  )");
  Interpreter interp(f.registry);
  int hooked = 0;
  interp.set_pipelined_hook([&](const PipelinedLoopStmt&, Env&) {
    ++hooked;
    return true;
  });
  Env env = interp.run("A", "main");
  EXPECT_EQ(hooked, 1);
  EXPECT_EQ(get_int(env, "ran"), 0);  // body skipped
}

TEST(Interp, IndexOutOfRangeThrows) {
  Fixture f = prepare(R"(
    class A { void main() { int[] xs = new int[3]; int v = xs[5]; } }
  )");
  Interpreter interp(f.registry);
  EXPECT_THROW(interp.run("A", "main"), InterpError);
}

TEST(Interp, BaseIndexedArrayAccess) {
  Fixture f = prepare(R"(
    class A {
      int read(int[] xs, int i) { return xs[i]; }
    }
  )");
  Interpreter interp(f.registry);
  ArrayRef arr = ArrayVal::make();
  arr->base_index = 100;
  arr->elems = {Value{std::int64_t{7}}, Value{std::int64_t{8}}};
  auto obj = interp.construct("A", {});
  EXPECT_EQ(as_int(interp.call_method("A", "read", obj, {arr, std::int64_t{101}})),
            8);
  EXPECT_THROW(interp.call_method("A", "read", obj, {arr, std::int64_t{99}}),
               InterpError);
}

TEST(Interp, NullFieldAccessThrows) {
  Fixture f = prepare(R"(
    class B { int x; }
    class A { void main() { B b = null; int v = b.x; } }
  )");
  Interpreter interp(f.registry);
  EXPECT_THROW(interp.run("A", "main"), InterpError);
}

TEST(Interp, DivisionByZeroThrows) {
  Fixture f = prepare(R"(
    class A { void main() { int z = 0; int v = 3 / z; } }
  )");
  Interpreter interp(f.registry);
  EXPECT_THROW(interp.run("A", "main"), InterpError);
}

TEST(Interp, OpsCounted) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double total = 0.0;
        foreach (i in [0 : 99]) { total = total + i * 1.0; }
      }
    }
  )");
  Interpreter interp(f.registry);
  interp.run("A", "main");
  // 100 iterations of (mul + add + mem + loop overhead): at least 400.
  EXPECT_GT(interp.ops(), 400.0);
  double first = interp.ops();
  interp.reset_ops();
  EXPECT_EQ(interp.ops(), 0.0);
  interp.run("A", "main");
  EXPECT_DOUBLE_EQ(interp.ops(), first);  // deterministic counting
}

TEST(Interp, RectdomainAccessors) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        Rectdomain<1> d = [3 : 11];
        long n = d.size();
        int lo = d.lo();
        int hi = d.hi();
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "n"), 9);
  EXPECT_EQ(get_int(env, "lo"), 3);
  EXPECT_EQ(get_int(env, "hi"), 11);
}

TEST(Interp, EmptyRectdomainLoopsZeroTimes) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int count = 0;
        foreach (i in [5 : 2]) { count = count + 1; }
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "count"), 0);
}

TEST(Interp, FloatFieldsRoundToFloat32) {
  Fixture f = prepare(R"(
    class P { float x; }
    class A {
      void main() {
        P p = new P();
        p.x = 0.1;
        double delta = p.x - 0.1;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  // 0.1 is not representable in float32: the store must round.
  EXPECT_NE(get_double(env, "delta"), 0.0);
  EXPECT_NEAR(get_double(env, "delta"),
              static_cast<double>(0.1f) - 0.1, 1e-12);
}

TEST(Interp, ConditionalExpression) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int a = 5 > 3 ? 10 : 20;
        int b = 5 < 3 ? 10 : 20;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "a"), 10);
  EXPECT_EQ(get_int(env, "b"), 20);
}

TEST(Interp, IncDecSemantics) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int i = 5;
        int a = i++;
        int b = ++i;
        int c = i--;
        int d = --i;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "a"), 5);
  EXPECT_EQ(get_int(env, "b"), 7);
  EXPECT_EQ(get_int(env, "c"), 7);
  EXPECT_EQ(get_int(env, "d"), 5);
}

TEST(Interp, CompoundAssignment) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double x = 10.0;
        x += 2.0;
        x *= 3.0;
        x -= 6.0;
        x /= 5.0;
        int y = 7;
        y += 3;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_DOUBLE_EQ(get_double(env, "x"), 6.0);
  EXPECT_EQ(get_int(env, "y"), 10);
}

TEST(Interp, OpsChargedByRuntimeRepresentation) {
  // `one()` is declared double but returns the int literal unconverted, so
  // `one() * 3` is an integer multiply: the charge follows the values, not
  // the declared types.
  Fixture f = prepare(R"(
    class A {
      double one() { return 1; }
      void main() {
        int a = 3;
        double b = a * 2.0;
        int c = a / 2;
        double e = one() * 3;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  // decls 4 x 1.5, float mul 2, int div 3, call 2, int mul 1.
  EXPECT_EQ(interp.ops(), 14.0);
  EXPECT_EQ(env.get("e").index(), Value(0.0).index());
  EXPECT_EQ(get_double(env, "e"), 3.0);
}

TEST(Interp, NestedScopesShadowAndRedeclare) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int x = 1;
        int total = 0;
        for (int i = 0; i < 3; i++) { int y = i * 2; total = total + y + x; }
        for (int i = 0; i < 2; i++) { double y = i * 0.5; total = total + 1; }
        { int z = 5; total = total + z; }
        { int z = 7; total = total * z; }
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "total"), 112);
  // Only main's top-level names survive; loop and block locals do not.
  const std::map<std::string, Value> finals = env.flatten();
  EXPECT_EQ(finals.size(), 2u);
  EXPECT_FALSE(env.has("i"));
  EXPECT_FALSE(env.has("z"));
}

TEST(Interp, RuntimeErrorsCarrySourceLocation) {
  Fixture f = prepare(
      "class A { void main() { int[] xs = new int[3]; int v = xs[5]; } }");
  Interpreter interp(f.registry);
  try {
    interp.run("A", "main");
    FAIL() << "expected an InterpError";
  } catch (const InterpError& e) {
    EXPECT_STREQ(e.what(), "1:56: array index 5 out of range [base 0, size 3)");
    EXPECT_EQ(e.location.line, 1);
    EXPECT_EQ(e.location.column, 56);
  }
}

TEST(Interp, EnvScopesRestoreShadowedBindings) {
  Env env;
  env.declare("a", Value{std::int64_t{1}});
  env.push();
  env.declare("a", Value{std::int64_t{2}});
  env.declare("b", Value{std::int64_t{3}});
  env.declare("b", Value{std::int64_t{4}});  // same scope: overwrite
  EXPECT_EQ(get_int(env, "a"), 2);
  // declare_global writes the base binding underneath the shadow, and
  // binds names the base scope lacked.
  env.declare_global("a", Value{std::int64_t{10}});
  env.declare_global("b", Value{std::int64_t{20}});
  env.assign("a", Value{std::int64_t{5}});
  EXPECT_EQ(get_int(env, "a"), 5);
  EXPECT_EQ(get_int(env, "b"), 4);
  env.pop();
  EXPECT_EQ(get_int(env, "a"), 10);
  EXPECT_EQ(get_int(env, "b"), 20);
  env.push();
  env.declare("c", Value{std::int64_t{6}});
  env.pop();
  EXPECT_FALSE(env.has("c"));
  EXPECT_THROW(env.get("c"), std::runtime_error);
  EXPECT_THROW(env.assign("c", Value{}), std::runtime_error);
  EXPECT_EQ(env.flatten().size(), 2u);
}

TEST(Interp, LoweredCodeRunsRepeatedlyAgainstItsEnv) {
  // The generated filters' shape: lower the per-packet statements once,
  // then run them in a fresh scope per packet.
  Fixture f = prepare(R"(
    class A {
      void main() {
        int total = 0;
        PipelinedLoop (p in [0 : 3]) {
          int sq = p * p;
          total = total + sq;
        }
      }
    }
  )");
  const MethodDecl* main = f.registry.find("A")->find_method("main");
  const auto& body = main->body->statements;
  const auto& loop = static_cast<const PipelinedLoopStmt&>(*body[1]);
  std::vector<const Stmt*> packet;
  for (const StmtPtr& s : static_cast<const BlockStmt&>(*loop.body).statements)
    packet.push_back(s.get());

  Interpreter interp(f.registry);
  Env env;
  interp.exec_stmt(*body[0], env);
  auto code = interp.lower(packet, env);
  for (std::int64_t p = 0; p <= 3; ++p) {
    env.push();
    env.declare("p", Value{p});
    interp.exec(*code, env);
    EXPECT_EQ(get_int(env, "sq"), p * p);
    env.pop();
  }
  EXPECT_EQ(get_int(env, "total"), 14);
  EXPECT_FALSE(env.has("sq"));

  Env other;
  EXPECT_THROW(interp.exec(*code, other), std::logic_error);
}

TEST(Interp, ExecForeachRunsOnlyTheGivenRanges) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        int n = 10;
        double[] data = new double[n];
        foreach (i in [0 : n - 1]) {
          data[i] = i + 0.25;
        }
      }
    }
  )");
  const MethodDecl* main = f.registry.find("A")->find_method("main");
  const auto& body = main->body->statements;
  const auto& fill = static_cast<const ForeachStmt&>(*body[2]);
  Interpreter interp(f.registry);
  // Runs the fill over `ranges` (or whole) on a fresh array; returns the
  // array and the ops the fill charged.
  auto run = [&](const std::vector<RectDomainVal>* ranges) {
    Env env;
    interp.exec_stmts({body[0].get(), body[1].get()}, env);
    interp.reset_ops();
    if (ranges)
      interp.exec_foreach(fill, env, *ranges);
    else
      interp.exec_stmt(fill, env);
    const auto& data = std::get<ArrayRef>(env.get("data"));
    std::vector<double> values;
    for (const Value& v : data->elems) values.push_back(as_double(v));
    return std::make_pair(values, interp.ops());
  };
  const auto whole = run(nullptr);

  // Ranges that cover the domain once charge exactly a whole foreach.
  const std::vector<RectDomainVal> cover = {{0, 3}, {4, 9}};
  const auto covered = run(&cover);
  EXPECT_EQ(covered.first, whole.first);
  EXPECT_EQ(covered.second, whole.second);

  // Ranges are clipped to the domain; everything else keeps its default.
  const std::vector<RectDomainVal> clipped = {{-5, 1}, {8, 20}};
  const auto partial = run(&clipped);
  for (std::size_t i = 0; i < partial.first.size(); ++i) {
    const bool ran = i <= 1 || i >= 8;
    EXPECT_EQ(partial.first[i], ran ? i + 0.25 : 0.0) << i;
  }

  // Empty and inverted ranges run no iteration: only the domain is
  // evaluated.
  const std::vector<RectDomainVal> none;
  const std::vector<RectDomainVal> inverted = {{5, 4}, {20, 30}};
  const auto nothing = run(&none);
  const auto backwards = run(&inverted);
  EXPECT_EQ(nothing.first, std::vector<double>(10, 0.0));
  EXPECT_EQ(backwards.first, std::vector<double>(10, 0.0));
  EXPECT_EQ(backwards.second, nothing.second);
  EXPECT_LT(nothing.second, covered.second);
}

// A setup fill like the isosurface apps': about 1000 iterations that each
// allocate, call a pure method and store their own element. The second
// foreach is the same fill failing at iterations 300 and 800.
constexpr std::string_view kChunkedFill = R"(
  class Cell {
    double v;
    int k;
    Cell(double vv, int kk) { v = vv; k = kk; }
  }
  class A {
    double shade(int i) { return sqrt(i * 1.5) + (i % 7) * 0.125; }
    void main() {
      int n = 1000;
      int[] small = new int[2];
      Cell[] cells = new Cell[n];
      foreach (i in [0 : n - 1]) {
        Cell c = new Cell(shade(i), i % 5);
        cells[i] = c;
      }
      foreach (i in [0 : n - 1]) {
        if (i == 300 || i == 800) {
          int z = small[i];
        }
        cells[i] = new Cell(shade(i), 0);
      }
    }
  }
)";

/// What one exec_foreach call over kChunkedFill left behind.
struct ChunkedRun {
  std::vector<std::byte> cells;  // write_value bytes of the array
  double ops = 0.0;              // the fill's ops
  std::string error;             // what() of the rethrown error
};

class ChunkedFill {
 public:
  ChunkedFill() : f_(prepare(kChunkedFill)), interp_(f_.registry) {}

  /// Runs fill `which` (0: clean, 1: failing) over `ranges` in `chunks`
  /// chunks, on a fresh `cells` and a reset op counter.
  ChunkedRun run(int which, const std::vector<RectDomainVal>& ranges,
                 int chunks, std::size_t first_worker = 0) {
    const auto& body =
        f_.registry.find("A")->find_method("main")->body->statements;
    Env env;
    interp_.exec_stmts({body[0].get(), body[1].get(), body[2].get()}, env);
    interp_.reset_ops();
    ChunkedRun out;
    try {
      interp_.exec_foreach(
          static_cast<const ForeachStmt&>(*body[3 + which]), env, ranges,
          chunks, first_worker);
    } catch (const InterpError& e) {
      out.error = e.what();
    }
    out.ops = interp_.ops();
    dc::Buffer bytes;
    write_value(bytes, env.get("cells"));
    out.cells.assign(bytes.data(), bytes.data() + bytes.size());
    return out;
  }

 private:
  Fixture f_;
  Interpreter interp_;
};

TEST(Interp, ExecForeachChunksMatchOneChunk) {
  ChunkedFill fill;
  const std::vector<std::pair<std::string, std::vector<RectDomainVal>>>
      cases = {
      {"whole", {{0, 999}}},
      {"cover", {{0, 399}, {400, 999}}},
      {"clipped", {{-5, 100}, {800, 2000}}},
      {"unsorted", {{600, 650}, {10, 20}, {900, 905}}},
      {"empty", {}},
      {"inverted", {{500, 499}, {2000, 3000}}},
  };
  for (const auto& [name, ranges] : cases) {
    const ChunkedRun one = fill.run(0, ranges, 1);
    for (int chunks : {2, 3, 4, 7}) {
      const ChunkedRun split =
          fill.run(0, ranges, chunks, static_cast<std::size_t>(chunks));
      EXPECT_EQ(split.cells, one.cells) << name << " chunks=" << chunks;
      EXPECT_EQ(split.ops, one.ops) << name << " chunks=" << chunks;
    }
  }
  // Not vacuous: the fill writes cells and charges ops, and an empty
  // share still charges the domain's evaluation.
  const ChunkedRun whole = fill.run(0, {{0, 999}}, 4);
  const ChunkedRun empty = fill.run(0, {}, 4);
  EXPECT_NE(whole.cells, empty.cells);
  EXPECT_LT(empty.ops, whole.ops);
  EXPECT_GT(empty.ops, 0.0);
}

TEST(Interp, ExecForeachRunsEachIterationOnceWithMoreChunksThanIterations) {
  ChunkedFill fill;
  const std::vector<RectDomainVal> ranges = {{10, 12}, {500, 501}};
  const ChunkedRun one = fill.run(0, ranges, 1);
  const ChunkedRun many = fill.run(0, ranges, 16);
  EXPECT_EQ(many.cells, one.cells);
  EXPECT_EQ(many.ops, one.ops);  // an iteration run twice would charge twice
  // Five iterations, each charging the same ops as any other.
  const ChunkedRun none = fill.run(0, {}, 1);
  const ChunkedRun single = fill.run(0, {{10, 10}}, 16);
  EXPECT_GT(single.ops, none.ops);
  EXPECT_EQ((one.ops - none.ops) / (single.ops - none.ops), 5.0);
}

TEST(Interp, ExecForeachRethrowsTheLowestFailingIteration) {
  ChunkedFill fill;
  const ChunkedRun one = fill.run(1, {{0, 999}}, 1);
  ASSERT_NE(one.error.find("array index 300 out of range"), std::string::npos)
      << one.error;
  for (int chunks : {2, 3, 4, 7}) {
    // Iterations 300 and 800 lie in different chunks; the lower one's
    // error is the one a sequential pass raises.
    const ChunkedRun split = fill.run(1, {{0, 999}}, chunks);
    EXPECT_EQ(split.error, one.error) << "chunks=" << chunks;
  }
  // Without iteration 300 the error is iteration 800's, in any split.
  const ChunkedRun tail = fill.run(1, {{301, 999}}, 1);
  EXPECT_NE(tail.error.find("array index 800 out of range"), std::string::npos);
  EXPECT_EQ(fill.run(1, {{301, 999}}, 4).error, tail.error);
}

// ---- releasing a partitioned fill ------------------------------------------

/// kChunkedFill's clean fill of `cells`, run in four chunks from worker 4.
struct FilledCells {
  FilledCells() : f(prepare(kChunkedFill)), interp(f.registry) {
    const auto& body = f.registry.find("A")->find_method("main")->body->statements;
    interp.exec_stmts({body[0].get(), body[1].get(), body[2].get()}, env);
    cut = interp.exec_foreach(static_cast<const ForeachStmt&>(*body[3]), env, {{0, 999}},
                              /*chunks=*/4, /*first_worker=*/4);
  }
  Fixture f;
  Interpreter interp;
  Env env;
  ForeachCut cut;
};

TEST(Interp, ReleaseFillFreesEveryElementOnItsChunksWorkers) {
  FilledCells fill;
  ASSERT_EQ(fill.cut.size(), 4u);
  ArrayRef cells = std::get<ArrayRef>(fill.env.get("cells"));
  ASSERT_EQ(cells->elems.size(), 1000u);
  for (const Value& v : cells->elems) ASSERT_TRUE(std::holds_alternative<ObjectRef>(v));
  release_elements(*cells, fill.cut, 4);
  for (const Value& v : cells->elems) EXPECT_TRUE(is_null(v));

  // Indices the array does not have are skipped.
  ArrayRef small = ArrayVal::make();
  small->base_index = 10;
  small->elems.assign(4, Value{std::int64_t{1}});
  release_elements(*small, {{{-5, 10}}, {{12, 40}}}, 4);
  EXPECT_TRUE(is_null(small->elems[0]));
  EXPECT_EQ(as_int(small->elems[1]), 1);
  EXPECT_TRUE(is_null(small->elems[2]));
  EXPECT_TRUE(is_null(small->elems[3]));
}

TEST(Interp, ReleaseFillReleasesOnlyWhenTheBindingIsTheOnlyHolder) {
  {
    FilledCells fill;
    const ObjectRef first = std::get<ObjectRef>(std::get<ArrayRef>(fill.env.get("cells"))->elems[0]);
    ASSERT_EQ(first.use_count(), 2u);
    EXPECT_TRUE(release_fill(fill.env.slot("cells"), fill.cut, 4));
    EXPECT_TRUE(is_null(fill.env.get("cells")));
    EXPECT_EQ(first.use_count(), 1u);
    EXPECT_EQ(std::get<std::int64_t>(first->field(1)), 0);
  }
  FilledCells fill;
  const ArrayRef other = std::get<ArrayRef>(fill.env.get("cells"));  // a second holder
  EXPECT_FALSE(release_fill(fill.env.slot("cells"), fill.cut, 4));
  EXPECT_TRUE(is_null(fill.env.get("cells")));
  ASSERT_EQ(other.use_count(), 1u);
  for (const Value& v : other->elems) EXPECT_TRUE(std::holds_alternative<ObjectRef>(v));
}

// ---- typed calls and unboxed locals ---------------------------------------
//
// Expected ops, finals and error texts below are those of the evaluator
// before calls were bound at lowering and locals unboxed; finals compare
// by write_value bytes, so a value's representation counts too.

std::vector<std::byte> value_bytes(const Value& v) {
  dc::Buffer bytes;
  write_value(bytes, v);
  return {bytes.data(), bytes.data() + bytes.size()};
}

void expect_finals(const Env& env, const std::map<std::string, Value>& want) {
  const std::map<std::string, Value> finals = env.flatten();
  EXPECT_EQ(finals.size(), want.size());
  for (const auto& [name, value] : want) {
    auto it = finals.find(name);
    ASSERT_NE(it, finals.end()) << name;
    EXPECT_EQ(value_bytes(it->second), value_bytes(value)) << name;
  }
}

/// Runs A::main of `source`, which must fail; returns the error's what().
std::string run_error(std::string_view source, double& ops) {
  Fixture f = prepare(source);
  Interpreter interp(f.registry);
  try {
    interp.run("A", "main");
  } catch (const InterpError& e) {
    ops = interp.ops();
    return e.what();
  }
  ADD_FAILURE() << "expected an InterpError";
  return {};
}

Value int_value(std::int64_t i) { return Value{i}; }

TEST(Interp, TypedCallMixedReturnsStayAnyValue) {
  // `half` returns an int on one path and a double on the other, so its
  // calls stay any-value: `/ 2` divides as the value returned says.
  Fixture f = prepare(R"(
class A {
  double half(int k) { if (k == 0) { return 1; } return 2.5; }
  void main() {
    double a = half(0) / 2;
    double b = half(1) / 2;
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 30.0);
  expect_finals(env, {{"a", Value{0.0}}, {"b", Value{1.25}}});
}

TEST(Interp, TypedCallFloatParameterRoundsArgument) {
  Fixture f = prepare(R"(
class A {
  double id(float x) { return x; }
  void main() {
    double a = id(0.1);
    double b = id(16777217);
    double delta = a - 0.1;
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 10.5);
  const double rounded = static_cast<double>(0.1f);
  expect_finals(env, {{"a", Value{rounded}},
                      {"b", Value{16777216.0}},
                      {"delta", Value{rounded - 0.1}}});
}

TEST(Interp, TypedCallIntParameterTruncates) {
  Fixture f = prepare(R"(
class A {
  int trunc(int x) { return x; }
  void main() {
    int a = trunc(2.9);
    int b = trunc(-2.9);
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 9.0);
  expect_finals(env, {{"a", int_value(2)}, {"b", int_value(-2)}});
}

TEST(Interp, TypedCallRecursion) {
  Fixture f = prepare(R"(
class A {
  int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
  }
  void main() { int f = fact(10); }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 59.5);
  expect_finals(env, {{"f", int_value(3628800)}});
}

TEST(Interp, TypedCallNestedInTypedCallArguments) {
  Fixture f = prepare(R"(
class A {
  int add(int a, int b) { return a + b; }
  double scale(double x, int k) { return x * k; }
  void main() {
    int r = add(add(1, 2), add(3, add(4, 5)));
    double s = scale(add(1, 2), add(3, 4));
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 25.0);
  expect_finals(env, {{"r", int_value(15)}, {"s", Value{21.0}}});
}

TEST(Interp, UnboxedLocalsIncDecAndCompoundAssignment) {
  // The block's locals are frame locals, unboxed; main's are Env names.
  Fixture f = prepare(R"(
class A {
  void main() {
    int a = 0; int b = 0; int c = 0; int d = 0; double x = 0.0; int s = 0; double y = 0.0;
    {
      int i = 5;
      a = i++; b = ++i; c = i--; d = --i;
      double f = 1.5;
      f++; ++f; f--;
      x = f;
      int t = 1;
      t += 7; t -= 2; t *= 3; t /= 4;
      s = t;
      double g = 2.0;
      g += 1; g *= 2.5; g /= 4;
      y = g;
    }
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 65.0);
  expect_finals(env, {{"a", int_value(5)},
                      {"b", int_value(7)},
                      {"c", int_value(7)},
                      {"d", int_value(5)},
                      {"s", int_value(4)},
                      {"x", Value{2.5}},
                      {"y", Value{1.875}}});
}

TEST(Interp, UnboxedLocalDivAssignByZero) {
  double ops = 0.0;
  EXPECT_EQ(run_error(R"(
class A {
  int f(int z) {
    int t = 9;
    t /= z;
    return t;
  }
  void main() { int r = f(0); }
})",
                      ops),
            "5:7: integer division by zero");
  EXPECT_EQ(ops, 6.0);
}

TEST(Interp, MinMaxAbsOnIntDoubleAndMixedArguments) {
  // `pick` is an any-value call, so h, i, j and k take the boxed path.
  Fixture f = prepare(R"(
class A {
  double pick(int k) { if (k == 0) { return 3; } return -4.5; }
  void main() {
    int a = min(3, 7); int b = max(3, 7); int c = abs(-4);
    double d = min(2.5, 1.5); double e = max(2, 1.5); double f = abs(-2.5);
    double g = min(1, 2.5);
    double h = max(pick(0), 2); double i = abs(pick(1)); double j = min(pick(0), 2.5);
    int k = abs(pick(0));
  }
})");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(interp.ops(), 81.5);
  expect_finals(env, {{"a", int_value(3)},
                      {"b", int_value(7)},
                      {"c", int_value(4)},
                      {"d", Value{1.5}},
                      {"e", Value{2.0}},
                      {"f", Value{2.5}},
                      {"g", Value{1.0}},
                      {"h", Value{3.0}},
                      {"i", Value{4.5}},
                      {"j", Value{2.5}},
                      {"k", int_value(3)}});
}

TEST(Interp, TypedCallNullReceiver) {
  double ops = 0.0;
  EXPECT_EQ(run_error(R"(
class B { int v; int get() { return v; } }
class A {
  int outer(B b) { return b.get(); }
  void main() {
    B b = null;
    int r = outer(b);
  }
})",
                      ops),
            "4:27: method call on null/non-object");
  EXPECT_EQ(ops, 3.5);
}

TEST(Interp, TypedCallDepthLimit) {
  // f calls g through a typed call; g's call back to f was lowered while
  // f still was, so it is an any-value call.
  double ops = 0.0;
  EXPECT_EQ(run_error(R"(
class A {
  int f(int n) { return g(n + 1); }
  int g(int n) {
    int r = f(n);
    return r;
  }
  void main() { int r = f(0); }
})",
                      ops),
            "3:8: call depth limit exceeded");
  EXPECT_EQ(ops, 640.0);
}

TEST(Interp, ShortCircuitEvaluation) {
  Fixture f = prepare(R"(
    class A {
      int calls;
      boolean bump() { calls = calls + 1; return true; }
      void main() {
        A a = new A();
        boolean r1 = false && a.bump();
        boolean r2 = true || a.bump();
        int count = a.calls;
      }
    }
  )");
  Interpreter interp(f.registry);
  Env env = interp.run("A", "main");
  EXPECT_EQ(get_int(env, "count"), 0);
}

}  // namespace
}  // namespace cgp
