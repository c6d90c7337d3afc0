// Sema unit tests: symbol resolution, typing rules, reduction detection.
#include <gtest/gtest.h>

#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct SemaRun {
  std::unique_ptr<Program> program;
  SemaResult result;
  std::string diagnostics;
  bool had_errors = false;
};

SemaRun run_sema(std::string_view source) {
  SemaRun run;
  DiagnosticEngine diags;
  run.program = Parser::parse(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  Sema sema(*run.program, diags);
  run.result = sema.run();
  run.diagnostics = diags.render();
  run.had_errors = diags.has_errors();
  return run;
}

TEST(Sema, SimpleProgramChecks) {
  SemaRun run = run_sema(R"(
    class A {
      int x;
      int get() { return x; }
      void set(int v) { x = v; }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
  const ClassInfo* info = run.result.registry.find("A");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->fields.size(), 1u);
  EXPECT_EQ(info->methods.size(), 2u);
}

TEST(Sema, ReductionClassDetected) {
  SemaRun run = run_sema(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface { double total; }
    class Other { double total; }
  )");
  EXPECT_FALSE(run.had_errors);
  EXPECT_TRUE(run.result.registry.find("Acc")->is_reduction);
  EXPECT_FALSE(run.result.registry.find("Other")->is_reduction);
}

TEST(Sema, UndeclaredVariable) {
  SemaRun run = run_sema("class A { void f() { x = 3; } }");
  EXPECT_TRUE(run.had_errors);
  EXPECT_NE(run.diagnostics.find("undeclared identifier"), std::string::npos);
}

TEST(Sema, UnknownClassInDecl) {
  SemaRun run = run_sema("class A { void f() { Nope n = null; } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, TypeMismatchAssignBoolToInt) {
  SemaRun run = run_sema("class A { void f() { int x = true; } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, NumericWideningAllowed) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        double d = 3;
        float g = 1.5;
        long l = 2;
        int narrowed = 3.7;
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, ForeachOverRectdomainBindsInt) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        foreach (i in [0 : 9]) {
          int x = i + 1;
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, ForeachOverArrayBindsElement) {
  SemaRun run = run_sema(R"(
    class P { float x; }
    class A {
      void f(P[] ps) {
        foreach (q in ps) {
          float v = q.x;
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, ForeachOverScalarRejected) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        foreach (i in 5) { int x = i; }
      }
    }
  )");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, PipelinedLoopDomainMustBeRectdomain) {
  SemaRun run = run_sema(R"(
    class A {
      void f(int[] xs) {
        PipelinedLoop (p in xs) { int y = p; }
      }
    }
  )");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, MethodArityChecked) {
  SemaRun run = run_sema(R"(
    class A {
      void g(int a) { }
      void f() { g(1, 2); }
    }
  )");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, UnknownMethod) {
  SemaRun run = run_sema(R"(
    class B { }
    class A { void f(B b) { b.nope(); } }
  )");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, IntrinsicsTyped) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        double a = sqrt(2.0);
        double b = min(1.0, 2.0);
        int c = min(1, 2);
        double d = pow(2.0, 10.0);
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, IntrinsicArityError) {
  SemaRun run = run_sema("class A { void f() { double a = sqrt(1.0, 2.0); } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, RuntimeDefineIsInt) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        int n = runtime_define_x;
        long m = runtime_define_x * 2;
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
  ASSERT_EQ(run.result.runtime_constants.size(), 1u);
  EXPECT_EQ(run.result.runtime_constants[0], "runtime_define_x");
}

TEST(Sema, ArrayLengthField) {
  SemaRun run = run_sema(R"(
    class A {
      int f(float[] xs) { return xs.length; }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, FieldAccessOnPrimitiveRejected) {
  SemaRun run = run_sema("class A { void f(int x) { int y = x.z; } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, DuplicateClassRejected) {
  SemaRun run = run_sema("class A { } class A { }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, DuplicateMethodRejected) {
  SemaRun run = run_sema("class A { void f() { } void f() { } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, RedeclarationInScopeRejected) {
  SemaRun run = run_sema("class A { void f() { int x = 1; int x = 2; } }");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, ShadowingInNestedScopeAllowed) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        int x = 1;
        if (x > 0) {
          float x = 2.0;
          float y = x;
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, ConstructorArgsChecked) {
  SemaRun run = run_sema(R"(
    class B {
      int v;
      B(int x) { v = x; }
    }
    class A { void f() { B b = new B(); } }
  )");
  EXPECT_TRUE(run.had_errors);
}

TEST(Sema, ReductionFieldOverwriteInForeachWarns) {
  SemaRun run = run_sema(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
    }
    class A {
      void f(Acc acc) {
        foreach (i in [0 : 9]) {
          acc.total = 5.0;
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors);
  EXPECT_NE(run.diagnostics.find("reduction-object field"), std::string::npos);
}

TEST(Sema, ForeachCountAssigned) {
  SemaRun run = run_sema(R"(
    class A {
      void f() {
        foreach (i in [0 : 1]) { int a = i; }
        foreach (j in [0 : 1]) { int b = j; }
      }
    }
  )");
  EXPECT_EQ(run.result.foreach_count, 2);
}

TEST(Sema, MissingReturnRejectedWithLocation) {
  // A non-void method whose body can complete normally.
  const std::vector<std::string> bodies = {
      "{ }",
      "{ if (x > 0) { return 1; } }",
      "{ if (x > 0) { return 1; } else { x = 2; } }",
      "{ while (x > 0) { return 1; } }",
      "{ for (int i = 0; i < x; i++) { return i; } }",
      "{ foreach (i in [0 : x]) { return i; } }",
      "{ { return 1; } x = 2; }",
  };
  for (const std::string& body : bodies) {
    SemaRun run = run_sema("class A { int f(int x) " + body + " }");
    EXPECT_TRUE(run.had_errors) << body;
    EXPECT_NE(run.diagnostics.find(
                  "1:16: error [sema] missing return statement in method 'f'"),
              std::string::npos)
        << body << "\n"
        << run.diagnostics;
  }
}

TEST(Sema, MissingReturnAcceptsBodiesThatCannotCompleteNormally) {
  SemaRun run = run_sema(R"(
    class A {
      int a(int x) { return x; }
      int b(int x) { if (x > 0) { return 1; } return 2; }
      int c(int x) { if (x > 0) { return 1; } else { return 2; } }
      int d(int x) { if (x > 0) return 1; else if (x < 0) return -1; else return 0; }
      double e(int x) { while (x > 0) { x = x - 1; } { return x; } }
      A() { }
      void f(int x) { if (x > 0) { return; } }
      void g() { }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, JumpsOutsideAMethodsOwnLoopsRejectedWithLocation) {
  // Each `break`/`continue` sits in a method body whose innermost
  // enclosing loop is not a while, for or foreach of it; the error points
  // at the jump.
  const std::vector<std::string> bodies = {
      "{ if (x > 0) { x = 1; } { break; } }",
      "{ if (x > 0) { x = 1; } { continue; } }",
      "{ if (x > 0) { x = 1; } { if (x > 1) { break; } } }",
  };
  for (const std::string& body : bodies) {
    const std::string source = "class A { void f(int x) " + body + " }";
    const std::size_t jump = std::min(source.find("break"), source.find("continue"));
    SemaRun run = run_sema(source);
    EXPECT_TRUE(run.had_errors) << body;
    EXPECT_NE(run.diagnostics.find("1:" + std::to_string(jump + 1) + ": error [sema] '"),
              std::string::npos)
        << body << "\n"
        << run.diagnostics;
    EXPECT_NE(run.diagnostics.find("outside a while, for or foreach loop"), std::string::npos)
        << run.diagnostics;
  }
  // The PipelinedLoop is not such a loop, even inside one.
  SemaRun piped = run_sema(R"(
    class A {
      void main() {
        int total = 0;
        while (total < 10) {
          PipelinedLoop (p in [0 : 7]) {
            total = total + p;
            if (p == 3) { break; }
          }
        }
      }
    }
  )");
  EXPECT_TRUE(piped.had_errors);
  EXPECT_NE(piped.diagnostics.find("8:27: error [sema] 'break' outside a while, for or foreach loop"),
            std::string::npos)
      << piped.diagnostics;
}

TEST(Sema, JumpsInsideLoopsAccepted) {
  SemaRun run = run_sema(R"(
    class A {
      int f(int x) {
        while (x > 0) { if (x == 5) { break; } x = x - 1; }
        for (int i = 0; i < x; i++) { if (i == 2) { continue; } }
        foreach (i in [0 : x]) { { if (i == 1) { break; } } }
        return x;
      }
      void main() {
        PipelinedLoop (p in [0 : 7]) {
          foreach (i in [0 : p]) { if (i == 2) { continue; } }
          for (int k = 0; k < p; k++) { while (k > 3) { break; } }
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

TEST(Sema, AllAppSourcesTypeCheck) {
  // The four paper applications plus the tutorial must be clean.
  // (Sources are exercised end-to-end elsewhere; this isolates sema.)
  SemaRun run = run_sema(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
      Acc() { total = 0.0; }
      void add(double v) { total = total + v; }
      void merge(Acc other) { total = total + other.total; }
    }
    class Tiny {
      void main() {
        int n = runtime_define_num_items;
        double[] data = new double[n];
        foreach (i in [0 : n - 1]) { data[i] = i * 0.5; }
        Acc acc = new Acc();
        PipelinedLoop (p in [0 : runtime_define_num_packets - 1]) {
          foreach (i in [0 : n - 1]) { acc.add(data[i]); }
        }
      }
    }
  )");
  EXPECT_FALSE(run.had_errors) << run.diagnostics;
}

}  // namespace
}  // namespace cgp
