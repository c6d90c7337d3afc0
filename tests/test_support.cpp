// Unit tests for the support library: symbolic polynomials, rectilinear
// sections, diagnostics, string helpers, deterministic RNG, worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/section.h"
#include "support/str.h"
#include "support/symexpr.h"
#include "support/worker_pool.h"

namespace cgp {
namespace {

// ---------------------------------------------------------------------------
// SymPoly
// ---------------------------------------------------------------------------

TEST(SymPoly, ConstantsFold) {
  SymPoly a(3);
  SymPoly b(4);
  EXPECT_EQ((a + b).constant_value(), 7);
  EXPECT_EQ((a - b).constant_value(), -1);
  EXPECT_EQ((a * b).constant_value(), 12);
  EXPECT_TRUE((a - a).is_zero());
}

TEST(SymPoly, ZeroIsEmpty) {
  SymPoly zero(0);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_constant());
  EXPECT_EQ(zero.constant_value(), 0);
  EXPECT_EQ(zero.to_string(), "0");
}

TEST(SymPoly, SymbolArithmetic) {
  SymPoly x = SymPoly::symbol("x");
  SymPoly y = SymPoly::symbol("y");
  SymPoly expr = 2 * x + y - 3;
  EXPECT_FALSE(expr.is_constant());
  EXPECT_EQ(expr.degree(), 1);
  std::vector<std::string> symbols = expr.symbols();
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], "x");
  EXPECT_EQ(symbols[1], "y");
}

TEST(SymPoly, ProductsNormalize) {
  SymPoly x = SymPoly::symbol("x");
  SymPoly y = SymPoly::symbol("y");
  EXPECT_EQ(x * y, y * x);
  EXPECT_EQ((x + y) * (x - y), x * x - y * y);
  EXPECT_EQ((x * x).degree(), 2);
}

TEST(SymPoly, CancellationRemovesTerms) {
  SymPoly x = SymPoly::symbol("x");
  SymPoly p = x * 3 - x - x - x;
  EXPECT_TRUE(p.is_zero());
}

TEST(SymPoly, Substitute) {
  SymPoly x = SymPoly::symbol("x");
  SymPoly y = SymPoly::symbol("y");
  SymPoly p = x * x + 2 * x + y;
  SymPoly q = p.substitute("x", SymPoly(3));
  EXPECT_EQ(q, SymPoly(15) + y);
  // substitute by another symbol
  SymPoly r = p.substitute("x", y);
  EXPECT_EQ(r, y * y + 3 * y);
}

TEST(SymPoly, Evaluate) {
  SymPoly x = SymPoly::symbol("x");
  SymPoly y = SymPoly::symbol("y");
  SymPoly p = x * y + 5;
  EXPECT_EQ(p.evaluate({{"x", 3}, {"y", 4}}), 17);
  EXPECT_EQ(p.evaluate({{"x", 3}}), std::nullopt);
}

TEST(SymPoly, ToStringIsReadable) {
  SymPoly p = SymPoly::symbol("n") * 2 - 3;
  EXPECT_EQ(p.to_string(), "2*n - 3");
  SymPoly q = SymPoly::symbol("a") * SymPoly::symbol("a");
  EXPECT_EQ(q.to_string(), "a*a");
}

// ---------------------------------------------------------------------------
// RectSection
// ---------------------------------------------------------------------------

TEST(RectSection, ScalarHasCountOne) {
  RectSection s = RectSection::scalar();
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(s.element_count().constant_value(), 1);
}

TEST(RectSection, ElementCount) {
  RectSection s = RectSection::dim1(SymPoly(0), SymPoly(9));
  EXPECT_EQ(s.element_count().constant_value(), 10);
  SymPoly n = SymPoly::symbol("n");
  RectSection sym = RectSection::dim1(SymPoly(0), n - 1);
  EXPECT_EQ(sym.element_count(), n);
}

TEST(RectSection, HullOfConstants) {
  RectSection a = RectSection::dim1(SymPoly(0), SymPoly(5));
  RectSection b = RectSection::dim1(SymPoly(3), SymPoly(9));
  auto hull = RectSection::hull(a, b);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(*hull, RectSection::dim1(SymPoly(0), SymPoly(9)));
}

TEST(RectSection, HullOfIdenticalSymbolic) {
  SymPoly n = SymPoly::symbol("n");
  RectSection a = RectSection::dim1(SymPoly(0), n);
  auto hull = RectSection::hull(a, a);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(*hull, a);
}

TEST(RectSection, HullIncomparableSymbolicFails) {
  SymPoly n = SymPoly::symbol("n");
  SymPoly m = SymPoly::symbol("m");
  RectSection a = RectSection::dim1(SymPoly(0), n);
  RectSection b = RectSection::dim1(SymPoly(0), m);
  EXPECT_FALSE(RectSection::hull(a, b).has_value());
}

TEST(RectSection, HullWithCommonSymbolicPart) {
  SymPoly p = SymPoly::symbol("p");
  // [p, p+3] and [p+1, p+5]: differences fold to constants.
  RectSection a = RectSection::dim1(p, p + 3);
  RectSection b = RectSection::dim1(p + 1, p + 5);
  auto hull = RectSection::hull(a, b);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(*hull, RectSection::dim1(p, p + 5));
}

TEST(RectSection, Covers) {
  RectSection big = RectSection::dim1(SymPoly(0), SymPoly(10));
  RectSection small = RectSection::dim1(SymPoly(2), SymPoly(5));
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(big.covers(big));
}

TEST(RectSection, CoversSymbolic) {
  SymPoly n = SymPoly::symbol("n");
  RectSection a = RectSection::dim1(SymPoly(0), n);
  RectSection b = RectSection::dim1(SymPoly(1), n - 1);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
}

TEST(RectSection, CoversRankMismatch) {
  RectSection one = RectSection::dim1(SymPoly(0), SymPoly(5));
  RectSection scalar = RectSection::scalar();
  EXPECT_FALSE(one.covers(scalar));
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({1, 2}, "test", "a warning");
  EXPECT_FALSE(diags.has_errors());
  diags.error({3, 4}, "test", "an error");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  std::string rendered = diags.render();
  EXPECT_NE(rendered.find("1:2: warning [test] a warning"), std::string::npos);
  EXPECT_NE(rendered.find("3:4: error [test] an error"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine diags;
  diags.error({}, "x", "boom");
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.all().empty());
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(Str, SplitJoinRoundTrip) {
  std::vector<std::string> parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(join(parts, "."), "a.b.c");
  EXPECT_EQ(split("", '.').size(), 1u);
  EXPECT_EQ(split("a.", '.').size(), 2u);
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("runtime_define_x", "runtime_define_"));
  EXPECT_FALSE(starts_with("run", "runtime"));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.next_double(1.0, 2.0);
    EXPECT_GE(d, 1.0);
    EXPECT_LT(d, 2.0);
  }
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

using support::WorkerPool;

std::thread::id run_on(WorkerPool& pool, std::size_t worker) {
  std::thread::id id;
  pool.submit(worker, [&id] { id = std::this_thread::get_id(); }).get();
  return id;
}

TEST(WorkerPool, OneWorkerRunsItsJobsInOrderOnOneThread) {
  WorkerPool pool(2);
  std::vector<int> order;  // touched only by worker 1 until the gets
  std::vector<std::thread::id> ids;
  std::vector<std::future<void>> done;
  for (int k = 0; k < 64; ++k) {
    done.push_back(pool.submit(1, [&order, &ids, k] {
      order.push_back(k);
      ids.push_back(std::this_thread::get_id());
    }));
  }
  for (std::future<void>& f : done) f.get();
  ASSERT_EQ(order.size(), 64u);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(order[static_cast<std::size_t>(k)], k);
  for (const std::thread::id& id : ids) EXPECT_EQ(id, ids.front());
  EXPECT_NE(ids.front(), std::this_thread::get_id());
  // Call after call, and for every index that maps to it.
  EXPECT_EQ(run_on(pool, 1), ids.front());
  EXPECT_EQ(run_on(pool, 3), ids.front());
  EXPECT_NE(run_on(pool, 0), ids.front());

  // A job's exception reaches its future, and the worker carries on.
  auto failed = pool.submit(1, [] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(failed.get(), std::runtime_error);
  EXPECT_EQ(run_on(pool, 1), ids.front());
}

TEST(WorkerPool, ConcurrentCallersBothComplete) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  auto caller = [&pool, &ran] {
    std::vector<std::future<void>> done;
    for (int k = 0; k < 200; ++k)
      done.push_back(
          pool.submit(static_cast<std::size_t>(k % 3), [&ran] { ++ran; }));
    for (std::future<void>& f : done) f.get();
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(ran.load(), 400);
}

TEST(WorkerPool, QuiesceJoinsWorkersAndTheNextJobRestartsThem) {
  // A joined thread's std::thread::id may be handed to a later thread, so
  // a thread_local mark tells a fresh thread from the old one.
  static thread_local int mark = 0;
  WorkerPool pool(2);
  pool.submit(0, [] { mark = 1; }).get();
  int seen = 0;
  pool.submit(0, [&seen] { seen = mark; }).get();
  EXPECT_EQ(seen, 1);  // same thread, call after call

  pool.quiesce();
  pool.submit(0, [&seen] { seen = mark; }).get();
  EXPECT_EQ(seen, 0);  // a new thread: the old one was joined
  EXPECT_NE(run_on(pool, 0), std::this_thread::get_id());
  pool.quiesce();
  pool.quiesce();  // idempotent; the destructor quiesces once more
}

}  // namespace
}  // namespace cgp
