// Heap tests: the 16-byte Value, one-allocation objects, intrusive counts,
// interned class names and the lifetime of a run's finals.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "codegen/interp.h"
#include "codegen/serialize.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

ClassName point_class() { return intern_class("Point"); }

TEST(Heap, ValueIsSixteenBytes) {
  EXPECT_EQ(sizeof(Value), 16u);
  EXPECT_EQ(sizeof(Object), 16u);
  EXPECT_EQ(sizeof(ObjectRef), sizeof(void*));
}

TEST(Heap, ObjectFieldsFollowTheHeaderInOneAllocation) {
  const ObjectRef p =
      Object::make(point_class(), {Value{1.5}, Value{std::int64_t{2}}, Value{}});
  const auto* header = reinterpret_cast<const std::byte*>(p.get());
  EXPECT_EQ(reinterpret_cast<const std::byte*>(p->fields().data()), header + sizeof(Object));
  ASSERT_EQ(p->fields().size(), 3u);
  EXPECT_EQ(as_double(p->field(0)), 1.5);
  EXPECT_EQ(as_int(p->field(1)), 2);
  EXPECT_TRUE(is_null(p->field(2)));
  EXPECT_EQ(p->class_name(), "Point");

  const ObjectRef empty = Object::make(point_class(), {});
  EXPECT_TRUE(empty->fields().empty());
}

TEST(Heap, RefCopyMoveSelfAssignAndResetKeepCounts) {
  ObjectRef a = Object::make(point_class(), {Value{std::int64_t{1}}});
  EXPECT_EQ(a.use_count(), 1u);
  ObjectRef b = a;
  EXPECT_EQ(a.use_count(), 2u);
  ObjectRef c = std::move(b);
  EXPECT_FALSE(b);
  EXPECT_EQ(b.use_count(), 0u);
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(c.get(), a.get());

  c = c;  // self copy-assignment
  EXPECT_EQ(a.use_count(), 2u);
  ObjectRef& alias = c;
  c = std::move(alias);  // self move-assignment
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(c.get(), a.get());

  ObjectRef d = Object::make(point_class(), {});
  d = a;  // the old block is released, the new one shared
  EXPECT_EQ(a.use_count(), 3u);
  d = std::move(c);
  EXPECT_EQ(a.use_count(), 2u);
  d.reset();
  EXPECT_FALSE(d);
  EXPECT_EQ(a.use_count(), 1u);

  Value v{a};
  Value w = v;
  EXPECT_EQ(a.use_count(), 3u);
  w = Value{std::int64_t{0}};
  v = Value{};
  EXPECT_EQ(a.use_count(), 1u);
}

TEST(Heap, LastReleaseDestroysNestedObjects) {
  ObjectRef inner = Object::make(point_class(), {Value{0.5}});
  ArrayRef list = ArrayVal::make();
  list->elems.push_back(Value{inner});
  ObjectRef outer = Object::make(intern_class("Holder"), {Value{inner}, Value{list}});
  ASSERT_EQ(inner.use_count(), 3u);
  ASSERT_EQ(list.use_count(), 2u);
  outer.reset();  // the last reference to the holder
  EXPECT_EQ(inner.use_count(), 2u);
  EXPECT_EQ(list.use_count(), 1u);
  list.reset();
  EXPECT_EQ(inner.use_count(), 1u);
}

TEST(Heap, CountsStayExactAcrossThreads) {
  const ObjectRef shared = Object::make(point_class(), {Value{1.0}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      for (int i = 0; i < 10000; ++i) {
        Value copy{shared};
        Value again = copy;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.use_count(), 1u);
}

TEST(Heap, BoxesAreSharedAndImmutable) {
  const StringRef s = make_string("text");
  Value a{s};
  Value b = a;
  EXPECT_EQ(std::get<StringRef>(b).get(), s.get());
  EXPECT_EQ(s.use_count(), 3u);
  EXPECT_EQ(std::get<StringRef>(b)->value, "text");
  const DomainRef d = make_box(RectDomainVal{2, 9});
  EXPECT_EQ(d->value.size(), 8);
  EXPECT_EQ(value_to_string(Value{d}), "[2:9]");
  EXPECT_EQ(value_to_string(Value{s}), "\"text\"");
}

constexpr std::string_view kTwoDots = R"(
  class Dot {
    double x;
    String tag;
    Dot(double v) { x = v; tag = "p"; }
  }
  class A {
    void main() {
      Dot a = new Dot(1.0);
      Dot b = new Dot(2.0);
      Rectdomain<1> span = [3 : 7];
      Dot[] all = new Dot[2];
      all[0] = a;
      all[1] = b;
    }
  }
)";

TEST(Heap, ObjectsOfOneClassShareANamePointer) {
  EXPECT_EQ(intern_class("Dot"), intern_class(std::string("D") + "ot"));
  EXPECT_NE(intern_class("Dot"), intern_class("Dots"));
  DiagnosticEngine diags;
  auto program = Parser::parse(kTwoDots, diags);
  SemaResult sema = Sema(*program, diags).run();
  ASSERT_TRUE(sema.ok) << diags.render();
  Interpreter interp(sema.registry);
  Env env = interp.run("A", "main");
  const ObjectRef& a = std::get<ObjectRef>(env.get("a"));
  const ObjectRef& b = std::get<ObjectRef>(env.get("b"));
  EXPECT_EQ(a->class_id(), b->class_id());
  EXPECT_EQ(a->class_id(), intern_class("Dot"));
  // The string literal's box is made once, at lowering.
  EXPECT_EQ(std::get<StringRef>(a->field(1)).get(), std::get<StringRef>(b->field(1)).get());
}

TEST(Heap, FinalsOutliveTheirInterpreterAndRegistry) {
  std::map<std::string, Value> finals;
  std::vector<std::byte> bytes;
  {
    DiagnosticEngine diags;
    auto program = Parser::parse(kTwoDots, diags);
    SemaResult sema = Sema(*program, diags).run();
    ASSERT_TRUE(sema.ok) << diags.render();
    Interpreter interp(sema.registry);
    finals = interp.run("A", "main").flatten();
    dc::Buffer buffer;
    for (const auto& [name, value] : finals) write_value(buffer, value);
    bytes.assign(buffer.data(), buffer.data() + buffer.size());
  }
  // The program, its registry and the interpreter are gone.
  EXPECT_EQ(std::get<ObjectRef>(finals.at("a"))->class_name(), "Dot");
  EXPECT_EQ(std::get<DomainRef>(finals.at("span"))->value.hi, 7);
  dc::Buffer buffer;
  for (const auto& [name, value] : finals) write_value(buffer, value);
  EXPECT_EQ(std::vector<std::byte>(buffer.data(), buffer.data() + buffer.size()), bytes);
  dc::Buffer again;
  write_value(again, finals.at("all"));
  again.seek(0);
  EXPECT_TRUE(value_equal(read_value(again), finals.at("all")));
}

}  // namespace
}  // namespace cgp
