// Value serialization tests.
#include <gtest/gtest.h>

#include <cstdio>

#include "codegen/serialize.h"

namespace cgp {
namespace {

Value round_trip(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  return read_value(buffer);
}

std::string hex_of(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  std::string hex;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    char byte[3];
    std::snprintf(byte, sizeof(byte), "%02x", static_cast<unsigned>(buffer.data()[i]));
    hex += byte;
  }
  return hex;
}

TEST(Serialize, Primitives) {
  EXPECT_TRUE(value_equal(round_trip(Value{std::int64_t{-42}}),
                          Value{std::int64_t{-42}}));
  EXPECT_TRUE(value_equal(round_trip(Value{3.25}), Value{3.25}));
  EXPECT_TRUE(value_equal(round_trip(Value{true}), Value{true}));
  EXPECT_TRUE(value_equal(round_trip(Value{make_string("hi")}),
                          Value{make_string("hi")}));
  EXPECT_TRUE(value_equal(round_trip(Value{}), Value{}));
}

TEST(Serialize, Rectdomain) {
  RectDomainVal dom{3, 17};
  Value v = round_trip(Value{make_box(dom)});
  const RectDomainVal& out = std::get<DomainRef>(v)->value;
  EXPECT_EQ(out.lo, 3);
  EXPECT_EQ(out.hi, 17);
}

TEST(Serialize, CompactDoubleArray) {
  ArrayRef arr = ArrayVal::make();
  arr->base_index = 5;
  for (int i = 0; i < 100; ++i) arr->elems.push_back(Value{i * 0.5});
  dc::Buffer buffer;
  write_value(buffer, Value{arr});
  // Raw encoding: ~tag + base + count + 100 doubles, no per-element tags.
  EXPECT_LT(buffer.size(), 100 * 8 + 32);
  Value out = read_value(buffer);
  EXPECT_TRUE(value_equal(Value{arr}, out));
  EXPECT_EQ(std::get<ArrayRef>(out)->base_index, 5);
}

TEST(Serialize, CompactIntArray) {
  ArrayRef arr = ArrayVal::make();
  for (int i = 0; i < 10; ++i) arr->elems.push_back(Value{std::int64_t{i}});
  EXPECT_TRUE(value_equal(round_trip(Value{arr}), Value{arr}));
}

TEST(Serialize, ObjectGraph) {
  ObjectRef inner = Object::make(intern_class("Inner"), {Value{std::int64_t{7}}});
  ObjectRef outer = Object::make(intern_class("Outer"), {Value{1.5}, Value{inner}, Value{}});
  Value out = round_trip(Value{outer});
  EXPECT_TRUE(value_equal(Value{outer}, out));
  const auto& obj = std::get<ObjectRef>(out);
  EXPECT_EQ(obj->class_name(), "Outer");
  const auto& nested = std::get<ObjectRef>(obj->field(1));
  EXPECT_EQ(nested->class_name(), "Inner");
}

TEST(Serialize, MixedArrayFallsBackToTagged) {
  ArrayRef arr = ArrayVal::make();
  arr->elems.push_back(Value{std::int64_t{1}});
  arr->elems.push_back(Value{2.0});
  EXPECT_TRUE(value_equal(round_trip(Value{arr}), Value{arr}));
}

TEST(Serialize, ValueEqualToleratesFloatNoise) {
  EXPECT_TRUE(value_equal(Value{1.0}, Value{1.0 + 1e-12}, 1e-9));
  EXPECT_FALSE(value_equal(Value{1.0}, Value{1.1}, 1e-9));
}

TEST(Serialize, ValueEqualCrossNumeric) {
  EXPECT_TRUE(value_equal(Value{std::int64_t{3}}, Value{3.0}, 0.0));
  EXPECT_FALSE(value_equal(Value{std::int64_t{3}}, Value{true}));
}

TEST(Serialize, ValueEqualComparesStringsByContent) {
  const Value a{make_string("cube")};
  const Value b{make_string(std::string("cu") + "be")};
  ASSERT_NE(std::get<StringRef>(a).get(), std::get<StringRef>(b).get());
  EXPECT_TRUE(value_equal(a, b));
  EXPECT_FALSE(value_equal(a, Value{make_string("cubes")}));
  EXPECT_FALSE(value_equal(a, Value{}));
}

// Bytes the format wrote before values were boxed: checkpoints, replica
// buffers and the benchmark's exact comparison depend on them.
TEST(Serialize, WriteValueBytesArePinned) {
  EXPECT_EQ(hex_of(Value{make_string("hi, there")}), "040900000068692c207468657265");
  EXPECT_EQ(hex_of(Value{make_box(RectDomainVal{-3, 17})}),
            "07fdffffffffffffff1100000000000000");
  const ObjectRef inner = Object::make(
      intern_class("Inner"), {Value{std::int64_t{7}}, Value{make_string("s")}});
  const ObjectRef outer =
      Object::make(intern_class("Outer"), {Value{1.5}, Value{inner}, Value{}, Value{true}});
  const std::string outer_hex =
      "05050000004f757465720400000002000000000000f83f0505000000496e6e6572020000000107000000"
      "00000000040100000073000301";
  EXPECT_EQ(hex_of(Value{outer}), outer_hex);
  ArrayRef ints = ArrayVal::make(Type::primitive(PrimKind::Int));
  ints->base_index = 5;
  ints->elems = {Value{std::int64_t{1}}, Value{std::int64_t{-2}}, Value{std::int64_t{300}}};
  EXPECT_EQ(hex_of(Value{ints}),
            "0b0500000000000000030000000000000001000000feffffff2c010000");
  ArrayRef floats = ArrayVal::make(Type::primitive(PrimKind::Float));
  floats->elems = {Value{0.5}, Value{-1.25}};
  EXPECT_EQ(hex_of(Value{floats}), "0a000000000000000002000000000000000000003f0000a0bf");
  ArrayRef mixed = ArrayVal::make();
  mixed->base_index = 2;
  mixed->elems = {Value{outer}, Value{}, Value{std::int64_t{4}},
                  Value{make_box(RectDomainVal{0, 9})}};
  EXPECT_EQ(hex_of(Value{mixed}), "0602000000000000000400000000000000" + outer_hex +
                                      "000104000000000000000700000000000000000900000000000000");
}

TEST(Serialize, CorruptBufferThrows) {
  dc::Buffer buffer;
  buffer.write<std::uint8_t>(250);  // invalid tag
  EXPECT_THROW(read_value(buffer), std::runtime_error);
}

}  // namespace
}  // namespace cgp
