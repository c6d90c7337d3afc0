// Packing layout planning + codec tests (§5).
#include <gtest/gtest.h>

#include <cstring>

#include "codegen/packing.h"

namespace cgp {
namespace {

ClassRegistry make_registry() {
  ClassRegistry registry;
  ClassInfo tri;
  tri.name = "Tri";
  tri.fields = {FieldInfo{"x", Type::primitive(PrimKind::Float), 0},
                FieldInfo{"y", Type::primitive(PrimKind::Float), 1},
                FieldInfo{"val", Type::primitive(PrimKind::Float), 2}};
  registry.add(tri);
  return registry;
}

ValueEntry elem_entry(TypePtr type, std::int64_t lo, std::int64_t hi) {
  return ValueEntry{std::move(type),
                    RectSection::dim1(SymPoly(lo), SymPoly(hi))};
}

TEST(Packing, FieldsConsumedTogetherAreInstanceWise) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  req.add(ValueId{"tris", {kElemStep, "y"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  ValueSet next_cons = req;  // both consumed immediately
  PackingLayout layout = plan_packing(req, {next_cons}, registry);
  ASSERT_EQ(layout.groups.size(), 1u);
  EXPECT_TRUE(layout.groups[0].instancewise);
  EXPECT_EQ(layout.groups[0].items.size(), 2u);
}

TEST(Packing, LaterConsumedFieldIsFieldWise) {
  // §5: a field used by the receiving filter packs instance-wise; a field
  // only re-forwarded packs field-wise.
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  req.add(ValueId{"tris", {kElemStep, "val"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  ValueSet stage0_cons;
  stage0_cons.add(ValueId{"tris", {kElemStep, "x"}},
                  elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  ValueSet stage1_cons;
  stage1_cons.add(ValueId{"tris", {kElemStep, "val"}},
                  elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  PackingLayout layout =
      plan_packing(req, {stage0_cons, stage1_cons}, registry);
  ASSERT_EQ(layout.groups.size(), 2u);
  EXPECT_TRUE(layout.groups[0].instancewise);
  EXPECT_EQ(layout.groups[0].items[0].id.steps.back(), "x");
  EXPECT_FALSE(layout.groups[1].instancewise);
  EXPECT_EQ(layout.groups[1].items[0].id.steps.back(), "val");
}

TEST(Packing, WholeElementExpandsToReducedFields) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep}},
          elem_entry(Type::class_type("Tri"), 0, 4));
  PackingLayout layout = plan_packing(req, {req}, registry);
  ASSERT_EQ(layout.groups.size(), 1u);
  EXPECT_EQ(layout.groups[0].items.size(), 3u);  // x, y, val
}

TEST(Packing, LengthEntriesDropped) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  req.add(ValueId{"tris", {"length"}},
          ValueEntry{Type::primitive(PrimKind::Int), {}});
  PackingLayout layout = plan_packing(req, {req}, registry);
  EXPECT_TRUE(layout.header.empty());
  EXPECT_EQ(layout.groups.size(), 1u);
}

TEST(Packing, RootedHeaderCollapses) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"pz", {"depth"}},
          ValueEntry{Type::array_of(Type::primitive(PrimKind::Float)), {}});
  req.add(ValueId{"pz", {"color"}},
          ValueEntry{Type::array_of(Type::primitive(PrimKind::Float)), {}});
  PackingLayout layout = plan_packing(req, {req}, registry);
  ASSERT_EQ(layout.header.size(), 1u);
  EXPECT_EQ(layout.header[0].id.to_string(), "pz");
}

TEST(Packing, ScalarsStayInHeader) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"nsel", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  req.add(ValueId{"isoval", {}},
          ValueEntry{Type::primitive(PrimKind::Double), {}});
  PackingLayout layout = plan_packing(req, {req}, registry);
  EXPECT_EQ(layout.header.size(), 2u);
  EXPECT_TRUE(layout.groups.empty());
}

// ---------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------

ArrayRef make_tris(const ClassRegistry& registry, int n, std::int64_t base = 0) {
  ArrayRef arr = ArrayVal::make();
  arr->base_index = base;
  const ClassInfo* info = registry.find("Tri");
  for (int i = 0; i < n; ++i) {
    std::vector<Value> fields(info->fields.size());
    fields[0] = Value{static_cast<double>(i) + 0.25};
    fields[1] = Value{static_cast<double>(i) * 2.0};
    fields[2] = Value{static_cast<double>(i) - 0.5};
    arr->elems.push_back(Object::make(intern_class("Tri"), fields));
  }
  return arr;
}

TEST(Packing, CodecInstanceWiseRoundTrip) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 4));
  req.add(ValueId{"tris", {kElemStep, "y"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 4));
  req.add(ValueId{"count", {}},
          ValueEntry{Type::primitive(PrimKind::Int), {}});
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);

  Env sender;
  sender.declare("tris", make_tris(registry, 5));
  sender.declare("count", Value{std::int64_t{5}});
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; }, buffer);

  Env receiver;
  codec.unpack(buffer, receiver);
  EXPECT_EQ(as_int(receiver.get("count")), 5);
  const auto& arr =
      std::get<ArrayRef>(receiver.get("tris"));
  ASSERT_EQ(arr->elems.size(), 5u);
  const auto& obj = std::get<ObjectRef>(arr->elems[3]);
  EXPECT_NEAR(as_double(obj->field(0)), 3.25, 1e-6);
  EXPECT_NEAR(as_double(obj->field(1)), 6.0, 1e-6);
  // val was not packed: default-initialized.
  EXPECT_DOUBLE_EQ(as_double(obj->field(2)), 0.0);
}

TEST(Packing, CodecSymbolicSectionResolved) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  SymPoly n = SymPoly::symbol("nsel");
  req.add(ValueId{"tris", {kElemStep, "x"}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(0), n - 1)});
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);

  Env sender;
  sender.declare("tris", make_tris(registry, 10));
  dc::Buffer buffer;
  codec.pack(sender,
             [](const std::string& sym) -> std::optional<std::int64_t> {
               if (sym == "nsel") return 3;
               return std::nullopt;
             },
             buffer);
  Env receiver;
  codec.unpack(buffer, receiver);
  const auto& arr =
      std::get<ArrayRef>(receiver.get("tris"));
  EXPECT_EQ(arr->elems.size(), 3u);  // only [0:nsel-1] transmitted
}

TEST(Packing, CodecBaseShiftedSections) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  SymPoly p = SymPoly::symbol("p");
  // [p*4 : p*4+3] — the packet-relative idiom.
  req.add(ValueId{"tris", {kElemStep, "x"}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(p * 4, p * 4 + 3)});
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);

  Env sender;
  sender.declare("tris", make_tris(registry, 16));
  dc::Buffer buffer;
  codec.pack(sender,
             [](const std::string& sym) -> std::optional<std::int64_t> {
               if (sym == "p") return 2;
               return std::nullopt;
             },
             buffer);
  Env receiver;
  codec.unpack(buffer, receiver);
  const auto& arr =
      std::get<ArrayRef>(receiver.get("tris"));
  EXPECT_EQ(arr->base_index, 8);
  ASSERT_EQ(arr->elems.size(), 4u);
  const auto& obj = std::get<ObjectRef>(arr->elems[0]);
  EXPECT_NEAR(as_double(obj->field(0)), 8.25, 1e-6);  // element 8
}

TEST(Packing, CodecWholeCollectionFallback) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          ValueEntry{Type::primitive(PrimKind::Float), std::nullopt});
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);
  Env sender;
  sender.declare("tris", make_tris(registry, 7));
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; }, buffer);
  Env receiver;
  codec.unpack(buffer, receiver);
  const auto& arr =
      std::get<ArrayRef>(receiver.get("tris"));
  EXPECT_EQ(arr->elems.size(), 7u);
}

TEST(Packing, CodecMissingBindingThrows) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"count", {}},
          ValueEntry{Type::primitive(PrimKind::Int), {}});
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);
  Env sender;  // count not declared
  dc::Buffer buffer;
  EXPECT_THROW(
      codec.pack(sender, [](const std::string&) { return std::nullopt; },
                 buffer),
      std::runtime_error);
}

TEST(Packing, CodecLayoutMismatchThrows) {
  ClassRegistry registry = make_registry();
  ValueSet req_a;
  req_a.add(ValueId{"a", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  ValueSet req_b;
  req_b.add(ValueId{"a", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  req_b.add(ValueId{"b", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  PacketCodec sender_codec(registry, plan_packing(req_a, {req_a}, registry));
  PacketCodec receiver_codec(registry, plan_packing(req_b, {req_b}, registry));
  Env sender;
  sender.declare("a", Value{std::int64_t{1}});
  dc::Buffer buffer;
  sender_codec.pack(sender, [](const std::string&) { return std::nullopt; },
                    buffer);
  Env receiver;
  EXPECT_THROW(receiver_codec.unpack(buffer, receiver), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Compiled group plans (zero-copy packing codegen)
// ---------------------------------------------------------------------------

/// Registry with a nested class: Part { Vec pos; int id; }, Vec { float x;
/// double y; } — exercises multi-step field chains and mixed leaf widths.
ClassRegistry make_nested_registry() {
  ClassRegistry registry;
  ClassInfo vec;
  vec.name = "Vec";
  vec.fields = {FieldInfo{"x", Type::primitive(PrimKind::Float), 0},
                FieldInfo{"y", Type::primitive(PrimKind::Double), 1}};
  registry.add(vec);
  ClassInfo part;
  part.name = "Part";
  part.fields = {FieldInfo{"pos", Type::class_type("Vec"), 0},
                 FieldInfo{"id", Type::primitive(PrimKind::Int), 1}};
  registry.add(part);
  return registry;
}

ArrayRef make_parts(int n) {
  ArrayRef arr = ArrayVal::make();
  for (int i = 0; i < n; ++i) {
    ObjectRef pos = Object::make(intern_class("Vec"), {Value{static_cast<double>(i) + 0.5},
                                                       Value{static_cast<double>(i) * 3.0}});
    arr->elems.push_back(
        Object::make(intern_class("Part"), {Value{pos}, Value{std::int64_t{i * 7}}}));
  }
  return arr;
}

std::vector<unsigned char> bytes_of(const dc::Buffer& buffer) {
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return std::vector<unsigned char>(data, data + buffer.size());
}

TEST(CompiledPlan, PrimitiveLeavesAreEligible) {
  ClassRegistry registry = make_registry();
  PackGroup group;
  group.collection = "tris";
  group.items = {
      PackedItem{ValueId{"tris", {kElemStep, "x"}},
                 Type::primitive(PrimKind::Float), std::nullopt, 0},
      PackedItem{ValueId{"tris", {kElemStep, "val"}},
                 Type::primitive(PrimKind::Float), std::nullopt, 0}};
  GroupPlan plan = compile_group_plan(registry, group, "Tri");
  ASSERT_TRUE(plan.eligible);
  ASSERT_EQ(plan.leaves.size(), 2u);
  EXPECT_EQ(plan.stride, 8u);  // two float leaves
  EXPECT_EQ(plan.leaves[0].offset, 0u);
  EXPECT_EQ(plan.leaves[1].offset, 4u);
  EXPECT_EQ(plan.leaves[1].chain.size(), 1u);
  EXPECT_EQ(plan.leaves[1].chain[0], 2);  // Tri::val field index
}

TEST(CompiledPlan, WholeElementTransferIsIneligible) {
  ClassRegistry registry = make_registry();
  PackGroup group;
  group.collection = "tris";
  group.items = {PackedItem{ValueId{"tris", {kElemStep}},
                            Type::class_type("Tri"), std::nullopt, 0}};
  EXPECT_FALSE(compile_group_plan(registry, group, "Tri").eligible);
  // Unknown element class: nothing to resolve the chain against.
  group.items = {PackedItem{ValueId{"tris", {kElemStep, "x"}},
                            Type::primitive(PrimKind::Float), std::nullopt,
                            0}};
  EXPECT_FALSE(compile_group_plan(registry, group, "NoSuch").eligible);
}

TEST(CompiledPlan, NestedChainResolvesThroughRegistry) {
  ClassRegistry registry = make_nested_registry();
  PackGroup group;
  group.collection = "parts";
  group.items = {
      PackedItem{ValueId{"parts", {kElemStep, "pos", "y"}},
                 Type::primitive(PrimKind::Double), std::nullopt, 0},
      PackedItem{ValueId{"parts", {kElemStep, "id"}},
                 Type::primitive(PrimKind::Int), std::nullopt, 0}};
  GroupPlan plan = compile_group_plan(registry, group, "Part");
  ASSERT_TRUE(plan.eligible);
  EXPECT_EQ(plan.stride, 12u);  // double + int32
  ASSERT_EQ(plan.leaves[0].chain.size(), 2u);
  ASSERT_EQ(plan.leaves[0].nested_skeletons.size(), 1u);
  EXPECT_EQ(*plan.leaves[0].nested_skeletons[0].name, "Vec");
}

/// Packs `env` twice — compiled plans on, then the interpreted reference —
/// and requires bit-identical wire bytes; then unpacks each buffer with the
/// opposite path and spot-checks via the provided verifier.
void expect_codec_parity(const ClassRegistry& registry,
                         const PackingLayout& layout, Env& sender,
                         const SymbolResolver& resolve,
                         const std::function<void(Env&)>& verify) {
  PacketCodec codec(registry, layout);
  dc::Buffer compiled;
  codec.pack(sender, resolve, compiled);
  dc::Buffer interpreted;
  codec.pack_interpreted(sender, resolve, interpreted);
  ASSERT_EQ(bytes_of(compiled), bytes_of(interpreted));

  Env via_compiled;
  codec.unpack(interpreted, via_compiled);  // compiled scatter, ref bytes
  verify(via_compiled);
  Env via_interpreted;
  codec.unpack_interpreted(compiled, via_interpreted);
  verify(via_interpreted);
}

TEST(CompiledPlan, InstanceWisePackMatchesInterpreted) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 5));
  req.add(ValueId{"tris", {kElemStep, "y"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 5));
  PackingLayout layout = plan_packing(req, {req}, registry);
  ASSERT_TRUE(layout.groups[0].instancewise);
  Env sender;
  sender.declare("tris", make_tris(registry, 6));
  expect_codec_parity(
      registry, layout, sender,
      [](const std::string&) { return std::nullopt; }, [](Env& env) {
        const auto& arr =
            std::get<ArrayRef>(env.get("tris"));
        ASSERT_EQ(arr->elems.size(), 6u);
        const auto& obj = std::get<ObjectRef>(arr->elems[4]);
        EXPECT_NEAR(as_double(obj->field(0)), 4.25, 1e-6);
        EXPECT_NEAR(as_double(obj->field(1)), 8.0, 1e-6);
      });
}

TEST(CompiledPlan, FieldWisePackMatchesInterpreted) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 7));
  req.add(ValueId{"tris", {kElemStep, "val"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 7));
  ValueSet now;
  now.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 7));
  ValueSet later;
  later.add(ValueId{"tris", {kElemStep, "val"}},
            elem_entry(Type::primitive(PrimKind::Float), 0, 7));
  PackingLayout layout = plan_packing(req, {now, later}, registry);
  ASSERT_EQ(layout.groups.size(), 2u);
  ASSERT_FALSE(layout.groups[1].instancewise);
  Env sender;
  sender.declare("tris", make_tris(registry, 8));
  expect_codec_parity(
      registry, layout, sender,
      [](const std::string&) { return std::nullopt; }, [](Env& env) {
        const auto& arr =
            std::get<ArrayRef>(env.get("tris"));
        ASSERT_EQ(arr->elems.size(), 8u);
        const auto& obj = std::get<ObjectRef>(arr->elems[7]);
        EXPECT_NEAR(as_double(obj->field(0)), 7.25, 1e-6);
        EXPECT_NEAR(as_double(obj->field(2)), 6.5, 1e-6);
      });
}

TEST(CompiledPlan, NestedClassesMatchInterpreted) {
  ClassRegistry registry = make_nested_registry();
  ValueSet req;
  req.add(ValueId{"parts", {kElemStep, "pos", "y"}},
          elem_entry(Type::primitive(PrimKind::Double), 0, 4));
  req.add(ValueId{"parts", {kElemStep, "id"}},
          elem_entry(Type::primitive(PrimKind::Int), 0, 4));
  PackingLayout layout = plan_packing(req, {req}, registry);
  Env sender;
  sender.declare("parts", make_parts(5));
  expect_codec_parity(
      registry, layout, sender,
      [](const std::string&) { return std::nullopt; }, [](Env& env) {
        const auto& arr =
            std::get<ArrayRef>(env.get("parts"));
        ASSERT_EQ(arr->elems.size(), 5u);
        const auto& obj = std::get<ObjectRef>(arr->elems[3]);
        const auto& pos = std::get<ObjectRef>(obj->field(0));
        EXPECT_DOUBLE_EQ(as_double(pos->field(1)), 9.0);
        EXPECT_EQ(as_int(obj->field(1)), 21);
      });
}

TEST(CompiledPlan, SectionedGroupMatchesInterpreted) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  SymPoly n = SymPoly::symbol("nsel");
  req.add(ValueId{"tris", {kElemStep, "x"}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(2), n - 1)});
  PackingLayout layout = plan_packing(req, {req}, registry);
  Env sender;
  sender.declare("tris", make_tris(registry, 12));
  expect_codec_parity(
      registry, layout, sender,
      [](const std::string& sym) -> std::optional<std::int64_t> {
        if (sym == "nsel") return 9;
        return std::nullopt;
      },
      [](Env& env) {
        const auto& arr =
            std::get<ArrayRef>(env.get("tris"));
        EXPECT_EQ(arr->base_index, 2);
        ASSERT_EQ(arr->elems.size(), 7u);  // [2 : 8]
      });
}

TEST(CompiledPlan, EmptyCollectionMatchesInterpreted) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 9));
  PackingLayout layout = plan_packing(req, {req}, registry);
  Env sender;
  sender.declare("tris", make_tris(registry, 0));
  expect_codec_parity(
      registry, layout, sender,
      [](const std::string&) { return std::nullopt; }, [](Env& env) {
        const auto& arr =
            std::get<ArrayRef>(env.get("tris"));
        EXPECT_TRUE(arr->elems.empty());
      });
}

TEST(CompiledPlan, NullElementFallsBackToInterpretedBytes) {
  // A null element defeats the compiled gather mid-group; the pack must
  // rewind and produce the interpreted path's exact bytes (which serialize
  // the null as a default element) rather than corrupt output.
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 3));
  PackingLayout layout = plan_packing(req, {req}, registry);
  Env sender;
  auto arr = make_tris(registry, 4);
  arr->elems[2] = Value{ObjectRef{}};
  sender.declare("tris", arr);
  PacketCodec codec(registry, layout);
  dc::Buffer compiled;
  dc::Buffer interpreted;
  const SymbolResolver none = [](const std::string&) { return std::nullopt; };
  bool compiled_threw = false;
  bool interpreted_threw = false;
  try {
    codec.pack(sender, none, compiled);
  } catch (const std::exception&) {
    compiled_threw = true;
  }
  try {
    codec.pack_interpreted(sender, none, interpreted);
  } catch (const std::exception&) {
    interpreted_threw = true;
  }
  EXPECT_EQ(compiled_threw, interpreted_threw);
  if (!compiled_threw) EXPECT_EQ(bytes_of(compiled), bytes_of(interpreted));
}

// ---------------------------------------------------------------------------
// PackedView (zero-copy group views)
// ---------------------------------------------------------------------------

/// Single-item layouts for the same collection differing only in the
/// instance-wise flag — their serializations are byte-identical except for
/// that one byte, which is what makes PackedView's flag patching legal.
TEST(PackedView, SingleItemLayoutsDifferOnlyInFlagByte) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 5));
  PackingLayout instance = plan_packing(req, {req}, registry);
  ASSERT_TRUE(instance.groups[0].instancewise);
  PackingLayout field = instance;
  field.groups[0].instancewise = false;

  Env sender;
  sender.declare("tris", make_tris(registry, 6));
  const SymbolResolver none = [](const std::string&) { return std::nullopt; };
  dc::Buffer a;
  PacketCodec(registry, instance).pack(sender, none, a);
  dc::Buffer b;
  PacketCodec(registry, field).pack(sender, none, b);
  ASSERT_EQ(a.size(), b.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (*a.span(i, 1) != *b.span(i, 1)) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(PackedView, ParseAndFieldPointers) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 3));
  req.add(ValueId{"tris", {kElemStep, "y"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 3));
  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);
  Env sender;
  sender.declare("tris", make_tris(registry, 4));
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; },
             buffer);

  // Skip the header (count slot + no items) and the group-count word the
  // whole-packet wrapper writes; the group's size slot follows.
  buffer.read<std::uint32_t>();  // header arity
  ASSERT_EQ(buffer.read<std::uint32_t>(), 1u);
  PackedView view = PackedView::parse(buffer, buffer.read_pos());
  EXPECT_EQ(view.collection(), "tris");
  EXPECT_EQ(view.elem_class(), "Tri");
  EXPECT_TRUE(view.instancewise());
  EXPECT_EQ(view.lo(), 0);
  EXPECT_EQ(view.count(), 4);
  EXPECT_EQ(view.n_items(), 2u);
  EXPECT_EQ(view.end_offset(), buffer.size());

  const std::vector<std::size_t> widths = {4, 4};
  float x2 = 0.0f;
  std::memcpy(&x2, view.field_ptr(0, 2, widths), sizeof(float));
  EXPECT_NEAR(x2, 2.25f, 1e-6);
  float y3 = 0.0f;
  std::memcpy(&y3, view.field_ptr(1, 3, widths), sizeof(float));
  EXPECT_NEAR(y3, 6.0f, 1e-6);
}

TEST(PackedView, FieldWiseFieldPointers) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 3));
  req.add(ValueId{"tris", {kElemStep, "y"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 3));
  PackingLayout layout = plan_packing(req, {req}, registry);
  layout.groups[0].instancewise = false;  // force contiguous runs
  PacketCodec codec(registry, layout);
  Env sender;
  sender.declare("tris", make_tris(registry, 4));
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; },
             buffer);
  buffer.read<std::uint32_t>();
  buffer.read<std::uint32_t>();
  PackedView view = PackedView::parse(buffer, buffer.read_pos());
  EXPECT_FALSE(view.instancewise());
  const std::vector<std::size_t> widths = {4, 4};
  float x1 = 0.0f;
  std::memcpy(&x1, view.field_ptr(0, 1, widths), sizeof(float));
  EXPECT_NEAR(x1, 1.25f, 1e-6);
  float y0 = 0.0f;
  std::memcpy(&y0, view.field_ptr(1, 0, widths), sizeof(float));
  EXPECT_NEAR(y0, 0.0f, 1e-6);
}

TEST(PackedView, AppendToForwardsVerbatimAndPatchesFlag) {
  ClassRegistry registry = make_registry();
  ValueSet req;
  req.add(ValueId{"tris", {kElemStep, "x"}},
          elem_entry(Type::primitive(PrimKind::Float), 0, 5));
  PackingLayout instance = plan_packing(req, {req}, registry);
  PackingLayout field = instance;
  field.groups[0].instancewise = false;
  const SymbolResolver none = [](const std::string&) { return std::nullopt; };
  Env sender;
  sender.declare("tris", make_tris(registry, 6));

  dc::Buffer in;
  PacketCodec(registry, field).pack(sender, none, in);
  in.read<std::uint32_t>();
  in.read<std::uint32_t>();
  PackedView view = PackedView::parse(in, in.read_pos());

  // Verbatim copy: the forwarded block equals the source block.
  dc::Buffer copy;
  view.append_to(copy);
  ASSERT_EQ(copy.size(), in.size() - in.read_pos());
  EXPECT_EQ(std::memcmp(copy.data(), in.span(in.read_pos(), copy.size()),
                        copy.size()),
            0);

  // Patched copy: byte-identical to packing the instance-wise layout.
  dc::Buffer patched;
  view.append_to(patched, true);
  dc::Buffer direct;
  PacketCodec(registry, instance).pack(sender, none, direct);
  const std::size_t skip = in.read_pos();  // header + group count words
  ASSERT_EQ(patched.size(), direct.size() - skip);
  EXPECT_EQ(std::memcmp(patched.data(), direct.span(skip, patched.size()),
                        patched.size()),
            0);
}

}  // namespace
}  // namespace cgp
