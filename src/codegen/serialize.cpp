#include "codegen/serialize.h"

#include <cmath>
#include <cstring>

namespace cgp {

namespace {

enum class Tag : std::uint8_t {
  Null = 0,
  Int = 1,
  Double = 2,
  Bool = 3,
  String = 4,
  Object = 5,
  Array = 6,
  Rectdomain = 7,
  IntArrayRaw = 8,     // compact array of int64
  DoubleArrayRaw = 9,  // compact array of double
  FloatArrayRaw = 10,  // float-typed array: 4 bytes/element on the wire
  Int32ArrayRaw = 11,  // int-typed array: 4 bytes/element
  ByteArrayRaw = 12,   // byte-typed array: 1 byte/element
};

bool all_ints(const ArrayVal& arr) {
  for (const Value& v : arr.elems)
    if (!std::holds_alternative<std::int64_t>(v)) return false;
  return true;
}

bool all_doubles(const ArrayVal& arr) {
  for (const Value& v : arr.elems)
    if (!std::holds_alternative<double>(v)) return false;
  return true;
}

}  // namespace

void write_value(dc::Buffer& out, const Value& value) {
  struct Visitor {
    dc::Buffer& out;
    void operator()(std::monostate) { out.write<std::uint8_t>(
        static_cast<std::uint8_t>(Tag::Null)); }
    void operator()(std::int64_t i) {
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Int));
      out.write<std::int64_t>(i);
    }
    void operator()(double d) {
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Double));
      out.write<double>(d);
    }
    void operator()(bool b) {
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Bool));
      out.write<std::uint8_t>(b ? 1 : 0);
    }
    void operator()(const StringRef& s) {
      if (!s) {
        out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Null));
        return;
      }
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::String));
      out.write_string(s->value);
    }
    void operator()(const ObjectRef& obj) {
      if (!obj) {
        out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Null));
        return;
      }
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Object));
      out.write_string(obj->class_name());
      out.write<std::uint32_t>(static_cast<std::uint32_t>(obj->fields().size()));
      for (const Value& f : obj->fields()) write_value(out, f);
    }
    void operator()(const ArrayRef& arr) {
      if (!arr) {
        out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Null));
        return;
      }
      // Element-typed compact encodings (the declared type bounds the
      // wire width; float values are already float32-rounded).
      const PrimKind elem_prim =
          arr->element_type && arr->element_type->is_primitive()
              ? arr->element_type->prim()
              : PrimKind::Void;
      if (all_ints(*arr)) {
        Tag tag = Tag::IntArrayRaw;
        if (elem_prim == PrimKind::Int) tag = Tag::Int32ArrayRaw;
        if (elem_prim == PrimKind::Byte) tag = Tag::ByteArrayRaw;
        out.write<std::uint8_t>(static_cast<std::uint8_t>(tag));
        out.write<std::int64_t>(arr->base_index);
        out.write<std::uint64_t>(arr->elems.size());
        for (const Value& v : arr->elems) {
          const std::int64_t i = std::get<std::int64_t>(v);
          if (tag == Tag::Int32ArrayRaw) {
            out.write<std::int32_t>(static_cast<std::int32_t>(i));
          } else if (tag == Tag::ByteArrayRaw) {
            out.write<std::int8_t>(static_cast<std::int8_t>(i));
          } else {
            out.write<std::int64_t>(i);
          }
        }
        return;
      }
      if (all_doubles(*arr)) {
        const bool f32 = elem_prim == PrimKind::Float;
        out.write<std::uint8_t>(static_cast<std::uint8_t>(
            f32 ? Tag::FloatArrayRaw : Tag::DoubleArrayRaw));
        out.write<std::int64_t>(arr->base_index);
        out.write<std::uint64_t>(arr->elems.size());
        for (const Value& v : arr->elems) {
          if (f32) {
            out.write<float>(static_cast<float>(std::get<double>(v)));
          } else {
            out.write<double>(std::get<double>(v));
          }
        }
        return;
      }
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Array));
      out.write<std::int64_t>(arr->base_index);
      out.write<std::uint64_t>(arr->elems.size());
      for (const Value& v : arr->elems) write_value(out, v);
    }
    void operator()(const DomainRef& dom) {
      if (!dom) {
        out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Null));
        return;
      }
      out.write<std::uint8_t>(static_cast<std::uint8_t>(Tag::Rectdomain));
      out.write<std::int64_t>(dom->value.lo);
      out.write<std::int64_t>(dom->value.hi);
    }
  };
  std::visit(Visitor{out}, value);
}

Value read_value(dc::Buffer& in) {
  Tag tag = static_cast<Tag>(in.read<std::uint8_t>());
  switch (tag) {
    case Tag::Null:
      return std::monostate{};
    case Tag::Int:
      return in.read<std::int64_t>();
    case Tag::Double:
      return in.read<double>();
    case Tag::Bool:
      return in.read<std::uint8_t>() != 0;
    case Tag::String:
      return make_string(in.read_string());
    case Tag::Object: {
      const ClassName cls = intern_class(in.read_string());
      std::uint32_t n = in.read<std::uint32_t>();
      std::vector<Value> fields;
      fields.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) fields.push_back(read_value(in));
      return Object::make(cls, fields);
    }
    case Tag::Array: {
      ArrayRef arr = ArrayVal::make();
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(read_value(in));
      return arr;
    }
    case Tag::IntArrayRaw: {
      ArrayRef arr = ArrayVal::make();
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(in.read<std::int64_t>());
      return arr;
    }
    case Tag::DoubleArrayRaw: {
      ArrayRef arr = ArrayVal::make();
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(in.read<double>());
      return arr;
    }
    case Tag::FloatArrayRaw: {
      ArrayRef arr = ArrayVal::make(Type::primitive(PrimKind::Float));
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(static_cast<double>(in.read<float>()));
      return arr;
    }
    case Tag::Int32ArrayRaw: {
      ArrayRef arr = ArrayVal::make(Type::primitive(PrimKind::Int));
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(static_cast<std::int64_t>(in.read<std::int32_t>()));
      return arr;
    }
    case Tag::ByteArrayRaw: {
      ArrayRef arr = ArrayVal::make(Type::primitive(PrimKind::Byte));
      arr->base_index = in.read<std::int64_t>();
      std::uint64_t n = in.read<std::uint64_t>();
      arr->elems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        arr->elems.push_back(static_cast<std::int64_t>(in.read<std::int8_t>()));
      return arr;
    }
    case Tag::Rectdomain: {
      RectDomainVal dom;
      dom.lo = in.read<std::int64_t>();
      dom.hi = in.read<std::int64_t>();
      return make_box(dom);
    }
  }
  throw std::runtime_error("read_value: corrupt buffer");
}

bool value_equal(const Value& a, const Value& b, double float_tol) {
  if (a.index() != b.index()) {
    // int/double cross-compare with tolerance
    if ((std::holds_alternative<std::int64_t>(a) ||
         std::holds_alternative<double>(a)) &&
        (std::holds_alternative<std::int64_t>(b) ||
         std::holds_alternative<double>(b))) {
      return std::fabs(as_double(a) - as_double(b)) <= float_tol;
    }
    return false;
  }
  if (std::holds_alternative<std::monostate>(a)) return true;
  if (const auto* i = std::get_if<std::int64_t>(&a))
    return *i == std::get<std::int64_t>(b);
  if (const auto* d = std::get_if<double>(&a))
    return std::fabs(*d - std::get<double>(b)) <= float_tol;
  if (const auto* bo = std::get_if<bool>(&a)) return *bo == std::get<bool>(b);
  if (const auto* s = std::get_if<StringRef>(&a)) {
    const auto& other = std::get<StringRef>(b);
    if (!*s || !other) return s->get() == other.get();
    return (*s)->value == other->value;
  }
  if (const auto* obj = std::get_if<ObjectRef>(&a)) {
    const auto& other = std::get<ObjectRef>(b);
    if (!*obj || !other) return obj->get() == other.get();
    if ((*obj)->class_id() != other->class_id()) return false;
    const auto mine = (*obj)->fields();
    const auto theirs = other->fields();
    if (mine.size() != theirs.size()) return false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (!value_equal(mine[i], theirs[i], float_tol)) return false;
    }
    return true;
  }
  if (const auto* arr = std::get_if<ArrayRef>(&a)) {
    const auto& other = std::get<ArrayRef>(b);
    if (!*arr || !other) return arr->get() == other.get();
    if ((*arr)->elems.size() != other->elems.size()) return false;
    for (std::size_t i = 0; i < (*arr)->elems.size(); ++i) {
      if (!value_equal((*arr)->elems[i], other->elems[i], float_tol))
        return false;
    }
    return true;
  }
  if (const auto* dom = std::get_if<DomainRef>(&a)) {
    const auto& other = std::get<DomainRef>(b);
    if (!*dom || !other) return dom->get() == other.get();
    return (*dom)->value.lo == other->value.lo && (*dom)->value.hi == other->value.hi;
  }
  return false;
}

}  // namespace cgp
