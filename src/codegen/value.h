// Runtime value model for the cgpipe interpreter.
//
// The compiler's executable output is a set of filters whose bodies are
// interpreted dialect statements (the text emitter in emitter.h produces
// the equivalent DataCutter C++ for inspection). Values are Java-like:
// primitives by value, objects/arrays by reference.
//
// A Value is 16 bytes: every alternative fits in 8. Strings and rectdomains
// sit behind immutable shared boxes; objects and arrays behind an
// intrusive reference. An object is one allocation, a 16-byte header
// followed by its fields (DESIGN.md §6 item 14).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "ast/type.h"

namespace cgp {

/// Counted reference to a heap block that carries its own count (a
/// `refs_` member starting at 1) and frees itself through T::destroy.
/// Copies increment relaxed; the decrement that may destroy is acq_rel,
/// the orders std::shared_ptr uses. Reference cycles are never freed.
template <class T>
class Ref {
 public:
  Ref() noexcept = default;
  Ref(const Ref& other) noexcept : p_(other.p_) { retain(); }
  Ref(Ref&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  Ref& operator=(const Ref& other) noexcept {
    Ref(other).swap(*this);
    return *this;
  }
  Ref& operator=(Ref&& other) noexcept {
    Ref(std::move(other)).swap(*this);
    return *this;
  }
  ~Ref() { release(); }

  /// Takes over a block whose count already accounts for this reference.
  static Ref adopt(T* block) noexcept {
    Ref ref;
    ref.p_ = block;
    return ref;
  }

  void reset() noexcept { Ref().swap(*this); }
  void swap(Ref& other) noexcept { std::swap(p_, other.p_); }
  T* get() const noexcept { return p_; }
  T& operator*() const noexcept { return *p_; }
  T* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  /// Holders of the block; 1 means this reference is the only one.
  std::uint32_t use_count() const noexcept {
    return p_ ? p_->refs_.load(std::memory_order_relaxed) : 0;
  }

 private:
  void retain() const noexcept {
    if (p_) p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    if (p_ && p_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      T::destroy(p_);
  }

  T* p_ = nullptr;
};

/// An immutable shared value: string literals and stored rectdomains.
template <class T>
struct Box {
  explicit Box(T v) : value(std::move(v)) {}
  const T value;

 private:
  template <class>
  friend class Ref;
  static void destroy(const Box* box) { delete box; }
  mutable std::atomic<std::uint32_t> refs_{1};
};

template <class T>
Ref<const Box<T>> make_box(T value) {
  return Ref<const Box<T>>::adopt(new Box<T>(std::move(value)));
}

struct RectDomainVal {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // empty by default
  std::int64_t size() const { return hi >= lo ? hi - lo + 1 : 0; }
};

/// An interned class name: one process-lifetime string per spelling, so
/// names compare by pointer. Process-lifetime because values outlive the
/// registry whose classes named them (a run's finals do).
using ClassName = const std::string*;
ClassName intern_class(std::string_view name);

class Object;
struct ArrayVal;
using StringRef = Ref<const Box<std::string>>;
using DomainRef = Ref<const Box<RectDomainVal>>;
using ObjectRef = Ref<Object>;
using ArrayRef = Ref<ArrayVal>;

inline StringRef make_string(std::string text) { return make_box(std::move(text)); }

using Value = std::variant<std::monostate,  // uninitialized / null
                           std::int64_t,    // int, long, byte
                           double,          // float, double
                           bool,            // boolean
                           StringRef,       // String
                           ObjectRef,
                           ArrayRef,
                           DomainRef>;
static_assert(sizeof(Value) == 16);

/// A dialect object: one allocation holding a 16-byte header (count,
/// field count, class name) and then its fields, indexed by
/// FieldInfo::index.
class Object {
 public:
  /// The only way to make an object: of class `cls`, its fields
  /// initialized from `fields`.
  static ObjectRef make(ClassName cls, std::span<const Value> fields);
  static ObjectRef make(ClassName cls, std::initializer_list<Value> fields) {
    return make(cls, std::span<const Value>(fields.begin(), fields.size()));
  }

  const std::string& class_name() const { return *class_; }
  ClassName class_id() const { return class_; }
  std::span<Value> fields() { return {slots(), count_}; }
  std::span<const Value> fields() const { return {slots(), count_}; }
  Value& field(std::size_t i) { return slots()[i]; }
  const Value& field(std::size_t i) const { return slots()[i]; }

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

 private:
  template <class>
  friend class Ref;
  Object(ClassName cls, std::uint32_t count) : count_(count), class_(cls) {}
  ~Object() = default;
  static void destroy(Object* object);
  Value* slots() { return reinterpret_cast<Value*>(this + 1); }
  const Value* slots() const { return reinterpret_cast<const Value*>(this + 1); }

  mutable std::atomic<std::uint32_t> refs_{1};
  std::uint32_t count_;
  ClassName class_;
};
static_assert(sizeof(Object) == 16 && alignof(Object) >= alignof(Value));

struct ArrayVal {
  /// A new empty array of `element_type` elements.
  static ArrayRef make(TypePtr element_type = nullptr);

  TypePtr element_type;
  std::vector<Value> elems;
  /// Logical index of elems[0]: packet sections arrive base-shifted, so
  /// a[i] reads elems[i - base_index].
  std::int64_t base_index = 0;

 private:
  template <class>
  friend class Ref;
  ArrayVal() = default;
  static void destroy(const ArrayVal* array) { delete array; }
  mutable std::atomic<std::uint32_t> refs_{1};
};

inline bool is_null(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

/// Numeric coercions (Java-style widening).
std::int64_t as_int(const Value& v);
double as_double(const Value& v);
bool as_bool(const Value& v);

/// Debug rendering.
std::string value_to_string(const Value& v);

}  // namespace cgp
