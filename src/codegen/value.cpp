#include "codegen/value.h"

#include <memory>
#include <mutex>
#include <new>
#include <set>

namespace cgp {

ClassName intern_class(std::string_view name) {
  struct Table {
    std::mutex mutex;
    std::set<std::string, std::less<>> names;  // nodes never move
  };
  // Never destroyed: values may be released during static destruction.
  static Table* const table = new Table;
  std::lock_guard lock(table->mutex);
  auto it = table->names.find(name);
  if (it == table->names.end()) it = table->names.emplace(name).first;
  return &*it;
}

ObjectRef Object::make(ClassName cls, std::span<const Value> fields) {
  void* block = ::operator new(sizeof(Object) + fields.size() * sizeof(Value));
  auto* object = new (block) Object(cls, static_cast<std::uint32_t>(fields.size()));
  std::uninitialized_copy(fields.begin(), fields.end(), object->slots());
  return ObjectRef::adopt(object);
}

void Object::destroy(Object* object) {
  std::destroy_n(object->slots(), object->count_);
  object->~Object();
  ::operator delete(object);
}

ArrayRef ArrayVal::make(TypePtr element_type) {
  auto* array = new ArrayVal;
  array->element_type = std::move(element_type);
  return ArrayRef::adopt(array);
}

}  // namespace cgp
