#include "codegen/packing.h"

#include <algorithm>
#include <climits>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "codegen/serialize.h"

namespace cgp {

namespace {

bool ids_overlap(const ValueId& a, const ValueId& b) {
  return a.is_prefix_of(b) || b.is_prefix_of(a);
}

int first_consumer_stage(const ValueId& id,
                         const std::vector<ValueSet>& downstream_cons) {
  for (std::size_t k = 0; k < downstream_cons.size(); ++k) {
    for (const auto& [cons_id, entry] : downstream_cons[k].items()) {
      if (ids_overlap(id, cons_id)) return static_cast<int>(k);
    }
  }
  return INT_MAX;
}

/// Splits an elementwise id at its "[]" step.
void split_elementwise(const ValueId& id, std::string& collection_path,
                       std::vector<std::string>& field_path) {
  ValueId prefix{id.base, {}};
  std::size_t i = 0;
  while (i < id.steps.size() && id.steps[i] != kElemStep) {
    prefix.steps.push_back(id.steps[i]);
    ++i;
  }
  collection_path = prefix.to_string();
  ++i;  // skip "[]"
  field_path.assign(id.steps.begin() + static_cast<std::ptrdiff_t>(i),
                    id.steps.end());
}

}  // namespace

std::string PackingLayout::to_string() const {
  std::ostringstream out;
  out << "header{";
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out << ", ";
    out << header[i].id.to_string();
  }
  out << "}";
  for (const PackGroup& g : groups) {
    out << " " << (g.instancewise ? "instance" : "field") << "-wise("
        << g.collection << ")[";
    for (std::size_t i = 0; i < g.items.size(); ++i) {
      if (i) out << ", ";
      // render only the trailing field path for brevity
      std::string full = g.items[i].id.to_string();
      auto pos = full.find("[]");
      out << (pos == std::string::npos ? full : full.substr(pos + 2));
    }
    out << "]";
  }
  return out.str();
}

namespace {

/// Expands a whole-element item into one raw item per primitive field of
/// the element class (recursively through nested classes). Returns false
/// when the class has fields that cannot be expanded (arrays / unknowns).
bool expand_element_fields(const ClassRegistry& registry,
                           const PackedItem& whole, const std::string& cls_name,
                           std::vector<PackedItem>& out, int depth = 0) {
  const ClassInfo* cls = registry.find(cls_name);
  if (!cls || depth > 4) return false;
  for (const FieldInfo& field : cls->fields) {
    if (field.type->is_primitive()) {
      PackedItem item = whole;
      item.id.steps.push_back(field.name);
      item.type = field.type;
      out.push_back(std::move(item));
    } else if (field.type->is_class()) {
      PackedItem nested = whole;
      nested.id.steps.push_back(field.name);
      if (!expand_element_fields(registry, nested, field.type->class_name(),
                                 out, depth + 1))
        return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

PackingLayout plan_packing(const ValueSet& req_comm,
                           const std::vector<ValueSet>& downstream_cons,
                           const ClassRegistry& registry) {
  PackingLayout layout;
  ValueSet normalized = req_comm;
  normalized.normalize();

  // collection path -> items
  std::map<std::string, std::vector<PackedItem>> by_collection;
  // header roots that must be collapsed (field paths on plain objects)
  std::map<std::string, std::vector<PackedItem>> header_by_base;

  for (const auto& [id, entry] : normalized.items()) {
    PackedItem item;
    item.id = id;
    item.type = entry.type;
    item.section = entry.section;
    item.first_consumer = first_consumer_stage(id, downstream_cons);
    if (id.elementwise()) {
      std::string collection;
      std::vector<std::string> fields;
      split_elementwise(id, collection, fields);
      if (collection.find('.') != std::string::npos) {
        // Collection reached through a field path (e.g. pz.depth[]): ship
        // the whole root object once instead.
        PackedItem root = item;
        root.id = ValueId{id.base, {}};
        root.type = nullptr;
        root.section.reset();
        header_by_base[id.base].push_back(std::move(root));
        continue;
      }
      if (fields.empty() && item.type && item.type->is_class()) {
        // Whole elements: expand into the reduced per-field layout.
        std::vector<PackedItem> expanded;
        PackedItem base = item;
        if (expand_element_fields(registry, base, item.type->class_name(),
                                  expanded)) {
          for (PackedItem& e : expanded)
            by_collection[collection].push_back(std::move(e));
          continue;
        }
      }
      by_collection[collection].push_back(std::move(item));
    } else {
      // `x.length` pseudo-entries: lengths are reconstructed from group
      // counts on the receiving side.
      if (!id.steps.empty() && id.steps.back() == "length") continue;
      header_by_base[id.base].push_back(std::move(item));
    }
  }

  // Collapse rooted header items: if any item of a base has a field path,
  // ship the whole root once (self-describing) instead.
  for (auto& [base, items] : header_by_base) {
    bool rooted = false;
    for (const PackedItem& item : items) {
      if (!item.id.steps.empty()) rooted = true;
    }
    if (!rooted) {
      std::set<std::string> seen;
      for (PackedItem& item : items) {
        if (!seen.insert(item.id.to_string()).second) continue;
        layout.header.push_back(std::move(item));
      }
      continue;
    }
    PackedItem root;
    root.id = ValueId{base, {}};
    root.type = nullptr;  // self-describing tagged value
    root.first_consumer = items.front().first_consumer;
    for (const PackedItem& item : items)
      root.first_consumer = std::min(root.first_consumer, item.first_consumer);
    layout.header.push_back(std::move(root));
  }

  std::stable_sort(layout.header.begin(), layout.header.end(),
                   [](const PackedItem& a, const PackedItem& b) {
                     if (a.first_consumer != b.first_consumer)
                       return a.first_consumer < b.first_consumer;
                     return a.id < b.id;
                   });

  for (auto& [collection, items] : by_collection) {
    std::stable_sort(items.begin(), items.end(),
                     [](const PackedItem& a, const PackedItem& b) {
                       if (a.first_consumer != b.first_consumer)
                         return a.first_consumer < b.first_consumer;
                       return a.id < b.id;
                     });
    // Instance-wise group: all fields first consumed by the receiving
    // stage (consumer 0). Field-wise: one group per later-consumed field,
    // in first-read order (the sort above).
    PackGroup instance;
    instance.collection = collection;
    instance.instancewise = true;
    for (PackedItem& item : items) {
      if (item.first_consumer == 0) {
        if (!instance.section) {
          instance.section = item.section;
        } else if (item.section) {
          auto hull = RectSection::hull(*instance.section, *item.section);
          if (hull) {
            instance.section = *hull;
          } else {
            instance.section.reset();  // widen to whole
          }
        } else {
          instance.section.reset();
        }
        instance.items.push_back(std::move(item));
      } else {
        PackGroup fieldwise;
        fieldwise.collection = collection;
        fieldwise.instancewise = false;
        fieldwise.section = item.section;
        fieldwise.items.push_back(std::move(item));
        layout.groups.push_back(std::move(fieldwise));
      }
    }
    if (!instance.items.empty()) {
      layout.groups.insert(layout.groups.begin(), std::move(instance));
    }
  }
  return layout;
}

// ---------------------------------------------------------------------------
// Compiled group plans
// ---------------------------------------------------------------------------

namespace {

std::size_t leaf_width(PrimKind kind) {
  switch (kind) {
    case PrimKind::Int:
    case PrimKind::Float:
      return 4;
    case PrimKind::Long:
    case PrimKind::Double:
      return 8;
    case PrimKind::Boolean:
    case PrimKind::Byte:
      return 1;
    case PrimKind::Void:
      return 0;
  }
  return 0;
}

}  // namespace

Skeleton skeleton_of(const ClassRegistry& registry, const std::string& name) {
  Skeleton skeleton;
  skeleton.name = intern_class(name);
  if (const ClassInfo* cls = registry.find(name))
    skeleton.fields = Interpreter::default_fields(*cls);
  return skeleton;
}

GroupPlan compile_group_plan(const ClassRegistry& registry,
                             const PackGroup& group,
                             const std::string& elem_class) {
  GroupPlan plan;
  plan.element = skeleton_of(registry, elem_class);
  const auto ineligible = [&plan] {
    plan.leaves.clear();
    return std::move(plan);
  };
  if (elem_class.empty()) return plan;
  plan.leaves.reserve(group.items.size());
  std::size_t offset = 0;
  for (const PackedItem& item : group.items) {
    if (!item.type || !item.type->is_primitive() ||
        item.type->prim() == PrimKind::Void)
      return ineligible();  // reference / whole-value leaf: interpreted path
    std::vector<std::string> fields;
    {
      std::string coll_unused;
      split_elementwise(item.id, coll_unused, fields);
    }
    if (fields.empty()) return ineligible();  // whole element, tagged
    PlanLeaf leaf;
    leaf.kind = item.type->prim();
    leaf.width = leaf_width(leaf.kind);
    leaf.offset = offset;
    const ClassInfo* cls = registry.find(elem_class);
    for (std::size_t s = 0; s < fields.size(); ++s) {
      const FieldInfo* field = cls ? cls->find_field(fields[s]) : nullptr;
      if (!field) return ineligible();  // unresolved: interpreted path
      leaf.chain.push_back(field->index);
      if (s + 1 < fields.size()) {
        if (!field->type || !field->type->is_class()) return ineligible();
        const ClassInfo* next = registry.find(field->type->class_name());
        if (!next) return ineligible();
        leaf.nested_skeletons.push_back(skeleton_of(registry, next->name));
        cls = next;
      }
    }
    offset += leaf.width;
    plan.leaves.push_back(std::move(leaf));
  }
  plan.stride = offset;
  plan.eligible = plan.stride > 0;
  return plan;
}

const GroupPlan& PacketCodec::plan_for(const PackGroup& group,
                                       const std::string& elem_class) const {
  std::lock_guard lock(plans_mutex_);
  const auto key = std::make_pair(&group, elem_class);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    it = plans_.emplace(key, compile_group_plan(*registry_, group, elem_class))
             .first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Packed views
// ---------------------------------------------------------------------------

PackedView PackedView::parse(const dc::Buffer& in, std::size_t slot_offset) {
  PackedView view;
  view.buffer_ = &in;
  view.slot_offset_ = slot_offset;
  view.block_size_ =
      static_cast<std::size_t>(in.peek_at<std::uint64_t>(slot_offset));
  view.data_offset_ = slot_offset + sizeof(std::uint64_t);
  std::size_t pos = view.data_offset_;
  auto read_str = [&](std::string& s) {
    const std::uint32_t n = in.peek_at<std::uint32_t>(pos);
    pos += sizeof(std::uint32_t);
    s.assign(reinterpret_cast<const char*>(in.span(pos, n)), n);
    pos += n;
  };
  read_str(view.collection_);
  read_str(view.elem_class_);
  view.instancewise_ = in.peek_at<std::uint8_t>(pos) != 0;
  pos += sizeof(std::uint8_t);
  view.lo_ = in.peek_at<std::int64_t>(pos);
  pos += sizeof(std::int64_t);
  view.count_ = in.peek_at<std::int64_t>(pos);
  pos += sizeof(std::int64_t);
  view.n_items_ = in.peek_at<std::uint32_t>(pos);
  pos += sizeof(std::uint32_t);
  view.payload_offset_ = pos;
  if (view.end_offset() < pos)
    throw std::runtime_error("PackedView: group size slot smaller than header");
  return view;
}

const std::byte* PackedView::field_ptr(
    std::size_t item, std::int64_t index,
    const std::vector<std::size_t>& widths) const {
  if (item >= widths.size() || index < lo_ || index >= lo_ + count_)
    throw std::out_of_range("PackedView::field_ptr out of range");
  const std::size_t i = static_cast<std::size_t>(index - lo_);
  std::size_t offset = 0;
  if (instancewise_) {
    std::size_t stride = 0;
    for (std::size_t w : widths) stride += w;
    offset = i * stride;
    for (std::size_t j = 0; j < item; ++j) offset += widths[j];
  } else {
    for (std::size_t j = 0; j < item; ++j)
      offset += widths[j] * static_cast<std::size_t>(count_);
    offset += i * widths[item];
  }
  return buffer_->span(payload_offset_ + offset, widths[item]);
}

void PackedView::append_to(dc::Buffer& out,
                           std::optional<bool> force_instancewise) const {
  out.write<std::uint64_t>(static_cast<std::uint64_t>(block_size_));
  const std::size_t copy_start = out.size();
  out.write_bytes(buffer_->span(data_offset_, block_size_), block_size_);
  if (force_instancewise && *force_instancewise != instancewise_) {
    // The flag byte sits after the two length-prefixed strings; everything
    // else of a single-item group is layout-invariant.
    const std::size_t flag_offset =
        copy_start + 2 * sizeof(std::uint32_t) + collection_.size() +
        elem_class_.size();
    out.patch_slot<std::uint8_t>(flag_offset, *force_instancewise ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

void PacketCodec::write_leaf(dc::Buffer& out, const TypePtr& type,
                             const Value& v) const {
  if (type && type->is_primitive()) {
    switch (type->prim()) {
      case PrimKind::Int:
        out.write<std::int32_t>(static_cast<std::int32_t>(as_int(v)));
        return;
      case PrimKind::Long:
        out.write<std::int64_t>(as_int(v));
        return;
      case PrimKind::Float:
        out.write<float>(static_cast<float>(as_double(v)));
        return;
      case PrimKind::Double:
        out.write<double>(as_double(v));
        return;
      case PrimKind::Boolean:
        out.write<std::uint8_t>(as_bool(v) ? 1 : 0);
        return;
      case PrimKind::Byte:
        out.write<std::int8_t>(static_cast<std::int8_t>(as_int(v)));
        return;
      case PrimKind::Void:
        return;
    }
  }
  // Reference leaf: self-describing.
  write_value(out, v);
}

Value PacketCodec::read_leaf(dc::Buffer& in, const TypePtr& type) const {
  if (type && type->is_primitive()) {
    switch (type->prim()) {
      case PrimKind::Int:
        return static_cast<std::int64_t>(in.read<std::int32_t>());
      case PrimKind::Long:
        return in.read<std::int64_t>();
      case PrimKind::Float:
        return static_cast<double>(in.read<float>());
      case PrimKind::Double:
        return in.read<double>();
      case PrimKind::Boolean:
        return in.read<std::uint8_t>() != 0;
      case PrimKind::Byte:
        return static_cast<std::int64_t>(in.read<std::int8_t>());
      case PrimKind::Void:
        return std::monostate{};
    }
  }
  return read_value(in);
}

Value PacketCodec::read_path(Env& env, const ValueId& id,
                             std::int64_t elem_index) const {
  Value current = env.get(id.base);
  for (const std::string& step : id.steps) {
    if (step == kElemStep) {
      auto* arr = std::get_if<ArrayRef>(&current);
      if (!arr || !*arr)
        throw std::runtime_error("pack: '" + id.to_string() +
                                 "' path crosses null array");
      std::int64_t local = elem_index - (*arr)->base_index;
      if (local < 0 ||
          local >= static_cast<std::int64_t>((*arr)->elems.size())) {
        throw std::runtime_error("pack: element index out of range for '" +
                                 id.to_string() + "'");
      }
      current = (*arr)->elems[static_cast<std::size_t>(local)];
    } else {
      auto* obj = std::get_if<ObjectRef>(&current);
      if (!obj || !*obj)
        throw std::runtime_error("pack: '" + id.to_string() +
                                 "' path crosses null object");
      const ClassInfo* cls = registry_->find((*obj)->class_name());
      const FieldInfo* field = cls ? cls->find_field(step) : nullptr;
      if (!field)
        throw std::runtime_error("pack: no field '" + step + "' on '" +
                                 (*obj)->class_name() + "'");
      current = (*obj)->field(static_cast<std::size_t>(field->index));
    }
  }
  return current;
}

std::optional<std::pair<std::int64_t, std::int64_t>> eval_section(
    const RectSection& section, const SymbolResolver& resolve) {
  if (section.rank() != 1) return std::nullopt;
  const Interval& iv = section.dims()[0];
  std::map<std::string, std::int64_t> bindings;
  for (const SymPoly* poly : {&iv.lo, &iv.hi}) {
    for (const std::string& sym : poly->symbols()) {
      if (bindings.count(sym)) continue;
      std::optional<std::int64_t> v = resolve(sym);
      if (!v) return std::nullopt;
      bindings[sym] = *v;
    }
  }
  std::optional<std::int64_t> lo = iv.lo.evaluate(bindings);
  std::optional<std::int64_t> hi = iv.hi.evaluate(bindings);
  if (!lo || !hi) return std::nullopt;
  return std::make_pair(*lo, *hi);
}

namespace {

/// Parses "a.b.c" into base + field steps.
void parse_path(const std::string& path, std::string& base,
                std::vector<std::string>& steps) {
  steps.clear();
  std::size_t start = 0;
  bool first = true;
  while (start <= path.size()) {
    std::size_t dot = path.find('.', start);
    std::string part = dot == std::string::npos
                           ? path.substr(start)
                           : path.substr(start, dot - start);
    if (first) {
      base = part;
      first = false;
    } else {
      steps.push_back(part);
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
}

}  // namespace

namespace {

/// Walks a compiled leaf's field-index chain below an element object.
/// Returns nullptr (triggering the interpreted fallback) when the element
/// or a nested object is absent or of a class other than the plan's — the
/// interpreted path resolves fields by name per object, so a class
/// mismatch means the precomputed indices may not apply.
const Value* walk_leaf(const Object& root, const PlanLeaf& leaf) {
  const Object* o = &root;
  for (std::size_t k = 0; k + 1 < leaf.chain.size(); ++k) {
    const Value& f = o->field(static_cast<std::size_t>(leaf.chain[k]));
    const auto* nested = std::get_if<ObjectRef>(&f);
    if (!nested || !*nested) return nullptr;
    o = nested->get();
    if (o->class_id() != leaf.nested_skeletons[k].name) return nullptr;
  }
  return &o->field(static_cast<std::size_t>(leaf.chain.back()));
}

/// Scatters one leaf value to `dst`, with the exact coercions of the
/// interpreted write_leaf (same as_int/as_double narrowing, so the wire
/// bytes are identical).
void write_leaf_raw(std::byte* dst, PrimKind kind, const Value& v) {
  switch (kind) {
    case PrimKind::Int: {
      const std::int32_t x = static_cast<std::int32_t>(as_int(v));
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Long: {
      const std::int64_t x = as_int(v);
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Float: {
      const float x = static_cast<float>(as_double(v));
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Double: {
      const double x = as_double(v);
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Boolean: {
      const std::uint8_t x = as_bool(v) ? 1 : 0;
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Byte: {
      const std::int8_t x = static_cast<std::int8_t>(as_int(v));
      std::memcpy(dst, &x, sizeof(x));
      return;
    }
    case PrimKind::Void:
      return;
  }
}

/// Gathers one leaf value from `src` with the exact widenings of the
/// interpreted read_leaf.
Value read_leaf_raw(const std::byte* src, PrimKind kind) {
  switch (kind) {
    case PrimKind::Int: {
      std::int32_t x;
      std::memcpy(&x, src, sizeof(x));
      return static_cast<std::int64_t>(x);
    }
    case PrimKind::Long: {
      std::int64_t x;
      std::memcpy(&x, src, sizeof(x));
      return x;
    }
    case PrimKind::Float: {
      float x;
      std::memcpy(&x, src, sizeof(x));
      return static_cast<double>(x);
    }
    case PrimKind::Double: {
      double x;
      std::memcpy(&x, src, sizeof(x));
      return x;
    }
    case PrimKind::Boolean: {
      std::uint8_t x;
      std::memcpy(&x, src, sizeof(x));
      return x != 0;
    }
    case PrimKind::Byte: {
      std::int8_t x;
      std::memcpy(&x, src, sizeof(x));
      return static_cast<std::int64_t>(x);
    }
    case PrimKind::Void:
      return std::monostate{};
  }
  return std::monostate{};
}

/// Bulk gather: the steady-state compiled pack loop. Returns false when an
/// element breaks a plan precondition (null / foreign class), in which
/// case the caller truncates and reruns the interpreted loop.
bool pack_group_compiled(const GroupPlan& plan, bool instancewise,
                         const ArrayVal& arr, std::int64_t lo,
                         std::int64_t count, std::byte* dst) {
  const ClassName elem_class = plan.element.name;
  const std::size_t first = static_cast<std::size_t>(lo - arr.base_index);
  const std::size_t n = static_cast<std::size_t>(count);
  if (instancewise) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto* obj = std::get_if<ObjectRef>(&arr.elems[first + i]);
      if (!obj || !*obj || (*obj)->class_id() != elem_class) return false;
      std::byte* rec = dst + i * plan.stride;
      for (const PlanLeaf& leaf : plan.leaves) {
        const Value* v = walk_leaf(**obj, leaf);
        if (!v) return false;
        write_leaf_raw(rec + leaf.offset, leaf.kind, *v);
      }
    }
  } else {
    for (const PlanLeaf& leaf : plan.leaves) {
      // Field-wise: one contiguous run per leaf (count * prefix widths in).
      std::byte* run = dst + n * leaf.offset;
      for (std::size_t i = 0; i < n; ++i) {
        const auto* obj = std::get_if<ObjectRef>(&arr.elems[first + i]);
        if (!obj || !*obj || (*obj)->class_id() != elem_class) return false;
        const Value* v = walk_leaf(**obj, leaf);
        if (!v) return false;
        write_leaf_raw(run + i * leaf.width, leaf.kind, *v);
      }
    }
  }
  return true;
}

}  // namespace

void PacketCodec::pack_header(Env& env, dc::Buffer& out) const {
  out.write<std::uint32_t>(static_cast<std::uint32_t>(layout_.header.size()));
  for (const PackedItem& item : layout_.header) {
    Value v = read_path(env, item.id, -1);
    write_value(out, v);  // tagged: whole values / scalars
  }
}

void PacketCodec::pack_group_impl(const PackGroup& group, Env& env,
                                  const SymbolResolver& resolve,
                                  dc::Buffer& out, bool compiled) const {
  // Resolve the element range.
  std::string base_name;
  std::vector<std::string> steps;
  parse_path(group.collection, base_name, steps);
  ValueId coll_id{base_name, steps};
  Value coll = read_path(env, coll_id, -1);
  auto* arr = std::get_if<ArrayRef>(&coll);
  if (!arr || !*arr)
    throw std::runtime_error("pack: collection '" + group.collection +
                             "' is not an array");
  std::int64_t lo = (*arr)->base_index;
  std::int64_t hi = lo + static_cast<std::int64_t>((*arr)->elems.size()) - 1;
  if (group.section) {
    auto range = eval_section(*group.section, resolve);
    if (range) {
      lo = std::max(lo, range->first);
      hi = std::min(hi, range->second);
    }
  }
  const std::int64_t count = hi >= lo ? hi - lo + 1 : 0;

  // Element class name: from the first element (reduced-object recreation
  // on the receiving side).
  std::string elem_class;
  if (count > 0) {
    const Value& first =
        (*arr)->elems[static_cast<std::size_t>(lo - (*arr)->base_index)];
    if (const auto* obj = std::get_if<ObjectRef>(&first)) {
      if (*obj) elem_class = (*obj)->class_name();
    }
  }

  // Group header, preceded by a byte-size slot (the paper's unpacking
  // offset: a receiver can skip a group it does not consume).
  std::size_t size_slot = out.reserve_slot<std::uint64_t>();
  const std::size_t group_start = out.size();
  out.write_string(group.collection);
  out.write_string(elem_class);
  out.write<std::uint8_t>(group.instancewise ? 1 : 0);
  out.write<std::int64_t>(lo);
  out.write<std::int64_t>(count);
  out.write<std::uint32_t>(static_cast<std::uint32_t>(group.items.size()));

  bool wrote = false;
  if (compiled && count > 0) {
    const GroupPlan& plan = plan_for(group, elem_class);
    if (plan.eligible) {
      // One allocation check for the whole group, then raw-pointer
      // gather/scatter over the contiguous primitive runs.
      const std::size_t total =
          static_cast<std::size_t>(count) * plan.stride;
      const std::size_t data_start = out.size();
      std::byte* dst = out.append(total);
      if (pack_group_compiled(plan, group.instancewise, **arr, lo, count, dst)) {
        wrote = true;
      } else {
        out.truncate(data_start);  // fall back to the interpreted loop
      }
    }
  }
  if (!wrote) {
    if (group.instancewise) {
      for (std::int64_t i = lo; i < lo + count; ++i) {
        for (const PackedItem& item : group.items) {
          write_leaf(out, item.type, read_path(env, item.id, i));
        }
      }
    } else {
      for (const PackedItem& item : group.items) {
        for (std::int64_t i = lo; i < lo + count; ++i) {
          write_leaf(out, item.type, read_path(env, item.id, i));
        }
      }
    }
  }
  out.patch_slot<std::uint64_t>(
      size_slot, static_cast<std::uint64_t>(out.size() - group_start));
}

void PacketCodec::pack_group(std::size_t gi, Env& env,
                             const SymbolResolver& resolve,
                             dc::Buffer& out) const {
  pack_group_impl(layout_.groups[gi], env, resolve, out, true);
}

void PacketCodec::pack(Env& env, const SymbolResolver& resolve,
                       dc::Buffer& out) const {
  pack_header(env, out);
  out.write<std::uint32_t>(static_cast<std::uint32_t>(layout_.groups.size()));
  for (const PackGroup& group : layout_.groups)
    pack_group_impl(group, env, resolve, out, true);
}

void PacketCodec::pack_interpreted(Env& env, const SymbolResolver& resolve,
                                   dc::Buffer& out) const {
  pack_header(env, out);
  out.write<std::uint32_t>(static_cast<std::uint32_t>(layout_.groups.size()));
  for (const PackGroup& group : layout_.groups)
    pack_group_impl(group, env, resolve, out, false);
}

void PacketCodec::unpack_header(dc::Buffer& in, Env& env) const {
  std::uint32_t n_header = in.read<std::uint32_t>();
  if (n_header != layout_.header.size())
    throw std::runtime_error("unpack: header arity mismatch");
  for (const PackedItem& item : layout_.header) {
    Value v = read_value(in);
    if (item.id.steps.empty()) {
      env.declare(item.id.base, std::move(v));
    } else {
      // Nested header path: materialize skeleton objects along the way.
      if (!env.has(item.id.base)) {
        // Without the base object's class we cannot build a skeleton; the
        // planner avoids this by packing whole roots, but guard anyway.
        throw std::runtime_error("unpack: missing skeleton for '" +
                                 item.id.to_string() + "'");
      }
      Value* current = &env.slot(item.id.base);
      for (std::size_t s = 0; s + 1 < item.id.steps.size(); ++s) {
        auto* obj = std::get_if<ObjectRef>(current);
        if (!obj || !*obj)
          throw std::runtime_error("unpack: null path for '" +
                                   item.id.to_string() + "'");
        const ClassInfo* cls = registry_->find((*obj)->class_name());
        const FieldInfo* field =
            cls ? cls->find_field(item.id.steps[s]) : nullptr;
        if (!field)
          throw std::runtime_error("unpack: bad path for '" +
                                   item.id.to_string() + "'");
        current = &(*obj)->field(static_cast<std::size_t>(field->index));
      }
      auto* obj = std::get_if<ObjectRef>(current);
      if (!obj || !*obj)
        throw std::runtime_error("unpack: null leaf parent for '" +
                                 item.id.to_string() + "'");
      const ClassInfo* cls = registry_->find((*obj)->class_name());
      const FieldInfo* field =
          cls ? cls->find_field(item.id.steps.back()) : nullptr;
      if (!field)
        throw std::runtime_error("unpack: bad leaf for '" +
                                 item.id.to_string() + "'");
      (*obj)->field(static_cast<std::size_t>(field->index)) = std::move(v);
    }
  }
}

void PacketCodec::unpack_group_impl(const PackGroup& group, dc::Buffer& in,
                                    Env& env, bool compiled) const {
  const std::uint64_t block_size =
      in.read<std::uint64_t>();  // group byte size (skip offset)
  const std::size_t group_start = in.read_pos();
  std::string collection = in.read_string();
  std::string elem_class = in.read_string();
  std::uint8_t instancewise = in.read<std::uint8_t>();
  std::int64_t lo = in.read<std::int64_t>();
  std::int64_t count = in.read<std::int64_t>();
  std::uint32_t n_items = in.read<std::uint32_t>();
  if (collection != group.collection ||
      n_items != group.items.size() ||
      (instancewise != 0) != group.instancewise)
    throw std::runtime_error("unpack: layout mismatch for group '" +
                             group.collection + "'");

  // Get or create the (possibly reduced-element) collection binding.
  std::string base_name;
  std::vector<std::string> steps;
  parse_path(group.collection, base_name, steps);
  if (!steps.empty())
    throw std::runtime_error(
        "unpack: nested collection paths are packed as whole roots");
  ArrayRef arr;
  if (env.has(base_name)) {
    if (auto* existing = std::get_if<ArrayRef>(&env.slot(base_name))) arr = *existing;
  }
  if (!arr) {
    arr = ArrayVal::make();
    arr->base_index = lo;
    env.declare(base_name, arr);
  }
  // Extend coverage if this group's range exceeds the current array.
  std::int64_t cur_lo = arr->base_index;
  std::int64_t cur_hi =
      cur_lo + static_cast<std::int64_t>(arr->elems.size()) - 1;
  std::int64_t new_lo = arr->elems.empty() ? lo : std::min(cur_lo, lo);
  std::int64_t new_hi =
      arr->elems.empty() ? lo + count - 1 : std::max(cur_hi, lo + count - 1);
  if (new_lo != cur_lo ||
      new_hi - new_lo + 1 != static_cast<std::int64_t>(arr->elems.size())) {
    std::vector<Value> resized(
        static_cast<std::size_t>(std::max<std::int64_t>(0, new_hi - new_lo + 1)));
    for (std::size_t i = 0; i < arr->elems.size(); ++i) {
      resized[static_cast<std::size_t>(cur_lo - new_lo) + i] =
          std::move(arr->elems[i]);
    }
    arr->elems = std::move(resized);
    arr->base_index = new_lo;
  }
  // Materialize reduced element objects, of the class the plan interned.
  const GroupPlan* plan = count > 0 ? &plan_for(group, elem_class) : nullptr;
  auto element_at = [&](std::int64_t index) -> Object* {
    Value& slot =
        arr->elems[static_cast<std::size_t>(index - arr->base_index)];
    if (auto* obj = std::get_if<ObjectRef>(&slot)) {
      if (*obj) return obj->get();
    }
    ObjectRef obj = plan->element.make();
    Object* raw = obj.get();
    slot = std::move(obj);
    return raw;
  };
  auto set_field = [&](std::int64_t index, const PackedItem& item, Value v) {
    // Field path after the "[]" step.
    std::vector<std::string> fields;
    {
      std::string coll_path_unused;
      split_elementwise(item.id, coll_path_unused, fields);
    }
    if (fields.empty()) {
      // Whole element transmitted (tagged).
      arr->elems[static_cast<std::size_t>(index - arr->base_index)] =
          std::move(v);
      return;
    }
    Object* current_obj = element_at(index);
    Value* current_slot = nullptr;
    for (std::size_t s = 0; s < fields.size(); ++s) {
      const ClassInfo* cls = registry_->find(current_obj->class_name());
      const FieldInfo* field = cls ? cls->find_field(fields[s]) : nullptr;
      if (!field)
        throw std::runtime_error("unpack: bad element field '" + fields[s] +
                                 "'");
      current_slot = &current_obj->field(static_cast<std::size_t>(field->index));
      if (s + 1 < fields.size()) {
        auto* next = std::get_if<ObjectRef>(current_slot);
        if (!next || !*next) {
          // Materialize nested skeleton.
          ObjectRef nested =
              skeleton_of(*registry_, field->type->class_name()).make();
          current_obj = nested.get();
          *current_slot = std::move(nested);
        } else {
          current_obj = next->get();
        }
      }
    }
    *current_slot = std::move(v);
  };

  // ---- compiled scatter --------------------------------------------------
  const std::size_t data_start = in.read_pos();
  const std::size_t header_bytes = data_start - group_start;
  if (compiled && count > 0) {
    const std::size_t total = static_cast<std::size_t>(count) * plan->stride;
    // The wire-size guard rejects packets written by a codec whose leaf
    // widths differ from the plan's (e.g. a tagged reference leaf).
    if (plan->eligible &&
        static_cast<std::size_t>(block_size) == header_bytes + total) {
      const std::byte* src = in.span(data_start, total);
      bool ok = true;
      const std::size_t n = static_cast<std::size_t>(count);
      for (std::size_t i = 0; ok && i < n; ++i) {
        Object* obj = element_at(lo + static_cast<std::int64_t>(i));
        if (obj->class_id() != plan->element.name) {
          ok = false;  // pre-existing foreign element: interpreted path
          break;
        }
        for (const PlanLeaf& leaf : plan->leaves) {
          const std::byte* p =
              (instancewise != 0)
                  ? src + i * plan->stride + leaf.offset
                  : src + n * leaf.offset + i * leaf.width;
          Object* o = obj;
          bool walked = true;
          for (std::size_t k = 0; k + 1 < leaf.chain.size(); ++k) {
            Value& slot = o->field(static_cast<std::size_t>(leaf.chain[k]));
            auto* next = std::get_if<ObjectRef>(&slot);
            if (next && *next) {
              if ((*next)->class_id() != leaf.nested_skeletons[k].name) {
                walked = false;
                break;
              }
              o = next->get();
              continue;
            }
            // Materialize the nested skeleton exactly as set_field does.
            ObjectRef nested = leaf.nested_skeletons[k].make();
            o = nested.get();
            slot = std::move(nested);
          }
          if (!walked) {
            ok = false;
            break;
          }
          o->field(static_cast<std::size_t>(leaf.chain.back())) =
              read_leaf_raw(p, leaf.kind);
        }
      }
      if (ok) {
        in.skip(total);
        return;
      }
      in.seek(data_start);  // rewind; rerun through the interpreted loop
    }
  }

  if (group.instancewise) {
    for (std::int64_t i = lo; i < lo + count; ++i) {
      for (const PackedItem& item : group.items) {
        set_field(i, item, read_leaf(in, item.type));
      }
    }
  } else {
    for (const PackedItem& item : group.items) {
      for (std::int64_t i = lo; i < lo + count; ++i) {
        set_field(i, item, read_leaf(in, item.type));
      }
    }
  }
}

void PacketCodec::unpack_group(std::size_t gi, dc::Buffer& in,
                               Env& env) const {
  unpack_group_impl(layout_.groups[gi], in, env, true);
}

void PacketCodec::unpack(dc::Buffer& in, Env& env) const {
  unpack_header(in, env);
  std::uint32_t n_groups = in.read<std::uint32_t>();
  if (n_groups != layout_.groups.size())
    throw std::runtime_error("unpack: group arity mismatch");
  for (const PackGroup& group : layout_.groups)
    unpack_group_impl(group, in, env, true);
}

void PacketCodec::unpack_interpreted(dc::Buffer& in, Env& env) const {
  unpack_header(in, env);
  std::uint32_t n_groups = in.read<std::uint32_t>();
  if (n_groups != layout_.groups.size())
    throw std::runtime_error("unpack: group arity mismatch");
  for (const PackGroup& group : layout_.groups)
    unpack_group_impl(group, in, env, false);
}

}  // namespace cgp
