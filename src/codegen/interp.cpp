#include "codegen/interp.h"

#include <cmath>
#include <future>
#include <optional>
#include <span>
#include <sstream>

#include "support/str.h"
#include "support/worker_pool.h"

namespace cgp {

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

std::int64_t as_int(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v))
    return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
  throw std::runtime_error("value is not numeric");
}

double as_double(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v))
    return static_cast<double>(*i);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  throw std::runtime_error("value is not numeric");
}

bool as_bool(const Value& v) {
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  throw std::runtime_error("value is not boolean");
}

std::string value_to_string(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      std::ostringstream out;
      out << d;
      return out.str();
    }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const StringRef& s) const {
      return s ? '"' + s->value + '"' : "null";
    }
    std::string operator()(const ObjectRef& o) const {
      return o ? "<" + o->class_name() + ">" : "null";
    }
    std::string operator()(const ArrayRef& a) const {
      return a ? "<array[" + std::to_string(a->elems.size()) + "]>" : "null";
    }
    std::string operator()(const DomainRef& d) const {
      if (!d) return "null";
      return "[" + std::to_string(d->value.lo) + ":" + std::to_string(d->value.hi) + "]";
    }
  };
  return std::visit(Visitor{}, v);
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

int Env::index(const std::string& name) {
  auto [it, inserted] = index_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    values_.emplace_back();
    depth_.push_back(-1);
  }
  return it->second;
}

void Env::declare_at(int slot, Value value) {
  const auto s = static_cast<std::size_t>(slot);
  const int depth = static_cast<int>(marks_.size());
  if (depth > 0 && depth_[s] != depth)
    trail_.push_back(Saved{slot, depth_[s], std::move(values_[s])});
  values_[s] = std::move(value);
  depth_[s] = depth;
}

void Env::pop() {
  const std::size_t mark = marks_.back();
  marks_.pop_back();
  while (trail_.size() > mark) {
    Saved& saved = trail_.back();
    const auto s = static_cast<std::size_t>(saved.slot);
    values_[s] = std::move(saved.value);
    depth_[s] = saved.depth;
    trail_.pop_back();
  }
}

void Env::declare_global(const std::string& name, Value value) {
  const int slot = index(name);
  const auto s = static_cast<std::size_t>(slot);
  if (depth_[s] > 0) {
    // Shadowed: the base binding (or its absence) sits in the oldest
    // trail entry for this slot.
    for (Saved& saved : trail_) {
      if (saved.slot != slot) continue;
      saved.value = std::move(value);
      saved.depth = 0;
      return;
    }
  }
  values_[s] = std::move(value);
  depth_[s] = 0;
}

const Value* Env::find(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  const auto s = static_cast<std::size_t>(it->second);
  return depth_[s] >= 0 ? &values_[s] : nullptr;
}

void Env::assign(const std::string& name, Value value) {
  if (!has(name))
    throw std::runtime_error("assignment to undeclared variable '" + name + "'");
  values_[static_cast<std::size_t>(index_.at(name))] = std::move(value);
}

bool Env::has(const std::string& name) const { return find(name) != nullptr; }

Value& Env::slot(const std::string& name) {
  if (!has(name)) throw std::runtime_error("undeclared variable '" + name + "'");
  return values_[static_cast<std::size_t>(index_.at(name))];
}

const Value& Env::get(const std::string& name) const {
  const Value* v = find(name);
  if (!v) throw std::runtime_error("undeclared variable '" + name + "'");
  return *v;
}

std::map<std::string, Value> Env::flatten() const {
  std::map<std::string, Value> out;
  for (std::size_t s = 0; s < names_.size(); ++s)
    if (depth_[s] >= 0) out[names_[s]] = values_[s];
  return out;
}

// ---------------------------------------------------------------------------
// Lowered code
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxCallDepth = 256;
constexpr double kMemOp = 1.5;
constexpr double kFloatOp = 2.0;
constexpr double kIntOp = 1.0;
constexpr double kBranchOp = 1.0;

/// Storage coercion into a slot of a declared primitive type: integral
/// truncation, float32 rounding (Java `float` semantics — also exactly
/// what the packing codec transmits), int<->double widening.
enum class Coerce : std::uint8_t { None, Int, Float, Double };

Coerce coerce_kind(const TypePtr& type) {
  if (!type || !type->is_primitive()) return Coerce::None;
  switch (type->prim()) {
    case PrimKind::Int:
    case PrimKind::Long:
    case PrimKind::Byte:
      return Coerce::Int;
    case PrimKind::Float:
      return Coerce::Float;
    case PrimKind::Double:
      return Coerce::Double;
    default:
      return Coerce::None;
  }
}

void coerce(Coerce kind, Value& value) {
  switch (kind) {
    case Coerce::Int:
      if (const auto* d = std::get_if<double>(&value))
        value = static_cast<std::int64_t>(*d);
      return;
    case Coerce::Float:
      if (const auto* d = std::get_if<double>(&value)) {
        value = static_cast<double>(static_cast<float>(*d));
      } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
        value = static_cast<double>(static_cast<float>(*i));
      }
      return;
    case Coerce::Double:
      if (const auto* i = std::get_if<std::int64_t>(&value))
        value = static_cast<double>(*i);
      return;
    case Coerce::None:
      return;
  }
}

/// Typed stores into a float/double slot: the value coerce() leaves there.
double to_floating(Coerce kind, double d) {
  return kind == Coerce::Float ? static_cast<double>(static_cast<float>(d)) : d;
}
double to_floating(Coerce kind, std::int64_t i) {
  return kind == Coerce::Float ? static_cast<double>(static_cast<float>(i))
                               : static_cast<double>(i);
}

/// Runtime representation of an expression's values, fixed at lowering:
/// sema's types decide it, and every store into a typed slot coerces to
/// it, so typed nodes run unboxed. Val falls back to variant dispatch.
enum class Rep : std::uint8_t { Int, Dbl, Bool, Val };

Rep rep_of(const TypePtr& type) {
  if (!type || !type->is_primitive()) return Rep::Val;
  if (type->is_integral()) return Rep::Int;
  if (type->is_floating()) return Rep::Dbl;
  if (type->is_boolean()) return Rep::Bool;
  return Rep::Val;
}

bool numeric_rep(Rep rep) { return rep != Rep::Val; }

std::int64_t load_i(const Value& v) {
  if (const auto* p = std::get_if<std::int64_t>(&v)) return *p;
  return as_int(v);
}
double load_d(const Value& v) {
  if (const auto* p = std::get_if<double>(&v)) return *p;
  return as_double(v);
}
bool load_b(const Value& v) {
  if (const auto* p = std::get_if<bool>(&v)) return *p;
  return as_bool(v);
}
/// load_d of a value stored under representation `rep`: an int slot's
/// value converts straight from its int64.
double load_d(const Value& v, Rep rep) {
  if (rep == Rep::Int)
    if (const auto* p = std::get_if<std::int64_t>(&v)) return static_cast<double>(*p);
  return load_d(v);
}

/// An unboxed frame slot. Each slot has one numeric representation for
/// the life of the lowered code, fixed at lowering, and every read comes
/// after a write of that representation.
union Scalar {
  std::int64_t i;
  double d;
  bool b;
};

Value box(const Scalar& s, Rep rep) {
  switch (rep) {
    case Rep::Int: return s.i;
    case Rep::Dbl: return s.d;
    default: return s.b;
  }
}
/// Stores `v`, already coerced to the slot's declared type, unboxed.
void unbox(Scalar& s, Rep rep, const Value& v) {
  switch (rep) {
    case Rep::Int: s.i = load_i(v); return;
    case Rep::Dbl: s.d = load_d(v); return;
    default: s.b = load_b(v); return;
  }
}

/// Slot counts of one frame: boxed Value slots and unboxed Scalar slots.
struct FrameSize {
  std::size_t vals = 0;
  std::size_t scalars = 0;
};

/// Two's-complement wrap instead of signed-overflow UB.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

std::string range_error(std::int64_t i, const ArrayVal& arr) {
  return "array index " + std::to_string(i) + " out of range [base " +
         std::to_string(arr.base_index) + ", size " +
         std::to_string(arr.elems.size()) + ")";
}

enum class Flow { Normal, Break, Continue, Return };

struct Ctx;

/// Lowered expression. v/i/d/b evaluate with the semantics of as_int,
/// as_double and as_bool applied to the value; typed nodes override the
/// accessor of their representation and skip the boxing.
struct XNode {
  XNode(Rep r, SourceLocation l) : rep(r), loc(l) {}
  virtual ~XNode() = default;
  virtual Value v(Ctx& c) const = 0;
  virtual std::int64_t i(Ctx& c) const { return as_int(v(c)); }
  virtual double d(Ctx& c) const { return as_double(v(c)); }
  virtual bool b(Ctx& c) const { return as_bool(v(c)); }
  /// Address of the stored value the node reads, with the same side
  /// effects as v(). Only called when has_ref is set.
  virtual const Value* ref(Ctx&) const { return nullptr; }

  Rep rep;
  SourceLocation loc;
  /// No writes, calls or allocation: evaluating it cannot free storage
  /// another node holds a raw pointer into.
  bool pure = false;
  bool has_ref = false;
};
using X = std::unique_ptr<XNode>;

struct IntX : XNode {
  explicit IntX(SourceLocation l) : XNode(Rep::Int, l) {}
  Value v(Ctx& c) const override { return i(c); }
  double d(Ctx& c) const override { return static_cast<double>(i(c)); }
};
struct DblX : XNode {
  explicit DblX(SourceLocation l) : XNode(Rep::Dbl, l) {}
  Value v(Ctx& c) const override { return d(c); }
  std::int64_t i(Ctx& c) const override { return static_cast<std::int64_t>(d(c)); }
};
struct BoolX : XNode {
  explicit BoolX(SourceLocation l) : XNode(Rep::Bool, l) {}
  Value v(Ctx& c) const override { return b(c); }
  std::int64_t i(Ctx& c) const override { return b(c) ? 1 : 0; }
  double d(Ctx& c) const override { return b(c) ? 1.0 : 0.0; }
};

/// Lowered assignment target: resolves to the stored Value, raising the
/// same errors as a store would. `keep` holds a temporary base alive
/// until the caller has stored through the pointer.
struct Place {
  virtual ~Place() = default;
  virtual Value* addr(Ctx& c, Value& keep) const = 0;
};
using P = std::unique_ptr<Place>;

struct SNode {
  virtual ~SNode() = default;
  virtual Flow run(Ctx& c) const = 0;
};
using S = std::unique_ptr<SNode>;

/// A parameter's frame slot: unboxed when rep is numeric, else a Value
/// slot. `co` is the coercion a boxed store of its declared type applies.
struct ParamSlot {
  int slot;
  Rep rep;
  Coerce co;
};

/// A method body lowered once, registered before its body is lowered.
struct Method {
  const MethodDecl* decl = nullptr;
  std::vector<ParamSlot> params;
  std::vector<S> body;
  FrameSize frame;
  /// Where the method leaves its result: the Machine's unboxed register
  /// when every return carries this numeric representation and the body
  /// cannot fall off its end, else (Val) its Value register. Val while
  /// the body is still being lowered.
  Rep ret_rep = Rep::Val;
};

}  // namespace

struct Interpreter::Machine {
  Machine(const ClassRegistry& r, std::map<std::string, std::int64_t> c)
      : registry(r), constants(std::move(c)) {}

  const ClassInfo& class_info(const std::string& name) const {
    const ClassInfo* info = registry.find(name);
    if (!info) throw InterpError({}, "unknown class '" + name + "'");
    return *info;
  }
  /// The lowered `decl`, lowered on first request together with every
  /// method its body calls.
  Method& method(const ClassInfo& cls, const MethodDecl& decl);
  Method& lookup(const std::string& class_name, const std::string& name) {
    const ClassInfo& cls = class_info(class_name);
    const MethodDecl* decl = cls.find_method(name);
    if (!decl || !decl->body) {
      throw InterpError({}, "no executable method '" + class_name + "::" +
                                name + "'");
    }
    return method(cls, *decl);
  }

  const ClassRegistry& registry;
  std::map<std::string, std::int64_t> constants;
  double ops = 0.0;
  /// Result of the last method to return: `ret_s` for methods whose
  /// ret_rep is numeric, else `ret` (null when the body fell off its end).
  Value ret;
  Scalar ret_s{};
  int call_depth = 0;
  /// Frame stack: one level per nesting depth, reused across calls, so
  /// frames are allocated once and pointers into a live level stay valid
  /// while deeper levels come and go.
  struct Level {
    std::vector<Value> vals;
    std::vector<Scalar> scalars;
  };
  std::vector<Level> frames;
  std::size_t frame_top = 0;
  std::map<const MethodDecl*, std::unique_ptr<Method>> methods;
  PipelinedHook hook;
  Env hook_env;  // handed to the hook for loops inside method bodies
};

namespace {

using Machine = Interpreter::Machine;

struct Ctx {
  Machine& m;
  std::span<Value> fp;   // boxed local slots of the running frame
  std::span<Scalar> sp;  // unboxed local slots of the running frame
  Env* env;              // named slots; null inside method bodies
  const ObjectRef* self;  // receiver (possibly null)
};

const ObjectRef kNoSelf;

/// One level of the frame stack. Its Value slots are cleared on exit, so
/// the references they held are released when the call or run that owned
/// it returns; Scalar slots hold none.
class Frame {
 public:
  Frame(Machine& m, FrameSize size) : m_(m) {
    const std::size_t level = m.frame_top;
    if (level == m.frames.size()) m.frames.emplace_back();
    ++m.frame_top;
    Machine::Level& slots = m.frames[level];
    if (slots.vals.size() < size.vals) slots.vals.resize(size.vals);
    if (slots.scalars.size() < size.scalars) slots.scalars.resize(size.scalars);
    vals_ = {slots.vals.data(), size.vals};
    scalars_ = {slots.scalars.data(), size.scalars};
  }
  ~Frame() {
    for (Value& v : vals_) v = Value{};
    --m_.frame_top;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  std::span<Value> vals() const { return vals_; }
  std::span<Scalar> scalars() const { return scalars_; }

 private:
  Machine& m_;
  std::span<Value> vals_;
  std::span<Scalar> scalars_;
};

/// Runs a lowered method on a frame whose parameter slots hold the
/// arguments; the result is left where fn.ret_rep says.
void enter(Machine& m, const Method& fn, const ObjectRef& self, const Frame& frame) {
  if (++m.call_depth > kMaxCallDepth) {
    --m.call_depth;
    throw InterpError(fn.decl->location, "call depth limit exceeded");
  }
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{m.call_depth};
  m.ops += 2.0 * kBranchOp;
  Ctx c{m, frame.vals(), frame.scalars(), nullptr, &self};
  for (const S& s : fn.body)
    if (s->run(c) == Flow::Return) return;
  m.ret = Value{};
}

/// The result of the method that just returned, boxed when its ret_rep
/// is numeric.
Value take_result(Machine& m, Rep ret_rep) {
  if (ret_rep == Rep::Val) return std::move(m.ret);
  return box(m.ret_s, ret_rep);
}

/// Calls `fn` with boxed arguments (the Interpreter's API entry points),
/// coercing each as a boxed store of its parameter's type would.
Value run_method(Machine& m, const Method& fn, const ObjectRef& self,
                 std::vector<Value> args) {
  const MethodDecl& decl = *fn.decl;
  if (fn.params.size() != args.size())
    throw InterpError(decl.location, "arity mismatch calling '" + decl.name + "'");
  Frame frame(m, fn.frame);
  for (std::size_t k = 0; k < args.size(); ++k) {
    const ParamSlot& p = fn.params[k];
    if (p.rep == Rep::Val) {
      frame.vals()[p.slot] = std::move(args[k]);
    } else {
      coerce(p.co, args[k]);
      unbox(frame.scalars()[p.slot], p.rep, args[k]);
    }
  }
  enter(m, fn, self, frame);
  return take_result(m, fn.ret_rep);
}

void discard(const XNode& x, Ctx& c) {
  switch (x.rep) {
    case Rep::Int: x.i(c); return;
    case Rep::Dbl: x.d(c); return;
    case Rep::Bool: x.b(c); return;
    case Rep::Val: x.v(c); return;
  }
}

// ---- constants and reads ---------------------------------------------------

struct IntConst final : IntX {
  IntConst(std::int64_t k, SourceLocation l) : IntX(l), value(k) { pure = true; }
  std::int64_t i(Ctx&) const override { return value; }
  std::int64_t value;
};

struct DblConst final : DblX {
  DblConst(double k, SourceLocation l) : DblX(l), value(k) { pure = true; }
  double d(Ctx&) const override { return value; }
  double value;
};

struct BoolConst final : BoolX {
  BoolConst(bool k, SourceLocation l) : BoolX(l), value(k) { pure = true; }
  bool b(Ctx&) const override { return value; }
  bool value;
};

struct ValConst final : XNode {
  ValConst(Value k, SourceLocation l) : XNode(Rep::Val, l), value(std::move(k)) {
    pure = true;
  }
  Value v(Ctx&) const override { return value; }
  Value value;
};

/// An error found at lowering, raised only if evaluation reaches it, so
/// code that never runs never fails.
struct Raise final : XNode {
  Raise(std::string m, SourceLocation l) : XNode(Rep::Val, l), message(std::move(m)) {
    pure = true;
  }
  Value v(Ctx&) const override { throw InterpError(loc, message); }
  std::string message;
};

/// Reads a stored Value through Derived::at, which performs the read's
/// side effects (op charges, null checks) once per access.
template <class Derived>
struct Stored : XNode {
  using XNode::XNode;
  const Derived& self() const { return static_cast<const Derived&>(*this); }
  Value v(Ctx& c) const override { return self().at(c); }
  std::int64_t i(Ctx& c) const override { return load_i(self().at(c)); }
  double d(Ctx& c) const override { return load_d(self().at(c), rep); }
  bool b(Ctx& c) const override { return load_b(self().at(c)); }
  const Value* ref(Ctx& c) const override { return &self().at(c); }
};

struct LocalRead final : Stored<LocalRead> {
  LocalRead(int s, Rep r, SourceLocation l) : Stored(r, l), slot(s) {
    pure = has_ref = true;
  }
  const Value& at(Ctx& c) const { return c.fp[slot]; }
  int slot;
};

/// Reads of unboxed local slots.
struct IntLocal final : IntX {
  IntLocal(int s, SourceLocation l) : IntX(l), slot(s) { pure = true; }
  std::int64_t i(Ctx& c) const override { return c.sp[slot].i; }
  int slot;
};
struct DblLocal final : DblX {
  DblLocal(int s, SourceLocation l) : DblX(l), slot(s) { pure = true; }
  double d(Ctx& c) const override { return c.sp[slot].d; }
  int slot;
};
struct BoolLocal final : BoolX {
  BoolLocal(int s, SourceLocation l) : BoolX(l), slot(s) { pure = true; }
  bool b(Ctx& c) const override { return c.sp[slot].b; }
  int slot;
};

struct NamedRead final : Stored<NamedRead> {
  NamedRead(int s, std::string n, Rep r, SourceLocation l)
      : Stored(r, l), slot(s), name(std::move(n)) {
    pure = has_ref = true;
  }
  const Value& at(Ctx& c) const {
    if (c.env->bound(slot)) return c.env->at(slot);
    throw InterpError(loc, "undeclared variable '" + name + "'");
  }
  int slot;
  std::string name;
};

/// Unqualified field of the receiver (`x` meaning `this.x`).
struct ThisField final : Stored<ThisField> {
  ThisField(int f, std::string n, Rep r, SourceLocation l)
      : Stored(r, l), field(f), name(std::move(n)) {
    pure = has_ref = true;
  }
  const Value& at(Ctx& c) const {
    Object* self = c.self->get();
    if (!self) throw InterpError(loc, "undeclared variable '" + name + "'");
    c.m.ops += kMemOp;
    return self->field(static_cast<std::size_t>(field));
  }
  int field;
  std::string name;
};

struct This final : XNode {
  explicit This(SourceLocation l) : XNode(Rep::Val, l) { pure = true; }
  Value v(Ctx& c) const override {
    if (!*c.self) throw InterpError(loc, "'this' outside of a method");
    return *c.self;
  }
};

/// Evaluates `base` and hands `f` its stored value, without copying it
/// when `by_ref` (the node's own storage outlives the call).
template <class F>
decltype(auto) with_base(const XNode& base, bool by_ref, Ctx& c, F&& f) {
  if (by_ref) return f(*base.ref(c));
  const Value tmp = base.v(c);
  return f(tmp);
}

/// `base.field` on a base whose class sema fixed: the field index is
/// resolved at lowering.
struct FieldRead final : Stored<FieldRead> {
  FieldRead(X b, int f, Rep r, SourceLocation l) : Stored(r, l), base(std::move(b)), field(f) {
    pure = base->pure;
    has_ref = base->has_ref;
  }
  template <class F>
  decltype(auto) visit(Ctx& c, F&& f) const {
    return with_base(*base, base->has_ref, c, [&](const Value& bv) -> decltype(auto) {
      c.m.ops += kMemOp;
      const auto* obj = std::get_if<ObjectRef>(&bv);
      if (!obj || !*obj) throw InterpError(loc, "field access on null/non-object");
      return f((*obj)->field(static_cast<std::size_t>(field)));
    });
  }
  // Stored's accessors go through at(); with a temporary base they must
  // copy out before the temporary dies, so they are overridden here.
  const Value& at(Ctx& c) const {
    return *visit(c, [](const Value& x) { return &x; });
  }
  Value v(Ctx& c) const override {
    return visit(c, [](const Value& x) { return x; });
  }
  std::int64_t i(Ctx& c) const override { return visit(c, load_i); }
  double d(Ctx& c) const override {
    return visit(c, [this](const Value& x) { return load_d(x, rep); });
  }
  bool b(Ctx& c) const override { return visit(c, load_b); }
  X base;
  int field;
};

/// `base.length` on a base sema typed as an array.
struct ArrayLength final : IntX {
  ArrayLength(X b, SourceLocation l) : IntX(l), base(std::move(b)) { pure = base->pure; }
  std::int64_t i(Ctx& c) const override {
    return with_base(*base, base->has_ref, c, [&](const Value& bv) -> std::int64_t {
      c.m.ops += kMemOp;
      const auto* arr = std::get_if<ArrayRef>(&bv);
      if (!arr) throw InterpError(loc, "field access on null/non-object");
      if (!*arr) throw InterpError(loc, "field access on null array");
      return static_cast<std::int64_t>((*arr)->elems.size());
    });
  }
  X base;
};

/// Any other field access, resolved on the runtime value (untyped bases).
struct FieldDyn final : XNode {
  FieldDyn(X b, std::string f, SourceLocation l)
      : XNode(Rep::Val, l), base(std::move(b)), field(std::move(f)),
        length(field == "length") {
    pure = base->pure;
  }
  Value v(Ctx& c) const override {
    return with_base(*base, base->has_ref, c, [&](const Value& bv) -> Value {
      c.m.ops += kMemOp;
      if (const auto* arr = std::get_if<ArrayRef>(&bv)) {
        if (!*arr) throw InterpError(loc, "field access on null array");
        if (length) return static_cast<std::int64_t>((*arr)->elems.size());
        throw InterpError(loc, "arrays only have 'length'");
      }
      const auto* obj = std::get_if<ObjectRef>(&bv);
      if (!obj || !*obj) throw InterpError(loc, "field access on null/non-object");
      const ClassInfo& cls = c.m.class_info((*obj)->class_name());
      const FieldInfo* info = cls.find_field(field);
      if (!info)
        throw InterpError(loc, "no field '" + field + "' in '" + cls.name + "'");
      return (*obj)->field(static_cast<std::size_t>(info->index));
    });
  }
  X base;
  std::string field;
  bool length;  // the field is `length`
};

struct IndexRead final : Stored<IndexRead> {
  IndexRead(X b, X ix, Rep r, SourceLocation l)
      : Stored(r, l), base(std::move(b)), index(std::move(ix)) {
    pure = base->pure && index->pure;
    has_ref = base->has_ref && index->pure;
  }
  template <class F>
  decltype(auto) visit(Ctx& c, F&& f) const {
    // A raw view of the base is safe only when the index cannot store
    // over the slot holding the array.
    return with_base(*base, has_ref, c, [&](const Value& bv) -> decltype(auto) {
      const auto* arr = std::get_if<ArrayRef>(&bv);
      if (!arr || !*arr) throw InterpError(loc, "indexing null/non-array");
      const ArrayVal& a = **arr;
      const std::int64_t ix = index->i(c);
      const std::int64_t local = ix - a.base_index;
      c.m.ops += kMemOp + kIntOp;
      if (local < 0 || local >= static_cast<std::int64_t>(a.elems.size()))
        throw InterpError(loc, range_error(ix, a));
      return f(a.elems[static_cast<std::size_t>(local)]);
    });
  }
  const Value& at(Ctx& c) const {
    return *visit(c, [](const Value& x) { return &x; });
  }
  Value v(Ctx& c) const override {
    return visit(c, [](const Value& x) { return x; });
  }
  std::int64_t i(Ctx& c) const override { return visit(c, load_i); }
  double d(Ctx& c) const override {
    return visit(c, [this](const Value& x) { return load_d(x, rep); });
  }
  bool b(Ctx& c) const override { return visit(c, load_b); }
  X base;
  X index;
};

// ---- operators ---------------------------------------------------------------

struct NegInt final : IntX {
  NegInt(X x, SourceLocation l) : IntX(l), operand(std::move(x)) { pure = operand->pure; }
  std::int64_t i(Ctx& c) const override {
    const std::int64_t x = operand->i(c);
    c.m.ops += kIntOp;
    return wrap_sub(0, x);
  }
  X operand;
};

struct NegDbl final : DblX {
  NegDbl(X x, SourceLocation l) : DblX(l), operand(std::move(x)) { pure = operand->pure; }
  double d(Ctx& c) const override {
    const double x = operand->d(c);
    c.m.ops += kFloatOp;
    return -x;
  }
  X operand;
};

struct NegVal final : XNode {
  NegVal(X x, SourceLocation l) : XNode(Rep::Val, l), operand(std::move(x)) {
    pure = operand->pure;
  }
  Value v(Ctx& c) const override {
    const Value x = operand->v(c);
    if (const auto* d = std::get_if<double>(&x)) {
      c.m.ops += kFloatOp;
      return -*d;
    }
    c.m.ops += kIntOp;
    return wrap_sub(0, as_int(x));
  }
  X operand;
};

struct Not final : BoolX {
  Not(X x, SourceLocation l) : BoolX(l), operand(std::move(x)) { pure = operand->pure; }
  bool b(Ctx& c) const override {
    c.m.ops += kIntOp;
    return !operand->b(c);
  }
  X operand;
};

struct IncDec final : XNode {
  IncDec(P p, bool increment, bool prefix, Rep r, SourceLocation l)
      : XNode(r, l), place(std::move(p)), inc(increment), pre(prefix) {}
  Value v(Ctx& c) const override {
    Value keep;
    Value* slot = place->addr(c, keep);
    c.m.ops += kIntOp + kMemOp;
    if (const auto* d = std::get_if<double>(slot)) {
      const double old = *d;
      *slot = old + (inc ? 1.0 : -1.0);
      return pre ? *slot : Value{old};
    }
    const std::int64_t old = as_int(*slot);
    *slot = wrap_add(old, inc ? 1 : -1);
    return pre ? *slot : Value{old};
  }
  P place;
  bool inc;
  bool pre;
};

/// `++`/`--` on an unboxed int or float/double local.
struct IncDecInt final : IntX {
  IncDecInt(int s, bool increment, bool prefix, SourceLocation l)
      : IntX(l), slot(s), step(increment ? 1 : -1), pre(prefix) {}
  std::int64_t i(Ctx& c) const override {
    std::int64_t& x = c.sp[slot].i;
    c.m.ops += kIntOp + kMemOp;
    const std::int64_t old = x;
    x = wrap_add(old, step);
    return pre ? x : old;
  }
  int slot;
  std::int64_t step;
  bool pre;
};
struct IncDecDbl final : DblX {
  IncDecDbl(int s, bool increment, bool prefix, SourceLocation l)
      : DblX(l), slot(s), step(increment ? 1.0 : -1.0), pre(prefix) {}
  double d(Ctx& c) const override {
    double& x = c.sp[slot].d;
    c.m.ops += kIntOp + kMemOp;
    const double old = x;
    x = old + step;
    return pre ? x : old;
  }
  int slot;
  double step;
  bool pre;
};

struct Logical final : BoolX {
  Logical(bool is_and, X a, X b, SourceLocation l)
      : BoolX(l), conj(is_and), lhs(std::move(a)), rhs(std::move(b)) {
    pure = lhs->pure && rhs->pure;
  }
  bool b(Ctx& c) const override {
    c.m.ops += kBranchOp;
    if (conj) return lhs->b(c) && rhs->b(c);
    return lhs->b(c) || rhs->b(c);
  }
  bool conj;
  X lhs;
  X rhs;
};

template <class T>
bool compare(BinaryOp op, T a, T b) {
  switch (op) {
    case BinaryOp::Eq: return a == b;
    case BinaryOp::Ne: return a != b;
    case BinaryOp::Lt: return a < b;
    case BinaryOp::Gt: return a > b;
    case BinaryOp::Le: return a <= b;
    case BinaryOp::Ge: return a >= b;
    default: return false;
  }
}

/// Comparison of two numeric-rep operands; `floating` is fixed by their
/// representations.
struct Compare final : BoolX {
  Compare(BinaryOp o, bool fl, X a, X b, SourceLocation l)
      : BoolX(l), op(o), floating(fl), lhs(std::move(a)), rhs(std::move(b)) {
    pure = lhs->pure && rhs->pure;
  }
  bool b(Ctx& c) const override {
    if (floating) {
      const double x = lhs->d(c);
      const double y = rhs->d(c);
      c.m.ops += kBranchOp + (kFloatOp - kIntOp);
      return compare(op, x, y);
    }
    const std::int64_t x = lhs->i(c);
    const std::int64_t y = rhs->i(c);
    c.m.ops += kBranchOp;
    return compare(op, x, y);
  }
  BinaryOp op;
  bool floating;
  X lhs;
  X rhs;
};

double arith_cost(BinaryOp op, bool floating) {
  // Division latency: float division is genuinely slow; integer div/mod by
  // small (runtime-constant) operands is strength-reduced by a compiler.
  const bool division = op == BinaryOp::Div || op == BinaryOp::Mod;
  return floating ? (division ? 8.0 * kFloatOp : kFloatOp)
                  : (division ? 3.0 * kIntOp : kIntOp);
}

double arith(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::Add: return a + b;
    case BinaryOp::Sub: return a - b;
    case BinaryOp::Mul: return a * b;
    case BinaryOp::Div: return a / b;
    default: return std::fmod(a, b);
  }
}

std::int64_t arith(BinaryOp op, std::int64_t a, std::int64_t b,
                   SourceLocation loc) {
  switch (op) {
    case BinaryOp::Add: return wrap_add(a, b);
    case BinaryOp::Sub: return wrap_sub(a, b);
    case BinaryOp::Mul: return wrap_mul(a, b);
    case BinaryOp::Div:
      if (b == 0) throw InterpError(loc, "division by zero");
      return a / b;
    default:
      if (b == 0) throw InterpError(loc, "modulo by zero");
      return a % b;
  }
}

struct ArithInt final : IntX {
  ArithInt(BinaryOp o, X a, X b, SourceLocation l)
      : IntX(l), op(o), cost(arith_cost(o, false)), lhs(std::move(a)), rhs(std::move(b)) {
    pure = lhs->pure && rhs->pure;
  }
  std::int64_t i(Ctx& c) const override {
    const std::int64_t x = lhs->i(c);
    const std::int64_t y = rhs->i(c);
    c.m.ops += cost;
    return arith(op, x, y, loc);
  }
  BinaryOp op;
  double cost;
  X lhs;
  X rhs;
};

struct ArithDbl final : DblX {
  ArithDbl(BinaryOp o, X a, X b, SourceLocation l)
      : DblX(l), op(o), cost(arith_cost(o, true)), lhs(std::move(a)), rhs(std::move(b)) {
    pure = lhs->pure && rhs->pure;
  }
  double d(Ctx& c) const override {
    const double x = lhs->d(c);
    const double y = rhs->d(c);
    c.m.ops += cost;
    return arith(op, x, y);
  }
  BinaryOp op;
  double cost;
  X lhs;
  X rhs;
};

/// Binary operator on operands of unknown representation: dispatches on
/// the runtime values.
struct BinaryVal final : XNode {
  BinaryVal(BinaryOp o, X a, X b, SourceLocation l)
      : XNode(is_comparison(o) ? Rep::Bool : Rep::Val, l),
        op(o), lhs(std::move(a)), rhs(std::move(b)) {
    pure = lhs->pure && rhs->pure;
  }
  Value v(Ctx& c) const override {
    const Value a = lhs->v(c);
    const Value b = rhs->v(c);
    // Reference equality.
    if ((op == BinaryOp::Eq || op == BinaryOp::Ne) &&
        (std::holds_alternative<ObjectRef>(a) || std::holds_alternative<ObjectRef>(b) ||
         is_null(a) || is_null(b))) {
      c.m.ops += kIntOp;
      const auto* ao = std::get_if<ObjectRef>(&a);
      const auto* bo = std::get_if<ObjectRef>(&b);
      bool equal = (ao ? ao->get() : nullptr) == (bo ? bo->get() : nullptr) &&
                   is_null(a) == is_null(b);
      if (is_null(a) && is_null(b)) equal = true;
      return op == BinaryOp::Eq ? equal : !equal;
    }
    const bool floating =
        std::holds_alternative<double>(a) || std::holds_alternative<double>(b);
    if (is_comparison(op)) {
      c.m.ops += kBranchOp + (floating ? kFloatOp - kIntOp : 0.0);
      if (floating) return compare(op, as_double(a), as_double(b));
      return compare(op, as_int(a), as_int(b));
    }
    c.m.ops += arith_cost(op, floating);
    if (floating) return arith(op, as_double(a), as_double(b));
    return arith(op, as_int(a), as_int(b), loc);
  }
  bool b(Ctx& c) const override { return as_bool(v(c)); }
  BinaryOp op;
  X lhs;
  X rhs;
};

/// `cond ? a : b`; typed when both branches share a representation.
struct Conditional final : XNode {
  Conditional(X k, X a, X b, Rep r, SourceLocation l)
      : XNode(r, l), cond(std::move(k)), yes(std::move(a)), no(std::move(b)) {
    pure = cond->pure && yes->pure && no->pure;
  }
  const XNode& pick(Ctx& c) const {
    c.m.ops += kBranchOp;
    return cond->b(c) ? *yes : *no;
  }
  Value v(Ctx& c) const override { return pick(c).v(c); }
  std::int64_t i(Ctx& c) const override { return pick(c).i(c); }
  double d(Ctx& c) const override { return pick(c).d(c); }
  bool b(Ctx& c) const override { return pick(c).b(c); }
  X cond;
  X yes;
  X no;
};

// ---- assignment --------------------------------------------------------------

struct LocalPlace final : Place {
  explicit LocalPlace(int s) : slot(s) {}
  Value* addr(Ctx& c, Value&) const override { return &c.fp[slot]; }
  int slot;
};

struct NamedPlace final : Place {
  NamedPlace(int s, std::string n, SourceLocation l) : slot(s), name(std::move(n)), loc(l) {}
  Value* addr(Ctx& c, Value&) const override {
    if (c.env->bound(slot)) return &c.env->at(slot);
    throw InterpError(loc, "undeclared variable '" + name + "'");
  }
  int slot;
  std::string name;
  SourceLocation loc;
};

struct ThisFieldPlace final : Place {
  ThisFieldPlace(int f, std::string n, SourceLocation l) : field(f), name(std::move(n)), loc(l) {}
  Value* addr(Ctx& c, Value&) const override {
    Object* self = c.self->get();
    if (!self) throw InterpError(loc, "undeclared variable '" + name + "'");
    return &self->field(static_cast<std::size_t>(field));
  }
  int field;
  std::string name;
  SourceLocation loc;
};

/// `base.field = ...`; `field` is -1 when the base's class is not known
/// statically and the index is looked up on the runtime object.
struct FieldPlace final : Place {
  FieldPlace(X b, int f, std::string n, SourceLocation l)
      : base(std::move(b)), field(f), name(std::move(n)), loc(l) {}
  Value* addr(Ctx& c, Value& keep) const override {
    const Value* bv = base->has_ref ? base->ref(c) : &(keep = base->v(c));
    const auto* obj = std::get_if<ObjectRef>(bv);
    if (!obj || !*obj) throw InterpError(loc, "field store on null/non-object value");
    int index = field;
    if (index < 0) {
      const ClassInfo& cls = c.m.class_info((*obj)->class_name());
      const FieldInfo* info = cls.find_field(name);
      if (!info)
        throw InterpError(loc, "no field '" + name + "' in '" + cls.name + "'");
      index = info->index;
    }
    return &(*obj)->field(static_cast<std::size_t>(index));
  }
  X base;
  int field;
  std::string name;
  SourceLocation loc;
};

struct IndexPlace final : Place {
  IndexPlace(X b, X ix, SourceLocation l) : base(std::move(b)), index(std::move(ix)), loc(l) {}
  Value* addr(Ctx& c, Value& keep) const override {
    const Value* bv = base->has_ref && index->pure ? base->ref(c) : &(keep = base->v(c));
    const auto* arr = std::get_if<ArrayRef>(bv);
    if (!arr || !*arr) throw InterpError(loc, "index store on null/non-array");
    ArrayVal& a = **arr;
    const std::int64_t ix = index->i(c);
    const std::int64_t local = ix - a.base_index;
    if (local < 0 || local >= static_cast<std::int64_t>(a.elems.size()))
      throw InterpError(loc, range_error(ix, a));
    return &a.elems[static_cast<std::size_t>(local)];
  }
  X base;
  X index;
  SourceLocation loc;
};

struct RaisePlace final : Place {
  RaisePlace(std::string m, SourceLocation l) : message(std::move(m)), loc(l) {}
  Value* addr(Ctx&, Value&) const override { throw InterpError(loc, message); }
  std::string message;
  SourceLocation loc;
};

Value compound(AssignOp op, const Value& current, const Value& rhs,
               double& ops, SourceLocation loc) {
  const bool floating = std::holds_alternative<double>(current) ||
                        std::holds_alternative<double>(rhs);
  ops += floating ? kFloatOp : kIntOp;
  if (floating) {
    const double a = as_double(current);
    const double b = as_double(rhs);
    switch (op) {
      case AssignOp::AddAssign: return a + b;
      case AssignOp::SubAssign: return a - b;
      case AssignOp::MulAssign: return a * b;
      case AssignOp::DivAssign: return a / b;
      default: return rhs;
    }
  }
  const std::int64_t a = as_int(current);
  const std::int64_t b = as_int(rhs);
  switch (op) {
    case AssignOp::AddAssign: return wrap_add(a, b);
    case AssignOp::SubAssign: return wrap_sub(a, b);
    case AssignOp::MulAssign: return wrap_mul(a, b);
    case AssignOp::DivAssign:
      if (b == 0) throw InterpError(loc, "integer division by zero");
      return a / b;
    default: return rhs;
  }
}

/// Assignment through variant dispatch (targets or values of unknown
/// representation).
struct AssignVal final : XNode {
  AssignVal(AssignOp o, P p, X x, TypePtr t, SourceLocation l)
      : XNode(rep_of(t), l), op(o), place(std::move(p)), value(std::move(x)),
        typed(t != nullptr), co(coerce_kind(t)) {}
  Value v(Ctx& c) const override {
    Value result = value->v(c);
    Value keep;
    Value* slot = place->addr(c, keep);
    c.m.ops += kMemOp;
    if (op != AssignOp::Assign) result = compound(op, *slot, result, c.m.ops, loc);
    // Coerce to the declared type of the target (sema typed it); fall
    // back to the slot's current representation when untyped.
    if (typed) {
      coerce(co, result);
    } else if (std::holds_alternative<std::int64_t>(*slot) &&
               std::holds_alternative<double>(result)) {
      result = static_cast<std::int64_t>(std::get<double>(result));
    } else if (std::holds_alternative<double>(*slot) &&
               std::holds_alternative<std::int64_t>(result)) {
      result = static_cast<double>(std::get<std::int64_t>(result));
    }
    *slot = result;
    return result;
  }
  AssignOp op;
  P place;
  X value;
  bool typed;
  Coerce co;
};

BinaryOp arith_op(AssignOp op) {
  switch (op) {
    case AssignOp::AddAssign: return BinaryOp::Add;
    case AssignOp::SubAssign: return BinaryOp::Sub;
    case AssignOp::MulAssign: return BinaryOp::Mul;
    default: return BinaryOp::Div;
  }
}

/// Where a typed assignment stores: a boxed Place, or an unboxed local
/// slot of the assignment's representation.
struct BoxedSlot {
  P place;
  Value* open(Ctx& c, Value& keep) const { return place->addr(c, keep); }
  static std::int64_t get_i(const Value* s) { return load_i(*s); }
  static double get_d(const Value* s) { return load_d(*s); }
  static void put(Value* s, std::int64_t x) { *s = x; }
  static void put(Value* s, double x) { *s = x; }
};
struct IntSlot {
  int slot;
  std::int64_t* open(Ctx& c, Value&) const { return &c.sp[slot].i; }
  static std::int64_t get_i(const std::int64_t* s) { return *s; }
  static double get_d(const std::int64_t* s) { return static_cast<double>(*s); }
  static void put(std::int64_t* s, std::int64_t x) { *s = x; }
};
struct DblSlot {
  int slot;
  double* open(Ctx& c, Value&) const { return &c.sp[slot].d; }
  static double get_d(const double* s) { return *s; }
  static void put(double* s, double x) { *s = x; }
};

/// Assignment of a numeric-rep value to an int-typed target.
template <class Target>
struct AssignInt final : IntX {
  AssignInt(AssignOp o, Target t, X x, SourceLocation l)
      : IntX(l), op(o), target(std::move(t)), value(std::move(x)) {}
  std::int64_t i(Ctx& c) const override {
    if (value->rep == Rep::Dbl) {
      const double x = value->d(c);
      Value keep;
      auto* slot = target.open(c, keep);
      c.m.ops += kMemOp;
      double result = x;
      if (op != AssignOp::Assign) {
        c.m.ops += kFloatOp;
        result = arith(arith_op(op), Target::get_d(slot), x);
      }
      const auto stored = static_cast<std::int64_t>(result);
      Target::put(slot, stored);
      return stored;
    }
    const std::int64_t x = value->i(c);
    Value keep;
    auto* slot = target.open(c, keep);
    c.m.ops += kMemOp;
    std::int64_t result = x;
    if (op != AssignOp::Assign) {
      c.m.ops += kIntOp;
      if (op == AssignOp::DivAssign && x == 0)
        throw InterpError(loc, "integer division by zero");
      result = arith(arith_op(op), Target::get_i(slot), x, loc);
    }
    Target::put(slot, result);
    return result;
  }
  AssignOp op;
  Target target;
  X value;
};

/// Assignment of a numeric-rep value to a float- or double-typed target.
template <class Target>
struct AssignDbl final : DblX {
  AssignDbl(AssignOp o, Target t, X x, Coerce k, SourceLocation l)
      : DblX(l), op(o), target(std::move(t)), value(std::move(x)), co(k) {}
  double d(Ctx& c) const override {
    if (op == AssignOp::Assign && value->rep == Rep::Int) {
      // Converted straight from the integer: one rounding, as coerce().
      const std::int64_t x = value->i(c);
      Value keep;
      auto* slot = target.open(c, keep);
      c.m.ops += kMemOp;
      const double result = to_floating(co, x);
      Target::put(slot, result);
      return result;
    }
    const double x = value->d(c);
    Value keep;
    auto* slot = target.open(c, keep);
    c.m.ops += kMemOp;
    double result = x;
    if (op != AssignOp::Assign) {
      c.m.ops += kFloatOp;
      result = arith(arith_op(op), Target::get_d(slot), x);
    }
    result = to_floating(co, result);
    Target::put(slot, result);
    return result;
  }
  AssignOp op;
  Target target;
  X value;
  Coerce co;
};

/// Assignment to an unboxed local of a value of unknown representation,
/// or to a boolean local: AssignVal's semantics, stored unboxed.
struct AssignScalarVal final : XNode {
  AssignScalarVal(AssignOp o, int s, Rep r, Coerce k, X x, SourceLocation l)
      : XNode(r, l), op(o), slot(s), co(k), value(std::move(x)) {}
  Value v(Ctx& c) const override {
    Value result = value->v(c);
    Scalar& s = c.sp[slot];
    c.m.ops += kMemOp;
    if (op != AssignOp::Assign) result = compound(op, box(s, rep), result, c.m.ops, loc);
    coerce(co, result);
    unbox(s, rep, result);
    return result;
  }
  AssignOp op;
  int slot;
  Coerce co;
  X value;
};

// ---- calls and allocation --------------------------------------------------

/// Evaluates `x` into an unboxed slot of representation `rep`, with the
/// coercion `co` that a boxed store of the slot's declared type applies.
void eval_into(Ctx& c, const XNode& x, Rep rep, Coerce co, Scalar& s) {
  switch (rep) {
    case Rep::Int:
      s.i = x.i(c);
      return;
    case Rep::Bool:
      s.b = x.b(c);
      return;
    default:
      break;
  }
  if (co != Coerce::Float || x.rep == Rep::Dbl) {
    s.d = to_floating(co, x.d(c));
  } else if (x.rep == Rep::Int) {
    s.d = to_floating(co, x.i(c));  // one rounding, as coerce()
  } else {
    Value v = x.v(c);
    coerce(co, v);
    s.d = load_d(v);
  }
}

/// Evaluates call arguments, in order, straight into `fn`'s parameter
/// slots of `frame`.
void pass_args(Ctx& c, const std::vector<X>& args, const Method& fn, const Frame& frame) {
  for (std::size_t k = 0; k < args.size(); ++k) {
    const ParamSlot& p = fn.params[k];
    if (p.rep == Rep::Val)
      frame.vals()[p.slot] = args[k]->v(c);
    else
      eval_into(c, *args[k], p.rep, p.co, frame.scalars()[p.slot]);
  }
}

/// A method call bound to its target at lowering: sema fixes every
/// target, since the dialect has no `extends` and rejects calls through
/// interface types.
struct CallSite {
  const Method& fn;
  X base;  // null: the caller's receiver
  std::vector<X> args;

  /// The callee's frame is pushed before the arguments are evaluated, so
  /// calls nested in them run one level deeper.
  void invoke(Ctx& c, SourceLocation loc) const {
    Frame frame(c.m, fn.frame);
    pass_args(c, args, fn, frame);
    if (!base) return enter(c.m, fn, *c.self, frame);
    const Value bv = base->v(c);
    const auto* obj = std::get_if<ObjectRef>(&bv);
    if (!obj || !*obj) throw InterpError(loc, "method call on null/non-object");
    enter(c.m, fn, *obj, frame);
  }
};

/// Calls to methods that hand back an int, a double or a boolean unboxed.
struct CallInt final : IntX {
  CallInt(CallSite s, SourceLocation l) : IntX(l), site(std::move(s)) {}
  std::int64_t i(Ctx& c) const override {
    site.invoke(c, loc);
    return c.m.ret_s.i;
  }
  CallSite site;
};
struct CallDbl final : DblX {
  CallDbl(CallSite s, SourceLocation l) : DblX(l), site(std::move(s)) {}
  double d(Ctx& c) const override {
    site.invoke(c, loc);
    return c.m.ret_s.d;
  }
  CallSite site;
};
struct CallBool final : BoolX {
  CallBool(CallSite s, SourceLocation l) : BoolX(l), site(std::move(s)) {}
  bool b(Ctx& c) const override {
    site.invoke(c, loc);
    return c.m.ret_s.b;
  }
  CallSite site;
};

/// Any other call, including one lowered while its callee still was
/// (recursion): the result is read from wherever the callee's ret_rep
/// puts it.
struct CallVal final : XNode {
  CallVal(CallSite s, SourceLocation l) : XNode(Rep::Val, l), site(std::move(s)) {}
  Value v(Ctx& c) const override {
    site.invoke(c, loc);
    return take_result(c.m, site.fn.ret_rep);
  }
  CallSite site;
};

/// Rectdomain `size()`, `lo()` and `hi()`.
struct DomainAccessor final : IntX {
  enum class Part : std::uint8_t { Size, Lo, Hi };
  DomainAccessor(X b, Part p, SourceLocation l) : IntX(l), base(std::move(b)), part(p) {
    pure = base->pure;
  }
  std::int64_t i(Ctx& c) const override {
    const Value bv = base->v(c);
    const auto* dom = std::get_if<DomainRef>(&bv);
    if (!dom || !*dom) throw InterpError(loc, "bad intrinsic receiver");
    const RectDomainVal& range = (*dom)->value;
    switch (part) {
      case Part::Size: return range.size();
      case Part::Lo: return range.lo;
      default: return range.hi;
    }
  }
  X base;
  Part part;
};

enum class Math : std::uint8_t { Sqrt, Floor, Ceil, Exp, Log, Sin, Cos, Pow, Atan2, Abs, Min, Max };

/// An intrinsic function resolved at lowering.
struct IntrinsicFn {
  Math op;
  std::size_t arity;
  double cost;
  /// abs, min and max keep integer arguments integral.
  bool integral() const { return op == Math::Abs || op == Math::Min || op == Math::Max; }
};

const IntrinsicFn* find_intrinsic(const std::string& name) {
  static const std::map<std::string, IntrinsicFn> table = {
      {"sqrt", {Math::Sqrt, 1, 15.0 * kFloatOp}},  {"floor", {Math::Floor, 1, 2.0 * kFloatOp}},
      {"ceil", {Math::Ceil, 1, 2.0 * kFloatOp}},   {"exp", {Math::Exp, 1, 30.0 * kFloatOp}},
      {"log", {Math::Log, 1, 30.0 * kFloatOp}},    {"sin", {Math::Sin, 1, 30.0 * kFloatOp}},
      {"cos", {Math::Cos, 1, 30.0 * kFloatOp}},    {"pow", {Math::Pow, 2, 30.0 * kFloatOp}},
      {"atan2", {Math::Atan2, 2, 30.0 * kFloatOp}}, {"abs", {Math::Abs, 1, 2.0 * kFloatOp}},
      {"min", {Math::Min, 2, 2.0 * kFloatOp}},     {"max", {Math::Max, 2, 2.0 * kFloatOp}},
  };
  auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

double apply(Math op, double x, double y) {
  switch (op) {
    case Math::Sqrt: return std::sqrt(x);
    case Math::Floor: return std::floor(x);
    case Math::Ceil: return std::ceil(x);
    case Math::Exp: return std::exp(x);
    case Math::Log: return std::log(x);
    case Math::Sin: return std::sin(x);
    case Math::Cos: return std::cos(x);
    case Math::Pow: return std::pow(x, y);
    case Math::Atan2: return std::atan2(x, y);
    case Math::Abs: return std::fabs(x);
    case Math::Min: return std::min(x, y);
    default: return std::max(x, y);
  }
}

/// abs, min and max on integers.
std::int64_t apply(Math op, std::int64_t x, std::int64_t y) {
  switch (op) {
    case Math::Abs: return x < 0 ? wrap_sub(0, x) : x;
    case Math::Min: return std::min(x, y);
    default: return std::max(x, y);
  }
}

/// Intrinsic on numeric-rep args: Int for abs, min and max when no
/// argument is floating, else Dbl.
struct MathCall final : XNode {
  MathCall(const IntrinsicFn& f, std::vector<X> a, SourceLocation l)
      : XNode(f.integral() ? Rep::Int : Rep::Dbl, l), fn(f), args(std::move(a)) {
    pure = true;
    for (const X& x : args) {
      if (x->rep == Rep::Dbl || (fn.op == Math::Abs && x->rep == Rep::Bool)) rep = Rep::Dbl;
      pure = pure && x->pure;
    }
  }
  Value v(Ctx& c) const override {
    if (rep == Rep::Dbl) return d(c);
    return i(c);
  }
  std::int64_t i(Ctx& c) const override {
    if (rep == Rep::Dbl) return static_cast<std::int64_t>(d(c));
    const std::int64_t x = args[0]->i(c);
    const std::int64_t y = fn.arity == 2 ? args[1]->i(c) : 0;
    c.m.ops += fn.cost;
    return apply(fn.op, x, y);
  }
  double d(Ctx& c) const override {
    if (rep == Rep::Int) return static_cast<double>(i(c));
    const double x = args[0]->d(c);
    const double y = fn.arity == 2 ? args[1]->d(c) : 0.0;
    c.m.ops += fn.cost;
    return apply(fn.op, x, y);
  }
  IntrinsicFn fn;
  std::vector<X> args;
};

/// Intrinsic call on arguments of unknown representation.
struct IntrinsicVal final : XNode {
  IntrinsicVal(const IntrinsicFn& f, std::vector<X> a, SourceLocation l)
      : XNode(Rep::Val, l), fn(f), args(std::move(a)) {}
  Value v(Ctx& c) const override {
    const Value x = args[0]->v(c);
    const Value y = fn.arity == 2 ? args[1]->v(c) : Value{};
    c.m.ops += fn.cost;
    if (fn.op == Math::Abs) {
      if (const auto* k = std::get_if<std::int64_t>(&x)) return apply(fn.op, *k, 0);
    } else if (fn.integral() && !std::holds_alternative<double>(x) &&
               !std::holds_alternative<double>(y)) {
      return apply(fn.op, as_int(x), as_int(y));
    }
    return apply(fn.op, as_double(x), fn.arity == 2 ? as_double(y) : 0.0);
  }
  IntrinsicFn fn;
  std::vector<X> args;
};

/// `new C(args)`: the class, interned, its default fields and its
/// constructor are resolved at lowering.
struct NewObject final : XNode {
  NewObject(const ClassInfo& cls, const Method* c, std::vector<X> a, SourceLocation l)
      : XNode(Rep::Val, l), name(intern_class(cls.name)), ctor(c),
        fields(Interpreter::default_fields(cls)), args(std::move(a)) {}
  Value v(Ctx& c) const override {
    Frame frame(c.m, ctor ? ctor->frame : FrameSize{});
    if (ctor) pass_args(c, args, *ctor, frame);
    c.m.ops += 4.0 * kMemOp;
    ObjectRef obj = Object::make(name, fields);
    if (ctor) enter(c.m, *ctor, obj, frame);
    return obj;
  }
  ClassName name;
  const Method* ctor;         // null: nothing to run, and no arguments
  std::vector<Value> fields;  // default field values, copied per object
  std::vector<X> args;
};

struct NewArray final : XNode {
  NewArray(TypePtr elem, X n, SourceLocation l)
      : XNode(Rep::Val, l), element_type(std::move(elem)), length(std::move(n)),
        fill(Interpreter::default_value(element_type)) {}
  Value v(Ctx& c) const override {
    const std::int64_t n = length->i(c);
    if (n < 0) throw InterpError(loc, "negative array length");
    ArrayRef arr = ArrayVal::make(element_type);
    arr->elems.assign(static_cast<std::size_t>(n), fill);
    c.m.ops += 4.0 * kMemOp + 0.25 * static_cast<double>(n);
    return arr;
  }
  TypePtr element_type;
  X length;
  Value fill;
};

struct RectdomainNode final : XNode {
  RectdomainNode(X a, X b, SourceLocation l)
      : XNode(Rep::Val, l), lo(std::move(a)), hi(std::move(b)) {
    pure = !lo || (lo->pure && hi->pure);
  }
  Value v(Ctx& c) const override {
    if (!lo) throw InterpError(loc, "only rank-1 rectdomains are executable");
    const std::int64_t first = lo->i(c);
    return make_box(RectDomainVal{first, hi->i(c)});
  }
  X lo;  // null for rank != 1
  X hi;
};

/// The domain of a foreach or of the packet loop. A rank-1 literal
/// `[lo : hi]` yields its two bounds without building a Value; any other
/// expression yields its value: a stored rectdomain or an array.
struct LoopDomain {
  X lo, hi;  // set for a rank-1 literal
  X value;   // set otherwise
  SourceLocation loc;
  /// The domain's bounds when it is a rectdomain; otherwise null, and
  /// `out` holds the value.
  std::optional<RectDomainVal> range(Ctx& c, Value& out) const {
    if (lo) {
      const std::int64_t first = lo->i(c);
      return RectDomainVal{first, hi->i(c)};
    }
    out = value->v(c);
    if (const auto* dom = std::get_if<DomainRef>(&out); dom && *dom) return (*dom)->value;
    return std::nullopt;
  }
};

// ---- statements ----------------------------------------------------------------

struct ExprStmtNode final : SNode {
  explicit ExprStmtNode(X x) : expr(std::move(x)) {}
  Flow run(Ctx& c) const override {
    discard(*expr, c);
    return Flow::Normal;
  }
  X expr;
};

/// Where a name lives: an Env slot (top-level names of code lowered
/// against an Env, which the packet codec binds by name), a boxed frame
/// slot, or an unboxed frame slot (locals sema typed int, float or
/// boolean).
enum class Storage : std::uint8_t { Named, Boxed, Unboxed };

/// Declaration of a name stored as `where` says.
struct Decl final : SNode {
  Decl(Storage w, int s, X x, const TypePtr& type)
      : where(w), slot(s), init(std::move(x)), target(rep_of(type)),
        co(coerce_kind(type)), fill(Interpreter::default_value(type)) {}
  Value value(Ctx& c) const {
    if (!init) return fill;
    if (target == Rep::Int && init->rep == Rep::Dbl)
      return static_cast<std::int64_t>(init->d(c));
    if (target == Rep::Int && init->rep == Rep::Int) return init->i(c);
    if (target == Rep::Dbl && init->rep == Rep::Dbl) return to_floating(co, init->d(c));
    if (target == Rep::Dbl && init->rep == Rep::Int) return to_floating(co, init->i(c));
    Value v = init->v(c);
    coerce(co, v);
    return v;
  }
  Flow run(Ctx& c) const override {
    switch (where) {
      case Storage::Named:
        c.env->declare_at(slot, value(c));
        break;
      case Storage::Boxed: {
        Value v = value(c);
        c.fp[slot] = std::move(v);
        break;
      }
      case Storage::Unboxed:
        if (init)
          eval_into(c, *init, target, co, c.sp[slot]);
        else
          unbox(c.sp[slot], target, fill);
        break;
    }
    c.m.ops += kMemOp;
    return Flow::Normal;
  }
  Storage where;
  int slot;
  X init;  // null: default value
  Rep target;
  Coerce co;
  Value fill;
};

struct BlockNode final : SNode {
  explicit BlockNode(std::vector<S> b) : body(std::move(b)) {}
  Flow run(Ctx& c) const override {
    for (const S& s : body) {
      const Flow flow = s->run(c);
      if (flow != Flow::Normal) return flow;
    }
    return Flow::Normal;
  }
  std::vector<S> body;
};

struct IfNode final : SNode {
  IfNode(X k, S a, S b) : cond(std::move(k)), then_branch(std::move(a)), else_branch(std::move(b)) {}
  Flow run(Ctx& c) const override {
    c.m.ops += kBranchOp;
    if (cond->b(c)) return then_branch->run(c);
    if (else_branch) return else_branch->run(c);
    return Flow::Normal;
  }
  X cond;
  S then_branch;
  S else_branch;  // may be null
};

struct WhileNode final : SNode {
  WhileNode(X k, S b) : cond(std::move(k)), body(std::move(b)) {}
  Flow run(Ctx& c) const override {
    while (true) {
      c.m.ops += kBranchOp;
      if (!cond->b(c)) break;
      const Flow flow = body->run(c);
      if (flow == Flow::Break) break;
      if (flow == Flow::Return) return flow;
    }
    return Flow::Normal;
  }
  X cond;
  S body;
};

struct ForNode final : SNode {
  ForNode(S i, X k, X st, S b) : init(std::move(i)), cond(std::move(k)), step(std::move(st)), body(std::move(b)) {}
  Flow run(Ctx& c) const override {
    if (init) init->run(c);
    while (true) {
      c.m.ops += kBranchOp;
      if (cond && !cond->b(c)) break;
      const Flow flow = body->run(c);
      if (flow == Flow::Break) break;
      if (flow == Flow::Return) return flow;
      if (step) discard(*step, c);
    }
    return Flow::Normal;
  }
  S init;  // each may be null
  X cond;
  X step;
  S body;
};

/// A local's frame slot: unboxed when rep is numeric, else boxed.
struct Local {
  int slot;
  Rep rep;
  void set(Ctx& c, const Value& v) const {
    if (rep == Rep::Val)
      c.fp[slot] = v;
    else
      unbox(c.sp[slot], rep, v);
  }
};

/// Runs `body` once per value of the loop variable `var`; shared by
/// foreach over index ranges and the sequential packet loop.
Flow count_loop(Ctx& c, std::int64_t lo, std::int64_t hi, Local var,
                const SNode& body, double per_iteration) {
  for (std::int64_t k = lo; k <= hi; ++k) {
    c.m.ops += per_iteration;
    if (var.rep == Rep::Int)
      c.sp[var.slot].i = k;
    else
      var.set(c, k);
    const Flow flow = body.run(c);
    if (flow == Flow::Break) break;
    if (flow == Flow::Return) return flow;
  }
  return Flow::Normal;
}

struct ForeachNode final : SNode {
  ForeachNode(LoopDomain dom, Local v, S s, SourceLocation l)
      : domain(std::move(dom)), var(v), body(std::move(s)), loc(l) {}
  Flow run(Ctx& c) const override {
    Value dom;
    if (const auto range = domain.range(c, dom))
      return count_loop(c, range->lo, range->hi, var, *body, kBranchOp + kMemOp);
    const auto* arr = std::get_if<ArrayRef>(&dom);
    if (!arr) throw InterpError(loc, "foreach domain is neither rectdomain nor array");
    if (!*arr) throw InterpError(loc, "foreach over null array");
    for (const Value& elem : (*arr)->elems) {
      c.m.ops += kBranchOp + kMemOp;
      var.set(c, elem);
      const Flow flow = body->run(c);
      if (flow == Flow::Break) break;
      if (flow == Flow::Return) return flow;
    }
    return Flow::Normal;
  }
  LoopDomain domain;
  Local var;
  S body;
  SourceLocation loc;
};

/// One chunk of Interpreter::exec_foreach: `loop`'s iterations over
/// `ranges`, already clipped to its domain, range by range.
void run_chunk(Ctx& c, const ForeachNode& loop, const std::vector<RectDomainVal>& ranges) {
  for (const RectDomainVal& r : ranges)
    if (count_loop(c, r.lo, r.hi, loop.var, *loop.body, kBranchOp + kMemOp) == Flow::Return)
      return;
}

/// Cuts the `total` iterations of `ranges` (non-empty, in the order given)
/// into `n` contiguous chunks; the first total % n chunks take one more.
std::vector<std::vector<RectDomainVal>> cut_chunks(const std::vector<RectDomainVal>& ranges,
                                                   std::uint64_t total, std::size_t n) {
  std::vector<std::vector<RectDomainVal>> chunks(n);
  std::size_t range = 0;
  std::int64_t next = ranges.front().lo;  // first iteration not yet cut
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t want = total / n + (k < total % n ? 1 : 0);
    while (want > 0) {
      const std::int64_t hi = ranges[range].hi;
      const std::uint64_t left = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(next) + 1;
      const std::uint64_t take = std::min(want, left);
      const std::int64_t last = next + static_cast<std::int64_t>(take - 1);
      chunks[k].push_back(RectDomainVal{next, last});
      want -= take;
      if (last < hi) {
        next = last + 1;
      } else if (++range < ranges.size()) {
        next = ranges[range].lo;
      }
    }
  }
  return chunks;
}

/// Reference semantics of a PipelinedLoop: the packet loop, sequentially.
struct PipelinedNode final : SNode {
  PipelinedNode(const PipelinedLoopStmt& s, LoopDomain dom, Local v, S b)
      : loop(s), domain(std::move(dom)), var(v), body(std::move(b)) {}
  Flow run(Ctx& c) const override {
    if (c.m.hook && c.m.hook(loop, c.env ? *c.env : c.m.hook_env)) return Flow::Normal;
    Value dom;
    const auto range = domain.range(c, dom);
    if (!range) throw InterpError(domain.loc, "expression is not a rectdomain");
    return count_loop(c, range->lo, range->hi, var, *body, 0.0);
  }
  const PipelinedLoopStmt& loop;
  LoopDomain domain;
  Local var;
  S body;
};

struct ReturnNode final : SNode {
  explicit ReturnNode(X x) : value(std::move(x)) {}
  Flow run(Ctx& c) const override {
    switch (rep) {
      case Rep::Int: c.m.ret_s.i = value->i(c); break;
      case Rep::Dbl: c.m.ret_s.d = value->d(c); break;
      case Rep::Bool: c.m.ret_s.b = value->b(c); break;
      case Rep::Val: c.m.ret = value ? value->v(c) : Value{}; break;
    }
    return Flow::Return;
  }
  X value;  // may be null
  Rep rep = Rep::Val;  // the enclosing method's ret_rep, set as its lowering ends
};

struct Jump final : SNode {
  explicit Jump(Flow f) : flow(f) {}
  Flow run(Ctx&) const override { return flow; }
  Flow flow;
};

struct RaiseStmt final : SNode {
  RaiseStmt(std::string m, SourceLocation l) : message(std::move(m)), loc(l) {}
  Flow run(Ctx&) const override { throw InterpError(loc, message); }
  std::string message;
  SourceLocation loc;
};

}  // namespace

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

class LoweredCode {
 public:
  // Slot indices are the Env's; call targets are the Machine's methods.
  const Interpreter::Machine* machine = nullptr;
  const Env* env = nullptr;
  std::vector<S> stmts;
  X expr;  // set when an expression was lowered
  FrameSize frame;
  /// run(): a top-level return ends the program body.
  bool stop_at_return = false;
};

namespace {

/// Resolves every name to a slot once, in the dialect's lookup order:
/// enclosing scopes, then (for code lowered against an Env) the Env's
/// names, then runtime constants, then fields of the receiver. Each call
/// binds to its target Method, which is lowered first.
class Lowerer {
 public:
  Lowerer(Machine& m, Env* env, const ClassInfo* self)
      : m_(m), env_(env), self_(self) {
    scopes_.emplace_back();
  }

  /// Declares a frame local in the innermost scope, unboxed when sema
  /// typed it int, float or boolean.
  Local declare_local(const std::string& name, const TypePtr& type) {
    const Rep rep = rep_of(type);
    const bool unboxed = numeric_rep(rep);
    const int slot = unboxed ? scalars_++ : vals_++;
    scopes_.back()[name] = Binding{unboxed ? Storage::Unboxed : Storage::Boxed, slot, type};
    return Local{slot, rep};
  }
  FrameSize frame_size() const {
    return {static_cast<std::size_t>(vals_), static_cast<std::size_t>(scalars_)};
  }

  S stmt(const Stmt& s);
  X expr(const Expr& e);
  /// Ends the lowering of method body `body`: returns its Method::ret_rep
  /// and sets each of its return nodes to leave the result there.
  Rep finish_method(const BlockStmt& body);

 private:
  struct Binding {
    Storage where;
    int slot;
    TypePtr type;
  };

  const Binding* find(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }
  /// The binding of `target` when it names an unboxed local.
  const Binding* unboxed(const Expr& target) const {
    if (target.kind != NodeKind::VarRef) return nullptr;
    const Binding* b = find(static_cast<const VarRef&>(target).name);
    return b && b->where == Storage::Unboxed ? b : nullptr;
  }
  /// Lowers `s` inside a fresh scope.
  template <class F>
  auto scoped(F&& f) {
    scopes_.emplace_back();
    auto result = f();
    scopes_.pop_back();
    return result;
  }
  X var_ref(const VarRef& ref);
  LoopDomain domain(const Expr& e);
  P place(const Expr& target);
  X call(const CallExpr& call);
  X intrinsic(const CallExpr& call);
  std::vector<X> exprs(const std::vector<ExprPtr>& list) {
    std::vector<X> out;
    out.reserve(list.size());
    for (const ExprPtr& e : list) out.push_back(expr(*e));
    return out;
  }
  /// Field index of `field` in the class sema gave `base`; -1 if unknown.
  const FieldInfo* static_field(const Expr& base, const std::string& field) const {
    if (!base.type || !base.type->is_class()) return nullptr;
    const ClassInfo* cls = m_.registry.find(base.type->class_name());
    return cls ? cls->find_field(field) : nullptr;
  }

  Machine& m_;
  Env* env_;
  const ClassInfo* self_;
  std::vector<std::unordered_map<std::string, Binding>> scopes_;
  int vals_ = 0;
  int scalars_ = 0;
  std::vector<ReturnNode*> returns_;
};

X Lowerer::var_ref(const VarRef& ref) {
  if (ref.name == "this") return std::make_unique<This>(ref.location);
  if (const Binding* b = find(ref.name)) {
    const Rep rep = rep_of(b->type);
    switch (b->where) {
      case Storage::Named:
        return std::make_unique<NamedRead>(b->slot, ref.name, rep, ref.location);
      case Storage::Boxed:
        return std::make_unique<LocalRead>(b->slot, rep, ref.location);
      case Storage::Unboxed:
        if (rep == Rep::Int) return std::make_unique<IntLocal>(b->slot, ref.location);
        if (rep == Rep::Dbl) return std::make_unique<DblLocal>(b->slot, ref.location);
        return std::make_unique<BoolLocal>(b->slot, ref.location);
    }
  }
  if (env_ && !(ref.is_runtime_define && !env_->has(ref.name))) {
    return std::make_unique<NamedRead>(env_->index(ref.name), ref.name,
                                       rep_of(ref.type), ref.location);
  }
  if (ref.is_runtime_define) {
    auto it = m_.constants.find(ref.name);
    if (it == m_.constants.end())
      return std::make_unique<Raise>("unbound runtime constant '" + ref.name + "'",
                                     ref.location);
    return std::make_unique<IntConst>(it->second, ref.location);
  }
  if (self_) {
    if (const FieldInfo* field = self_->find_field(ref.name))
      return std::make_unique<ThisField>(field->index, ref.name, rep_of(field->type),
                                         ref.location);
  }
  return std::make_unique<Raise>("undeclared variable '" + ref.name + "'", ref.location);
}

LoopDomain Lowerer::domain(const Expr& e) {
  LoopDomain dom;
  dom.loc = e.location;
  if (e.kind == NodeKind::RectdomainLit) {
    const auto& lit = static_cast<const RectdomainLit&>(e);
    if (lit.dims.size() == 1) {
      dom.lo = expr(*lit.dims[0].lo);
      dom.hi = expr(*lit.dims[0].hi);
      return dom;
    }
  }
  dom.value = expr(e);
  return dom;
}

/// A boxed assignment target; unboxed locals are stored by their own nodes.
P Lowerer::place(const Expr& target) {
  switch (target.kind) {
    case NodeKind::VarRef: {
      const std::string& name = static_cast<const VarRef&>(target).name;
      if (const Binding* b = find(name)) {
        if (b->where == Storage::Named)
          return std::make_unique<NamedPlace>(b->slot, name, target.location);
        if (b->where == Storage::Boxed) return std::make_unique<LocalPlace>(b->slot);
        return std::make_unique<RaisePlace>("invalid assignment target", target.location);
      }
      if (env_) return std::make_unique<NamedPlace>(env_->index(name), name, target.location);
      if (self_) {
        if (const FieldInfo* field = self_->find_field(name))
          return std::make_unique<ThisFieldPlace>(field->index, name, target.location);
      }
      return std::make_unique<RaisePlace>("undeclared variable '" + name + "'",
                                          target.location);
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(target);
      const FieldInfo* field = static_field(*access.base, access.field);
      return std::make_unique<FieldPlace>(expr(*access.base), field ? field->index : -1,
                                          access.field, target.location);
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(target);
      return std::make_unique<IndexPlace>(expr(*index.base), expr(*index.indices[0]),
                                          target.location);
    }
    default:
      return std::make_unique<RaisePlace>("invalid assignment target", target.location);
  }
}

/// Binds the call to its target, which sema resolved: `resolved_class`
/// declares it. A target still being lowered (recursion) has ret_rep Val,
/// so the call lowers as an any-value call.
X Lowerer::call(const CallExpr& call) {
  if (call.is_intrinsic) return intrinsic(call);
  const SourceLocation loc = call.location;
  const ClassInfo* cls = m_.registry.find(call.resolved_class);
  if (!cls) return std::make_unique<Raise>("unknown class '" + call.resolved_class + "'", SourceLocation{});
  const MethodDecl* decl = cls->find_method(call.callee);
  if (!decl || !decl->body) {
    return std::make_unique<Raise>(
        "no executable method '" + cls->name + "::" + call.callee + "'", SourceLocation{});
  }
  const Method& fn = m_.method(*cls, *decl);
  if (fn.params.size() != call.args.size())
    return std::make_unique<Raise>("arity mismatch calling '" + decl->name + "'", decl->location);
  CallSite site{fn, nullptr, exprs(call.args)};
  if (call.base) site.base = expr(*call.base);
  switch (fn.ret_rep) {
    case Rep::Int: return std::make_unique<CallInt>(std::move(site), loc);
    case Rep::Dbl: return std::make_unique<CallDbl>(std::move(site), loc);
    case Rep::Bool: return std::make_unique<CallBool>(std::move(site), loc);
    default: return std::make_unique<CallVal>(std::move(site), loc);
  }
}

X Lowerer::intrinsic(const CallExpr& call) {
  const SourceLocation loc = call.location;
  if (call.base) {
    using Part = DomainAccessor::Part;
    const std::string& name = call.callee;
    if (name != "size" && name != "lo" && name != "hi")
      return std::make_unique<Raise>("bad intrinsic receiver", loc);
    const Part part = name == "size" ? Part::Size : name == "lo" ? Part::Lo : Part::Hi;
    return std::make_unique<DomainAccessor>(expr(*call.base), part, loc);
  }
  const IntrinsicFn* fn = find_intrinsic(call.callee);
  if (!fn) return std::make_unique<Raise>("unknown intrinsic '" + call.callee + "'", loc);
  if (call.args.size() != fn->arity) {
    return std::make_unique<Raise>("intrinsic '" + call.callee + "' takes " +
                                       std::to_string(fn->arity) + " argument(s)",
                                   loc);
  }
  std::vector<X> args = exprs(call.args);
  for (const X& x : args)
    if (!numeric_rep(x->rep)) return std::make_unique<IntrinsicVal>(*fn, std::move(args), loc);
  return std::make_unique<MathCall>(*fn, std::move(args), loc);
}

X Lowerer::expr(const Expr& e) {
  const SourceLocation loc = e.location;
  switch (e.kind) {
    case NodeKind::IntLit:
      return std::make_unique<IntConst>(static_cast<const IntLit&>(e).value, loc);
    case NodeKind::FloatLit:
      return std::make_unique<DblConst>(static_cast<const FloatLit&>(e).value, loc);
    case NodeKind::BoolLit:
      return std::make_unique<BoolConst>(static_cast<const BoolLit&>(e).value, loc);
    case NodeKind::StringLit:
      return std::make_unique<ValConst>(make_string(static_cast<const StringLit&>(e).value), loc);
    case NodeKind::NullLit:
      return std::make_unique<ValConst>(std::monostate{}, loc);
    case NodeKind::VarRef:
      return var_ref(static_cast<const VarRef&>(e));
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(e);
      X base = expr(*access.base);
      if (const FieldInfo* field = static_field(*access.base, access.field))
        return std::make_unique<FieldRead>(std::move(base), field->index,
                                           rep_of(field->type), loc);
      if (access.field == "length" && access.base->type && access.base->type->is_array())
        return std::make_unique<ArrayLength>(std::move(base), loc);
      return std::make_unique<FieldDyn>(std::move(base), access.field, loc);
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(e);
      return std::make_unique<IndexRead>(expr(*index.base), expr(*index.indices[0]),
                                         rep_of(e.type), loc);
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(e);
      if (unary.op == UnaryOp::Neg) {
        X operand = expr(*unary.operand);
        switch (operand->rep) {
          case Rep::Dbl: return std::make_unique<NegDbl>(std::move(operand), loc);
          case Rep::Val: return std::make_unique<NegVal>(std::move(operand), loc);
          default: return std::make_unique<NegInt>(std::move(operand), loc);
        }
      }
      if (unary.op == UnaryOp::Not) return std::make_unique<Not>(expr(*unary.operand), loc);
      const bool inc = unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PostInc;
      const bool pre = unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec;
      if (const Binding* b = unboxed(*unary.operand)) {
        switch (rep_of(b->type)) {
          case Rep::Int: return std::make_unique<IncDecInt>(b->slot, inc, pre, loc);
          case Rep::Dbl: return std::make_unique<IncDecDbl>(b->slot, inc, pre, loc);
          default: return std::make_unique<Raise>("invalid assignment target", loc);
        }
      }
      const Rep rep = rep_of(unary.operand->type);
      return std::make_unique<IncDec>(place(*unary.operand), inc, pre,
                                      rep == Rep::Int || rep == Rep::Dbl ? rep : Rep::Val, loc);
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(e);
      X lhs = expr(*binary.lhs);
      X rhs = expr(*binary.rhs);
      if (binary.op == BinaryOp::And || binary.op == BinaryOp::Or)
        return std::make_unique<Logical>(binary.op == BinaryOp::And, std::move(lhs),
                                         std::move(rhs), loc);
      if (!numeric_rep(lhs->rep) || !numeric_rep(rhs->rep))
        return std::make_unique<BinaryVal>(binary.op, std::move(lhs), std::move(rhs), loc);
      const bool floating = lhs->rep == Rep::Dbl || rhs->rep == Rep::Dbl;
      if (is_comparison(binary.op))
        return std::make_unique<Compare>(binary.op, floating, std::move(lhs), std::move(rhs), loc);
      if (floating)
        return std::make_unique<ArithDbl>(binary.op, std::move(lhs), std::move(rhs), loc);
      return std::make_unique<ArithInt>(binary.op, std::move(lhs), std::move(rhs), loc);
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(e);
      X value = expr(*assign.value);
      const bool numeric = value->rep == Rep::Int || value->rep == Rep::Dbl;
      if (const Binding* b = unboxed(*assign.target)) {
        const Rep rep = rep_of(b->type);
        const Coerce co = coerce_kind(b->type);
        if (rep == Rep::Int && numeric)
          return std::make_unique<AssignInt<IntSlot>>(assign.op, IntSlot{b->slot},
                                                      std::move(value), loc);
        if (rep == Rep::Dbl && numeric)
          return std::make_unique<AssignDbl<DblSlot>>(assign.op, DblSlot{b->slot},
                                                      std::move(value), co, loc);
        return std::make_unique<AssignScalarVal>(assign.op, b->slot, rep, co, std::move(value),
                                                 loc);
      }
      BoxedSlot target{place(*assign.target)};
      const TypePtr& type = assign.target->type;
      const Rep rep = rep_of(type);
      if (rep == Rep::Int && numeric)
        return std::make_unique<AssignInt<BoxedSlot>>(assign.op, std::move(target),
                                                      std::move(value), loc);
      if (rep == Rep::Dbl && numeric)
        return std::make_unique<AssignDbl<BoxedSlot>>(assign.op, std::move(target),
                                                      std::move(value), coerce_kind(type), loc);
      return std::make_unique<AssignVal>(assign.op, std::move(target.place), std::move(value),
                                         type, loc);
    }
    case NodeKind::Call:
      return call(static_cast<const CallExpr&>(e));
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(e);
      const ClassInfo* cls = m_.registry.find(alloc.class_name);
      if (!cls)
        return std::make_unique<Raise>("unknown class '" + alloc.class_name + "'", SourceLocation{});
      const MethodDecl* decl = cls->constructor();
      const Method* ctor = decl && decl->body ? &m_.method(*cls, *decl) : nullptr;
      if (!ctor && !alloc.args.empty())
        return std::make_unique<Raise>("class '" + cls->name + "' has no constructor", SourceLocation{});
      if (ctor && ctor->params.size() != alloc.args.size())
        return std::make_unique<Raise>("arity mismatch calling '" + decl->name + "'", decl->location);
      return std::make_unique<NewObject>(*cls, ctor, exprs(alloc.args), loc);
    }
    case NodeKind::NewArray: {
      const auto& alloc = static_cast<const NewArrayExpr&>(e);
      return std::make_unique<NewArray>(alloc.element_type, expr(*alloc.length), loc);
    }
    case NodeKind::RectdomainLit: {
      const auto& lit = static_cast<const RectdomainLit&>(e);
      if (lit.dims.size() != 1) return std::make_unique<RectdomainNode>(nullptr, nullptr, loc);
      return std::make_unique<RectdomainNode>(expr(*lit.dims[0].lo), expr(*lit.dims[0].hi), loc);
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(e);
      X k = expr(*cond.cond);
      X a = expr(*cond.then_value);
      X b = expr(*cond.else_value);
      const Rep rep = a->rep == b->rep ? a->rep : Rep::Val;
      return std::make_unique<Conditional>(std::move(k), std::move(a), std::move(b), rep, loc);
    }
    default:
      return std::make_unique<Raise>("unexpected expression node", loc);
  }
}

S Lowerer::stmt(const Stmt& s) {
  switch (s.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(s);
      X init = decl.init ? expr(*decl.init) : nullptr;
      if (env_ && scopes_.size() == 1) {
        const int slot = env_->index(decl.name);
        scopes_.back()[decl.name] = Binding{Storage::Named, slot, decl.declared_type};
        return std::make_unique<Decl>(Storage::Named, slot, std::move(init), decl.declared_type);
      }
      const Local local = declare_local(decl.name, decl.declared_type);
      return std::make_unique<Decl>(local.rep == Rep::Val ? Storage::Boxed : Storage::Unboxed,
                                    local.slot, std::move(init), decl.declared_type);
    }
    case NodeKind::ExprStmt:
      return std::make_unique<ExprStmtNode>(expr(*static_cast<const ExprStmt&>(s).expr));
    case NodeKind::Block:
      return scoped([&] {
        std::vector<S> body;
        for (const StmtPtr& child : static_cast<const BlockStmt&>(s).statements)
          body.push_back(stmt(*child));
        return std::make_unique<BlockNode>(std::move(body));
      });
    case NodeKind::IfStmt: {
      const auto& node = static_cast<const IfStmt&>(s);
      X cond = expr(*node.cond);
      S then_branch = stmt(*node.then_branch);
      S else_branch = node.else_branch ? stmt(*node.else_branch) : nullptr;
      return std::make_unique<IfNode>(std::move(cond), std::move(then_branch),
                                      std::move(else_branch));
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(s);
      X cond = expr(*loop.cond);
      return std::make_unique<WhileNode>(std::move(cond), stmt(*loop.body));
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(s);
      return scoped([&] {
        S init = loop.init ? stmt(*loop.init) : nullptr;
        X cond = loop.cond ? expr(*loop.cond) : nullptr;
        X step = loop.step ? expr(*loop.step) : nullptr;
        S body = stmt(*loop.body);
        return std::make_unique<ForNode>(std::move(init), std::move(cond), std::move(step),
                                         std::move(body));
      });
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(s);
      LoopDomain dom = domain(*loop.domain);
      const TypePtr& dom_type = loop.domain->type;
      TypePtr var_type;
      if (dom_type && dom_type->is_rectdomain()) var_type = Type::primitive(PrimKind::Int);
      if (dom_type && dom_type->is_array()) var_type = dom_type->element();
      return scoped([&]() -> S {
        const Local var = declare_local(loop.var, var_type);
        return std::make_unique<ForeachNode>(std::move(dom), var, stmt(*loop.body),
                                             loop.location);
      });
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& loop = static_cast<const PipelinedLoopStmt&>(s);
      LoopDomain dom = domain(*loop.domain);
      return scoped([&]() -> S {
        const Local var = declare_local(loop.var, Type::primitive(PrimKind::Int));
        return std::make_unique<PipelinedNode>(loop, std::move(dom), var, stmt(*loop.body));
      });
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(s);
      auto node = std::make_unique<ReturnNode>(ret.value ? expr(*ret.value) : nullptr);
      returns_.push_back(node.get());
      return node;
    }
    case NodeKind::BreakStmt:
    case NodeKind::ContinueStmt:
      return std::make_unique<Jump>(s.kind == NodeKind::BreakStmt ? Flow::Break : Flow::Continue);
    default:
      return std::make_unique<RaiseStmt>("unexpected statement node", s.location);
  }
}

/// Every return must carry one numeric representation, and no run may
/// fall off the body's end, which can_complete_normally rules out (sema
/// accepts a break or continue only inside a loop of the same body).
Rep Lowerer::finish_method(const BlockStmt& body) {
  Rep rep = Rep::Val;
  if (!returns_.empty() && !can_complete_normally(body)) {
    rep = returns_.front()->value ? returns_.front()->value->rep : Rep::Val;
    for (const ReturnNode* r : returns_)
      if (!r->value || r->value->rep != rep) rep = Rep::Val;
  }
  for (ReturnNode* r : returns_) r->rep = rep;
  return rep;
}

}  // namespace

Method& Interpreter::Machine::method(const ClassInfo& cls, const MethodDecl& decl) {
  std::unique_ptr<Method>& entry = methods[&decl];
  if (entry) return *entry;
  entry = std::make_unique<Method>();
  Method& fn = *entry;
  fn.decl = &decl;
  Lowerer lowerer(*this, nullptr, &cls);
  for (const auto& param : decl.params) {
    const Local local = lowerer.declare_local(param->name, param->type);
    fn.params.push_back(ParamSlot{local.slot, local.rep, coerce_kind(param->type)});
  }
  for (const StmtPtr& s : decl.body->statements) fn.body.push_back(lowerer.stmt(*s));
  fn.frame = lowerer.frame_size();
  fn.ret_rep = lowerer.finish_method(*decl.body);
  return fn;
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter(const ClassRegistry& registry,
                         std::map<std::string, std::int64_t> runtime_constants)
    : m_(std::make_unique<Machine>(registry, std::move(runtime_constants))) {}

Interpreter::~Interpreter() = default;

Value Interpreter::default_value(const TypePtr& type) {
  if (!type) return std::monostate{};
  if (type->is_integral()) return std::int64_t{0};
  if (type->is_floating()) return 0.0;
  if (type->is_boolean()) return false;
  if (type->is_rectdomain()) return make_box(RectDomainVal{});
  return std::monostate{};
}

std::vector<Value> Interpreter::default_fields(const ClassInfo& cls) {
  std::vector<Value> fields;
  fields.reserve(cls.fields.size());
  for (const FieldInfo& field : cls.fields) fields.push_back(default_value(field.type));
  return fields;
}

namespace {

std::shared_ptr<LoweredCode> lower_stmts(Machine& m, const std::vector<const Stmt*>& stmts,
                                         Env& env) {
  auto code = std::make_shared<LoweredCode>();
  code->machine = &m;
  code->env = &env;
  Lowerer lowerer(m, &env, nullptr);
  for (const Stmt* s : stmts) code->stmts.push_back(lowerer.stmt(*s));
  code->frame = lowerer.frame_size();
  return code;
}

}  // namespace

std::shared_ptr<const LoweredCode> Interpreter::lower(
    const std::vector<const Stmt*>& stmts, Env& env) {
  return lower_stmts(*m_, stmts, env);
}

std::shared_ptr<const LoweredCode> Interpreter::lower(const Expr& expr, Env& env) {
  auto code = std::make_shared<LoweredCode>();
  code->machine = m_.get();
  code->env = &env;
  Lowerer lowerer(*m_, &env, nullptr);
  code->expr = lowerer.expr(expr);
  code->frame = lowerer.frame_size();
  return code;
}

Value Interpreter::exec(const LoweredCode& code, Env& env) {
  if (code.machine != m_.get() || code.env != &env)
    throw std::logic_error("lowered code run by another interpreter or environment");
  Frame frame(*m_, code.frame);
  Ctx c{*m_, frame.vals(), frame.scalars(), &env, &kNoSelf};
  if (code.expr) return code.expr->v(c);
  for (const S& s : code.stmts)
    if (s->run(c) == Flow::Return && code.stop_at_return) break;
  return Value{};
}

void Interpreter::exec_stmts(const std::vector<const Stmt*>& stmts, Env& env) {
  exec(*lower(stmts, env), env);
}

void Interpreter::exec_stmt(const Stmt& stmt, Env& env) {
  exec(*lower({&stmt}, env), env);
}

Value Interpreter::eval(const Expr& expr, Env& env) {
  return exec(*lower(expr, env), env);
}

ForeachCut Interpreter::exec_foreach(const ForeachStmt& loop, Env& env,
                                     const std::vector<RectDomainVal>& ranges, int chunks,
                                     std::size_t first_worker) {
  // Each chunk runs its own lowered copy of the loop, and of the methods
  // it calls, on its own Machine (chunk 0 on this interpreter's): a
  // Machine's run-time state (ops, result registers, frames) is its own.
  // All copies are lowered here, before any chunk starts, since lowering
  // adds Env slots.
  struct Chunk {
    Chunk() = default;
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;
    ~Chunk() {
      if (done.valid()) done.wait();  // the job still uses this chunk
    }
    void lower(Machine& m, const ForeachStmt& loop, Env& env) {
      machine = &m;
      Lowerer lowerer(m, &env, nullptr);
      code = lowerer.stmt(loop);
      frame = lowerer.frame_size();
    }
    // Keeps the chunk's error instead of throwing it: an exception sent
    // through the future could be released last on the worker, which
    // ThreadSanitizer cannot order against the caller's use of it.
    void run(Env& env) {
      try {
        Frame slots(*machine, frame);
        Ctx c{*machine, slots.vals(), slots.scalars(), &env, &kNoSelf};
        run_chunk(c, static_cast<const ForeachNode&>(*code), ranges);
      } catch (...) {
        error = std::current_exception();
      }
    }
    std::unique_ptr<Machine> owned;  // every chunk's but chunk 0's
    Machine* machine = nullptr;
    S code;
    FrameSize frame;
    std::vector<RectDomainVal> ranges;
    std::exception_ptr error;
    std::future<void> done;
  };
  Chunk first;
  first.lower(*m_, loop, env);
  const auto& node = static_cast<const ForeachNode&>(*first.code);
  std::optional<RectDomainVal> domain;
  {
    Frame frame(*m_, first.frame);
    Ctx c{*m_, frame.vals(), frame.scalars(), &env, &kNoSelf};
    Value dom;
    domain = node.domain.range(c, dom);
  }
  if (!domain) throw InterpError(node.loc, "foreach over index ranges needs a rectdomain");

  std::vector<RectDomainVal> clipped;
  std::uint64_t iterations = 0;
  for (const RectDomainVal& r : ranges) {
    const RectDomainVal piece{std::max(r.lo, domain->lo), std::min(r.hi, domain->hi)};
    if (piece.lo > piece.hi) continue;
    clipped.push_back(piece);
    iterations += static_cast<std::uint64_t>(piece.hi) - static_cast<std::uint64_t>(piece.lo) + 1;
  }
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(std::max(chunks, 1)), iterations));
  if (n == 0) return {};
  ForeachCut cut = cut_chunks(clipped, iterations, n);
  first.ranges = cut[0];
  std::vector<Chunk> rest(n - 1);
  for (std::size_t k = 1; k < n; ++k) {
    Chunk& chunk = rest[k - 1];
    chunk.owned = std::make_unique<Machine>(m_->registry, m_->constants);
    chunk.lower(*chunk.owned, loop, env);
    chunk.ranges = cut[k];
  }
  support::WorkerPool& pool = support::WorkerPool::instance();
  for (std::size_t k = 1; k < n; ++k) {
    Chunk& chunk = rest[k - 1];
    chunk.done = pool.submit(first_worker + k - 1, [&chunk, &env] { chunk.run(env); });
  }
  first.run(env);
  // A sequential pass stops at the first failing iteration, which lies in
  // the lowest failing chunk. Every op weight is a multiple of 1/4, so the
  // sums are exact in any order.
  std::exception_ptr error = first.error;
  for (Chunk& chunk : rest) {
    chunk.done.wait();
    m_->ops += chunk.machine->ops;
    if (!error) error = chunk.error;
  }
  if (error) std::rethrow_exception(error);
  return cut;
}

void release_elements(ArrayVal& array, const ForeachCut& cut, std::size_t first_worker) {
  const auto release = [&array](const std::vector<RectDomainVal>& ranges) {
    const auto size = static_cast<std::int64_t>(array.elems.size());
    for (const RectDomainVal& r : ranges) {
      const std::int64_t lo = std::max<std::int64_t>(r.lo - array.base_index, 0);
      const std::int64_t hi = std::min<std::int64_t>(r.hi - array.base_index, size - 1);
      for (std::int64_t i = lo; i <= hi; ++i) array.elems[static_cast<std::size_t>(i)] = Value{};
    }
  };
  if (cut.empty()) return;
  support::WorkerPool& pool = support::WorkerPool::instance();
  std::vector<std::future<void>> done;
  done.reserve(cut.size() - 1);
  for (std::size_t k = 1; k < cut.size(); ++k)
    done.push_back(pool.submit(first_worker + k - 1, [&release, &cut, k] { release(cut[k]); }));
  release(cut[0]);
  for (std::future<void>& chunk : done) chunk.wait();
}

bool release_fill(Value& binding, const ForeachCut& cut, std::size_t first_worker) {
  bool released = false;
  if (const auto* arr = std::get_if<ArrayRef>(&binding); arr && arr->use_count() == 1) {
    release_elements(**arr, cut, first_worker);
    released = true;
  }
  binding = Value{};
  return released;
}

Value Interpreter::call_method(const std::string& class_name,
                               const std::string& method_name, const ObjectRef& receiver,
                               std::vector<Value> args) {
  return run_method(*m_, m_->lookup(class_name, method_name), receiver, std::move(args));
}

ObjectRef Interpreter::construct(const std::string& class_name, std::vector<Value> args) {
  const ClassInfo& cls = m_->class_info(class_name);
  ObjectRef obj = Object::make(intern_class(cls.name), default_fields(cls));
  const MethodDecl* ctor = cls.constructor();
  if (ctor && ctor->body) {
    run_method(*m_, m_->method(cls, *ctor), obj, std::move(args));
  } else if (!args.empty()) {
    throw InterpError({}, "class '" + cls.name + "' has no constructor");
  }
  return obj;
}

Env Interpreter::run(const std::string& class_name, const std::string& method) {
  const ClassInfo& cls = m_->class_info(class_name);
  const MethodDecl* decl = cls.find_method(method);
  if (!decl || !decl->body) {
    throw InterpError({}, "no executable method '" + class_name + "::" + method + "'");
  }
  std::vector<const Stmt*> body;
  for (const StmtPtr& s : decl->body->statements) body.push_back(s.get());
  Env env;
  std::shared_ptr<LoweredCode> code = lower_stmts(*m_, body, env);
  code->stop_at_return = true;
  exec(*code, env);
  return env;
}

double Interpreter::ops() const { return m_->ops; }
void Interpreter::reset_ops() { m_->ops = 0.0; }
void Interpreter::add_external_ops(double n) { m_->ops += n; }
void Interpreter::set_pipelined_hook(PipelinedHook hook) { m_->hook = std::move(hook); }

}  // namespace cgp
