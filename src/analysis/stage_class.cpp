#include "analysis/stage_class.h"

#include <algorithm>
#include <map>
#include <optional>

namespace cgp {
namespace {

/// Root variable of an lvalue chain (a[i].f -> "a"); empty when the
/// expression is not rooted at a named variable.
std::string root_base(const Expr& expr) {
  const Expr* e = &expr;
  while (e) {
    switch (e->kind) {
      case NodeKind::VarRef:
        return static_cast<const VarRef*>(e)->name;
      case NodeKind::FieldAccess:
        e = static_cast<const FieldAccess*>(e)->base.get();
        break;
      case NodeKind::Index:
        e = static_cast<const IndexExpr*>(e)->base.get();
        break;
      default:
        return {};
    }
  }
  return {};
}

/// Mutation facts gathered from one filter's statements.
struct WriteFacts {
  std::set<std::string> written;  // root bases of stores / inc-dec / calls
  bool unknown_call = false;      // unqualified non-intrinsic call seen
};

/// Per-loop-body declaration facts shared by all filters.
struct DeclFacts {
  std::set<std::string> declared;              // every loop-body VarDecl name
  std::map<std::string, std::string> aliases;  // ref decl -> init root base
};

void collect_decls(const Stmt& stmt, DeclFacts& facts) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      facts.declared.insert(decl.name);
      // `Tri t = tris[j]` binds t as an alias of tris' storage: writes
      // through t must be attributed to tris, not to the local name.
      if (decl.init && decl.declared_type && decl.declared_type->is_reference()
          && decl.init->kind != NodeKind::NewObject &&
          decl.init->kind != NodeKind::NewArray) {
        std::string root = root_base(*decl.init);
        if (!root.empty() && root != decl.name)
          facts.aliases.emplace(decl.name, root);
      }
      break;
    }
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        collect_decls(*s, facts);
      break;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      collect_decls(*if_stmt.then_branch, facts);
      if (if_stmt.else_branch) collect_decls(*if_stmt.else_branch, facts);
      break;
    }
    case NodeKind::WhileStmt:
      collect_decls(*static_cast<const WhileStmt&>(stmt).body, facts);
      break;
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) collect_decls(*loop.init, facts);
      collect_decls(*loop.body, facts);
      break;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      facts.declared.insert(loop.var);
      collect_decls(*loop.body, facts);
      break;
    }
    case NodeKind::PipelinedLoopStmt:
      collect_decls(*static_cast<const PipelinedLoopStmt&>(stmt).body, facts);
      break;
    default:
      break;
  }
}

void collect_writes(const Expr& expr, WriteFacts& facts);

void note_target(const Expr& target, WriteFacts& facts) {
  std::string root = root_base(target);
  if (!root.empty()) facts.written.insert(root);
}

void collect_writes(const Expr& expr, WriteFacts& facts) {
  switch (expr.kind) {
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      note_target(*assign.target, facts);
      collect_writes(*assign.target, facts);
      collect_writes(*assign.value, facts);
      break;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec ||
          unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec) {
        note_target(*unary.operand, facts);
      }
      collect_writes(*unary.operand, facts);
      break;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      collect_writes(*binary.lhs, facts);
      collect_writes(*binary.rhs, facts);
      break;
    }
    case NodeKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      if (call.base) {
        // A method may mutate its receiver; assume it does.
        note_target(*call.base, facts);
        collect_writes(*call.base, facts);
      } else if (!call.is_intrinsic) {
        // An unqualified call can reach enclosing-class fields that this
        // walk cannot see; give up on replicating the filter.
        facts.unknown_call = true;
      }
      for (const ExprPtr& arg : call.args) {
        // Reference-typed actuals may be mutated by the callee.
        if (!call.is_intrinsic && arg->type && arg->type->is_reference())
          note_target(*arg, facts);
        collect_writes(*arg, facts);
      }
      break;
    }
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(expr);
      for (const ExprPtr& arg : alloc.args) {
        if (arg->type && arg->type->is_reference()) note_target(*arg, facts);
        collect_writes(*arg, facts);
      }
      break;
    }
    case NodeKind::NewArray: {
      const auto& alloc = static_cast<const NewArrayExpr&>(expr);
      if (alloc.length) collect_writes(*alloc.length, facts);
      break;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      collect_writes(*index.base, facts);
      for (const ExprPtr& i : index.indices) collect_writes(*i, facts);
      break;
    }
    case NodeKind::FieldAccess:
      collect_writes(*static_cast<const FieldAccess&>(expr).base, facts);
      break;
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      collect_writes(*cond.cond, facts);
      collect_writes(*cond.then_value, facts);
      collect_writes(*cond.else_value, facts);
      break;
    }
    case NodeKind::RectdomainLit: {
      const auto& dom = static_cast<const RectdomainLit&>(expr);
      for (const auto& dim : dom.dims) {
        collect_writes(*dim.lo, facts);
        collect_writes(*dim.hi, facts);
      }
      break;
    }
    default:
      break;
  }
}

void collect_writes(const Stmt& stmt, WriteFacts& facts) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) collect_writes(*decl.init, facts);
      break;
    }
    case NodeKind::ExprStmt:
      collect_writes(*static_cast<const ExprStmt&>(stmt).expr, facts);
      break;
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        collect_writes(*s, facts);
      break;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      collect_writes(*if_stmt.cond, facts);
      collect_writes(*if_stmt.then_branch, facts);
      if (if_stmt.else_branch) collect_writes(*if_stmt.else_branch, facts);
      break;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      collect_writes(*loop.cond, facts);
      collect_writes(*loop.body, facts);
      break;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) collect_writes(*loop.init, facts);
      if (loop.cond) collect_writes(*loop.cond, facts);
      if (loop.step) collect_writes(*loop.step, facts);
      collect_writes(*loop.body, facts);
      break;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      collect_writes(*loop.domain, facts);
      collect_writes(*loop.body, facts);
      break;
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& loop = static_cast<const PipelinedLoopStmt&>(stmt);
      collect_writes(*loop.domain, facts);
      collect_writes(*loop.body, facts);
      break;
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) collect_writes(*ret.value, facts);
      break;
    }
    default:
      break;
  }
}

std::string join_names(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Source setup (DESIGN.md §6.13)
// ---------------------------------------------------------------------------

/// Decides whether a fill's body, or a method it calls, keeps its writes
/// to storage of its own: its locals (through a reference only when the
/// local was bound to a fresh allocation and never rebound), a
/// constructor's own object, and, in a fill, the one element `array[var]`.
/// Calls must reach only intrinsics and methods that pass the same check.
/// The first violation is recorded as the cause.
class ConfinementCheck {
 public:
  explicit ConfinementCheck(const ClassRegistry& registry)
      : registry_(registry) {}

  /// Empty when `loop`'s body stores only `array[var]` and into its
  /// fresh locals, never reads `array`, never leaves the loop early, and
  /// calls only confined code; else the cause.
  std::string fill(const ForeachStmt& loop, const std::string& array) {
    Body body;
    body.array = array;
    body.scopes.back()[loop.var].loop_var = true;
    stmt(*loop.body, body);
    return finish(body);
  }

 private:
  struct Binding {
    bool fresh = false;     // declared with a `new` initializer
    bool loop_var = false;  // the fill's own iteration variable
    bool param = false;
    std::string alias;      // root of the storage it was bound to, if named
  };
  struct Body {
    std::vector<std::map<std::string, Binding>> scopes{1};
    const ClassInfo* own = nullptr;  // constructor: its object is writable
    std::string array;               // fill only
    int loop_depth = 0;
    std::set<std::string> through;  // locals stored through
    std::set<std::string> rebound;  // locals assigned as a whole
    std::string cause;

    const Binding* find(const std::string& name) const {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        auto found = it->find(name);
        if (found != it->end()) return &found->second;
      }
      return nullptr;
    }
    bool own_field(const std::string& name) const {
      return own && (name == "this" || own->find_field(name));
    }
    std::string outside(const std::string& name) const {
      return array.empty() ? "writes field " + name
                           : "writes " + name + ", declared outside it";
    }
  };

  std::string finish(Body& body) const {
    for (const std::string& name : body.through) {
      if (body.cause.empty() && body.rebound.count(name))
        body.cause = "writes through " + name + " after rebinding it";
    }
    return body.cause;
  }

  /// Empty when calling `decl` cannot write storage its caller can see.
  std::string method(const ClassInfo& cls, const MethodDecl& decl) {
    auto [it, first_visit] = verdicts_.try_emplace(&decl);
    if (!first_visit) return it->second ? *it->second : "is recursive";
    Body body;
    bool reference_params = false;
    for (const auto& param : decl.params) {
      body.scopes.back()[param->name].param = true;
      reference_params |= param->type && param->type->is_reference();
    }
    // A constructor may initialize its own object, unless an argument
    // could be stored into it and then written through.
    if (&decl == cls.constructor() && !reference_params) body.own = &cls;
    stmt(*decl.body, body);
    it->second = finish(body);
    return *it->second;
  }

  /// A reference value that points only at fresh storage.
  static bool fresh_value(const Expr& value, const Body& body) {
    if (value.kind == NodeKind::NewObject || value.kind == NodeKind::NewArray ||
        value.kind == NodeKind::NullLit)
      return true;
    if (value.kind != NodeKind::VarRef) return false;
    const Binding* binding =
        body.find(static_cast<const VarRef&>(value).name);
    return binding && binding->fresh;
  }

  /// Checks a store to `target`; `value` is the stored expression of a
  /// plain `=`, null for compound assignments and ++/--.
  void store(const Expr& target, const Expr* value, Body& body) {
    const bool plain = value != nullptr;
    const std::string root = root_base(target);
    if (!body.array.empty() && root == body.array) {
      const auto* index = target.kind == NodeKind::Index
                              ? static_cast<const IndexExpr*>(&target)
                              : nullptr;
      const Binding* at = index && index->indices.size() == 1 &&
                                  index->base->kind == NodeKind::VarRef &&
                                  index->indices[0]->kind == NodeKind::VarRef
                              ? body.find(static_cast<const VarRef&>(
                                              *index->indices[0])
                                              .name)
                              : nullptr;
      if (!at || !at->loop_var)
        body.cause = "stores " + to_source(target) + ", not its own element";
      else if (!plain)
        body.cause = "reads " + body.array;
      return;
    }
    expr(target, body);  // reads in indices and bases
    if (!body.cause.empty()) return;
    const Binding* binding = body.find(root);
    if (target.kind == NodeKind::VarRef) {
      if (binding && binding->loop_var)
        body.cause = "writes its loop variable " + root;
      else if (binding)
        body.rebound.insert(root);
      else if (!body.own_field(root))
        body.cause = body.outside(root);
      return;
    }
    if (root.empty()) {
      body.cause = "writes through " + to_source(target);
    } else if (binding && binding->param) {
      body.cause = "writes its argument " + root;
    } else if (binding && !binding->fresh) {
      body.cause = "writes through " + root +
                   (binding->alias.empty() ? ", bound to existing storage"
                                           : ", an alias of " + binding->alias);
    } else if (binding) {
      // Linking existing storage into a fresh object would let a later
      // store through the local reach it.
      if (value && value->type && value->type->is_reference() &&
          !fresh_value(*value, body))
        body.cause = "stores existing storage into " + root;
      body.through.insert(root);
    } else if (!body.own_field(root)) {
      body.cause = body.outside(root);
    }
  }

  void expr(const Expr& e, Body& body) {
    if (!body.cause.empty()) return;
    switch (e.kind) {
      case NodeKind::VarRef:
        if (static_cast<const VarRef&>(e).name == body.array)
          body.cause = "reads " + body.array;
        return;
      case NodeKind::Assign: {
        const auto& assign = static_cast<const AssignExpr&>(e);
        store(*assign.target,
              assign.op == AssignOp::Assign ? assign.value.get() : nullptr,
              body);
        expr(*assign.value, body);
        return;
      }
      case NodeKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(e);
        if (unary.op == UnaryOp::Neg || unary.op == UnaryOp::Not)
          expr(*unary.operand, body);
        else
          store(*unary.operand, nullptr, body);
        return;
      }
      case NodeKind::Binary: {
        const auto& binary = static_cast<const BinaryExpr&>(e);
        expr(*binary.lhs, body);
        expr(*binary.rhs, body);
        return;
      }
      case NodeKind::Call: {
        const auto& call = static_cast<const CallExpr&>(e);
        if (call.base) expr(*call.base, body);
        for (const ExprPtr& arg : call.args) expr(*arg, body);
        if (call.is_intrinsic || !body.cause.empty()) return;
        const ClassInfo* cls = registry_.find(call.resolved_class);
        const MethodDecl* decl = cls ? cls->find_method(call.callee) : nullptr;
        const std::string why =
            decl && decl->body ? method(*cls, *decl) : "is not resolved";
        if (!why.empty())
          body.cause = "calls " + call.callee + "(), which " + why;
        return;
      }
      case NodeKind::NewObject: {
        const auto& alloc = static_cast<const NewObjectExpr&>(e);
        for (const ExprPtr& arg : alloc.args) expr(*arg, body);
        const ClassInfo* cls = registry_.find(alloc.class_name);
        const MethodDecl* ctor = cls ? cls->constructor() : nullptr;
        if (!ctor || !ctor->body || !body.cause.empty()) return;
        const std::string why = method(*cls, *ctor);
        if (!why.empty())
          body.cause = "constructs " + alloc.class_name +
                       ", whose constructor " + why;
        return;
      }
      case NodeKind::NewArray:
        expr(*static_cast<const NewArrayExpr&>(e).length, body);
        return;
      case NodeKind::Index: {
        const auto& index = static_cast<const IndexExpr&>(e);
        expr(*index.base, body);
        for (const ExprPtr& i : index.indices) expr(*i, body);
        return;
      }
      case NodeKind::FieldAccess:
        expr(*static_cast<const FieldAccess&>(e).base, body);
        return;
      case NodeKind::Conditional: {
        const auto& cond = static_cast<const ConditionalExpr&>(e);
        expr(*cond.cond, body);
        expr(*cond.then_value, body);
        expr(*cond.else_value, body);
        return;
      }
      case NodeKind::RectdomainLit:
        for (const auto& dim : static_cast<const RectdomainLit&>(e).dims) {
          expr(*dim.lo, body);
          expr(*dim.hi, body);
        }
        return;
      default:
        return;  // literals
    }
  }

  /// Walks a loop body one scope deeper, `var` bound in that scope.
  void loop_body(const Stmt& s, Body& body, const std::string& var,
                 Binding binding) {
    body.scopes.emplace_back();
    if (!var.empty()) body.scopes.back()[var] = std::move(binding);
    ++body.loop_depth;
    stmt(s, body);
    --body.loop_depth;
    body.scopes.pop_back();
  }

  void stmt(const Stmt& s, Body& body) {
    if (!body.cause.empty()) return;
    const bool fill = !body.array.empty();
    switch (s.kind) {
      case NodeKind::VarDeclStmt: {
        const auto& decl = static_cast<const VarDeclStmt&>(s);
        Binding binding;
        if (decl.init) {
          expr(*decl.init, body);
          binding.fresh = decl.init->kind == NodeKind::NewObject ||
                          decl.init->kind == NodeKind::NewArray;
          binding.alias = root_base(*decl.init);
        }
        body.scopes.back()[decl.name] = std::move(binding);
        return;
      }
      case NodeKind::ExprStmt:
        expr(*static_cast<const ExprStmt&>(s).expr, body);
        return;
      case NodeKind::Block:
        body.scopes.emplace_back();
        for (const StmtPtr& child : static_cast<const BlockStmt&>(s).statements)
          stmt(*child, body);
        body.scopes.pop_back();
        return;
      case NodeKind::IfStmt: {
        const auto& if_stmt = static_cast<const IfStmt&>(s);
        expr(*if_stmt.cond, body);
        stmt(*if_stmt.then_branch, body);
        if (if_stmt.else_branch) stmt(*if_stmt.else_branch, body);
        return;
      }
      case NodeKind::WhileStmt: {
        const auto& loop = static_cast<const WhileStmt&>(s);
        expr(*loop.cond, body);
        loop_body(*loop.body, body, {}, {});
        return;
      }
      case NodeKind::ForStmt: {
        const auto& loop = static_cast<const ForStmt&>(s);
        body.scopes.emplace_back();
        if (loop.init) stmt(*loop.init, body);
        if (loop.cond) expr(*loop.cond, body);
        if (loop.step) expr(*loop.step, body);
        loop_body(*loop.body, body, {}, {});
        body.scopes.pop_back();
        return;
      }
      case NodeKind::ForeachStmt: {
        const auto& loop = static_cast<const ForeachStmt&>(s);
        expr(*loop.domain, body);
        Binding element;  // an element of an array domain is existing storage
        element.alias = root_base(*loop.domain);
        loop_body(*loop.body, body, loop.var, std::move(element));
        return;
      }
      case NodeKind::ReturnStmt: {
        const auto& ret = static_cast<const ReturnStmt&>(s);
        if (fill)
          body.cause = "returns from inside the fill";
        else if (ret.value)
          expr(*ret.value, body);
        return;
      }
      case NodeKind::BreakStmt:
        if (fill && body.loop_depth == 0) body.cause = "breaks out of the fill";
        return;
      case NodeKind::PipelinedLoopStmt:
        body.cause = "contains a PipelinedLoop";
        return;
      default:
        return;
    }
  }

  const ClassRegistry& registry_;
  /// Per-method verdicts; nullopt while the method is being checked.
  std::map<const MethodDecl*, std::optional<std::string>> verdicts_;
};

bool mentions(const Stmt& stmt, const std::string& name) {
  if (stmt.kind == NodeKind::VarDeclStmt &&
      static_cast<const VarDeclStmt&>(stmt).name == name)
    return true;
  std::set<std::string> names;
  collect_var_refs(stmt, names);
  return names.count(name) > 0;
}

/// The variable a section symbol reads: "len(a.b)" and "a.b" read `a`.
std::string symbol_base(std::string symbol) {
  if (symbol.rfind("len(", 0) == 0 && symbol.back() == ')')
    symbol = symbol.substr(4, symbol.size() - 5);
  return symbol.substr(0, symbol.find('.'));
}

/// Checks the setup of one pre-loop array the loop reads. Fills `out` and
/// returns empty on acceptance, else returns why its setup runs whole.
std::string check_fill(const PipelineModel& model, const VarDeclStmt& decl,
                       ConfinementCheck& confinement, SetupFill& out) {
  const std::string& array = decl.name;
  for (const Stmt* stmt : model.after) {
    if (mentions(*stmt, array)) return array + " is used after the loop";
  }
  for (const auto& [id, entry] : model.input_req.items()) {
    if (id.base != array || id.steps == std::vector<std::string>{"length"})
      continue;
    const std::optional<RectSection>& section = entry.section;
    if (id.steps.empty() || id.steps[0] != kElemStep || !section ||
        section->rank() != 1)
      return "the loop reads " + id.to_string() + " without a packet section";
    if (std::find(out.sections.begin(), out.sections.end(), *section) ==
        out.sections.end())
      out.sections.push_back(*section);
  }
  if (out.sections.empty()) return "the loop reads no element of " + array;
  if (!decl.init || decl.init->kind != NodeKind::NewArray)
    return array + " is not allocated by its declaration";

  const std::vector<const Stmt*>& before = model.before;
  std::size_t at = static_cast<std::size_t>(
      std::find(before.begin(), before.end(), &decl) - before.begin());
  do {
    ++at;
  } while (at < before.size() && !mentions(*before[at], array));
  if (at == before.size()) return array + " is never filled before the loop";
  const Stmt& first = *before[at];
  if (first.kind == NodeKind::ForStmt || first.kind == NodeKind::WhileStmt) {
    WriteFacts writes;
    collect_writes(first, writes);
    DeclFacts decls;
    collect_decls(first, decls);
    std::set<std::string> carried;
    for (const std::string& name : writes.written)
      if (name != array && !decls.declared.count(name)) carried.insert(name);
    return array + " is filled by a " +
           (first.kind == NodeKind::ForStmt ? "for" : "while") + " loop" +
           (carried.empty() ? "" : " carrying " + join_names(carried));
  }
  const auto* loop = first.kind == NodeKind::ForeachStmt
                         ? static_cast<const ForeachStmt*>(&first)
                         : nullptr;
  if (!loop || !loop->domain->type || !loop->domain->type->is_rectdomain())
    return array + " is first written by a statement that is not a "
                   "rectdomain foreach";
  std::string cause = confinement.fill(*loop, array);
  if (!cause.empty()) return "the fill of " + array + " " + cause;

  for (std::size_t k = at + 1; k < before.size(); ++k) {
    if (mentions(*before[k], array))
      return array + " is used after its fill, at line " +
             std::to_string(before[k]->location.line);
  }

  // The share is computed at the fill's position, so the bounds it reads
  // must keep their values until the loop starts.
  WriteFacts later;
  DeclFacts later_decls;
  for (std::size_t k = at + 1; k < before.size(); ++k) {
    collect_writes(*before[k], later);
    collect_decls(*before[k], later_decls);
  }
  auto changes = [&](const std::string& name) {
    return name != model.loop_var &&
           (later.written.count(name) || later_decls.declared.count(name));
  };
  std::set<std::string> domain_names;
  collect_var_refs(*model.loop->domain, domain_names);
  for (const std::string& name : domain_names) {
    if (changes(name))
      return name + ", a bound of the packet domain, is written after the "
                    "fill of " + array;
  }
  // A bound must name pre-loop storage: a loop-body local of the same
  // name would resolve to whatever the setup bound under that name.
  DeclFacts loop_decls;
  collect_decls(*model.loop->body, loop_decls);
  for (const RectSection& section : out.sections) {
    for (const SymPoly* bound :
         {&section.dims()[0].lo, &section.dims()[0].hi}) {
      for (const std::string& symbol : bound->symbols()) {
        const std::string name = symbol_base(symbol);
        if (name != model.loop_var && loop_decls.declared.count(name))
          return name + ", a bound of " + array +
                 "'s packet sections, is declared inside the loop";
        if (changes(name))
          return name + ", a bound of " + array +
                 "'s packet sections, is written after the fill";
      }
    }
  }
  out.loop = loop;
  out.array = array;
  return {};
}

}  // namespace

const char* stage_class_name(StageClass cls) {
  return cls == StageClass::kParallel ? "parallel" : "sequential";
}

std::vector<char> PipelineClassification::parallel_flags() const {
  std::vector<char> flags;
  flags.reserve(filters.size());
  for (const FilterClassification& f : filters)
    flags.push_back(f.parallel() ? 1 : 0);
  return flags;
}

std::string PipelineClassification::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    out += "f" + std::to_string(i + 1) + ": " + filters[i].reason + "\n";
  }
  return out;
}

PipelineClassification classify_filters(const PipelineModel& model) {
  // Declarations anywhere in the loop body are per-packet: every packet
  // re-materializes them, so copies never share an instance — even when the
  // declaring filter is upstream of the writing one (the value travels with
  // the packet via ReqComm).
  DeclFacts decls;
  for (const AtomicFilter& filter : model.filters)
    for (const Stmt* stmt : filter.stmts) collect_decls(*stmt, decls);

  std::set<std::string> reductions;
  for (const auto& [name, decl] : model.reduction_decls)
    reductions.insert(name);

  PipelineClassification result;
  result.filters.reserve(model.filters.size());
  for (const AtomicFilter& filter : model.filters) {
    WriteFacts writes;
    for (const Stmt* stmt : filter.stmts) collect_writes(*stmt, writes);

    FilterClassification verdict;
    if (writes.unknown_call) {
      verdict.cls = StageClass::kSequential;
      verdict.reason = "sequential (call with unbounded effects)";
      result.filters.push_back(std::move(verdict));
      continue;
    }
    for (const std::string& raw : writes.written) {
      // Chase alias bindings (`Tri t = tris[j]`) to the underlying storage;
      // the chain is acyclic because an alias init precedes the decl.
      std::string name = raw;
      for (int hops = 0; hops < 16; ++hops) {
        auto it = decls.aliases.find(name);
        if (it == decls.aliases.end()) break;
        name = it->second;
      }
      if (reductions.count(name)) {
        verdict.reduction_writes.insert(name);
        continue;
      }
      if (decls.declared.count(name) || name == model.loop_var) continue;
      verdict.carried_writes.insert(name);
    }
    if (verdict.carried_writes.empty()) {
      verdict.cls = StageClass::kParallel;
      verdict.reason = verdict.reduction_writes.empty()
                           ? "parallel (stateless)"
                           : "parallel (reductions: " +
                                 join_names(verdict.reduction_writes) + ")";
    } else {
      verdict.cls = StageClass::kSequential;
      verdict.reason =
          "sequential (carries: " + join_names(verdict.carried_writes) + ")";
    }
    result.filters.push_back(std::move(verdict));
  }
  return result;
}


std::string SourceSetupVerdict::to_string() const {
  std::string out;
  for (const SetupFill& fill : fills) {
    out += "source setup: partitioned fill of " + fill.array + " over ";
    for (std::size_t i = 0; i < fill.sections.size(); ++i)
      out += (i ? ", " : "") + fill.sections[i].to_string();
    out += "\n";
  }
  for (const std::string& reason : whole)
    out += "source setup: whole (" + reason + ")\n";
  return out;
}

SourceSetupVerdict classify_source_setup(const PipelineModel& model) {
  SourceSetupVerdict verdict;
  std::set<std::string> reads;
  for (const auto& [id, entry] : model.input_req.items()) reads.insert(id.base);
  ConfinementCheck confinement(model.registry);
  for (const std::string& name : reads) {
    const VarDeclStmt* decl = nullptr;
    for (const Stmt* stmt : model.before) {
      if (stmt->kind == NodeKind::VarDeclStmt &&
          static_cast<const VarDeclStmt*>(stmt)->name == name) {
        decl = static_cast<const VarDeclStmt*>(stmt);
        break;
      }
    }
    if (!decl || !decl->declared_type || !decl->declared_type->is_array())
      continue;
    SetupFill fill;
    std::string reason = check_fill(model, *decl, confinement, fill);
    if (reason.empty())
      verdict.fills.push_back(std::move(fill));
    else
      verdict.whole.push_back(std::move(reason));
  }
  if (verdict.fills.empty() && verdict.whole.empty())
    verdict.whole.push_back("the loop reads no pre-loop array");
  return verdict;
}

}  // namespace cgp
