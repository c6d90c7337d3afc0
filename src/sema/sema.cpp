#include "sema/sema.h"

#include <set>
#include <string>
#include <utility>

#include "support/str.h"

namespace cgp {

namespace {

const std::set<std::string>& intrinsic_names() {
  static const std::set<std::string> names = {
      "sqrt", "abs",  "min", "max", "floor", "ceil",
      "pow",  "exp",  "log", "sin", "cos",   "atan2",
  };
  return names;
}

/// Numeric promotion: the wider of two numeric types (Java-style, without
/// char/short which the dialect omits).
TypePtr promote(const TypePtr& a, const TypePtr& b) {
  auto rank = [](const TypePtr& t) {
    switch (t->prim()) {
      case PrimKind::Byte: return 0;
      case PrimKind::Int: return 1;
      case PrimKind::Long: return 2;
      case PrimKind::Float: return 3;
      case PrimKind::Double: return 4;
      default: return -1;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

}  // namespace

bool Sema::is_intrinsic(const std::string& name) {
  return intrinsic_names().count(name) > 0;
}

Sema::Sema(Program& program, DiagnosticEngine& diags)
    : program_(program), diags_(diags) {}

SemaResult Sema::run() {
  collect_declarations();
  for (auto& cls : program_.classes) check_class(*cls);

  SemaResult result;
  result.registry = std::move(registry_);
  for (const auto& [name, used] : runtime_constants_)
    result.runtime_constants.push_back(name);
  result.foreach_count = next_foreach_id_;
  result.ok = !diags_.has_errors();
  return result;
}

void Sema::collect_declarations() {
  for (const auto& iface : program_.interfaces) {
    if (registry_.has_interface(iface->name)) {
      diags_.error(iface->location, "sema",
                   "duplicate interface '" + iface->name + "'");
    }
    registry_.add_interface(iface->name);
  }
  for (const auto& cls : program_.classes) {
    if (registry_.find(cls->name) != nullptr) {
      diags_.error(cls->location, "sema",
                   "duplicate class '" + cls->name + "'");
      continue;
    }
    ClassInfo info;
    info.decl = cls.get();
    info.name = cls->name;
    info.implements = cls->implements;
    for (const std::string& iface : cls->implements) {
      if (!registry_.has_interface(iface)) {
        diags_.error(cls->location, "sema",
                     "class '" + cls->name + "' implements unknown interface '" +
                         iface + "'");
      }
      if (iface == kReducinterfaceName) info.is_reduction = true;
    }
    int index = 0;
    for (const auto& field : cls->fields) {
      if (info.find_field(field->name) != nullptr) {
        diags_.error(field->location, "sema",
                     "duplicate field '" + field->name + "' in class '" +
                         cls->name + "'");
        continue;
      }
      info.fields.push_back(FieldInfo{field->name, field->type, index++});
    }
    for (const auto& method : cls->methods) {
      if (info.methods.count(method->name)) {
        diags_.error(method->location, "sema",
                     "duplicate method '" + method->name + "' in class '" +
                         cls->name + "' (overloading is not supported)");
        continue;
      }
      info.methods[method->name] = method.get();
    }
    registry_.add(std::move(info));
  }
}

TypePtr Sema::resolve_declared_type(const TypePtr& type, SourceLocation loc) {
  if (!type) return Type::error_type();
  if (type->is_class()) {
    if (registry_.find(type->class_name()) == nullptr &&
        !registry_.has_interface(type->class_name())) {
      diags_.error(loc, "sema", "unknown type '" + type->class_name() + "'");
      return Type::error_type();
    }
    return type;
  }
  if (type->is_array()) {
    TypePtr elem = resolve_declared_type(type->element(), loc);
    if (elem->is_error()) return Type::error_type();
    return type;  // element verified; reuse original
  }
  return type;
}

void Sema::check_class(ClassDecl& cls) {
  const ClassInfo* info = registry_.find(cls.name);
  if (!info) return;
  current_class_ = info;
  for (const auto& field : cls.fields)
    resolve_declared_type(field->type, field->location);
  for (auto& method : cls.methods) check_method(*info, *method);
  current_class_ = nullptr;
}

void Sema::check_method(const ClassInfo& cls, MethodDecl& method) {
  current_method_ = &method;
  loop_depth_ = 0;
  push_scope();
  declare("this", Type::class_type(cls.name), method.location);
  for (const auto& param : method.params) {
    resolve_declared_type(param->type, param->location);
    declare(param->name, param->type, param->location);
  }
  if (method.body) {
    check_stmt(*method.body);
    const bool is_ctor = method.name == cls.name;
    if (!is_ctor && !method.return_type->is_void() &&
        can_complete_normally(*method.body)) {
      diags_.error(method.location, "sema",
                   "missing return statement in method '" + method.name + "'");
    }
  }
  pop_scope();
  current_method_ = nullptr;
}

TypePtr Sema::lookup(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->vars.find(name);
    if (found != it->vars.end()) return found->second;
  }
  return nullptr;
}

void Sema::declare(const std::string& name, TypePtr type, SourceLocation loc) {
  if (scopes_.empty()) push_scope();
  auto& vars = scopes_.back().vars;
  if (vars.count(name)) {
    diags_.error(loc, "sema", "redeclaration of '" + name + "'");
    return;
  }
  vars[name] = std::move(type);
}

bool Sema::assignable(const TypePtr& target, const TypePtr& value) const {
  if (!target || !value) return false;
  if (target->is_error() || value->is_error()) return true;
  if (target->is_numeric() && value->is_numeric()) return true;
  if (target->is_boolean() && value->is_boolean()) return true;
  if (target->is_reference() && value->kind() == Type::Kind::Null) return true;
  if (target->is_class() && value->is_class()) {
    if (target->class_name() == value->class_name()) return true;
    // class value assignable to interface target it implements
    const ClassInfo* info = registry_.find(value->class_name());
    if (info) {
      for (const std::string& iface : info->implements)
        if (iface == target->class_name()) return true;
    }
    return false;
  }
  // Rank-1 rectdomain iteration variables are plain ints; allow int<->Point<1>.
  if (target->is_point() && target->rank() == 1 && value->is_integral())
    return true;
  if (target->is_integral() && value->is_point() && value->rank() == 1)
    return true;
  return target->equals(*value);
}

void Sema::check_stmt(Stmt& stmt) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      auto& decl = static_cast<VarDeclStmt&>(stmt);
      decl.declared_type = resolve_declared_type(decl.declared_type,
                                                 decl.location);
      if (decl.init) {
        TypePtr init_type = check_expr(*decl.init);
        if (!assignable(decl.declared_type, init_type)) {
          diags_.error(decl.location, "sema",
                       "cannot initialize '" + decl.name + "' of type " +
                           decl.declared_type->to_string() + " with " +
                           init_type->to_string());
        }
      }
      if (decl.is_runtime_define && !decl.declared_type->is_integral()) {
        diags_.error(decl.location, "sema",
                     "runtime_define variables must be integral");
      }
      declare(decl.name, decl.declared_type, decl.location);
      if (decl.is_runtime_define) runtime_constants_[decl.name] = true;
      break;
    }
    case NodeKind::ExprStmt:
      check_expr(*static_cast<ExprStmt&>(stmt).expr);
      break;
    case NodeKind::Block: {
      push_scope();
      for (StmtPtr& s : static_cast<BlockStmt&>(stmt).statements)
        check_stmt(*s);
      pop_scope();
      break;
    }
    case NodeKind::IfStmt: {
      auto& if_stmt = static_cast<IfStmt&>(stmt);
      TypePtr cond = check_expr(*if_stmt.cond);
      if (!cond->is_boolean() && !cond->is_error()) {
        diags_.error(if_stmt.location, "sema",
                     "if condition must be boolean, got " + cond->to_string());
      }
      check_stmt(*if_stmt.then_branch);
      if (if_stmt.else_branch) check_stmt(*if_stmt.else_branch);
      break;
    }
    case NodeKind::WhileStmt: {
      auto& while_stmt = static_cast<WhileStmt&>(stmt);
      TypePtr cond = check_expr(*while_stmt.cond);
      if (!cond->is_boolean() && !cond->is_error()) {
        diags_.error(while_stmt.location, "sema",
                     "while condition must be boolean");
      }
      check_loop_body(*while_stmt.body);
      break;
    }
    case NodeKind::ForStmt: {
      auto& for_stmt = static_cast<ForStmt&>(stmt);
      push_scope();
      if (for_stmt.init) check_stmt(*for_stmt.init);
      if (for_stmt.cond) {
        TypePtr cond = check_expr(*for_stmt.cond);
        if (!cond->is_boolean() && !cond->is_error()) {
          diags_.error(for_stmt.location, "sema",
                       "for condition must be boolean");
        }
      }
      if (for_stmt.step) check_expr(*for_stmt.step);
      check_loop_body(*for_stmt.body);
      pop_scope();
      break;
    }
    case NodeKind::ForeachStmt: {
      auto& foreach_stmt = static_cast<ForeachStmt&>(stmt);
      foreach_stmt.loop_id = next_foreach_id_++;
      TypePtr domain = check_expr(*foreach_stmt.domain);
      TypePtr var_type;
      if (domain->is_rectdomain()) {
        var_type = domain->rank() == 1 ? Type::primitive(PrimKind::Int)
                                       : Type::point(domain->rank());
      } else if (domain->is_array()) {
        var_type = domain->element();
      } else if (domain->is_error()) {
        var_type = Type::error_type();
      } else {
        diags_.error(foreach_stmt.location, "sema",
                     "foreach domain must be a Rectdomain or an array, got " +
                         domain->to_string());
        var_type = Type::error_type();
      }
      push_scope();
      declare(foreach_stmt.var, var_type, foreach_stmt.location);
      check_loop_body(*foreach_stmt.body);
      check_reduction_discipline(*foreach_stmt.body, /*in_foreach=*/true);
      pop_scope();
      break;
    }
    case NodeKind::PipelinedLoopStmt: {
      auto& loop = static_cast<PipelinedLoopStmt&>(stmt);
      ++pipelined_loop_count_;
      TypePtr domain = check_expr(*loop.domain);
      if (!domain->is_rectdomain() && !domain->is_error()) {
        diags_.error(loop.location, "sema",
                     "PipelinedLoop domain must be a Rectdomain");
      } else if (domain->is_rectdomain() && domain->rank() != 1) {
        diags_.error(loop.location, "sema",
                     "PipelinedLoop domain must have rank 1");
      }
      push_scope();
      declare(loop.var, Type::primitive(PrimKind::Int), loop.location);
      // The packet loop is not a loop a jump may leave: the compiled
      // pipeline runs every packet.
      const int enclosing = std::exchange(loop_depth_, 0);
      check_stmt(*loop.body);
      loop_depth_ = enclosing;
      pop_scope();
      break;
    }
    case NodeKind::ReturnStmt: {
      auto& ret = static_cast<ReturnStmt&>(stmt);
      TypePtr value_type =
          ret.value ? check_expr(*ret.value) : Type::void_type();
      if (current_method_) {
        const TypePtr& expected = current_method_->return_type;
        bool method_is_ctor =
            current_class_ && current_method_->name == current_class_->name;
        if (!method_is_ctor && !assignable(expected, value_type) &&
            !(expected->is_void() && value_type->is_void())) {
          diags_.error(ret.location, "sema",
                       "return type mismatch: expected " +
                           expected->to_string() + ", got " +
                           value_type->to_string());
        }
      }
      break;
    }
    case NodeKind::BreakStmt:
    case NodeKind::ContinueStmt:
      if (loop_depth_ == 0) {
        diags_.error(stmt.location, "sema",
                     std::string(stmt.kind == NodeKind::BreakStmt ? "'break'" : "'continue'") +
                         " outside a while, for or foreach loop");
      }
      break;
    default:
      diags_.error(stmt.location, "sema", "unexpected node in statement position");
  }
}

void Sema::check_loop_body(Stmt& body) {
  ++loop_depth_;
  check_stmt(body);
  --loop_depth_;
}

void Sema::check_reduction_discipline(Stmt& stmt, bool in_foreach) {
  // §3: a reduction variable "can only be updated inside a foreach loop by
  // a series of operations that are associative and commutative" and "the
  // intermediate value ... may not be used within the loop, except for
  // self-updates". We enforce the checkable part: inside a foreach body,
  // fields of reduction objects may not be directly assigned; updates must
  // go through method calls on the reduction object (whose associativity
  // the programmer asserts by implementing Reducinterface).
  switch (stmt.kind) {
    case NodeKind::Block:
      for (StmtPtr& s : static_cast<BlockStmt&>(stmt).statements)
        check_reduction_discipline(*s, in_foreach);
      break;
    case NodeKind::IfStmt: {
      auto& if_stmt = static_cast<IfStmt&>(stmt);
      check_reduction_discipline(*if_stmt.then_branch, in_foreach);
      if (if_stmt.else_branch)
        check_reduction_discipline(*if_stmt.else_branch, in_foreach);
      break;
    }
    case NodeKind::WhileStmt:
      check_reduction_discipline(*static_cast<WhileStmt&>(stmt).body,
                                 in_foreach);
      break;
    case NodeKind::ForStmt:
      check_reduction_discipline(*static_cast<ForStmt&>(stmt).body, in_foreach);
      break;
    case NodeKind::ForeachStmt:
      check_reduction_discipline(*static_cast<ForeachStmt&>(stmt).body, true);
      break;
    case NodeKind::ExprStmt: {
      Expr& e = *static_cast<ExprStmt&>(stmt).expr;
      if (e.kind == NodeKind::Assign) {
        auto& assign = static_cast<AssignExpr&>(e);
        if (assign.target->kind == NodeKind::FieldAccess) {
          auto& access = static_cast<FieldAccess&>(*assign.target);
          if (access.base && access.base->type && access.base->type->is_class()) {
            const ClassInfo* cls = registry_.find(access.base->type->class_name());
            if (cls && cls->is_reduction && in_foreach &&
                assign.op == AssignOp::Assign) {
              diags_.warning(
                  assign.location, "sema",
                  "direct overwrite of reduction-object field '" + access.field +
                      "' inside foreach; use a self-update or a method of the "
                      "reduction class");
            }
          }
        }
      }
      break;
    }
    default:
      break;
  }
}

TypePtr Sema::check_expr(Expr& expr) {
  TypePtr type;
  switch (expr.kind) {
    case NodeKind::IntLit: type = Type::primitive(PrimKind::Int); break;
    case NodeKind::FloatLit: type = Type::primitive(PrimKind::Double); break;
    case NodeKind::BoolLit: type = Type::primitive(PrimKind::Boolean); break;
    case NodeKind::StringLit: type = Type::string_type(); break;
    case NodeKind::NullLit: type = Type::null_type(); break;
    case NodeKind::VarRef:
      type = check_var_ref(static_cast<VarRef&>(expr));
      break;
    case NodeKind::FieldAccess: {
      auto& access = static_cast<FieldAccess&>(expr);
      TypePtr base = check_expr(*access.base);
      if (base->is_error()) {
        type = Type::error_type();
      } else if (base->is_array() && access.field == "length") {
        type = Type::primitive(PrimKind::Int);
      } else if (base->is_class()) {
        const ClassInfo* cls = registry_.find(base->class_name());
        const FieldInfo* field = cls ? cls->find_field(access.field) : nullptr;
        if (!field) {
          diags_.error(access.location, "sema",
                       "no field '" + access.field + "' in class '" +
                           base->class_name() + "'");
          type = Type::error_type();
        } else {
          type = field->type;
        }
      } else {
        diags_.error(access.location, "sema",
                     "cannot access field '" + access.field + "' on " +
                         base->to_string());
        type = Type::error_type();
      }
      break;
    }
    case NodeKind::Index: {
      auto& index = static_cast<IndexExpr&>(expr);
      TypePtr base = check_expr(*index.base);
      for (ExprPtr& idx : index.indices) {
        TypePtr idx_type = check_expr(*idx);
        if (!idx_type->is_integral() && !idx_type->is_point() &&
            !idx_type->is_error()) {
          diags_.error(index.location, "sema",
                       "array index must be integral, got " +
                           idx_type->to_string());
        }
      }
      if (base->is_array()) {
        if (index.indices.size() != 1) {
          diags_.error(index.location, "sema",
                       "arrays take exactly one index");
        }
        type = base->element();
      } else if (base->is_error()) {
        type = Type::error_type();
      } else {
        diags_.error(index.location, "sema",
                     "cannot index into " + base->to_string());
        type = Type::error_type();
      }
      break;
    }
    case NodeKind::Unary: {
      auto& unary = static_cast<UnaryExpr&>(expr);
      TypePtr operand = check_expr(*unary.operand);
      if (unary.op == UnaryOp::Not) {
        if (!operand->is_boolean() && !operand->is_error()) {
          diags_.error(unary.location, "sema", "'!' requires a boolean");
        }
        type = Type::primitive(PrimKind::Boolean);
      } else {
        if (!operand->is_numeric() && !operand->is_error()) {
          diags_.error(unary.location, "sema",
                       std::string("'") + unary_op_spelling(unary.op) +
                           "' requires a numeric operand");
        }
        type = operand;
      }
      break;
    }
    case NodeKind::Binary: {
      auto& binary = static_cast<BinaryExpr&>(expr);
      TypePtr lhs = check_expr(*binary.lhs);
      TypePtr rhs = check_expr(*binary.rhs);
      if (lhs->is_error() || rhs->is_error()) {
        type = is_comparison(binary.op) || is_logical(binary.op)
                   ? Type::primitive(PrimKind::Boolean)
                   : Type::error_type();
        break;
      }
      if (is_logical(binary.op)) {
        if (!lhs->is_boolean() || !rhs->is_boolean()) {
          diags_.error(binary.location, "sema",
                       "logical operator requires boolean operands");
        }
        type = Type::primitive(PrimKind::Boolean);
      } else if (is_comparison(binary.op)) {
        bool ok = (lhs->is_numeric() && rhs->is_numeric()) ||
                  (lhs->is_boolean() && rhs->is_boolean() &&
                   (binary.op == BinaryOp::Eq || binary.op == BinaryOp::Ne)) ||
                  (lhs->is_reference() && rhs->is_reference() &&
                   (binary.op == BinaryOp::Eq || binary.op == BinaryOp::Ne));
        if (!ok) {
          diags_.error(binary.location, "sema",
                       "invalid comparison between " + lhs->to_string() +
                           " and " + rhs->to_string());
        }
        type = Type::primitive(PrimKind::Boolean);
      } else {
        if (!lhs->is_numeric() || !rhs->is_numeric()) {
          diags_.error(binary.location, "sema",
                       std::string("arithmetic '") +
                           binary_op_spelling(binary.op) +
                           "' requires numeric operands, got " +
                           lhs->to_string() + " and " + rhs->to_string());
          type = Type::error_type();
        } else {
          type = promote(lhs, rhs);
        }
      }
      break;
    }
    case NodeKind::Assign: {
      auto& assign = static_cast<AssignExpr&>(expr);
      TypePtr target = check_expr(*assign.target);
      TypePtr value = check_expr(*assign.value);
      if (assign.op != AssignOp::Assign &&
          (!target->is_numeric() || !value->is_numeric()) &&
          !target->is_error() && !value->is_error()) {
        diags_.error(assign.location, "sema",
                     "compound assignment requires numeric operands");
      } else if (!assignable(target, value)) {
        diags_.error(assign.location, "sema",
                     "cannot assign " + value->to_string() + " to " +
                         target->to_string());
      }
      type = target;
      break;
    }
    case NodeKind::Call:
      type = check_call(static_cast<CallExpr&>(expr));
      break;
    case NodeKind::NewObject: {
      auto& alloc = static_cast<NewObjectExpr&>(expr);
      const ClassInfo* cls = registry_.find(alloc.class_name);
      if (!cls) {
        diags_.error(alloc.location, "sema",
                     "unknown class '" + alloc.class_name + "'");
        type = Type::error_type();
        break;
      }
      std::vector<TypePtr> arg_types;
      for (ExprPtr& arg : alloc.args) arg_types.push_back(check_expr(*arg));
      const MethodDecl* ctor = cls->constructor();
      if (ctor) {
        if (ctor->params.size() != arg_types.size()) {
          diags_.error(alloc.location, "sema",
                       "constructor of '" + alloc.class_name + "' takes " +
                           std::to_string(ctor->params.size()) +
                           " arguments, got " +
                           std::to_string(arg_types.size()));
        } else {
          for (std::size_t i = 0; i < arg_types.size(); ++i) {
            if (!assignable(ctor->params[i]->type, arg_types[i])) {
              diags_.error(alloc.location, "sema",
                           "constructor argument " + std::to_string(i + 1) +
                               " type mismatch");
            }
          }
        }
      } else if (!alloc.args.empty()) {
        diags_.error(alloc.location, "sema",
                     "class '" + alloc.class_name +
                         "' has no constructor taking arguments");
      }
      type = Type::class_type(alloc.class_name);
      break;
    }
    case NodeKind::NewArray: {
      auto& alloc = static_cast<NewArrayExpr&>(expr);
      alloc.element_type =
          resolve_declared_type(alloc.element_type, alloc.location);
      TypePtr len = check_expr(*alloc.length);
      if (!len->is_integral() && !len->is_error()) {
        diags_.error(alloc.location, "sema", "array length must be integral");
      }
      type = Type::array_of(alloc.element_type);
      break;
    }
    case NodeKind::RectdomainLit: {
      auto& lit = static_cast<RectdomainLit&>(expr);
      for (auto& dim : lit.dims) {
        TypePtr lo = check_expr(*dim.lo);
        TypePtr hi = check_expr(*dim.hi);
        if ((!lo->is_integral() && !lo->is_error()) ||
            (!hi->is_integral() && !hi->is_error())) {
          diags_.error(lit.location, "sema",
                       "rectdomain bounds must be integral");
        }
      }
      type = Type::rectdomain(static_cast<int>(lit.dims.size()));
      break;
    }
    case NodeKind::Conditional: {
      auto& cond = static_cast<ConditionalExpr&>(expr);
      TypePtr c = check_expr(*cond.cond);
      if (!c->is_boolean() && !c->is_error()) {
        diags_.error(cond.location, "sema",
                     "conditional test must be boolean");
      }
      TypePtr a = check_expr(*cond.then_value);
      TypePtr b = check_expr(*cond.else_value);
      if (a->is_numeric() && b->is_numeric()) {
        type = promote(a, b);
      } else if (a->equals(*b)) {
        type = a;
      } else if (a->is_error() || b->is_error()) {
        type = Type::error_type();
      } else {
        diags_.error(cond.location, "sema",
                     "conditional branches have incompatible types " +
                         a->to_string() + " and " + b->to_string());
        type = Type::error_type();
      }
      break;
    }
    default:
      diags_.error(expr.location, "sema", "unexpected node in expression position");
      type = Type::error_type();
  }
  expr.type = type;
  return type;
}

TypePtr Sema::check_var_ref(VarRef& ref) {
  if (ref.is_runtime_define) {
    // runtime_define_* identifiers are implicitly-declared integral
    // constants bound at runtime (§3).
    runtime_constants_[ref.name] = true;
    return Type::primitive(PrimKind::Int);
  }
  if (TypePtr found = lookup(ref.name)) return found;
  // Fields of the enclosing class are accessible unqualified.
  if (current_class_) {
    if (const FieldInfo* field = current_class_->find_field(ref.name))
      return field->type;
  }
  diags_.error(ref.location, "sema", "undeclared identifier '" + ref.name + "'");
  return Type::error_type();
}

TypePtr Sema::check_intrinsic_call(CallExpr& call,
                                   const std::vector<TypePtr>& arg_types) {
  call.is_intrinsic = true;
  auto expect_args = [&](std::size_t n) {
    if (call.args.size() != n) {
      diags_.error(call.location, "sema",
                   "intrinsic '" + call.callee + "' takes " +
                       std::to_string(n) + " argument(s)");
      return false;
    }
    return true;
  };
  for (const TypePtr& t : arg_types) {
    if (!t->is_numeric() && !t->is_error()) {
      diags_.error(call.location, "sema",
                   "intrinsic '" + call.callee + "' requires numeric arguments");
      return Type::error_type();
    }
  }
  if (call.callee == "min" || call.callee == "max") {
    if (!expect_args(2)) return Type::error_type();
    return promote(arg_types[0], arg_types[1]);
  }
  if (call.callee == "abs") {
    if (!expect_args(1)) return Type::error_type();
    return arg_types[0];
  }
  if (call.callee == "pow" || call.callee == "atan2") {
    if (!expect_args(2)) return Type::error_type();
    return Type::primitive(PrimKind::Double);
  }
  // sqrt, floor, ceil, exp, log, sin, cos
  if (!expect_args(1)) return Type::error_type();
  return Type::primitive(PrimKind::Double);
}

TypePtr Sema::check_call(CallExpr& call) {
  std::vector<TypePtr> arg_types;
  for (ExprPtr& arg : call.args) arg_types.push_back(check_expr(*arg));

  const ClassInfo* target_class = nullptr;
  if (call.base) {
    TypePtr base = check_expr(*call.base);
    if (base->is_error()) return Type::error_type();
    if (base->is_rectdomain()) {
      // Built-in rectdomain accessors.
      if (call.callee == "size" || call.callee == "lo" || call.callee == "hi") {
        if (!call.args.empty()) {
          diags_.error(call.location, "sema",
                       "rectdomain '" + call.callee + "' takes no arguments");
        }
        call.is_intrinsic = true;
        return call.callee == "size" ? Type::primitive(PrimKind::Long)
                                     : Type::primitive(PrimKind::Int);
      }
      diags_.error(call.location, "sema",
                   "unknown rectdomain method '" + call.callee + "'");
      return Type::error_type();
    }
    if (!base->is_class()) {
      diags_.error(call.location, "sema",
                   "cannot call method on " + base->to_string());
      return Type::error_type();
    }
    target_class = registry_.find(base->class_name());
    if (!target_class) {
      // Interface-typed receiver: methods unknown; treat as error-absorbing.
      if (registry_.has_interface(base->class_name())) {
        diags_.error(call.location, "sema",
                     "calls through interface type '" + base->class_name() +
                         "' are not supported; use the concrete class");
      } else {
        diags_.error(call.location, "sema",
                     "unknown class '" + base->class_name() + "'");
      }
      return Type::error_type();
    }
  } else {
    if (is_intrinsic(call.callee)) return check_intrinsic_call(call, arg_types);
    target_class = current_class_;
    if (!target_class) {
      diags_.error(call.location, "sema",
                   "call to '" + call.callee + "' outside of a class");
      return Type::error_type();
    }
  }

  const MethodDecl* method = target_class->find_method(call.callee);
  if (!method) {
    diags_.error(call.location, "sema",
                 "no method '" + call.callee + "' in class '" +
                     target_class->name + "'");
    return Type::error_type();
  }
  call.resolved_class = target_class->name;
  if (method->params.size() != arg_types.size()) {
    diags_.error(call.location, "sema",
                 "method '" + call.callee + "' takes " +
                     std::to_string(method->params.size()) +
                     " argument(s), got " + std::to_string(arg_types.size()));
    return method->return_type;
  }
  for (std::size_t i = 0; i < arg_types.size(); ++i) {
    if (!assignable(method->params[i]->type, arg_types[i])) {
      diags_.error(call.location, "sema",
                   "argument " + std::to_string(i + 1) + " to '" +
                       call.callee + "' has type " + arg_types[i]->to_string() +
                       ", expected " + method->params[i]->type->to_string());
    }
  }
  return method->return_type;
}

}  // namespace cgp
