#include "analysis/fission.h"

#include <functional>
#include <map>
#include <set>

namespace cgp {

namespace {

bool contains_call(const Expr& expr) {
  switch (expr.kind) {
    case NodeKind::Call:
      return !static_cast<const CallExpr&>(expr).is_intrinsic;
    case NodeKind::FieldAccess:
      return contains_call(*static_cast<const FieldAccess&>(expr).base);
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      if (contains_call(*index.base)) return true;
      for (const ExprPtr& i : index.indices)
        if (contains_call(*i)) return true;
      return false;
    }
    case NodeKind::Unary:
      return contains_call(*static_cast<const UnaryExpr&>(expr).operand);
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return contains_call(*binary.lhs) || contains_call(*binary.rhs);
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      return contains_call(*assign.target) || contains_call(*assign.value);
    }
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(expr);
      // Constructor bodies execute user code: a boundary candidate.
      (void)alloc;
      return true;
    }
    case NodeKind::NewArray:
      return contains_call(*static_cast<const NewArrayExpr&>(expr).length);
    case NodeKind::RectdomainLit: {
      const auto& lit = static_cast<const RectdomainLit&>(expr);
      for (const auto& dim : lit.dims) {
        if (contains_call(*dim.lo) || contains_call(*dim.hi)) return true;
      }
      return false;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      return contains_call(*cond.cond) || contains_call(*cond.then_value) ||
             contains_call(*cond.else_value);
    }
    default:
      return false;
  }
}

bool stmt_contains_call(const Stmt& stmt) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      return decl.init && contains_call(*decl.init);
    }
    case NodeKind::ExprStmt:
      return contains_call(*static_cast<const ExprStmt&>(stmt).expr);
    case NodeKind::Block: {
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        if (stmt_contains_call(*s)) return true;
      return false;
    }
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      if (contains_call(*if_stmt.cond)) return true;
      if (stmt_contains_call(*if_stmt.then_branch)) return true;
      return if_stmt.else_branch && stmt_contains_call(*if_stmt.else_branch);
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      return contains_call(*loop.cond) || stmt_contains_call(*loop.body);
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init && stmt_contains_call(*loop.init)) return true;
      if (loop.cond && contains_call(*loop.cond)) return true;
      if (loop.step && contains_call(*loop.step)) return true;
      return stmt_contains_call(*loop.body);
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      return contains_call(*loop.domain) || stmt_contains_call(*loop.body);
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      return ret.value && contains_call(*ret.value);
    }
    default:
      return false;
  }
}

using Subst = std::map<std::string, std::function<ExprPtr()>>;

ExprPtr transform_expr(const Expr& expr, const Subst& subst);

StmtPtr transform_stmt(const Stmt& stmt, const Subst& subst) {
  StmtPtr cloned = clone_stmt(stmt);
  // Easiest correct implementation: clone, then rebuild expressions with
  // substitution. We re-walk the clone and replace expression children.
  std::function<void(Stmt&)> walk_stmt = [&](Stmt& s) {
    switch (s.kind) {
      case NodeKind::VarDeclStmt: {
        auto& decl = static_cast<VarDeclStmt&>(s);
        if (decl.init) decl.init = transform_expr(*decl.init, subst);
        break;
      }
      case NodeKind::ExprStmt: {
        auto& es = static_cast<ExprStmt&>(s);
        es.expr = transform_expr(*es.expr, subst);
        break;
      }
      case NodeKind::Block:
        for (StmtPtr& inner : static_cast<BlockStmt&>(s).statements)
          walk_stmt(*inner);
        break;
      case NodeKind::IfStmt: {
        auto& if_stmt = static_cast<IfStmt&>(s);
        if_stmt.cond = transform_expr(*if_stmt.cond, subst);
        walk_stmt(*if_stmt.then_branch);
        if (if_stmt.else_branch) walk_stmt(*if_stmt.else_branch);
        break;
      }
      case NodeKind::WhileStmt: {
        auto& loop = static_cast<WhileStmt&>(s);
        loop.cond = transform_expr(*loop.cond, subst);
        walk_stmt(*loop.body);
        break;
      }
      case NodeKind::ForStmt: {
        auto& loop = static_cast<ForStmt&>(s);
        if (loop.init) walk_stmt(*loop.init);
        if (loop.cond) loop.cond = transform_expr(*loop.cond, subst);
        if (loop.step) loop.step = transform_expr(*loop.step, subst);
        walk_stmt(*loop.body);
        break;
      }
      case NodeKind::ForeachStmt: {
        auto& loop = static_cast<ForeachStmt&>(s);
        loop.domain = transform_expr(*loop.domain, subst);
        walk_stmt(*loop.body);
        break;
      }
      case NodeKind::ReturnStmt: {
        auto& ret = static_cast<ReturnStmt&>(s);
        if (ret.value) ret.value = transform_expr(*ret.value, subst);
        break;
      }
      default:
        break;
    }
  };
  walk_stmt(*cloned);
  return cloned;
}

ExprPtr transform_expr(const Expr& expr, const Subst& subst) {
  if (expr.kind == NodeKind::VarRef) {
    const auto& ref = static_cast<const VarRef&>(expr);
    auto it = subst.find(ref.name);
    if (it != subst.end()) return it->second();
    return clone_expr(expr);
  }
  ExprPtr cloned = clone_expr(expr);
  std::function<void(Expr&)> walk = [&](Expr& e) {
    auto fix = [&](ExprPtr& child) {
      if (!child) return;
      if (child->kind == NodeKind::VarRef) {
        const auto& ref = static_cast<const VarRef&>(*child);
        auto it = subst.find(ref.name);
        if (it != subst.end()) {
          child = it->second();
          return;
        }
      }
      walk(*child);
    };
    switch (e.kind) {
      case NodeKind::FieldAccess: fix(static_cast<FieldAccess&>(e).base); break;
      case NodeKind::Index: {
        auto& index = static_cast<IndexExpr&>(e);
        fix(index.base);
        for (ExprPtr& i : index.indices) fix(i);
        break;
      }
      case NodeKind::Unary: fix(static_cast<UnaryExpr&>(e).operand); break;
      case NodeKind::Binary: {
        auto& binary = static_cast<BinaryExpr&>(e);
        fix(binary.lhs);
        fix(binary.rhs);
        break;
      }
      case NodeKind::Assign: {
        auto& assign = static_cast<AssignExpr&>(e);
        fix(assign.target);
        fix(assign.value);
        break;
      }
      case NodeKind::Call: {
        auto& call = static_cast<CallExpr&>(e);
        fix(call.base);
        for (ExprPtr& a : call.args) fix(a);
        break;
      }
      case NodeKind::NewObject:
        for (ExprPtr& a : static_cast<NewObjectExpr&>(e).args) fix(a);
        break;
      case NodeKind::NewArray: fix(static_cast<NewArrayExpr&>(e).length); break;
      case NodeKind::RectdomainLit:
        for (auto& dim : static_cast<RectdomainLit&>(e).dims) {
          fix(dim.lo);
          fix(dim.hi);
        }
        break;
      case NodeKind::Conditional: {
        auto& cond = static_cast<ConditionalExpr&>(e);
        fix(cond.cond);
        fix(cond.then_value);
        fix(cond.else_value);
        break;
      }
      default:
        break;
    }
  };
  walk(*cloned);
  return cloned;
}

/// Collects bare-variable assignment/inc-dec targets below stmt (declaring
/// initializers do not count).
void collect_assigned_targets(const Stmt& stmt, std::set<std::string>& out) {
  std::function<void(const Expr&)> walk_expr = [&](const Expr& e) {
    switch (e.kind) {
      case NodeKind::Assign: {
        const auto& assign = static_cast<const AssignExpr&>(e);
        if (assign.target->kind == NodeKind::VarRef)
          out.insert(static_cast<const VarRef&>(*assign.target).name);
        walk_expr(*assign.value);
        break;
      }
      case NodeKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(e);
        if ((unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec ||
             unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec) &&
            unary.operand->kind == NodeKind::VarRef)
          out.insert(static_cast<const VarRef&>(*unary.operand).name);
        walk_expr(*unary.operand);
        break;
      }
      case NodeKind::Binary: {
        const auto& binary = static_cast<const BinaryExpr&>(e);
        walk_expr(*binary.lhs);
        walk_expr(*binary.rhs);
        break;
      }
      case NodeKind::Call: {
        const auto& call = static_cast<const CallExpr&>(e);
        if (call.base) walk_expr(*call.base);
        for (const ExprPtr& a : call.args) walk_expr(*a);
        break;
      }
      case NodeKind::Conditional: {
        const auto& cond = static_cast<const ConditionalExpr&>(e);
        walk_expr(*cond.cond);
        walk_expr(*cond.then_value);
        walk_expr(*cond.else_value);
        break;
      }
      case NodeKind::FieldAccess:
        walk_expr(*static_cast<const FieldAccess&>(e).base);
        break;
      case NodeKind::Index: {
        const auto& index = static_cast<const IndexExpr&>(e);
        walk_expr(*index.base);
        for (const ExprPtr& i : index.indices) walk_expr(*i);
        break;
      }
      default:
        break;
    }
  };
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) walk_expr(*decl.init);
      break;
    }
    case NodeKind::ExprStmt:
      walk_expr(*static_cast<const ExprStmt&>(stmt).expr);
      break;
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        collect_assigned_targets(*s, out);
      break;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      walk_expr(*if_stmt.cond);
      collect_assigned_targets(*if_stmt.then_branch, out);
      if (if_stmt.else_branch) collect_assigned_targets(*if_stmt.else_branch, out);
      break;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      walk_expr(*loop.cond);
      collect_assigned_targets(*loop.body, out);
      break;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) collect_assigned_targets(*loop.init, out);
      if (loop.cond) walk_expr(*loop.cond);
      if (loop.step) walk_expr(*loop.step);
      collect_assigned_targets(*loop.body, out);
      break;
    }
    case NodeKind::ForeachStmt:
      collect_assigned_targets(*static_cast<const ForeachStmt&>(stmt).body,
                               out);
      break;
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) walk_expr(*ret.value);
      break;
    }
    default:
      break;
  }
}

ExprPtr make_var(const std::string& name) {
  auto ref = std::make_unique<VarRef>();
  ref->name = name;
  return ref;
}

ExprPtr make_int(std::int64_t value) {
  auto lit = std::make_unique<IntLit>();
  lit->value = value;
  return lit;
}

ExprPtr make_sub(ExprPtr lhs, ExprPtr rhs) {
  auto expr = std::make_unique<BinaryExpr>();
  expr->op = BinaryOp::Sub;
  expr->lhs = std::move(lhs);
  expr->rhs = std::move(rhs);
  return expr;
}

bool is_zero_literal(const Expr& expr) {
  return expr.kind == NodeKind::IntLit &&
         static_cast<const IntLit&>(expr).value == 0;
}

}  // namespace

bool is_pure_expr(const Expr& expr) {
  switch (expr.kind) {
    case NodeKind::Call:
    case NodeKind::NewObject:
    case NodeKind::NewArray:
    case NodeKind::Assign:
      return false;
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec ||
          unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec)
        return false;
      return is_pure_expr(*unary.operand);
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return is_pure_expr(*binary.lhs) && is_pure_expr(*binary.rhs);
    }
    case NodeKind::FieldAccess:
      return is_pure_expr(*static_cast<const FieldAccess&>(expr).base);
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      if (!is_pure_expr(*index.base)) return false;
      for (const ExprPtr& i : index.indices)
        if (!is_pure_expr(*i)) return false;
      return true;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      return is_pure_expr(*cond.cond) && is_pure_expr(*cond.then_value) &&
             is_pure_expr(*cond.else_value);
    }
    case NodeKind::RectdomainLit: {
      for (const auto& dim : static_cast<const RectdomainLit&>(expr).dims) {
        if (!is_pure_expr(*dim.lo) || !is_pure_expr(*dim.hi)) return false;
      }
      return true;
    }
    default:
      return true;  // literals, VarRef
  }
}

bool is_piece_splitter(const Stmt& stmt) {
  if (stmt.kind == NodeKind::IfStmt) return true;
  return stmt_contains_call(stmt);
}

namespace {

/// Attempts to fission one foreach; returns the replacement statements or
/// an empty vector when no fission applies.
std::vector<StmtPtr> try_fission(const ForeachStmt& loop,
                                 DiagnosticEngine& diags, FissionStats& stats) {
  if (loop.body->kind != NodeKind::Block) return {};
  const auto& body = static_cast<const BlockStmt&>(*loop.body);

  // Partition the body into pieces.
  std::vector<std::vector<const Stmt*>> pieces;
  for (const StmtPtr& s : body.statements) {
    if (is_piece_splitter(*s)) {
      pieces.push_back({s.get()});
    } else {
      if (pieces.empty() || is_piece_splitter(*pieces.back().front()))
        pieces.emplace_back();
      pieces.back().push_back(s.get());
    }
  }
  if (pieces.size() <= 1) return {};

  if (!is_pure_expr(*loop.domain)) {
    diags.warning(loop.location, "fission",
                  "foreach domain has side effects; fission skipped");
    return {};
  }

  // Normalize to index iteration.
  const bool element_iteration =
      loop.domain->type && loop.domain->type->is_array();
  std::string idx = element_iteration ? loop.var + "__ix" : loop.var;

  // Domain for the pieces and the zero-based offset of the index.
  auto make_domain = [&]() -> ExprPtr {
    if (!element_iteration) return clone_expr(*loop.domain);
    auto lit = std::make_unique<RectdomainLit>();
    RectdomainLit::Dim dim;
    dim.lo = make_int(0);
    auto len = std::make_unique<FieldAccess>();
    len->base = clone_expr(*loop.domain);
    len->field = "length";
    dim.hi = make_sub(std::move(len), make_int(1));
    lit->dims.push_back(std::move(dim));
    return lit;
  };
  // lo bound of the index domain, for array offsets (idx - lo).
  const Expr* domain_lo = nullptr;
  if (!element_iteration && loop.domain->kind == NodeKind::RectdomainLit) {
    const auto& lit = static_cast<const RectdomainLit&>(*loop.domain);
    if (lit.dims.size() == 1) domain_lo = lit.dims[0].lo.get();
  }
  if (!element_iteration && !domain_lo) {
    diags.warning(loop.location, "fission",
                  "foreach domain is not a rank-1 rectdomain literal; "
                  "fission skipped");
    return {};
  }
  auto make_offset = [&]() -> ExprPtr {
    if (element_iteration || is_zero_literal(*domain_lo)) return make_var(idx);
    return make_sub(make_var(idx), clone_expr(*domain_lo));
  };
  auto make_size = [&]() -> ExprPtr {
    if (element_iteration) {
      auto len = std::make_unique<FieldAccess>();
      len->base = clone_expr(*loop.domain);
      len->field = "length";
      return len;
    }
    const auto& lit = static_cast<const RectdomainLit&>(*loop.domain);
    // hi - lo + 1
    auto hi_minus_lo = make_sub(clone_expr(*lit.dims[0].hi),
                                clone_expr(*lit.dims[0].lo));
    auto expr = std::make_unique<BinaryExpr>();
    expr->op = BinaryOp::Add;
    expr->lhs = std::move(hi_minus_lo);
    expr->rhs = make_int(1);
    return expr;
  };

  // Classify body-level locals. A local reassigned anywhere in the body
  // cannot be rematerialized from its initializer.
  std::set<std::string> reassigned;
  for (const StmtPtr& s : body.statements)
    collect_assigned_targets(*s, reassigned);

  struct LocalInfo {
    const VarDeclStmt* decl = nullptr;
    bool remat = false;
    std::string array_name;  // expansion target
  };
  std::map<std::string, LocalInfo> locals;
  std::vector<std::string> local_order;
  for (const StmtPtr& s : body.statements) {
    if (s->kind != NodeKind::VarDeclStmt) continue;
    const auto& decl = static_cast<const VarDeclStmt&>(*s);
    LocalInfo info;
    info.decl = &decl;
    info.remat = decl.init && is_pure_expr(*decl.init) &&
                 !reassigned.count(decl.name);
    if (!info.remat) {
      info.array_name =
          "__fiss_" + decl.name + "_" + std::to_string(loop.loop_id);
    }
    locals[decl.name] = info;
    local_order.push_back(decl.name);
  }

  // Build the substitution for expanded locals and (if needed) the element
  // variable. The element variable is rematerialized via a binding decl.
  Subst subst;
  for (const auto& [name, info] : locals) {
    if (info.remat) continue;
    std::string array_name = info.array_name;
    subst[name] = [array_name, &make_offset]() -> ExprPtr {
      auto index = std::make_unique<IndexExpr>();
      index->base = make_var(array_name);
      index->indices.push_back(make_offset());
      return index;
    };
  }

  std::vector<StmtPtr> result;

  // Expansion arrays, allocated once before the pieces.
  for (const std::string& name : local_order) {
    const LocalInfo& info = locals[name];
    if (info.remat) continue;
    auto decl = std::make_unique<VarDeclStmt>();
    decl->location = info.decl->location;
    decl->declared_type = Type::array_of(info.decl->declared_type);
    decl->name = info.array_name;
    auto alloc = std::make_unique<NewArrayExpr>();
    alloc->element_type = info.decl->declared_type;
    alloc->length = make_size();
    decl->init = std::move(alloc);
    result.push_back(std::move(decl));
    ++stats.locals_expanded;
  }

  for (const std::string& name : local_order) {
    if (locals[name].remat) ++stats.locals_rematerialized;
  }

  // Emit one foreach per piece.
  for (const std::vector<const Stmt*>& piece : pieces) {
    auto fe = std::make_unique<ForeachStmt>();
    fe->location = loop.location;
    fe->var = idx;
    fe->domain = make_domain();
    auto block = std::make_unique<BlockStmt>();
    block->location = loop.location;

    // Names this piece references (directly or via remat chains).
    std::set<std::string> used;
    for (const Stmt* s : piece) collect_var_refs(*s, used);
    // Transitive closure over remat initializers, walking decls backwards.
    for (auto it = local_order.rbegin(); it != local_order.rend(); ++it) {
      const LocalInfo& info = locals[*it];
      if (info.remat && used.count(*it) && info.decl->init) {
        collect_var_refs(*info.decl->init, used);
      }
    }

    // Element binding first (when normalizing element iteration).
    if (element_iteration && used.count(loop.var)) {
      auto bind = std::make_unique<VarDeclStmt>();
      bind->location = loop.location;
      bind->declared_type = loop.domain->type->element();
      bind->name = loop.var;
      auto index = std::make_unique<IndexExpr>();
      index->base = clone_expr(*loop.domain);
      index->indices.push_back(make_var(idx));
      bind->init = transform_expr(*index, subst);
      block->statements.push_back(std::move(bind));
    }
    // Rematerialized locals in declaration order, when used and not
    // declared inside this piece itself.
    std::set<std::string> declared_here;
    for (const Stmt* s : piece) {
      if (s->kind == NodeKind::VarDeclStmt)
        declared_here.insert(static_cast<const VarDeclStmt&>(*s).name);
    }
    for (const std::string& name : local_order) {
      const LocalInfo& info = locals[name];
      if (!info.remat || !used.count(name) || declared_here.count(name))
        continue;
      auto remat = std::make_unique<VarDeclStmt>();
      remat->location = info.decl->location;
      remat->declared_type = info.decl->declared_type;
      remat->name = name;
      remat->init = transform_expr(*info.decl->init, subst);
      block->statements.push_back(std::move(remat));
    }

    // The piece statements themselves, with expanded locals substituted and
    // expanded decls rewritten to array stores.
    for (const Stmt* s : piece) {
      if (s->kind == NodeKind::VarDeclStmt) {
        const auto& decl = static_cast<const VarDeclStmt&>(*s);
        const LocalInfo& info = locals[decl.name];
        if (!info.remat) {
          if (decl.init) {
            auto store = std::make_unique<AssignExpr>();
            store->location = decl.location;
            auto index = std::make_unique<IndexExpr>();
            index->base = make_var(info.array_name);
            index->indices.push_back(make_offset());
            store->target = std::move(index);
            store->value = transform_expr(*decl.init, subst);
            auto es = std::make_unique<ExprStmt>();
            es->location = decl.location;
            es->expr = std::move(store);
            block->statements.push_back(std::move(es));
          }
          continue;
        }
        // Rematerialized decl inside its own piece: keep as-is (transformed).
      }
      block->statements.push_back(transform_stmt(*s, subst));
    }
    fe->body = std::move(block);
    result.push_back(std::move(fe));
    ++stats.pieces_created;
  }
  return result;
}

}  // namespace

FissionStats fission_pipelined_body(PipelinedLoopStmt& loop,
                                    DiagnosticEngine& diags) {
  FissionStats stats;
  if (loop.body->kind != NodeKind::Block) return stats;
  auto& body = static_cast<BlockStmt&>(*loop.body);
  std::vector<StmtPtr> rebuilt;
  for (StmtPtr& s : body.statements) {
    if (s->kind == NodeKind::ForeachStmt) {
      ++stats.loops_examined;
      auto& fe = static_cast<ForeachStmt&>(*s);
      std::vector<StmtPtr> replacement = try_fission(fe, diags, stats);
      if (!replacement.empty()) {
        ++stats.loops_fissioned;
        for (StmtPtr& r : replacement) rebuilt.push_back(std::move(r));
        continue;
      }
    }
    rebuilt.push_back(std::move(s));
  }
  body.statements = std::move(rebuilt);
  return stats;
}

}  // namespace cgp
