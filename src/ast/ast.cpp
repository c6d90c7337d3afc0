#include "ast/ast.h"

#include <cassert>
#include <sstream>

namespace cgp {

const char* unary_op_spelling(UnaryOp op) {
  switch (op) {
    case UnaryOp::Neg: return "-";
    case UnaryOp::Not: return "!";
    case UnaryOp::PreInc:
    case UnaryOp::PostInc: return "++";
    case UnaryOp::PreDec:
    case UnaryOp::PostDec: return "--";
  }
  return "?";
}

const char* binary_op_spelling(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::And: return "&&";
    case BinaryOp::Or: return "||";
  }
  return "?";
}

bool is_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge: return true;
    default: return false;
  }
}

bool is_logical(BinaryOp op) {
  return op == BinaryOp::And || op == BinaryOp::Or;
}

const char* assign_op_spelling(AssignOp op) {
  switch (op) {
    case AssignOp::Assign: return "=";
    case AssignOp::AddAssign: return "+=";
    case AssignOp::SubAssign: return "-=";
    case AssignOp::MulAssign: return "*=";
    case AssignOp::DivAssign: return "/=";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Clone
// ---------------------------------------------------------------------------

namespace {

template <typename T>
std::unique_ptr<T> clone_as(const Expr& e) {
  auto owned = clone_expr(e);
  assert(owned);
  T* raw = static_cast<T*>(owned.release());
  return std::unique_ptr<T>(raw);
}

}  // namespace

ExprPtr clone_expr(const Expr& e) {
  ExprPtr out;
  switch (e.kind) {
    case NodeKind::IntLit: {
      auto n = std::make_unique<IntLit>();
      n->value = static_cast<const IntLit&>(e).value;
      out = std::move(n);
      break;
    }
    case NodeKind::FloatLit: {
      auto n = std::make_unique<FloatLit>();
      n->value = static_cast<const FloatLit&>(e).value;
      out = std::move(n);
      break;
    }
    case NodeKind::BoolLit: {
      auto n = std::make_unique<BoolLit>();
      n->value = static_cast<const BoolLit&>(e).value;
      out = std::move(n);
      break;
    }
    case NodeKind::StringLit: {
      auto n = std::make_unique<StringLit>();
      n->value = static_cast<const StringLit&>(e).value;
      out = std::move(n);
      break;
    }
    case NodeKind::NullLit: {
      out = std::make_unique<NullLit>();
      break;
    }
    case NodeKind::VarRef: {
      const auto& src = static_cast<const VarRef&>(e);
      auto n = std::make_unique<VarRef>();
      n->name = src.name;
      n->is_runtime_define = src.is_runtime_define;
      out = std::move(n);
      break;
    }
    case NodeKind::FieldAccess: {
      const auto& src = static_cast<const FieldAccess&>(e);
      auto n = std::make_unique<FieldAccess>();
      n->base = clone_expr(*src.base);
      n->field = src.field;
      out = std::move(n);
      break;
    }
    case NodeKind::Index: {
      const auto& src = static_cast<const IndexExpr&>(e);
      auto n = std::make_unique<IndexExpr>();
      n->base = clone_expr(*src.base);
      for (const ExprPtr& idx : src.indices) n->indices.push_back(clone_expr(*idx));
      out = std::move(n);
      break;
    }
    case NodeKind::Unary: {
      const auto& src = static_cast<const UnaryExpr&>(e);
      auto n = std::make_unique<UnaryExpr>();
      n->op = src.op;
      n->operand = clone_expr(*src.operand);
      out = std::move(n);
      break;
    }
    case NodeKind::Binary: {
      const auto& src = static_cast<const BinaryExpr&>(e);
      auto n = std::make_unique<BinaryExpr>();
      n->op = src.op;
      n->lhs = clone_expr(*src.lhs);
      n->rhs = clone_expr(*src.rhs);
      out = std::move(n);
      break;
    }
    case NodeKind::Assign: {
      const auto& src = static_cast<const AssignExpr&>(e);
      auto n = std::make_unique<AssignExpr>();
      n->op = src.op;
      n->target = clone_expr(*src.target);
      n->value = clone_expr(*src.value);
      out = std::move(n);
      break;
    }
    case NodeKind::Call: {
      const auto& src = static_cast<const CallExpr&>(e);
      auto n = std::make_unique<CallExpr>();
      if (src.base) n->base = clone_expr(*src.base);
      n->callee = src.callee;
      n->resolved_class = src.resolved_class;
      n->is_intrinsic = src.is_intrinsic;
      for (const ExprPtr& a : src.args) n->args.push_back(clone_expr(*a));
      out = std::move(n);
      break;
    }
    case NodeKind::NewObject: {
      const auto& src = static_cast<const NewObjectExpr&>(e);
      auto n = std::make_unique<NewObjectExpr>();
      n->class_name = src.class_name;
      for (const ExprPtr& a : src.args) n->args.push_back(clone_expr(*a));
      out = std::move(n);
      break;
    }
    case NodeKind::NewArray: {
      const auto& src = static_cast<const NewArrayExpr&>(e);
      auto n = std::make_unique<NewArrayExpr>();
      n->element_type = src.element_type;
      n->length = clone_expr(*src.length);
      out = std::move(n);
      break;
    }
    case NodeKind::RectdomainLit: {
      const auto& src = static_cast<const RectdomainLit&>(e);
      auto n = std::make_unique<RectdomainLit>();
      for (const auto& d : src.dims) {
        RectdomainLit::Dim dim;
        dim.lo = clone_expr(*d.lo);
        dim.hi = clone_expr(*d.hi);
        n->dims.push_back(std::move(dim));
      }
      out = std::move(n);
      break;
    }
    case NodeKind::Conditional: {
      const auto& src = static_cast<const ConditionalExpr&>(e);
      auto n = std::make_unique<ConditionalExpr>();
      n->cond = clone_expr(*src.cond);
      n->then_value = clone_expr(*src.then_value);
      n->else_value = clone_expr(*src.else_value);
      out = std::move(n);
      break;
    }
    default:
      assert(false && "clone_expr: not an expression");
      return nullptr;
  }
  out->location = e.location;
  out->type = e.type;
  return out;
}

StmtPtr clone_stmt(const Stmt& s) {
  StmtPtr out;
  switch (s.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& src = static_cast<const VarDeclStmt&>(s);
      auto n = std::make_unique<VarDeclStmt>();
      n->declared_type = src.declared_type;
      n->name = src.name;
      if (src.init) n->init = clone_expr(*src.init);
      n->is_final = src.is_final;
      n->is_runtime_define = src.is_runtime_define;
      out = std::move(n);
      break;
    }
    case NodeKind::ExprStmt: {
      const auto& src = static_cast<const ExprStmt&>(s);
      auto n = std::make_unique<ExprStmt>();
      n->expr = clone_expr(*src.expr);
      out = std::move(n);
      break;
    }
    case NodeKind::Block: {
      const auto& src = static_cast<const BlockStmt&>(s);
      auto n = std::make_unique<BlockStmt>();
      for (const StmtPtr& st : src.statements)
        n->statements.push_back(clone_stmt(*st));
      out = std::move(n);
      break;
    }
    case NodeKind::IfStmt: {
      const auto& src = static_cast<const IfStmt&>(s);
      auto n = std::make_unique<IfStmt>();
      n->cond = clone_expr(*src.cond);
      n->then_branch = clone_stmt(*src.then_branch);
      if (src.else_branch) n->else_branch = clone_stmt(*src.else_branch);
      out = std::move(n);
      break;
    }
    case NodeKind::WhileStmt: {
      const auto& src = static_cast<const WhileStmt&>(s);
      auto n = std::make_unique<WhileStmt>();
      n->cond = clone_expr(*src.cond);
      n->body = clone_stmt(*src.body);
      out = std::move(n);
      break;
    }
    case NodeKind::ForStmt: {
      const auto& src = static_cast<const ForStmt&>(s);
      auto n = std::make_unique<ForStmt>();
      if (src.init) n->init = clone_stmt(*src.init);
      if (src.cond) n->cond = clone_expr(*src.cond);
      if (src.step) n->step = clone_expr(*src.step);
      n->body = clone_stmt(*src.body);
      out = std::move(n);
      break;
    }
    case NodeKind::ForeachStmt: {
      const auto& src = static_cast<const ForeachStmt&>(s);
      auto n = std::make_unique<ForeachStmt>();
      n->var = src.var;
      n->domain = clone_expr(*src.domain);
      n->body = clone_stmt(*src.body);
      n->loop_id = src.loop_id;
      out = std::move(n);
      break;
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& src = static_cast<const PipelinedLoopStmt&>(s);
      auto n = std::make_unique<PipelinedLoopStmt>();
      n->var = src.var;
      n->domain = clone_expr(*src.domain);
      n->body = clone_stmt(*src.body);
      out = std::move(n);
      break;
    }
    case NodeKind::ReturnStmt: {
      const auto& src = static_cast<const ReturnStmt&>(s);
      auto n = std::make_unique<ReturnStmt>();
      if (src.value) n->value = clone_expr(*src.value);
      out = std::move(n);
      break;
    }
    case NodeKind::BreakStmt: {
      out = std::make_unique<BreakStmt>();
      break;
    }
    case NodeKind::ContinueStmt: {
      out = std::make_unique<ContinueStmt>();
      break;
    }
    default:
      assert(false && "clone_stmt: not a statement");
      return nullptr;
  }
  out->location = s.location;
  return out;
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

namespace {

class Printer {
 public:
  std::string print(const Node& node, int indent) {
    indent_ = indent;
    dispatch(node);
    return std::move(out_).str();
  }

 private:
  void line() { out_ << "\n" << std::string(static_cast<std::size_t>(indent_) * 2, ' '); }

  void dispatch(const Node& node) {
    switch (node.kind) {
      case NodeKind::Program: print_program(static_cast<const Program&>(node)); break;
      case NodeKind::ClassDecl: print_class(static_cast<const ClassDecl&>(node)); break;
      case NodeKind::InterfaceDecl:
        print_interface(static_cast<const InterfaceDecl&>(node));
        break;
      case NodeKind::MethodDecl: print_method(static_cast<const MethodDecl&>(node)); break;
      case NodeKind::FieldDecl: {
        const auto& f = static_cast<const FieldDecl&>(node);
        out_ << f.type->to_string() << " " << f.name << ";";
        break;
      }
      default:
        if (const auto* e = dynamic_cast<const Expr*>(&node)) {
          print_expr(*e);
        } else {
          print_stmt(static_cast<const Stmt&>(node));
        }
    }
  }

  void print_program(const Program& p) {
    for (const auto& i : p.interfaces) {
      print_interface(*i);
      out_ << "\n";
    }
    for (const auto& c : p.classes) {
      print_class(*c);
      out_ << "\n";
    }
  }

  void print_interface(const InterfaceDecl& i) {
    out_ << "interface " << i.name << " {";
    ++indent_;
    for (const auto& m : i.methods) {
      line();
      print_method_signature(*m);
      out_ << ";";
    }
    --indent_;
    line();
    out_ << "}";
  }

  void print_class(const ClassDecl& c) {
    out_ << "class " << c.name;
    if (!c.implements.empty()) {
      out_ << " implements ";
      for (std::size_t i = 0; i < c.implements.size(); ++i) {
        if (i) out_ << ", ";
        out_ << c.implements[i];
      }
    }
    out_ << " {";
    ++indent_;
    for (const auto& f : c.fields) {
      line();
      out_ << f->type->to_string() << " " << f->name << ";";
    }
    for (const auto& m : c.methods) {
      line();
      print_method(*m);
    }
    --indent_;
    line();
    out_ << "}";
  }

  void print_method_signature(const MethodDecl& m) {
    if (m.is_static) out_ << "static ";
    out_ << m.return_type->to_string() << " " << m.name << "(";
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      if (i) out_ << ", ";
      out_ << m.params[i]->type->to_string() << " " << m.params[i]->name;
    }
    out_ << ")";
  }

  void print_method(const MethodDecl& m) {
    print_method_signature(m);
    if (!m.body) {
      out_ << ";";
      return;
    }
    out_ << " ";
    print_stmt(*m.body);
  }

  void print_stmt(const Stmt& s) {
    switch (s.kind) {
      case NodeKind::VarDeclStmt: {
        const auto& v = static_cast<const VarDeclStmt&>(s);
        if (v.is_runtime_define) out_ << "runtime_define ";
        if (v.is_final) out_ << "final ";
        out_ << (v.declared_type ? v.declared_type->to_string() : "<?>") << " "
             << v.name;
        if (v.init) {
          out_ << " = ";
          print_expr(*v.init);
        }
        out_ << ";";
        break;
      }
      case NodeKind::ExprStmt:
        print_expr(*static_cast<const ExprStmt&>(s).expr);
        out_ << ";";
        break;
      case NodeKind::Block: {
        const auto& b = static_cast<const BlockStmt&>(s);
        out_ << "{";
        ++indent_;
        for (const StmtPtr& st : b.statements) {
          line();
          print_stmt(*st);
        }
        --indent_;
        line();
        out_ << "}";
        break;
      }
      case NodeKind::IfStmt: {
        const auto& i = static_cast<const IfStmt&>(s);
        out_ << "if (";
        print_expr(*i.cond);
        out_ << ") ";
        print_stmt(*i.then_branch);
        if (i.else_branch) {
          out_ << " else ";
          print_stmt(*i.else_branch);
        }
        break;
      }
      case NodeKind::WhileStmt: {
        const auto& w = static_cast<const WhileStmt&>(s);
        out_ << "while (";
        print_expr(*w.cond);
        out_ << ") ";
        print_stmt(*w.body);
        break;
      }
      case NodeKind::ForStmt: {
        const auto& f = static_cast<const ForStmt&>(s);
        out_ << "for (";
        if (f.init) {
          // Re-print the init statement inline without trailing newline.
          std::string init = Printer().print(*f.init, 0);
          out_ << init;
        } else {
          out_ << ";";
        }
        out_ << " ";
        if (f.cond) print_expr(*f.cond);
        out_ << "; ";
        if (f.step) print_expr(*f.step);
        out_ << ") ";
        print_stmt(*f.body);
        break;
      }
      case NodeKind::ForeachStmt: {
        const auto& f = static_cast<const ForeachStmt&>(s);
        out_ << "foreach (" << f.var << " in ";
        print_expr(*f.domain);
        out_ << ") ";
        print_stmt(*f.body);
        break;
      }
      case NodeKind::PipelinedLoopStmt: {
        const auto& p = static_cast<const PipelinedLoopStmt&>(s);
        out_ << "PipelinedLoop (" << p.var << " in ";
        print_expr(*p.domain);
        out_ << ") ";
        print_stmt(*p.body);
        break;
      }
      case NodeKind::ReturnStmt: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        out_ << "return";
        if (r.value) {
          out_ << " ";
          print_expr(*r.value);
        }
        out_ << ";";
        break;
      }
      case NodeKind::BreakStmt: out_ << "break;"; break;
      case NodeKind::ContinueStmt: out_ << "continue;"; break;
      default: out_ << "<?stmt>"; break;
    }
  }

  void print_expr(const Expr& e) {
    switch (e.kind) {
      case NodeKind::IntLit:
        out_ << static_cast<const IntLit&>(e).value;
        break;
      case NodeKind::FloatLit: {
        std::ostringstream tmp;
        tmp << static_cast<const FloatLit&>(e).value;
        std::string text = tmp.str();
        out_ << text;
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos)
          out_ << ".0";
        break;
      }
      case NodeKind::BoolLit:
        out_ << (static_cast<const BoolLit&>(e).value ? "true" : "false");
        break;
      case NodeKind::StringLit:
        out_ << '"' << static_cast<const StringLit&>(e).value << '"';
        break;
      case NodeKind::NullLit: out_ << "null"; break;
      case NodeKind::VarRef: out_ << static_cast<const VarRef&>(e).name; break;
      case NodeKind::FieldAccess: {
        const auto& f = static_cast<const FieldAccess&>(e);
        print_expr(*f.base);
        out_ << "." << f.field;
        break;
      }
      case NodeKind::Index: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        print_expr(*ix.base);
        out_ << "[";
        for (std::size_t i = 0; i < ix.indices.size(); ++i) {
          if (i) out_ << ", ";
          print_expr(*ix.indices[i]);
        }
        out_ << "]";
        break;
      }
      case NodeKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        if (u.op == UnaryOp::PostInc || u.op == UnaryOp::PostDec) {
          print_expr(*u.operand);
          out_ << unary_op_spelling(u.op);
        } else {
          out_ << unary_op_spelling(u.op);
          print_expr(*u.operand);
        }
        break;
      }
      case NodeKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        out_ << "(";
        print_expr(*b.lhs);
        out_ << " " << binary_op_spelling(b.op) << " ";
        print_expr(*b.rhs);
        out_ << ")";
        break;
      }
      case NodeKind::Assign: {
        const auto& a = static_cast<const AssignExpr&>(e);
        print_expr(*a.target);
        out_ << " " << assign_op_spelling(a.op) << " ";
        print_expr(*a.value);
        break;
      }
      case NodeKind::Call: {
        const auto& c = static_cast<const CallExpr&>(e);
        if (c.base) {
          print_expr(*c.base);
          out_ << ".";
        }
        out_ << c.callee << "(";
        for (std::size_t i = 0; i < c.args.size(); ++i) {
          if (i) out_ << ", ";
          print_expr(*c.args[i]);
        }
        out_ << ")";
        break;
      }
      case NodeKind::NewObject: {
        const auto& n = static_cast<const NewObjectExpr&>(e);
        out_ << "new " << n.class_name << "(";
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i) out_ << ", ";
          print_expr(*n.args[i]);
        }
        out_ << ")";
        break;
      }
      case NodeKind::NewArray: {
        const auto& n = static_cast<const NewArrayExpr&>(e);
        out_ << "new " << n.element_type->to_string() << "[";
        print_expr(*n.length);
        out_ << "]";
        break;
      }
      case NodeKind::RectdomainLit: {
        const auto& r = static_cast<const RectdomainLit&>(e);
        out_ << "[";
        for (std::size_t i = 0; i < r.dims.size(); ++i) {
          if (i) out_ << ", ";
          print_expr(*r.dims[i].lo);
          out_ << " : ";
          print_expr(*r.dims[i].hi);
        }
        out_ << "]";
        break;
      }
      case NodeKind::Conditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        out_ << "(";
        print_expr(*c.cond);
        out_ << " ? ";
        print_expr(*c.then_value);
        out_ << " : ";
        print_expr(*c.else_value);
        out_ << ")";
        break;
      }
      default: out_ << "<?expr>"; break;
    }
  }

  std::ostringstream out_;
  int indent_ = 0;
};

}  // namespace

std::string to_source(const Node& node, int indent) {
  return Printer().print(node, indent);
}

void collect_var_refs(const Expr& expr, std::set<std::string>& out) {
  switch (expr.kind) {
    case NodeKind::VarRef:
      out.insert(static_cast<const VarRef&>(expr).name);
      return;
    case NodeKind::FieldAccess:
      collect_var_refs(*static_cast<const FieldAccess&>(expr).base, out);
      return;
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      collect_var_refs(*index.base, out);
      for (const ExprPtr& i : index.indices) collect_var_refs(*i, out);
      return;
    }
    case NodeKind::Unary:
      collect_var_refs(*static_cast<const UnaryExpr&>(expr).operand, out);
      return;
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      collect_var_refs(*binary.lhs, out);
      collect_var_refs(*binary.rhs, out);
      return;
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      collect_var_refs(*assign.target, out);
      collect_var_refs(*assign.value, out);
      return;
    }
    case NodeKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      if (call.base) collect_var_refs(*call.base, out);
      for (const ExprPtr& a : call.args) collect_var_refs(*a, out);
      return;
    }
    case NodeKind::NewObject: {
      for (const ExprPtr& a :
           static_cast<const NewObjectExpr&>(expr).args)
        collect_var_refs(*a, out);
      return;
    }
    case NodeKind::NewArray:
      collect_var_refs(*static_cast<const NewArrayExpr&>(expr).length, out);
      return;
    case NodeKind::RectdomainLit: {
      for (const auto& dim : static_cast<const RectdomainLit&>(expr).dims) {
        collect_var_refs(*dim.lo, out);
        collect_var_refs(*dim.hi, out);
      }
      return;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      collect_var_refs(*cond.cond, out);
      collect_var_refs(*cond.then_value, out);
      collect_var_refs(*cond.else_value, out);
      return;
    }
    default:
      return;
  }
}

void collect_var_refs(const Stmt& stmt, std::set<std::string>& out) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) collect_var_refs(*decl.init, out);
      return;
    }
    case NodeKind::ExprStmt:
      collect_var_refs(*static_cast<const ExprStmt&>(stmt).expr, out);
      return;
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        collect_var_refs(*s, out);
      return;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      collect_var_refs(*if_stmt.cond, out);
      collect_var_refs(*if_stmt.then_branch, out);
      if (if_stmt.else_branch) collect_var_refs(*if_stmt.else_branch, out);
      return;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      collect_var_refs(*loop.cond, out);
      collect_var_refs(*loop.body, out);
      return;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) collect_var_refs(*loop.init, out);
      if (loop.cond) collect_var_refs(*loop.cond, out);
      if (loop.step) collect_var_refs(*loop.step, out);
      collect_var_refs(*loop.body, out);
      return;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      collect_var_refs(*loop.domain, out);
      collect_var_refs(*loop.body, out);
      return;
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) collect_var_refs(*ret.value, out);
      return;
    }
    default:
      return;
  }
}

bool can_complete_normally(const Stmt& stmt) {
  switch (stmt.kind) {
    case NodeKind::Block: {
      const auto& block = static_cast<const BlockStmt&>(stmt);
      return block.statements.empty() ||
             can_complete_normally(*block.statements.back());
    }
    case NodeKind::ReturnStmt:
      return false;
    case NodeKind::IfStmt: {
      const auto& node = static_cast<const IfStmt&>(stmt);
      return !node.else_branch || can_complete_normally(*node.then_branch) ||
             can_complete_normally(*node.else_branch);
    }
    default:
      return true;
  }
}

}  // namespace cgp
