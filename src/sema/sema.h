// Semantic analysis for the cgpipe dialect: symbol resolution, type
// checking, reduction-variable detection, foreach numbering.
//
// On success every Expr in the program carries a resolved TypePtr and every
// CallExpr knows its defining class (or is marked intrinsic). Errors are
// reported through the DiagnosticEngine; analysis continues with Error types
// so multiple problems surface per run.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "sema/registry.h"
#include "support/diagnostics.h"

namespace cgp {

struct SemaResult {
  ClassRegistry registry;
  /// Names of runtime_define_* constants referenced anywhere.
  std::vector<std::string> runtime_constants;
  /// Total number of foreach loops (ids are 0..count-1).
  int foreach_count = 0;
  bool ok = false;
};

class Sema {
 public:
  Sema(Program& program, DiagnosticEngine& diags);

  SemaResult run();

  /// Intrinsic (built-in) function names callable without a receiver.
  static bool is_intrinsic(const std::string& name);

 private:
  struct Scope {
    std::map<std::string, TypePtr> vars;
  };

  void collect_declarations();
  void check_class(ClassDecl& cls);
  void check_method(const ClassInfo& cls, MethodDecl& method);
  void check_stmt(Stmt& stmt);
  /// Checks the body of a while, for or foreach: a break or continue is
  /// accepted only inside one of those, in the same method body.
  void check_loop_body(Stmt& body);
  TypePtr check_expr(Expr& expr);
  TypePtr check_var_ref(VarRef& ref);
  TypePtr check_call(CallExpr& call);
  TypePtr check_intrinsic_call(CallExpr& call,
                               const std::vector<TypePtr>& arg_types);
  TypePtr lookup(const std::string& name) const;
  void declare(const std::string& name, TypePtr type, SourceLocation loc);
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  bool assignable(const TypePtr& target, const TypePtr& value) const;
  TypePtr resolve_declared_type(const TypePtr& type, SourceLocation loc);
  /// Validates the PipelinedLoop body restrictions from §4.1 (non-foreach
  /// loops must not contain candidate boundaries; checked later) and §3
  /// reduction-update rules.
  void check_reduction_discipline(Stmt& stmt, bool in_foreach);

  Program& program_;
  DiagnosticEngine& diags_;
  ClassRegistry registry_;
  std::vector<Scope> scopes_;
  const ClassInfo* current_class_ = nullptr;
  const MethodDecl* current_method_ = nullptr;
  std::map<std::string, bool> runtime_constants_;
  int next_foreach_id_ = 0;
  int pipelined_loop_count_ = 0;
  int loop_depth_ = 0;  // enclosing loops a break or continue may leave
};

}  // namespace cgp
