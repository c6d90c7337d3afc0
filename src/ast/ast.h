// AST for the cgpipe Java dialect.
//
// Ownership: every node is uniquely owned by its parent via std::unique_ptr.
// Nodes carry a NodeKind for switch-based dispatch (the analysis passes walk
// statements in reverse order, which visitor double-dispatch makes awkward).
// Types are filled in by sema (Expr::type).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/type.h"
#include "support/source_location.h"

namespace cgp {

enum class NodeKind : std::uint8_t {
  // Expressions
  IntLit,
  FloatLit,
  BoolLit,
  StringLit,
  NullLit,
  VarRef,
  FieldAccess,
  Index,
  Unary,
  Binary,
  Assign,
  Call,
  NewObject,
  NewArray,
  RectdomainLit,
  Conditional,
  // Statements
  VarDeclStmt,
  ExprStmt,
  Block,
  IfStmt,
  WhileStmt,
  ForStmt,
  ForeachStmt,
  PipelinedLoopStmt,
  ReturnStmt,
  BreakStmt,
  ContinueStmt,
  // Declarations
  FieldDecl,
  Param,
  MethodDecl,
  ClassDecl,
  InterfaceDecl,
  Program,
};

struct Node {
  explicit Node(NodeKind k) : kind(k) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind;
  SourceLocation location;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr : Node {
  using Node::Node;
  TypePtr type;  // set by sema; null before type checking
};
using ExprPtr = std::unique_ptr<Expr>;

struct IntLit : Expr {
  IntLit() : Expr(NodeKind::IntLit) {}
  std::int64_t value = 0;
};

struct FloatLit : Expr {
  FloatLit() : Expr(NodeKind::FloatLit) {}
  double value = 0.0;
};

struct BoolLit : Expr {
  BoolLit() : Expr(NodeKind::BoolLit) {}
  bool value = false;
};

struct StringLit : Expr {
  StringLit() : Expr(NodeKind::StringLit) {}
  std::string value;
};

struct NullLit : Expr {
  NullLit() : Expr(NodeKind::NullLit) {}
};

struct VarRef : Expr {
  VarRef() : Expr(NodeKind::VarRef) {}
  std::string name;
  bool is_runtime_define = false;  // set by sema for runtime_define_* names
};

struct FieldAccess : Expr {
  FieldAccess() : Expr(NodeKind::FieldAccess) {}
  ExprPtr base;
  std::string field;
};

struct IndexExpr : Expr {
  IndexExpr() : Expr(NodeKind::Index) {}
  ExprPtr base;
  std::vector<ExprPtr> indices;  // one per dimension
};

enum class UnaryOp : std::uint8_t { Neg, Not, PreInc, PreDec, PostInc, PostDec };
const char* unary_op_spelling(UnaryOp op);

struct UnaryExpr : Expr {
  UnaryExpr() : Expr(NodeKind::Unary) {}
  UnaryOp op = UnaryOp::Neg;
  ExprPtr operand;
};

enum class BinaryOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Gt, Le, Ge,
  And, Or,
};
const char* binary_op_spelling(BinaryOp op);
bool is_comparison(BinaryOp op);
bool is_logical(BinaryOp op);

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(NodeKind::Binary) {}
  BinaryOp op = BinaryOp::Add;
  ExprPtr lhs;
  ExprPtr rhs;
};

enum class AssignOp : std::uint8_t { Assign, AddAssign, SubAssign, MulAssign, DivAssign };
const char* assign_op_spelling(AssignOp op);

struct AssignExpr : Expr {
  AssignExpr() : Expr(NodeKind::Assign) {}
  AssignOp op = AssignOp::Assign;
  ExprPtr target;  // VarRef, FieldAccess or IndexExpr
  ExprPtr value;
};

struct CallExpr : Expr {
  CallExpr() : Expr(NodeKind::Call) {}
  ExprPtr base;  // receiver; null for unqualified calls
  std::string callee;
  std::vector<ExprPtr> args;
  /// Resolved by sema: class that declares the method ("" for intrinsics).
  std::string resolved_class;
  bool is_intrinsic = false;  // math/builtin functions (sqrt, min, ...)
};

struct NewObjectExpr : Expr {
  NewObjectExpr() : Expr(NodeKind::NewObject) {}
  std::string class_name;
  std::vector<ExprPtr> args;
};

struct NewArrayExpr : Expr {
  NewArrayExpr() : Expr(NodeKind::NewArray) {}
  TypePtr element_type;
  ExprPtr length;
};

/// `[lo : hi]` (rank 1) or `[l0:h0, l1:h1, ...]`.
struct RectdomainLit : Expr {
  RectdomainLit() : Expr(NodeKind::RectdomainLit) {}
  struct Dim {
    ExprPtr lo;
    ExprPtr hi;
  };
  std::vector<Dim> dims;
};

struct ConditionalExpr : Expr {
  ConditionalExpr() : Expr(NodeKind::Conditional) {}
  ExprPtr cond;
  ExprPtr then_value;
  ExprPtr else_value;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Stmt : Node {
  using Node::Node;
};
using StmtPtr = std::unique_ptr<Stmt>;

struct VarDeclStmt : Stmt {
  VarDeclStmt() : Stmt(NodeKind::VarDeclStmt) {}
  TypePtr declared_type;
  std::string name;
  ExprPtr init;  // may be null
  bool is_final = false;
  bool is_runtime_define = false;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(NodeKind::ExprStmt) {}
  ExprPtr expr;
};

struct BlockStmt : Stmt {
  BlockStmt() : Stmt(NodeKind::Block) {}
  std::vector<StmtPtr> statements;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(NodeKind::IfStmt) {}
  ExprPtr cond;
  StmtPtr then_branch;
  StmtPtr else_branch;  // may be null
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(NodeKind::WhileStmt) {}
  ExprPtr cond;
  StmtPtr body;
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(NodeKind::ForStmt) {}
  StmtPtr init;  // VarDeclStmt or ExprStmt; may be null
  ExprPtr cond;  // may be null
  ExprPtr step;  // may be null
  StmtPtr body;
};

/// `foreach (i in dom) body` — iterations are order-independent; updates to
/// reduction variables are the only cross-iteration interaction (§3).
struct ForeachStmt : Stmt {
  ForeachStmt() : Stmt(NodeKind::ForeachStmt) {}
  std::string var;
  ExprPtr domain;
  StmtPtr body;
  /// Unique id assigned by sema; stable across loop fission clones' origin.
  int loop_id = -1;
};

/// `PipelinedLoop (p in [0 : runtime_define_num_packets - 1]) body` — the
/// packet loop the compiler decomposes into filters (§3, §4.1).
struct PipelinedLoopStmt : Stmt {
  PipelinedLoopStmt() : Stmt(NodeKind::PipelinedLoopStmt) {}
  std::string var;
  ExprPtr domain;
  StmtPtr body;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(NodeKind::ReturnStmt) {}
  ExprPtr value;  // may be null
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(NodeKind::BreakStmt) {}
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(NodeKind::ContinueStmt) {}
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct FieldDecl : Node {
  FieldDecl() : Node(NodeKind::FieldDecl) {}
  TypePtr type;
  std::string name;
};

struct Param : Node {
  Param() : Node(NodeKind::Param) {}
  TypePtr type;
  std::string name;
};

struct MethodDecl : Node {
  MethodDecl() : Node(NodeKind::MethodDecl) {}
  TypePtr return_type;
  std::string name;
  std::vector<std::unique_ptr<Param>> params;
  std::unique_ptr<BlockStmt> body;  // null for interface methods
  bool is_static = false;
};

struct ClassDecl : Node {
  ClassDecl() : Node(NodeKind::ClassDecl) {}
  std::string name;
  std::vector<std::string> implements;
  std::vector<std::unique_ptr<FieldDecl>> fields;
  std::vector<std::unique_ptr<MethodDecl>> methods;
};

struct InterfaceDecl : Node {
  InterfaceDecl() : Node(NodeKind::InterfaceDecl) {}
  std::string name;
  std::vector<std::unique_ptr<MethodDecl>> methods;  // signatures only
};

struct Program : Node {
  Program() : Node(NodeKind::Program) {}
  std::vector<std::unique_ptr<InterfaceDecl>> interfaces;
  std::vector<std::unique_ptr<ClassDecl>> classes;
};

// ---------------------------------------------------------------------------
// Utilities
// ---------------------------------------------------------------------------

/// Deep structural clone (used by loop fission and interprocedural inlining).
ExprPtr clone_expr(const Expr& e);
StmtPtr clone_stmt(const Stmt& s);

/// Pretty-prints a node back to dialect syntax (round-trip tested).
std::string to_source(const Node& node, int indent = 0);

/// Collects every variable name mentioned below a node, whatever the
/// position: read, store target, call receiver or argument, allocation
/// length, domain bound. Declared names and loop variables are not
/// mentions. Callers use it to prove a name untouched, so a missed
/// mention would be unsound, not just imprecise.
void collect_var_refs(const Expr& expr, std::set<std::string>& out);
void collect_var_refs(const Stmt& stmt, std::set<std::string>& out);

/// Whether execution can fall through the end of `stmt`, by a rule simpler
/// than Java's: a block can unless its last statement cannot, `return`
/// cannot, an `if` cannot only when it has an `else` and neither branch
/// can, and every other statement can. A non-void method whose body can is
/// missing a return (sema rejects it).
bool can_complete_normally(const Stmt& stmt);

}  // namespace cgp
