// Interpreter for the cgpipe dialect.
//
// Code is lowered once into a slot-resolved tree before it runs: names
// become frame indices, fields become precomputed indices, each method
// call binds to its lowered target and each intrinsic to its operation,
// runtime constants are folded, and arithmetic on operands whose
// representation sema fixes (int, float/double, boolean) runs unboxed,
// without variant dispatch. Locals and parameters of those types live in
// unboxed frame slots, and a method whose returns all carry one such
// representation hands its result back unboxed. Lowered nodes hold no
// mutable state. Every evaluation step still charges the op counter with the
// static cost model's weights, in the order of a plain AST walk, so
// measured op counts are bit-identical to such a walk's.
//
// Used three ways:
//   1. reference execution of whole programs (sequential oracle in tests);
//   2. the bodies of compiler-generated executable filters (§5);
//   3. measured operation counting for the pipeline simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "codegen/value.h"
#include "sema/registry.h"

namespace cgp {

/// Thrown on dialect-level runtime errors (null deref, bad index, ...).
class InterpError : public std::runtime_error {
 public:
  InterpError(SourceLocation loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": " + message), location(loc) {}
  SourceLocation location;
};

/// Named bindings with nested scopes, stored flat: every name owns one slot
/// for its whole life, so lowered code addresses it by index. A scope pushed
/// over a bound name saves the outer binding and pop() restores it.
class Env {
 public:
  void push() { marks_.push_back(trail_.size()); }
  void pop();

  /// Binds `name` in the innermost scope.
  void declare(const std::string& name, Value value) {
    declare_at(index(name), std::move(value));
  }
  /// Declares into the outermost (base) scope — used by generated filters
  /// to persist per-packet values needed by the post-loop code.
  void declare_global(const std::string& name, Value value);
  /// Assignment to an existing binding (innermost wins); throws if absent.
  void assign(const std::string& name, Value value);
  bool has(const std::string& name) const;
  Value& slot(const std::string& name);
  const Value& get(const std::string& name) const;

  /// Flat snapshot of the innermost bindings (outer scopes shadowed).
  std::map<std::string, Value> flatten() const;

  // ---- slot interface for lowered code ----------------------------------
  /// Slot of `name`, created unbound on first use. Stable for the Env's life.
  int index(const std::string& name);
  void declare_at(int slot, Value value);
  bool bound(int slot) const { return depth_[static_cast<std::size_t>(slot)] >= 0; }
  Value& at(int slot) { return values_[static_cast<std::size_t>(slot)]; }

 private:
  struct Saved {
    int slot;
    int depth;  // scope depth of the shadowed binding, -1 when unbound
    Value value;
  };
  const Value* find(const std::string& name) const;

  std::unordered_map<std::string, int> index_;
  std::vector<std::string> names_;
  std::vector<Value> values_;
  std::vector<int> depth_;  // scope depth of each slot's binding, -1 unbound
  std::vector<Saved> trail_;
  std::vector<std::size_t> marks_;
};

/// Statements or one expression lowered against one Env; see
/// Interpreter::lower.
class LoweredCode;

/// The chunks of one Interpreter::exec_foreach call: chunk k's iterations,
/// range by range, in the order they ran.
using ForeachCut = std::vector<std::vector<RectDomainVal>>;

/// Nulls `array`'s elements at the iterations of `cut`, chunk k on the
/// thread exec_foreach ran it on (chunk 0 on the calling thread, chunk k
/// on worker `first_worker + k - 1` of support::WorkerPool), and waits for
/// every chunk. Each thread thus frees into its own malloc arena what it
/// allocated there. Indices outside the array are skipped.
void release_elements(ArrayVal& array, const ForeachCut& cut, std::size_t first_worker);

/// Drops `binding`, the Env binding of a partitioned fill's array, whose
/// elements exec_foreach stored in `cut` from `first_worker` on. When the
/// binding is the array's only holder, its elements are released first
/// (release_elements) and true is returned; otherwise the array is left
/// to its other holders as it is.
bool release_fill(Value& binding, const ForeachCut& cut, std::size_t first_worker);

class Interpreter {
 public:
  Interpreter(const ClassRegistry& registry,
              std::map<std::string, std::int64_t> runtime_constants = {});
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // ---- lowering ----------------------------------------------------------
  /// Lowers `stmts` once for repeated runs against `env`: names the code
  /// declares at its top level or reads free bind to `env` slots, so the
  /// result runs only on this interpreter and that Env (exec throws
  /// std::logic_error otherwise). The AST must outlive the result.
  std::shared_ptr<const LoweredCode> lower(const std::vector<const Stmt*>& stmts,
                                           Env& env);
  std::shared_ptr<const LoweredCode> lower(const Expr& expr, Env& env);
  /// Runs lowered code in `env`'s current scope; returns the expression's
  /// value (null for statements). Control flow leaving a top-level
  /// statement (break, return) moves on to the next one.
  Value exec(const LoweredCode& code, Env& env);

  // ---- one-shot execution (lowers, then runs) ----------------------------
  void exec_stmts(const std::vector<const Stmt*>& stmts, Env& env);
  void exec_stmt(const Stmt& stmt, Env& env);
  Value eval(const Expr& expr, Env& env);
  /// Runs the iterations of a rectdomain `foreach` whose index lies in
  /// `ranges`: each range is clipped to the loop's domain (empty or
  /// inverted ones run nothing), and the iterations left, in the order
  /// given, are cut into min(chunks, iterations) contiguous chunks of
  /// near-equal length. Chunk 0 runs on the calling thread, chunk k on
  /// worker `first_worker + k - 1` of support::WorkerPool, each on its
  /// own Machine and lowered copy of the loop; this call waits for all
  /// of them, adds their ops to its own and rethrows the error of the
  /// lowest failing chunk. Iterations charge a whole foreach's
  /// per-iteration ops, so ranges that cover the domain once charge
  /// exactly the whole loop's ops, for any chunk count. Only for loops
  /// whose iterations are independent and touch the Env only to read it
  /// (the partitioned source setup, DESIGN.md §6.13). Returns the cut it
  /// ran: chunk k's iterations, range by range (empty when none ran).
  ForeachCut exec_foreach(const ForeachStmt& loop, Env& env,
                          const std::vector<RectDomainVal>& ranges, int chunks = 1,
                          std::size_t first_worker = 0);

  /// Calls Class::method with positional args; returns the return value.
  Value call_method(const std::string& class_name, const std::string& method,
                    const ObjectRef& receiver, std::vector<Value> args);

  /// Allocates an object and runs its constructor.
  ObjectRef construct(const std::string& class_name, std::vector<Value> args);

  /// Runs a whole program: executes the body of `Class::method` (typically
  /// main) with a fresh environment; returns the final environment.
  Env run(const std::string& class_name, const std::string& method);

  // ---- instrumentation ---------------------------------------------------
  double ops() const;
  void reset_ops();
  /// Charges externally-incurred work (e.g. buffer packing) to this
  /// instance's op counter.
  void add_external_ops(double n);

  /// Hook intercepting PipelinedLoop execution; when unset the loop runs
  /// sequentially (the reference semantics). Receives the loop and the
  /// current env; return true if handled.
  using PipelinedHook =
      std::function<bool(const PipelinedLoopStmt&, Env&)>;
  void set_pipelined_hook(PipelinedHook hook);

  /// Default value for a declared type (0 / false / null / empty domain).
  static Value default_value(const TypePtr& type);
  /// Default values of `cls`'s fields, in field-index order.
  static std::vector<Value> default_fields(const ClassInfo& cls);

  struct Machine;  // execution state shared by all lowered code (interp.cpp)

 private:
  std::unique_ptr<Machine> m_;
};

}  // namespace cgp
