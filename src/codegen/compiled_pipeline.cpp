#include "codegen/compiled_pipeline.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

#include "codegen/serialize.h"

namespace cgp {

namespace {

enum class BufferKind : std::uint8_t { Packet = 0, Replica = 1 };

/// Collects base names of variables written (assigned / inc-dec'd,
/// directly or as an index/field store target) below a statement.
void collect_written_bases(const Expr& expr, std::set<std::string>& out) {
  switch (expr.kind) {
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      const Expr* target = assign.target.get();
      while (target) {
        if (target->kind == NodeKind::VarRef) {
          out.insert(static_cast<const VarRef*>(target)->name);
          break;
        }
        if (target->kind == NodeKind::FieldAccess) {
          target = static_cast<const FieldAccess*>(target)->base.get();
        } else if (target->kind == NodeKind::Index) {
          target = static_cast<const IndexExpr*>(target)->base.get();
        } else {
          break;
        }
      }
      collect_written_bases(*assign.value, out);
      break;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if ((unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec ||
           unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec) &&
          unary.operand->kind == NodeKind::VarRef) {
        out.insert(static_cast<const VarRef&>(*unary.operand).name);
      }
      collect_written_bases(*unary.operand, out);
      break;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      collect_written_bases(*binary.lhs, out);
      collect_written_bases(*binary.rhs, out);
      break;
    }
    case NodeKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      if (call.base) collect_written_bases(*call.base, out);
      for (const ExprPtr& a : call.args) collect_written_bases(*a, out);
      break;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      collect_written_bases(*cond.cond, out);
      collect_written_bases(*cond.then_value, out);
      collect_written_bases(*cond.else_value, out);
      break;
    }
    default:
      break;
  }
}

void collect_written_bases(const Stmt& stmt, std::set<std::string>& out) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) collect_written_bases(*decl.init, out);
      break;
    }
    case NodeKind::ExprStmt:
      collect_written_bases(*static_cast<const ExprStmt&>(stmt).expr, out);
      break;
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        collect_written_bases(*s, out);
      break;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      collect_written_bases(*if_stmt.cond, out);
      collect_written_bases(*if_stmt.then_branch, out);
      if (if_stmt.else_branch) collect_written_bases(*if_stmt.else_branch, out);
      break;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      collect_written_bases(*loop.cond, out);
      collect_written_bases(*loop.body, out);
      break;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) collect_written_bases(*loop.init, out);
      if (loop.cond) collect_written_bases(*loop.cond, out);
      if (loop.step) collect_written_bases(*loop.step, out);
      collect_written_bases(*loop.body, out);
      break;
    }
    case NodeKind::ForeachStmt:
      collect_written_bases(*static_cast<const ForeachStmt&>(stmt).body, out);
      break;
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) collect_written_bases(*ret.value, out);
      break;
    }
    default:
      break;
  }
}

/// True for expressions free of calls/allocations/writes.
bool scalar_pure(const Expr& expr) {
  switch (expr.kind) {
    case NodeKind::Call:
    case NodeKind::NewObject:
    case NodeKind::NewArray:
    case NodeKind::Assign:
      return false;
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op != UnaryOp::Neg && unary.op != UnaryOp::Not) return false;
      return scalar_pure(*unary.operand);
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return scalar_pure(*binary.lhs) && scalar_pure(*binary.rhs);
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      return scalar_pure(*cond.cond) && scalar_pure(*cond.then_value) &&
             scalar_pure(*cond.else_value);
    }
    case NodeKind::FieldAccess:
    case NodeKind::Index:
      return false;  // may touch data unavailable off the source stage
    default:
      return true;  // literals, VarRef
  }
}

/// Resolves path "a.b.c" against an Env (for len() symbols).
std::optional<Value> lookup_path(Env& env, const ClassRegistry& registry,
                                 const std::string& path) {
  std::string base;
  std::vector<std::string> steps;
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
  if (!env.has(base)) return std::nullopt;
  Value current = env.get(base);
  for (const std::string& step : steps) {
    auto* obj = std::get_if<ObjectRef>(&current);
    if (!obj || !*obj) return std::nullopt;
    const ClassInfo* cls = registry.find((*obj)->class_name());
    const FieldInfo* field = cls ? cls->find_field(step) : nullptr;
    if (!field) return std::nullopt;
    current = (*obj)->field(static_cast<std::size_t>(field->index));
  }
  return current;
}

/// Resolves section symbols for one packet against `env`: the packet
/// variable, len() of arrays, integral bindings and dotted field paths.
SymbolResolver packet_resolver(const PipelineModel& model, Env& env,
                               std::int64_t packet) {
  return [&model, &env, packet](
             const std::string& sym) -> std::optional<std::int64_t> {
    if (sym == model.loop_var) return packet;
    if (sym.rfind("len(", 0) == 0 && sym.back() == ')') {
      std::string path = sym.substr(4, sym.size() - 5);
      std::optional<Value> v = lookup_path(env, model.registry, path);
      if (!v) return std::nullopt;
      if (auto* arr = std::get_if<ArrayRef>(&*v)) {
        if (!*arr) return std::nullopt;
        return (*arr)->base_index +
               static_cast<std::int64_t>((*arr)->elems.size());
      }
      return std::nullopt;
    }
    if (env.has(sym)) {
      const Value& v = env.get(sym);
      if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
      return std::nullopt;
    }
    // Dotted symbols are field paths (e.g. "zbuf.w").
    if (sym.find('.') != std::string::npos) {
      std::optional<Value> v = lookup_path(env, model.registry, sym);
      if (v) {
        if (const auto* i = std::get_if<std::int64_t>(&*v)) return *i;
      }
      return std::nullopt;
    }
    return std::nullopt;
  };
}

/// Round-robin ownership of packets among a stage's transparent copies.
/// The source emits in this order, and each copy's share of a partitioned
/// setup follows it.
bool owns_packet(std::int64_t packet, std::int64_t first, int copy_index,
                 int copy_count) {
  return (packet - first) % copy_count == copy_index;
}

}  // namespace

std::vector<double> PipelineRunResult::mean_stage_ops() const {
  std::vector<double> out(stage_ops.size(), 0.0);
  if (packets <= 0) return out;
  for (std::size_t i = 0; i < stage_ops.size(); ++i)
    out[i] = stage_ops[i] / static_cast<double>(packets);
  return out;
}

std::vector<double> PipelineRunResult::mean_link_bytes() const {
  std::vector<double> out(link_packet_bytes.size(), 0.0);
  if (packets <= 0) return out;
  for (std::size_t i = 0; i < link_packet_bytes.size(); ++i)
    out[i] = static_cast<double>(link_packet_bytes[i]) /
             static_cast<double>(packets);
  return out;
}

void PipelineRunResult::adopt_trace(support::PipelineTrace trace) {
  const std::int64_t source_packets = packets;
  static_cast<support::PipelineTrace&>(*this) = std::move(trace);
  packets = source_packets;
}

std::optional<std::vector<RectDomainVal>> source_fill_ranges(
    const PipelineModel& model, const SetupFill& fill, Interpreter& interp,
    Env& env, int copy_index, int copy_count) {
  const Value domain = interp.eval(*model.loop->domain, env);
  const auto* dom = std::get_if<DomainRef>(&domain);
  if (!dom || !*dom) return std::nullopt;
  const RectDomainVal* packets = &(*dom)->value;
  std::vector<RectDomainVal> ranges;
  for (std::int64_t p = packets->lo; p <= packets->hi; ++p) {
    if (!owns_packet(p, packets->lo, copy_index, copy_count)) continue;
    const SymbolResolver resolve = packet_resolver(model, env, p);
    for (const RectSection& section : fill.sections) {
      const auto range = eval_section(section, resolve);
      if (!range) return std::nullopt;
      if (range->first <= range->second)
        ranges.push_back(RectDomainVal{range->first, range->second});
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const RectDomainVal& a, const RectDomainVal& b) {
              return a.lo < b.lo;
            });
  std::vector<RectDomainVal> merged;
  for (const RectDomainVal& range : ranges) {
    if (!merged.empty() && range.lo <= merged.back().hi + 1)
      merged.back().hi = std::max(merged.back().hi, range.hi);
    else
      merged.push_back(range);
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

struct PipelineCompiler::Shared {
  std::mutex mutex;
  PipelineRunResult result;
  const ClassRegistry* registry = nullptr;
};

// ---------------------------------------------------------------------------
// Stage filter
// ---------------------------------------------------------------------------

namespace {

class StageFilter : public dc::Filter {
 public:
  StageFilter(const PipelineModel& model, const StagePlan& plan,
              const std::map<std::string, std::int64_t>& runtime_constants,
              const PackCost& pack_cost, int n_stages,
              std::shared_ptr<PipelineCompiler::Shared> shared)
      : model_(model),
        plan_(plan),
        pack_cost_(pack_cost),
        n_stages_(n_stages),
        shared_(std::move(shared)),
        interp_(model.registry, runtime_constants),
        codec_(model.registry, plan.output_layout) {
    route_of_out_.assign(plan_.output_layout.groups.size(), -1);
    for (std::size_t r = 0; r < plan_.passthrough.size(); ++r) {
      const StagePlan::PassthroughRoute& route = plan_.passthrough[r];
      route_of_out_[static_cast<std::size_t>(route.out_group)] =
          static_cast<int>(r);
      route_of_in_[route.in_group] = static_cast<int>(r);
    }
  }

  void init(dc::FilterContext& ctx) override;
  void process(dc::FilterContext& ctx) override;
  void finalize(dc::FilterContext& ctx) override;
  bool snapshot_state(dc::Buffer& out) override;
  void restore_state(dc::Buffer& in) override;

  void set_input_layout(const PackingLayout& layout) {
    input_codec_.emplace(model_.registry, layout);
  }

 private:
  bool is_source() const { return plan_.stage == 0; }
  bool is_sink() const { return plan_.stage == n_stages_ - 1; }

  void emit_packet(dc::FilterContext& ctx, Env& env,
                   const std::vector<PackedView>* views = nullptr);
  void handle_replica_buffer(dc::Buffer& in, dc::FilterContext& ctx);
  void release_fills();

  const PipelineModel& model_;
  const StagePlan& plan_;
  PackCost pack_cost_;
  int n_stages_;
  std::shared_ptr<PipelineCompiler::Shared> shared_;
  Interpreter interp_;
  PacketCodec codec_;
  std::optional<PacketCodec> input_codec_;
  Env env_;
  /// The stage's per-packet code, lowered once against env_ at init.
  std::shared_ptr<const LoweredCode> body_;
  struct Materialization {
    const VarDeclStmt* decl;
    std::shared_ptr<const LoweredCode> declare;
    std::shared_ptr<const LoweredCode> length;  // null unless a new-array decl
  };
  std::vector<Materialization> materialize_;
  /// A partitioned fill this source copy ran: its array, the cut
  /// exec_foreach ran it in and the worker of the cut's chunk 1.
  struct Fill {
    std::string array;
    ForeachCut cut;
    std::size_t first_worker;
  };
  std::vector<Fill> fills_;
  RectDomainVal packet_domain_;
  std::int64_t current_packet_ = 0;
  std::vector<std::string> replica_names_;  // owned replicas in decl order
  double packet_ops_ = 0.0;
  double replica_ops_ = 0.0;
  std::int64_t sent_packet_bytes_ = 0;
  std::int64_t sent_replica_bytes_ = 0;
  std::int64_t packets_seen_ = 0;
  std::size_t last_packet_capacity_ = 0;  // pool size hint for emit_packet
  /// Passthrough route tables (built from plan_.passthrough): per output
  /// group the route index or -1; per routed input group the route index.
  std::vector<int> route_of_out_;
  std::map<int, int> route_of_in_;
};

void StageFilter::init(dc::FilterContext& ctx) {
  if (is_source()) {
    // Pre-loop setup: input data materialization on the data host. A
    // partitioned fill synthesizes only what this copy's packets read (all
    // of its domain when a bound does not resolve), cut into chunks that
    // share the host's CPUs with the other source copies; the statements
    // between fills run as one block, as without any.
    const std::vector<RectDomainVal> whole = {
        {std::numeric_limits<std::int64_t>::min(),
         std::numeric_limits<std::int64_t>::max()}};
    const int chunks = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()) /
               ctx.copy_count());
    const std::vector<const Stmt*>& before = model_.before;
    auto next = before.begin();
    for (auto at = before.begin(); at != before.end(); ++at) {
      const auto fill =
          std::find_if(plan_.setup_fills.begin(), plan_.setup_fills.end(),
                       [at](const SetupFill& f) { return f.loop == *at; });
      if (fill == plan_.setup_fills.end()) continue;
      interp_.exec_stmts({next, at}, env_);
      next = at + 1;
      const auto share = source_fill_ranges(
          model_, *fill, interp_, env_, ctx.copy_index(), ctx.copy_count());
      const auto first_worker = static_cast<std::size_t>(ctx.copy_index() * (chunks - 1));
      fills_.push_back(Fill{fill->array,
                            interp_.exec_foreach(*fill->loop, env_, share ? *share : whole,
                                                 chunks, first_worker),
                            first_worker});
    }
    interp_.exec_stmts({next, before.end()}, env_);
    const Value dom = interp_.eval(*model_.loop->domain, env_);
    if (const auto* d = std::get_if<DomainRef>(&dom); d && *d) {
      packet_domain_ = (*d)->value;
    } else {
      throw std::runtime_error("PipelinedLoop domain is not a rectdomain");
    }
  }
  // Scalar preamble on non-source stages (runtime-constant-derived values
  // replica constructors and pack sections may reference).
  for (const VarDeclStmt* decl : plan_.preamble) {
    if (!env_.has(decl->name)) interp_.exec_stmt(*decl, env_);
  }
  // Replica accumulators (on the source they already exist via `before`).
  for (const Stmt* s : model_.before) {
    if (s->kind != NodeKind::VarDeclStmt) continue;
    const auto& decl = static_cast<const VarDeclStmt&>(*s);
    if (std::find(plan_.replicas.begin(), plan_.replicas.end(), decl.name) ==
        plan_.replicas.end())
      continue;
    replica_names_.push_back(decl.name);
    if (!env_.has(decl.name)) interp_.exec_stmt(decl, env_);
  }
  body_ = interp_.lower(plan_.stmts, env_);
  for (const VarDeclStmt* decl : plan_.materialize) {
    Materialization m{decl, interp_.lower({decl}, env_), nullptr};
    if (decl->init && decl->init->kind == NodeKind::NewArray)
      m.length = interp_.lower(*static_cast<const NewArrayExpr&>(*decl->init).length, env_);
    materialize_.push_back(std::move(m));
  }
  // Setup cost (dataset synthesis stands in for the disk read) is not
  // charged as pipeline compute.
  interp_.reset_ops();
}

void StageFilter::emit_packet(dc::FilterContext& ctx, Env& env,
                              const std::vector<PackedView>* views) {
  // Recycled storage sized by the largest packet this stage has produced:
  // a monotone hint keeps every acquire in one size class, so the same
  // storage cycles through the pool instead of migrating between classes
  // as per-packet selectivity varies.
  dc::Buffer out = ctx.acquire_buffer(last_packet_capacity_);
  out.write<std::uint8_t>(static_cast<std::uint8_t>(BufferKind::Packet));
  std::size_t routed_bytes = 0;
  if (views && !plan_.passthrough.empty()) {
    // Passthrough-aware pack: header and non-routed groups go through the
    // codec; routed groups are copied verbatim from the arriving buffer
    // (flag byte patched when the boundaries disagree on layout).
    const PackingLayout& layout = codec_.layout();
    codec_.pack_header(env, out);
    out.write<std::uint32_t>(static_cast<std::uint32_t>(layout.groups.size()));
    const SymbolResolver resolve =
        packet_resolver(model_, env, current_packet_);
    for (std::size_t og = 0; og < layout.groups.size(); ++og) {
      const int route = route_of_out_[og];
      if (route < 0) {
        codec_.pack_group(og, env, resolve, out);
        continue;
      }
      const std::size_t before = out.size();
      const PackedView& view = (*views)[static_cast<std::size_t>(route)];
      const bool patch =
          plan_.passthrough[static_cast<std::size_t>(route)].patch_flag;
      view.append_to(out, patch ? std::optional<bool>(
                                      layout.groups[og].instancewise)
                                : std::nullopt);
      routed_bytes += out.size() - before;
    }
  } else {
    codec_.pack(env, packet_resolver(model_, env, current_packet_), out);
  }
  const double pack_ops =
      pack_cost_.ops_per_buffer +
      pack_cost_.ops_per_byte *
          static_cast<double>(out.size() - routed_bytes) +
      pack_cost_.passthrough_ops_per_byte * static_cast<double>(routed_bytes);
  interp_.add_external_ops(pack_ops);
  sent_packet_bytes_ += static_cast<std::int64_t>(out.size());
  last_packet_capacity_ = std::max(last_packet_capacity_, out.capacity());
  ctx.emit(std::move(out));
}

void StageFilter::handle_replica_buffer(dc::Buffer& in,
                                        dc::FilterContext& ctx) {
  const double before_ops = interp_.ops();
  std::uint32_t count = in.read<std::uint32_t>();
  std::vector<std::pair<std::string, Value>> incoming;
  incoming.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.read_string();
    incoming.emplace_back(std::move(name), read_value(in));
  }
  for (auto& [name, value] : incoming) {
    if (env_.has(name)) {
      Value& mine = env_.slot(name);
      auto* obj = std::get_if<ObjectRef>(&mine);
      if (obj && *obj) {
        interp_.call_method((*obj)->class_name(), "merge", *obj, {value});
        continue;
      }
      mine = std::move(value);
    } else {
      env_.declare_global(name, std::move(value));
      if (std::find(replica_names_.begin(), replica_names_.end(), name) ==
          replica_names_.end()) {
        replica_names_.push_back(name);
      }
    }
  }
  (void)ctx;
  replica_ops_ += interp_.ops() - before_ops;
}

void StageFilter::process(dc::FilterContext& ctx) {
  if (is_source()) {
    const std::int64_t lo = packet_domain_.lo;
    const std::int64_t hi = packet_domain_.hi;
    for (std::int64_t p = lo; p <= hi; ++p) {
      if (!owns_packet(p, lo, ctx.copy_index(), ctx.copy_count())) continue;
      current_packet_ = p;
      env_.push();
      env_.declare(model_.loop_var, p);
      interp_.add_external_ops(pack_cost_.source_io_ops);  // storage read
      interp_.exec(*body_, env_);
      if (ctx.has_output()) emit_packet(ctx, env_);
      env_.pop();
      ++packets_seen_;
    }
    packet_ops_ = interp_.ops() - replica_ops_;
    release_fills();
    return;
  }

  // Consuming stages.
  while (auto buffer = ctx.read()) {
    dc::Buffer in = std::move(*buffer);
    const std::size_t in_size = in.size();
    std::uint8_t kind = in.read<std::uint8_t>();
    if (kind == static_cast<std::uint8_t>(BufferKind::Replica)) {
      if (plan_.relay) {
        sent_replica_bytes_ += static_cast<std::int64_t>(in_size);
        in.seek(0);
        ctx.emit(std::move(in));
        continue;
      }
      handle_replica_buffer(in, ctx);
      ctx.recycle(std::move(in));
      continue;
    }
    if (plan_.relay) {
      sent_packet_bytes_ += static_cast<std::int64_t>(in_size);
      ++packets_seen_;
      in.seek(0);
      ctx.emit(std::move(in));
      continue;
    }
    ++packets_seen_;
    env_.push();
    // The upstream codec for OUR input is the upstream stage's output
    // codec; decode with our input layout. Routed groups stay packed: a
    // PackedView records where each one sits in the arriving buffer so
    // emit_packet can forward it verbatim.
    std::vector<PackedView> views(plan_.passthrough.size());
    std::size_t routed_bytes = 0;
    if (plan_.passthrough.empty()) {
      input_codec_->unpack(in, env_);
    } else {
      const PackingLayout& in_layout = input_codec_->layout();
      input_codec_->unpack_header(in, env_);
      const std::uint32_t n_groups = in.read<std::uint32_t>();
      if (n_groups != in_layout.groups.size())
        throw std::runtime_error("unpack: group arity mismatch");
      for (std::size_t gi = 0; gi < in_layout.groups.size(); ++gi) {
        const auto route = route_of_in_.find(static_cast<int>(gi));
        if (route == route_of_in_.end()) {
          input_codec_->unpack_group(gi, in, env_);
          continue;
        }
        PackedView view = PackedView::parse(in, in.read_pos());
        in.seek(view.end_offset());
        routed_bytes += sizeof(std::uint64_t) + view.block_size();
        views[static_cast<std::size_t>(route->second)] = std::move(view);
      }
    }
    interp_.add_external_ops(
        pack_cost_.ops_per_buffer +
        pack_cost_.ops_per_byte * static_cast<double>(in_size - routed_bytes) +
        pack_cost_.passthrough_ops_per_byte *
            static_cast<double>(routed_bytes));
    // Bind the packet id when transmitted.
    if (env_.has(model_.loop_var)) {
      const Value& v = env_.get(model_.loop_var);
      if (const auto* i = std::get_if<std::int64_t>(&v)) current_packet_ = *i;
    }
    // Recreate dead-in allocations this stage overwrites, and grow
    // received partial slices to their declared allocation size.
    for (const Materialization& m : materialize_) {
      if (!env_.has(m.decl->name)) {
        interp_.exec(*m.declare, env_);
        continue;
      }
      if (!m.length) continue;
      Value& bound = env_.slot(m.decl->name);
      auto* arr = std::get_if<ArrayRef>(&bound);
      if (!arr || !*arr || (*arr)->base_index != 0) continue;
      const std::int64_t want = as_int(interp_.exec(*m.length, env_));
      if (static_cast<std::int64_t>((*arr)->elems.size()) < want) {
        const auto& alloc = static_cast<const NewArrayExpr&>(*m.decl->init);
        (*arr)->elems.resize(static_cast<std::size_t>(want),
                             Interpreter::default_value(alloc.element_type));
      }
    }
    // Without passthrough the packet is fully decoded into env_ and its
    // backing storage can go straight back to the pool for the next packet
    // somebody packs. With passthrough the views alias the buffer, so the
    // recycle waits until the outgoing packet has copied them out.
    const bool views_alive = !plan_.passthrough.empty();
    if (!views_alive) ctx.recycle(std::move(in));
    interp_.exec(*body_, env_);
    if (ctx.has_output()) emit_packet(ctx, env_, views_alive ? &views : nullptr);
    if (views_alive) {
      views.clear();
      ctx.recycle(std::move(in));
    }
    if (is_sink()) {
      // Persist values the post-loop code needs.
      for (const std::string& name : plan_.carry) {
        if (env_.has(name)) env_.declare_global(name, env_.get(name));
      }
    }
    env_.pop();
  }
  packet_ops_ = interp_.ops() - replica_ops_;
}

/// Frees each fill's array once the copy's last packet is out, on the
/// threads that filled it (release_fill).
void StageFilter::release_fills() {
  for (const Fill& fill : fills_)
    if (env_.has(fill.array)) release_fill(env_.slot(fill.array), fill.cut, fill.first_worker);
  fills_.clear();
}

void StageFilter::finalize(dc::FilterContext& ctx) {
  if (!is_sink() && !plan_.relay && ctx.has_output() &&
      !replica_names_.empty()) {
    const double before_ops = interp_.ops();
    dc::Buffer out;
    out.write<std::uint8_t>(static_cast<std::uint8_t>(BufferKind::Replica));
    out.write<std::uint32_t>(static_cast<std::uint32_t>(replica_names_.size()));
    for (const std::string& name : replica_names_) {
      out.write_string(name);
      write_value(out, env_.get(name));
    }
    interp_.add_external_ops(pack_cost_.ops_per_buffer +
                             pack_cost_.ops_per_byte *
                                 static_cast<double>(out.size()));
    sent_replica_bytes_ += static_cast<std::int64_t>(out.size());
    ctx.emit(std::move(out));
    replica_ops_ += interp_.ops() - before_ops;
  }
  if (is_sink()) {
    const double before_ops = interp_.ops();
    interp_.exec_stmts(model_.after, env_);
    replica_ops_ += interp_.ops() - before_ops;
  }

  // Publish telemetry (and sink results).
  std::lock_guard lock(shared_->mutex);
  PipelineRunResult& r = shared_->result;
  const std::size_t stage = static_cast<std::size_t>(plan_.stage);
  r.stage_ops[stage] += packet_ops_;
  r.stage_replica_ops[stage] += replica_ops_;
  if (plan_.stage < n_stages_ - 1) {
    r.link_packet_bytes[stage] += sent_packet_bytes_;
    r.link_replica_bytes[stage] += sent_replica_bytes_;
  }
  if (is_source()) r.packets += packets_seen_;
  if (is_sink()) {
    for (auto& [name, value] : env_.flatten()) r.finals[name] = value;
  }
}

bool StageFilter::snapshot_state(dc::Buffer& out) {
  // Called between packets (read boundary), where env_ holds only base
  // bindings: preamble scalars, replica accumulators, carried sink values.
  // The serializer round-trips every Value kind the interpreter produces,
  // so the whole environment is the state.
  const std::map<std::string, Value> bindings = env_.flatten();
  out.write<std::uint32_t>(static_cast<std::uint32_t>(bindings.size()));
  for (const auto& [name, value] : bindings) {
    out.write_string(name);
    write_value(out, value);
  }
  // replica_names_ grows at runtime (handle_replica_buffer adopts upstream
  // replicas), so it must ride along with the bindings.
  out.write<std::uint32_t>(static_cast<std::uint32_t>(replica_names_.size()));
  for (const std::string& name : replica_names_) out.write_string(name);
  out.write<std::int64_t>(packets_seen_);
  return true;
}

void StageFilter::restore_state(dc::Buffer& in) {
  const std::uint32_t n_bindings = in.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_bindings; ++i) {
    std::string name = in.read_string();
    Value value = read_value(in);
    env_.declare_global(name, std::move(value));
  }
  replica_names_.clear();
  const std::uint32_t n_replicas = in.read<std::uint32_t>();
  replica_names_.reserve(n_replicas);
  for (std::uint32_t i = 0; i < n_replicas; ++i)
    replica_names_.push_back(in.read_string());
  packets_seen_ = in.read<std::int64_t>();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

PipelineCompiler::PipelineCompiler(
    const PipelineModel& model, const Placement& placement,
    const EnvironmentSpec& env,
    std::map<std::string, std::int64_t> runtime_constants, PackCost pack_cost)
    : model_(model),
      placement_(placement),
      env_(env),
      runtime_constants_(std::move(runtime_constants)),
      pack_cost_(pack_cost) {
  const int m = env_.stages();
  const int n_filters = static_cast<int>(model_.filters.size());
  if (static_cast<int>(placement_.unit_of_filter.size()) != n_filters)
    throw std::invalid_argument("placement/filter arity mismatch");

  // Per-stage cons sets (for packing planning).
  std::vector<ValueSet> stage_cons(static_cast<std::size_t>(m));
  for (int f = 0; f < n_filters; ++f) {
    int s = placement_.unit_of_filter[static_cast<std::size_t>(f)];
    stage_cons[static_cast<std::size_t>(s)].add_all(
        model_.sets[static_cast<std::size_t>(f)].cons);
  }
  // The view stage also consumes the post-loop set.
  stage_cons[static_cast<std::size_t>(m - 1)].add_all(model_.req_comm.back());

  std::vector<int> cuts = placement_.cuts(m);
  plans_.resize(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    plan.stage = s;
    if (!placement_.replicas.empty()) plan.copies = placement_.replicas_of(s);
    for (int f = 0; f < n_filters; ++f) {
      if (placement_.unit_of_filter[static_cast<std::size_t>(f)] != s) continue;
      plan.filter_indices.push_back(f);
      const AtomicFilter& filter = model_.filters[static_cast<std::size_t>(f)];
      plan.stmts.insert(plan.stmts.end(), filter.stmts.begin(),
                        filter.stmts.end());
      for (const std::string& red :
           model_.sets[static_cast<std::size_t>(f)].reductions) {
        if (std::find(plan.replicas.begin(), plan.replicas.end(), red) ==
            plan.replicas.end())
          plan.replicas.push_back(red);
      }
    }
    plan.relay = plan.filter_indices.empty() && s > 0 && s < m - 1;
    if (s == m - 1) {
      for (const std::string& red : model_.after_reductions) {
        if (std::find(plan.replicas.begin(), plan.replicas.end(), red) ==
            plan.replicas.end())
          plan.replicas.push_back(red);
      }
      for (const auto& [id, entry] : model_.req_comm.back().items()) {
        plan.carry.push_back(id.base);
      }
    }
    if (s < m - 1) {
      const ValueSet& boundary =
          cuts[static_cast<std::size_t>(s)] >= 0
              ? model_.req_comm[static_cast<std::size_t>(
                    cuts[static_cast<std::size_t>(s)])]
              : model_.input_req;
      std::vector<ValueSet> downstream;
      for (int t = s + 1; t < m; ++t)
        downstream.push_back(stage_cons[static_cast<std::size_t>(t)]);
      plan.output_layout = plan_packing(boundary, downstream, model_.registry);
    }
  }
  // Input layout for each consuming stage = output layout of the nearest
  // non-relay upstream stage. Relays forward verbatim, so the effective
  // input layout of stage s is the output layout of stage s-1 (relay output
  // layout is a copy of its input's).
  for (int s = 1; s < m - 1; ++s) {
    if (plans_[static_cast<std::size_t>(s)].relay) {
      plans_[static_cast<std::size_t>(s)].output_layout =
          plans_[static_cast<std::size_t>(s - 1)].output_layout;
    }
  }

  // Scalar preamble: pre-loop decls computable from runtime constants and
  // earlier preamble scalars alone; re-run on non-source stages.
  std::vector<const VarDeclStmt*> preamble;
  {
    std::set<std::string> available;
    for (const Stmt* s : model_.before) {
      if (s->kind != NodeKind::VarDeclStmt) continue;
      const auto* decl = static_cast<const VarDeclStmt*>(s);
      if (!decl->declared_type || !decl->declared_type->is_primitive())
        continue;
      if (!decl->init || !scalar_pure(*decl->init)) continue;
      std::set<std::string> refs;
      collect_var_refs(*decl->init, refs);
      bool ok = true;
      for (const std::string& name : refs) {
        if (available.count(name)) continue;
        if (name.rfind("runtime_define_", 0) == 0) continue;
        ok = false;
        break;
      }
      if (!ok) continue;
      preamble.push_back(decl);
      available.insert(decl->name);
    }
  }
  for (int s = 1; s < m; ++s) {
    plans_[static_cast<std::size_t>(s)].preamble = preamble;
  }
  if (m > 1) plans_.front().setup_fills = classify_source_setup(model_).fills;

  // Materialization: loop-body declarations whose storage a stage writes
  // but neither declares nor receives (their contents are dead-in, so
  // ReqComm correctly omits them; only the allocation is recreated).
  for (int s = 1; s < m; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    if (plan.relay || plan.stmts.empty()) continue;
    std::set<std::string> written;
    for (const Stmt* stmt : plan.stmts) collect_written_bases(*stmt, written);
    std::set<std::string> declared;
    for (const Stmt* stmt : plan.stmts) {
      if (stmt->kind == NodeKind::VarDeclStmt)
        declared.insert(static_cast<const VarDeclStmt*>(stmt)->name);
    }
    for (const AtomicFilter& filter : model_.filters) {
      for (const Stmt* stmt : filter.stmts) {
        if (stmt->kind != NodeKind::VarDeclStmt) continue;
        const auto* decl = static_cast<const VarDeclStmt*>(stmt);
        // Received names still qualify: the unpacked slice may be smaller
        // than the declared allocation this stage writes into.
        if (!written.count(decl->name) || declared.count(decl->name))
          continue;
        if (std::find(plan.stmts.begin(), plan.stmts.end(), stmt) !=
            plan.stmts.end())
          continue;
        plan.materialize.push_back(decl);
      }
    }
  }

  // Passthrough routing: an output group whose collection the stage never
  // mentions, carrying the same item list and section expression as an
  // input group, is forwarded verbatim (StagePlan::PassthroughRoute).
  // Forwarding the arrived block is a superset of repacking it: a repack
  // re-resolves the (equal) section against this stage's environment and
  // can only intersect down to the arrived slice, so every element the
  // repack path would ship rides along in the copy, and downstream's
  // unpack tolerates the wider coverage.
  for (int s = 1; s < m - 1; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    if (plan.relay) continue;
    const PackingLayout& in_layout =
        plans_[static_cast<std::size_t>(s - 1)].output_layout;
    const PackingLayout& out_layout = plan.output_layout;
    std::set<std::string> touched;
    for (const Stmt* stmt : plan.stmts) collect_var_refs(*stmt, touched);
    for (const VarDeclStmt* decl : plan.materialize) {
      touched.insert(decl->name);
      if (decl->init) collect_var_refs(*decl->init, touched);
    }
    std::set<std::size_t> routed_inputs;  // each input group feeds one route
    for (std::size_t og = 0; og < out_layout.groups.size(); ++og) {
      const PackGroup& out_group = out_layout.groups[og];
      std::string base = out_group.collection;
      const std::size_t dot = base.find('.');
      if (dot != std::string::npos) base = base.substr(0, dot);
      if (touched.count(base)) continue;
      for (std::size_t gi = 0; gi < in_layout.groups.size(); ++gi) {
        const PackGroup& in_group = in_layout.groups[gi];
        if (routed_inputs.count(gi)) continue;
        if (in_group.collection != out_group.collection) continue;
        if (in_group.section != out_group.section) continue;
        if (in_group.items.size() != out_group.items.size()) continue;
        bool same_items = true;
        for (std::size_t k = 0; k < in_group.items.size(); ++k) {
          const PackedItem& a = in_group.items[k];
          const PackedItem& b = out_group.items[k];
          if (!(a.id == b.id) || !same_type(a.type, b.type)) {
            same_items = false;
            break;
          }
        }
        if (!same_items) continue;
        const bool flags_match = in_group.instancewise == out_group.instancewise;
        if (!flags_match && in_group.items.size() != 1) continue;
        StagePlan::PassthroughRoute route;
        route.out_group = static_cast<int>(og);
        route.in_group = static_cast<int>(gi);
        route.patch_flag = !flags_match;
        plan.passthrough.push_back(route);
        routed_inputs.insert(gi);
        break;
      }
    }
  }
}

std::vector<dc::FilterGroup> PipelineCompiler::build_groups(
    std::shared_ptr<Shared> shared) {
  std::vector<dc::FilterGroup> groups;
  const int m = env_.stages();
  for (int s = 0; s < m; ++s) {
    const StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    const StagePlan* input_plan =
        s > 0 ? &plans_[static_cast<std::size_t>(s - 1)] : nullptr;
    dc::FilterGroup group;
    group.name = "stage" + std::to_string(s);
    group.stage = s;
    // The compiler's replica plan, when present, supersedes the
    // environment's one-knob-per-unit copies setting.
    group.copies = placement_.replicas.empty()
                       ? env_.units[static_cast<std::size_t>(s)].copies
                       : placement_.replicas_of(s);
    const PipelineModel* model = &model_;
    const std::map<std::string, std::int64_t>* constants =
        &runtime_constants_;
    PackCost pack_cost = pack_cost_;
    group.factory = [model, plan_ptr = &plan, input_plan, constants,
                     pack_cost, m, shared]() -> std::unique_ptr<dc::Filter> {
      auto filter = std::make_unique<StageFilter>(*model, *plan_ptr,
                                                  *constants, pack_cost, m,
                                                  shared);
      if (input_plan) filter->set_input_layout(input_plan->output_layout);
      return filter;
    };
    groups.push_back(std::move(group));
  }
  return groups;
}

PipelineRunResult PipelineCompiler::run() {
  auto shared = std::make_shared<Shared>();
  shared->registry = &model_.registry;
  const int m = env_.stages();
  shared->result.stage_ops.assign(static_cast<std::size_t>(m), 0.0);
  shared->result.stage_replica_ops.assign(static_cast<std::size_t>(m), 0.0);
  shared->result.link_packet_bytes.assign(static_cast<std::size_t>(m - 1), 0);
  shared->result.link_replica_bytes.assign(static_cast<std::size_t>(m - 1), 0);

  dc::PipelineRunner runner(build_groups(shared), config_, policy_);
  runner.set_hooks(hooks_);
  // Multi-process backends: each StageFilter publishes its telemetry into
  // the Shared of its own process, so the worker-side slice (stage ops,
  // link bytes, source packet count) must cross the control plane or the
  // supervisor's result would report zeros for every forked group. The
  // exporter runs in the worker after its group finalizes; the importer
  // folds each blob back here. Layout, in dc::Buffer encoding:
  // [f64 stage_ops][f64 stage_replica_ops][i64 link_packet_bytes]
  // [i64 link_replica_bytes][i64 packets], unused fields zero.
  constexpr std::size_t kGroupStateBytes =
      2 * sizeof(double) + 3 * sizeof(std::int64_t);
  runner.set_group_state_codec(
      [shared](std::size_t gi) {
        std::lock_guard lock(shared->mutex);
        const PipelineRunResult& r = shared->result;
        const bool has_link = gi < r.link_packet_bytes.size();
        dc::Buffer b(kGroupStateBytes);
        b.write<double>(r.stage_ops[gi]);
        b.write<double>(r.stage_replica_ops[gi]);
        b.write<std::int64_t>(has_link ? r.link_packet_bytes[gi] : 0);
        b.write<std::int64_t>(has_link ? r.link_replica_bytes[gi] : 0);
        b.write<std::int64_t>(gi == 0 ? r.packets : 0);
        return std::vector<std::byte>(b.data(), b.data() + b.size());
      },
      [shared](std::size_t gi, const std::vector<std::byte>& blob) {
        if (blob.size() != kGroupStateBytes)
          throw std::runtime_error(
              "compiled pipeline: malformed group-state blob for group " +
              std::to_string(gi));
        dc::Buffer b(blob.size());
        b.write_bytes(blob.data(), blob.size());
        std::lock_guard lock(shared->mutex);
        PipelineRunResult& r = shared->result;
        r.stage_ops[gi] += b.read<double>();
        r.stage_replica_ops[gi] += b.read<double>();
        const std::int64_t link_bytes = b.read<std::int64_t>();
        const std::int64_t replica_bytes = b.read<std::int64_t>();
        if (gi < r.link_packet_bytes.size()) {
          r.link_packet_bytes[gi] += link_bytes;
          r.link_replica_bytes[gi] += replica_bytes;
        }
        r.packets += b.read<std::int64_t>();
      });
  dc::RunOutcome outcome = runner.run_supervised();
  if (outcome.error && policy_.action == dc::FaultAction::kFailFast)
    std::rethrow_exception(outcome.error);
  shared->result.adopt_trace(std::move(outcome.stats));
  return shared->result;
}

}  // namespace cgp
