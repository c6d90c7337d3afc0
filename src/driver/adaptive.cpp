#include "driver/adaptive.h"

#include <algorithm>
#include <stdexcept>

#include "codegen/interp.h"
#include "codegen/packing.h"

namespace cgp {

namespace {

/// Resolver over the current interpreter environment (mirrors the
/// generated filters' resolver, without the stage machinery).
SymbolResolver env_resolver(Env& env, const ClassRegistry& registry,
                            const std::string& loop_var,
                            std::int64_t packet) {
  return [&env, &registry, loop_var,
          packet](const std::string& sym) -> std::optional<std::int64_t> {
    if (sym == loop_var) return packet;
    auto lookup = [&](const std::string& path) -> std::optional<Value> {
      std::string base = path;
      std::vector<std::string> steps;
      std::size_t start = 0;
      std::size_t dot;
      bool first = true;
      while ((dot = path.find('.', start)) != std::string::npos) {
        std::string part = path.substr(start, dot - start);
        if (first) {
          base = part;
          first = false;
        } else {
          steps.push_back(part);
        }
        start = dot + 1;
      }
      std::string last = path.substr(start);
      if (first) {
        base = last;
      } else {
        steps.push_back(last);
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
    };
    if (sym.rfind("len(", 0) == 0 && sym.back() == ')') {
      std::optional<Value> v = lookup(sym.substr(4, sym.size() - 5));
      if (!v) return std::nullopt;
      if (auto* arr = std::get_if<ArrayRef>(&*v)) {
        if (!*arr) return std::nullopt;
        return (*arr)->base_index +
               static_cast<std::int64_t>((*arr)->elems.size());
      }
      return std::nullopt;
    }
    std::optional<Value> v = lookup(sym);
    if (v) {
      if (const auto* i = std::get_if<std::int64_t>(&*v)) return *i;
    }
    return std::nullopt;
  };
}

}  // namespace

DecompositionInput profile_decomposition_input(
    const PipelineModel& model, const DecompositionInput& static_input,
    const std::map<std::string, std::int64_t>& runtime_constants,
    int sample_packets) {
  DecompositionInput input = static_input;  // env, io, replica fields kept
  const std::size_t n_filters = model.filters.size();
  std::fill(input.task_ops.begin(), input.task_ops.end(), 0.0);
  std::fill(input.boundary_bytes.begin(), input.boundary_bytes.end(), 0.0);
  input.input_bytes = 0.0;

  Interpreter interp(model.registry, runtime_constants);
  Env env;
  interp.exec_stmts(model.before, env);

  Value dom_value = interp.eval(*model.loop->domain, env);
  const auto* boxed = std::get_if<DomainRef>(&dom_value);
  if (!boxed || !*boxed) throw std::runtime_error("profile: packet domain not a rectdomain");
  const RectDomainVal* dom = &(*boxed)->value;
  const std::int64_t n_available = dom->size();
  const std::int64_t samples =
      std::min<std::int64_t>(sample_packets, n_available);
  if (samples <= 0) throw std::runtime_error("profile: no packets to sample");

  // Boundary codecs: downstream cons = remaining filters, one per "stage",
  // plus the post-loop set (already folded into req_comm.back()).
  std::vector<PacketCodec> codecs;
  codecs.reserve(n_filters);
  for (std::size_t i = 0; i < n_filters; ++i) {
    std::vector<ValueSet> downstream;
    for (std::size_t j = i + 1; j < n_filters; ++j) {
      downstream.push_back(model.sets[j].cons);
    }
    downstream.push_back(model.req_comm.back());
    codecs.emplace_back(model.registry,
                        plan_packing(model.req_comm[i], downstream,
                                     model.registry));
  }
  std::vector<std::shared_ptr<const LoweredCode>> bodies;
  for (const AtomicFilter& filter : model.filters)
    bodies.push_back(interp.lower(filter.stmts, env));
  std::vector<ValueSet> all_cons;
  for (const SegmentSets& sets : model.sets) all_cons.push_back(sets.cons);
  PacketCodec input_codec(
      model.registry, plan_packing(model.input_req, all_cons, model.registry));

  // Sample evenly across the packet range.
  for (std::int64_t s = 0; s < samples; ++s) {
    const std::int64_t p =
        dom->lo + (n_available - 1) * s / std::max<std::int64_t>(samples - 1, 1);
    env.push();
    env.declare(model.loop_var, p);
    SymbolResolver resolve =
        env_resolver(env, model.registry, model.loop_var, p);
    {
      dc::Buffer probe;
      input_codec.pack(env, resolve, probe);
      input.input_bytes += static_cast<double>(probe.size());
    }
    for (std::size_t i = 0; i < n_filters; ++i) {
      const double before = interp.ops();
      interp.exec(*bodies[i], env);
      input.task_ops[i] += interp.ops() - before;
      dc::Buffer probe;
      codecs[i].pack(env, resolve, probe);
      input.boundary_bytes[i] += static_cast<double>(probe.size());
    }
    env.pop();
  }
  const double denom = static_cast<double>(samples);
  for (double& t : input.task_ops) t /= denom;
  for (double& b : input.boundary_bytes) b /= denom;
  input.input_bytes /= denom;
  return input;
}

DecompositionInput profile_decomposition_input_from_run(
    const PipelineModel& model, const DecompositionInput& static_input,
    const Placement& placement, const PipelineRunResult& run) {
  DecompositionInput input = static_input;
  const std::size_t n_filters = model.filters.size();
  if (placement.unit_of_filter.size() != n_filters)
    throw std::invalid_argument("profile_from_run: placement arity mismatch");
  if (run.packets <= 0)
    throw std::invalid_argument("profile_from_run: run carried no packets");
  const std::vector<double> stage_ops = run.mean_stage_ops();
  const std::vector<double> link_bytes = run.mean_link_bytes();
  const int m = static_cast<int>(stage_ops.size());

  // Distribute each stage's measured ops over its filters, weighted by the
  // static per-filter estimates so relative shapes survive.
  for (int s = 0; s < m; ++s) {
    std::vector<std::size_t> placed;
    double static_sum = 0.0;
    for (std::size_t f = 0; f < n_filters; ++f) {
      if (placement.unit_of_filter[f] != s) continue;
      placed.push_back(f);
      static_sum += static_input.task_ops[f];
    }
    if (placed.empty()) continue;
    for (std::size_t f : placed) {
      const double weight =
          static_sum > 0.0
              ? static_input.task_ops[f] / static_sum
              : 1.0 / static_cast<double>(placed.size());
      input.task_ops[f] = stage_ops[static_cast<std::size_t>(s)] * weight;
    }
  }

  // Measured volumes exist only where the placement cut a boundary.
  const std::vector<int> cuts = placement.cuts(m);
  for (std::size_t k = 0; k < link_bytes.size() && k < cuts.size(); ++k) {
    const int boundary = cuts[k];
    if (boundary >= 0) {
      input.boundary_bytes[static_cast<std::size_t>(boundary)] =
          link_bytes[k];
    } else {
      input.input_bytes = link_bytes[k];
    }
  }

  // Transport feedback: the run's realized mean batch size (buffers per
  // enqueue, including the partial flush at end-of-stream) replaces the
  // configured factor in the batching term's amortization.
  std::int64_t buffers = 0;
  std::int64_t batches = 0;
  for (const support::LinkMetrics& link : run.link_metrics) {
    buffers += link.buffers;
    batches += link.batches;
  }
  if (batches > 0) {
    input.batch_size = std::max(
        1.0, static_cast<double>(buffers) / static_cast<double>(batches));
  } else if (run.batch_size > 1) {
    input.batch_size = static_cast<double>(run.batch_size);
  }
  return input;
}

PacketSizeChoice choose_packet_count(
    const std::string& source, const CompileOptions& base_options,
    const std::string& count_constant,
    const std::vector<std::int64_t>& candidates) {
  PacketSizeChoice choice;
  for (std::int64_t count : candidates) {
    CompileOptions options = base_options;
    options.runtime_constants[count_constant] = count;
    options.n_packets = count;
    // Per-packet size bindings scale inversely with the packet count when
    // derived from a total; callers keep totals in size_bindings and we
    // rescale the common "psize"-style keys when present.
    auto total_it = options.runtime_constants.end();
    for (auto it = options.runtime_constants.begin();
         it != options.runtime_constants.end(); ++it) {
      if (it->first != count_constant &&
          it->first.rfind("runtime_define_num_", 0) == 0) {
        total_it = it;
      }
    }
    if (total_it != options.runtime_constants.end()) {
      const std::int64_t psize = total_it->second / count;
      for (const char* key : {"psize", "len(sq)", "len(dists)"}) {
        if (options.size_bindings.count(key)) {
          options.size_bindings[key] = psize;
        }
      }
    }
    CompileResult result = compile_pipeline(source, options);
    if (!result.ok) continue;
    // Charge the per-buffer packing overhead into each filter's per-packet
    // work (the volume-only model misses it); link latency per packet is
    // already part of cost_comm. This is what creates the U-shape: tiny
    // packets drown in fixed per-buffer costs, giant packets lose the
    // pipelining overlap.
    DecompositionInput charged = result.decomp_input;
    // The fixed per-buffer part is an enqueue/wakeup cost: with packet
    // batching, batch_size packets share one enqueue, so it amortizes;
    // the per-byte copy cost does not.
    const double batch = static_cast<double>(
        std::max<std::size_t>(std::size_t{1}, base_options.batch_size));
    for (std::size_t i = 0; i < charged.task_ops.size(); ++i) {
      const double in_bytes =
          i == 0 ? charged.input_bytes : charged.boundary_bytes[i - 1];
      charged.task_ops[i] += 2.0 * 400.0 / batch +
                             0.25 * (in_bytes + charged.boundary_bytes[i]);
    }
    DecompositionResult placed =
        decompose_bruteforce(charged, Objective::PipelineTotal, count);
    const double predicted = full_pipeline_time(charged, placed.placement,
                                                count);
    choice.table.emplace_back(count, predicted);
    if (choice.best_count == 0 || predicted < choice.best_predicted_time) {
      choice.best_count = count;
      choice.best_predicted_time = predicted;
    }
  }
  return choice;
}

}  // namespace cgp
