// cgpc — the cgpipe compiler CLI.
//
// Usage:
//   cgpc <file.cgp> [options]
//
// Options:
//   --width N            pipeline width (1-1-1 / 2-2-1 / 4-4-1), default 1
//   --stages M           uniform M-stage pipeline instead of the paper's 3
//   --define NAME=VALUE  bind a runtime_define_* constant (repeatable)
//   --bind NAME=VALUE    size binding for the cost model (repeatable)
//   --packets N          packet count for the total-time objective
//   --emit               print the generated DataCutter filter source
//   --analysis           print Gen/Cons/ReqComm per atomic filter and
//                        the source-setup verdict
//   --run                execute the decomposed pipeline and print finals
//   --trace=<file>       run and dump the observability trace (per-filter
//                        busy/stall/latency, per-link occupancy) as JSON;
//                        implies --run (see docs/OBSERVABILITY.md)
//   --fault-policy=P     supervisor policy for filter failures: fail-fast
//                        (default), restart-copy, or drop-packet
//                        (see docs/ROBUSTNESS.md)
//   --fault-inject=SPEC  deterministic fault plan, e.g. stage1:throw@5
//                        (stage groups are named stage0..stageN-1)
//   --fault-seed=N       seed for probabilistic fault specs (~P triggers)
//   --stage-timeout=S    watchdog: abort if a live stage moves no buffer
//                        for S seconds (0 = disabled); on the process
//                        backends this requires --heartbeat-ms, which is
//                        how the supervisor samples worker progress
//   --backend=B          execution substrate: thread (in-process queues,
//                        default) or proc (worker processes + shared-memory
//                        rings); see docs/PERFORMANCE.md. Also feeds the
//                        cost model's per-link transport terms. The
//                        process backend rejects --fault-inject and
//                        --fault-seed (see docs/ROBUSTNESS.md)
//   --worker-restarts=N  self-healing (process backends): respawn a dead
//                        worker process up to N times, rolling the run
//                        back to the last in-run consistent cut (enable
//                        --checkpoint-interval to bound the replay);
//                        budget exhausted => the surviving stages drain
//                        to a partial result and cgpc exits 3
//   --heartbeat-ms=M     worker liveness heartbeats every M milliseconds;
//                        a worker silent for ~4 intervals is killed (and,
//                        under --worker-restarts, respawned); makes
//                        --stage-timeout legal on process backends
//   --teardown-grace-ms=N
//                        how long the supervisor waits for workers to
//                        exit after an abort before SIGKILLing stragglers
//                        (default 2000)
//   --stream-capacity=N  bounded depth of every inter-stage stream
//                        (backpressure window, default 16)
//   --batch-size=N       producer-side packet coalescing: enqueue up to N
//                        packets per lock acquisition / consumer wakeup
//                        (default 1 = per-packet transport); also feeds
//                        the cost model's batching term
//   --checkpoint-interval=N
//                        snapshot stage state every N packets: under
//                        restart-copy this makes recovery exactly-once for
//                        stateful stages; also feeds the cost model's
//                        checkpoint-overhead term (0 = disabled)
//   --checkpoint=FILE    persist run-level consistent cuts to FILE while
//                        running (requires --checkpoint-interval);
//                        replicated stages contribute one snapshot part
//                        per transparent copy, all aligned on one marker
//   --resume=FILE        restart an aborted run from the last consistent
//                        cut in FILE (see docs/ROBUSTNESS.md); the
//                        pipeline's stages and replica counts must match
//                        the checkpoint's (a side-by-side diff is printed
//                        on mismatch)
//   --max-replicas=N     let the decomposition replicate classifier-
//                        approved parallel stages up to N transparent
//                        copies each (default 1 = unreplicated; the
//                        report then shows the per-stage replica plan);
//                        requires --width 1
//   --copies=N           explicit global override: run every non-result
//                        stage at N transparent copies, discarding the
//                        DP's replica plan (prints a warning; bypasses
//                        the stage classifier)
//   --default            use the Default placement instead of Decomp
//   --no-fission         disable loop fission
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "datacutter/checkpoint.h"
#include "driver/compiler.h"
#include "driver/simulate.h"
#include "support/faultinject.h"
#include "support/metrics.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cgpc <file.cgp> [--width N] [--stages M] "
               "[--define NAME=VALUE]... [--bind NAME=VALUE]... "
               "[--packets N] [--emit] [--analysis] [--run] "
               "[--trace=<file>] [--fault-policy=P] [--fault-inject=SPEC] "
               "[--fault-seed=N] [--stage-timeout=S] [--backend=B] "
               "[--worker-restarts=N] [--heartbeat-ms=M] "
               "[--teardown-grace-ms=N] [--stream-capacity=N] "
               "[--batch-size=N] [--checkpoint-interval=N] "
               "[--checkpoint=FILE] [--resume=FILE] [--max-replicas=N] "
               "[--copies=N] [--default] [--no-fission]\n");
}

/// Strict integer flag parsing: the whole argument must be a base-10
/// integer >= min_value, otherwise exit with a clear diagnostic — atoi's
/// silent 0 turned "--copies=two" into a valid configuration.
std::int64_t parse_count(const char* text, const char* flag,
                         std::int64_t min_value) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min_value) {
    std::fprintf(stderr, "cgpc: %s expects an integer >= %lld, got '%s'\n",
                 flag, static_cast<long long>(min_value), text);
    std::exit(2);
  }
  return value;
}

bool parse_kv(const char* arg, std::string& name, std::int64_t& value) {
  const char* eq = std::strchr(arg, '=');
  if (!eq) return false;
  name.assign(arg, eq);
  value = std::strtoll(eq + 1, nullptr, 10);
  return !name.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgp;
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string path;
  int width = 1;
  int stages = 0;
  bool emit = false;
  bool analysis = false;
  bool run = false;
  bool use_default = false;
  int max_replicas = 1;
  int copies_override = 0;  // 0 = not given
  std::string trace_path;
  std::string resume_path;
  dc::FaultPolicy fault_policy;
  std::string fault_inject;
  std::uint64_t fault_seed = 0;
  // Conflict-prone flags in first-occurrence command-line order, so the
  // per-conflict diagnostics come out in the order the user typed them.
  std::vector<std::string> conflict_flags;
  auto note_conflict_flag = [&](const char* flag) {
    for (const std::string& seen : conflict_flags)
      if (seen == flag) return;
    conflict_flags.emplace_back(flag);
  };
  dc::RunnerConfig transport;
  std::optional<dc::RunCheckpoint> resume_ckpt;
  CompileOptions options;
  options.n_packets = 16;

  auto parse_policy = [&](const char* name) {
    const std::optional<dc::FaultAction> action =
        dc::FaultPolicy::parse_action(name);
    if (!action) {
      std::fprintf(stderr,
                   "cgpc: unknown fault policy '%s' "
                   "(fail-fast | restart-copy | drop-packet)\n",
                   name);
      std::exit(2);
    }
    fault_policy.action = *action;
  };

  auto parse_backend_flag = [&](const char* name) {
    const std::optional<dc::TransportBackend> backend =
        dc::parse_backend(name);
    if (!backend) {
      std::fprintf(stderr,
                   "cgpc: unknown backend '%s' (thread | proc)\n",
                   name);
      std::exit(2);
    }
    transport.backend = *backend;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--width") == 0) {
      width = static_cast<int>(parse_count(next(), "--width", 1));
    } else if (std::strcmp(arg, "--stages") == 0) {
      stages = static_cast<int>(parse_count(next(), "--stages", 1));
    } else if (std::strcmp(arg, "--packets") == 0) {
      options.n_packets = parse_count(next(), "--packets", 1);
    } else if (std::strcmp(arg, "--define") == 0) {
      std::string name;
      std::int64_t value;
      if (!parse_kv(next(), name, value)) {
        usage();
        return 2;
      }
      options.runtime_constants[name] = value;
    } else if (std::strcmp(arg, "--bind") == 0) {
      std::string name;
      std::int64_t value;
      if (!parse_kv(next(), name, value)) {
        usage();
        return 2;
      }
      options.size_bindings[name] = value;
    } else if (std::strcmp(arg, "--emit") == 0) {
      emit = true;
    } else if (std::strcmp(arg, "--analysis") == 0) {
      analysis = true;
    } else if (std::strcmp(arg, "--run") == 0) {
      run = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
      run = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path = next();
      run = true;
    } else if (std::strncmp(arg, "--fault-policy=", 15) == 0) {
      parse_policy(arg + 15);
    } else if (std::strcmp(arg, "--fault-policy") == 0) {
      parse_policy(next());
    } else if (std::strncmp(arg, "--fault-inject=", 15) == 0) {
      fault_inject = arg + 15;
      note_conflict_flag("--fault-inject");
    } else if (std::strcmp(arg, "--fault-inject") == 0) {
      fault_inject = next();
      note_conflict_flag("--fault-inject");
    } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
      fault_seed = std::strtoull(arg + 13, nullptr, 10);
      note_conflict_flag("--fault-seed");
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      fault_seed = std::strtoull(next(), nullptr, 10);
      note_conflict_flag("--fault-seed");
    } else if (std::strncmp(arg, "--stage-timeout=", 16) == 0) {
      fault_policy.stage_timeout_seconds = std::strtod(arg + 16, nullptr);
    } else if (std::strcmp(arg, "--stage-timeout") == 0) {
      fault_policy.stage_timeout_seconds = std::strtod(next(), nullptr);
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      parse_backend_flag(arg + 10);
    } else if (std::strcmp(arg, "--backend") == 0) {
      parse_backend_flag(next());
    } else if (std::strncmp(arg, "--worker-restarts=", 18) == 0) {
      transport.worker_restarts =
          static_cast<int>(parse_count(arg + 18, "--worker-restarts", 0));
    } else if (std::strcmp(arg, "--worker-restarts") == 0) {
      transport.worker_restarts =
          static_cast<int>(parse_count(next(), "--worker-restarts", 0));
    } else if (std::strncmp(arg, "--heartbeat-ms=", 15) == 0) {
      transport.heartbeat_seconds =
          static_cast<double>(parse_count(arg + 15, "--heartbeat-ms", 1)) /
          1e3;
    } else if (std::strcmp(arg, "--heartbeat-ms") == 0) {
      transport.heartbeat_seconds =
          static_cast<double>(parse_count(next(), "--heartbeat-ms", 1)) / 1e3;
    } else if (std::strncmp(arg, "--teardown-grace-ms=", 20) == 0) {
      transport.teardown_grace_ms =
          parse_count(arg + 20, "--teardown-grace-ms", 0);
    } else if (std::strcmp(arg, "--teardown-grace-ms") == 0) {
      transport.teardown_grace_ms =
          parse_count(next(), "--teardown-grace-ms", 0);
    } else if (std::strncmp(arg, "--stream-capacity=", 18) == 0) {
      transport.stream_capacity = static_cast<std::size_t>(
          parse_count(arg + 18, "--stream-capacity", 1));
    } else if (std::strcmp(arg, "--stream-capacity") == 0) {
      transport.stream_capacity = static_cast<std::size_t>(
          parse_count(next(), "--stream-capacity", 1));
    } else if (std::strncmp(arg, "--batch-size=", 13) == 0) {
      transport.batch_size =
          static_cast<std::size_t>(parse_count(arg + 13, "--batch-size", 1));
    } else if (std::strcmp(arg, "--batch-size") == 0) {
      transport.batch_size =
          static_cast<std::size_t>(parse_count(next(), "--batch-size", 1));
    } else if (std::strncmp(arg, "--checkpoint-interval=", 22) == 0) {
      transport.checkpoint_interval = static_cast<std::size_t>(
          parse_count(arg + 22, "--checkpoint-interval", 0));
    } else if (std::strcmp(arg, "--checkpoint-interval") == 0) {
      transport.checkpoint_interval = static_cast<std::size_t>(
          parse_count(next(), "--checkpoint-interval", 0));
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      transport.checkpoint_path = arg + 13;
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      transport.checkpoint_path = next();
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      resume_path = arg + 9;
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume_path = next();
    } else if (std::strncmp(arg, "--max-replicas=", 15) == 0) {
      max_replicas =
          static_cast<int>(parse_count(arg + 15, "--max-replicas", 1));
    } else if (std::strcmp(arg, "--max-replicas") == 0) {
      max_replicas =
          static_cast<int>(parse_count(next(), "--max-replicas", 1));
    } else if (std::strncmp(arg, "--copies=", 9) == 0) {
      copies_override = static_cast<int>(parse_count(arg + 9, "--copies", 1));
    } else if (std::strcmp(arg, "--copies") == 0) {
      copies_override = static_cast<int>(parse_count(next(), "--copies", 1));
    } else if (std::strcmp(arg, "--default") == 0) {
      use_default = true;
    } else if (std::strcmp(arg, "--no-fission") == 0) {
      options.apply_fission = false;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }
  // The process backends cannot honor every thread-backend knob; reject the
  // combinations up front with one diagnostic per conflict, emitted in the
  // order the flags appeared (the runner would throw the first anyway, but
  // cgpc users deserve the full list).
  const std::vector<std::string> conflicts =
      dc::transport_flag_conflicts(transport.backend, conflict_flags);
  if (!conflicts.empty()) {
    for (const std::string& conflict : conflicts)
      std::fprintf(stderr, "cgpc: %s\n", conflict.c_str());
    return 2;
  }
  if (transport.backend != dc::TransportBackend::kThread &&
      fault_policy.stage_timeout_seconds > 0.0 &&
      transport.heartbeat_seconds <= 0.0) {
    std::fprintf(stderr,
                 "cgpc: --stage-timeout on --backend=%s requires "
                 "--heartbeat-ms: per-copy progress counters live inside "
                 "worker processes, so the supervisor can only sample them "
                 "from the heartbeat stream\n",
                 dc::backend_name(transport.backend));
    return 2;
  }
  options.backend = dc::backend_name(transport.backend);

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cgpc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream source;
  source << file.rdbuf();

  options.env = stages > 0 ? EnvironmentSpec::uniform(stages, 350e6, 60e6,
                                                      20e-6)
                           : EnvironmentSpec::paper_cluster(width);
  options.batch_size = transport.batch_size;
  // With a non-trivial batch size, model the fixed per-enqueue link
  // overhead so the placement optimizer sees what batching amortizes
  // away (the links' configured latency is the natural scale for it).
  if (transport.batch_size > 1 && !options.env.links.empty())
    options.link_batch_overhead_sec = options.env.links.front().latency_sec;
  // Same idea for checkpointing: the snapshot serialization cost has no
  // measured value at compile time, so the links' configured latency
  // stands in as its scale and the optimizer sees the per-packet share.
  if (transport.checkpoint_interval > 0 && !options.env.links.empty()) {
    options.checkpoint_interval = transport.checkpoint_interval;
    options.checkpoint_snapshot_sec = options.env.links.front().latency_sec;
  }
  if (max_replicas > 1) {
    if (width > 1) {
      std::fprintf(stderr,
                   "cgpc: --max-replicas=%d requires --width 1 (a replica "
                   "plan supersedes the environment's copies knob; combining "
                   "them would double-count parallelism)\n",
                   max_replicas);
      return 2;
    }
    options.max_replicas = max_replicas;
    // Same pattern again: the per-packet fan-out/merge overhead of a
    // replicated stage has no measured value at compile time, so the
    // links' configured latency stands in as its scale.
    if (!options.env.links.empty())
      options.replication_overhead_sec = options.env.links.front().latency_sec;
  }
  if (!resume_path.empty()) {
    try {
      resume_ckpt = dc::load_checkpoint(resume_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cgpc: cannot resume from %s: %s\n",
                   resume_path.c_str(), error.what());
      return 1;
    }
    transport.resume = &*resume_ckpt;
    run = true;
    std::printf("resuming from %s: cut %lld (%lld source packets)\n",
                resume_path.c_str(), static_cast<long long>(resume_ckpt->id),
                static_cast<long long>(resume_ckpt->source_delivered));
  }

  CompileResult result = compile_pipeline(source.str(), options);
  if (!result.ok) {
    std::fprintf(stderr, "%s", result.diagnostics.c_str());
    return 1;
  }
  if (!result.diagnostics.empty()) {
    std::fprintf(stderr, "%s", result.diagnostics.c_str());
  }

  std::printf("atomic filters: %zu, candidate boundaries: %d\n",
              result.model.filters.size(), result.model.boundary_count());
  if (analysis) {
    for (std::size_t i = 0; i < result.model.filters.size(); ++i) {
      std::printf("  f%zu %-20s ops=%.4g\n", i + 1,
                  result.model.filters[i].label.c_str(),
                  result.decomp_input.task_ops[i]);
      std::printf("     gen  %s\n",
                  result.model.sets[i].gen.to_string().c_str());
      std::printf("     cons %s\n",
                  result.model.sets[i].cons.to_string().c_str());
      std::printf("     req  %s (%.4g bytes)\n",
                  result.model.req_comm[i].to_string().c_str(),
                  result.decomp_input.boundary_bytes[i]);
    }
    std::printf("  input %s (%.4g bytes)\n",
                result.model.input_req.to_string().c_str(),
                result.decomp_input.input_bytes);
    std::printf("%s", classify_source_setup(result.model).to_string().c_str());
  }

  Placement placement =
      use_default ? result.baseline : result.decomposition.placement;
  if (copies_override >= 1) {
    if (placement.replicated()) {
      std::fprintf(stderr,
                   "cgpc: warning: --copies=%d overrides the decomposition's "
                   "replica plan %s\n",
                   copies_override, placement.to_string().c_str());
    }
    placement.replicas.clear();
    if (copies_override > 1) {
      std::fprintf(stderr,
                   "cgpc: warning: --copies=%d bypasses the stage classifier; "
                   "sequential stages may race loop-carried state\n",
                   copies_override);
      placement.replicas.assign(options.env.units.size(), copies_override);
      placement.replicas.back() = 1;  // the result stage merges replicas
    }
  }
  if (analysis || options.max_replicas > 1) {
    std::printf("stage classification:\n%s",
                result.classification.to_string().c_str());
  }
  std::printf("placement: %s\n", placement.to_string().c_str());
  if (placement.replicated()) {
    for (std::size_t s = 0; s < options.env.units.size(); ++s) {
      std::printf("  stage %zu: %d transparent cop%s\n", s,
                  placement.replicas_of(static_cast<int>(s)),
                  placement.replicas_of(static_cast<int>(s)) == 1 ? "y"
                                                                  : "ies");
    }
  }
  std::printf("predicted total time (%lld packets): %.6f s\n",
              static_cast<long long>(options.n_packets),
              full_pipeline_time(result.decomp_input, placement,
                                 options.n_packets));

  if (emit) {
    std::printf("\n%s", result.generated_source.c_str());
  }
  if (run) {
    support::FaultPlan fault_plan;
    if (!fault_inject.empty()) {
      try {
        fault_plan = support::parse_fault_plan(fault_inject, fault_seed);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "cgpc: %s\n", error.what());
        return 2;
      }
    }
    try {
      PipelineCompiler compiler =
          result.make_runner(placement, options.env, {}, transport);
      compiler.set_fault_policy(fault_policy);
      if (!fault_plan.empty()) {
        compiler.set_checkpoint_hook(
            support::make_checkpoint_fault_hook(fault_plan));
        compiler.set_marker_hook(
            support::make_marker_fault_hook(fault_plan));
        compiler.set_packet_hook(
            support::make_fault_hook(std::move(fault_plan)));
      }
      PipelineRunResult outcome = compiler.run();
      std::printf("\nran %lld packets; simulated pipeline time %.6f s\n",
                  static_cast<long long>(outcome.packets),
                  simulate_run(outcome, options.env));
      for (std::size_t k = 0; k < outcome.link_packet_bytes.size(); ++k) {
        std::printf("link %zu: %lld packet bytes, %lld replica bytes\n", k,
                    static_cast<long long>(outcome.link_packet_bytes[k]),
                    static_cast<long long>(outcome.link_replica_bytes[k]));
      }
      for (const auto& [name, value] : outcome.finals) {
        std::printf("final %-12s = %s\n", name.c_str(),
                    value_to_string(value).c_str());
      }
      std::printf("%-8s %7s %7s %10s %10s %10s %9s\n", "stage", "pkts_in",
                  "pkts_out", "busy(s)", "stall_in", "stall_out", "hiwater");
      for (std::size_t s = 0; s < outcome.stage_metrics.size(); ++s) {
        const support::FilterMetrics& f = outcome.stage_metrics[s];
        std::int64_t hiwater = 0;
        if (s < outcome.link_metrics.size())
          hiwater = outcome.link_metrics[s].occupancy_high_water;
        std::printf("%-8s %7lld %7lld %10.4f %10.4f %10.4f %9lld\n",
                    f.name.c_str(), static_cast<long long>(f.packets_in),
                    static_cast<long long>(f.packets_out), f.busy_seconds(),
                    f.stall_input_seconds, f.stall_output_seconds,
                    static_cast<long long>(hiwater));
      }
      const int bottleneck = outcome.bottleneck_filter();
      if (bottleneck >= 0) {
        const std::string& name =
            outcome.stage_metrics[static_cast<std::size_t>(bottleneck)].name;
        std::printf("measured bottleneck: %s\n", name.c_str());
      }
      if (outcome.pool.acquires > 0 || outcome.batch_size > 1) {
        std::printf(
            "transport: batch size %lld, pool hit rate %.1f%% "
            "(%lld/%lld acquires, %lld recycled, %lld discarded)\n",
            static_cast<long long>(outcome.batch_size),
            100.0 * outcome.pool.hit_rate(),
            static_cast<long long>(outcome.pool.hits),
            static_cast<long long>(outcome.pool.acquires),
            static_cast<long long>(outcome.pool.recycles),
            static_cast<long long>(outcome.pool.discarded));
      }
      if (!outcome.faults.empty() ||
          fault_policy.action != dc::FaultAction::kFailFast) {
        std::printf(
            "fault policy %s: %zu fault(s), %lld retried, %lld packet(s) "
            "dropped\n",
            outcome.fault_policy.c_str(), outcome.faults.size(),
            static_cast<long long>(outcome.total_retries()),
            static_cast<long long>(outcome.total_dropped_packets()));
        for (const support::FaultRecord& f : outcome.faults) {
          std::printf("  fault [%s] %s#%d packet %lld: %s\n",
                      support::fault_resolution_name(f.resolution),
                      f.group.c_str(), f.copy,
                      static_cast<long long>(f.packet_index),
                      f.what.c_str());
        }
      }
      // Since trace v5 the checkpoint surface interleaves per-copy part
      // records with the "run" cut summaries; report on the summaries.
      std::size_t n_cuts = 0;
      const support::CheckpointRecord* last_cut = nullptr;
      for (const support::CheckpointRecord& c : outcome.checkpoints) {
        if (c.group != "run") continue;
        ++n_cuts;
        last_cut = &c;
      }
      if (last_cut != nullptr) {
        std::printf(
            "checkpoints: %zu consistent cut(s), last covers %lld source "
            "packet(s) across %lld part(s) (%lld bytes, quiesce %.4f s)%s%s\n",
            n_cuts, static_cast<long long>(last_cut->packet_index),
            static_cast<long long>(last_cut->parts),
            static_cast<long long>(last_cut->snapshot_bytes),
            last_cut->quiesce_seconds,
            transport.checkpoint_path.empty() ? "" : ", written to ",
            transport.checkpoint_path.c_str());
      }
      if (!outcome.respawns.empty()) {
        std::printf("self-heal: %zu worker respawn(s)\n",
                    outcome.respawns.size());
        for (const support::RespawnRecord& r : outcome.respawns) {
          std::printf(
              "  respawn %s restart %d: %s; recovered in %.3f s (cut %lld)\n",
              r.group.c_str(), r.restart, r.cause.c_str(), r.mttr_seconds,
              static_cast<long long>(r.cut_id));
        }
      }
      if (!trace_path.empty()) {
        // Written even when the run failed: a partial trace is exactly
        // what post-mortem debugging needs.
        write_trace_json(outcome, trace_path);
        std::printf("trace written to %s\n", trace_path.c_str());
      }
      if (outcome.degraded) {
        // Partial result: the finals above are the surviving stages'
        // output. Exit 3 so scripts can tell "partial" from "failed".
        std::fprintf(stderr, "cgpc: pipeline degraded: %s\n",
                     outcome.error.c_str());
        return 3;
      }
      if (!outcome.completed) {
        std::fprintf(stderr, "cgpc: pipeline failed: %s\n",
                     outcome.error.c_str());
        return 1;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cgpc: runtime error: %s\n", error.what());
      return 1;
    }
  }
  return 0;
}
