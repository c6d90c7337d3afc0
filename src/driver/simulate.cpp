#include "driver/simulate.h"

#include <fstream>
#include <stdexcept>

#include "support/metrics.h"

namespace cgp {

namespace {
/// The environment the run actually executed under: the measured per-stage
/// replica counts (trace v4) supersede the spec's copies knob, so a replica
/// plan chosen by the decomposition simulates at its true width. A run
/// without the v4 surface leaves the spec untouched.
EnvironmentSpec measured_env(const PipelineRunResult& run,
                             EnvironmentSpec env) {
  for (std::size_t i = 0;
       i < run.stage_replicas.size() && i < env.units.size(); ++i) {
    env.units[i].copies = run.stage_replicas[i];
  }
  return env;
}
}  // namespace

SimEpilogue make_epilogue(const PipelineRunResult& run,
                          const EnvironmentSpec& env_spec) {
  const EnvironmentSpec env = measured_env(run, env_spec);
  SimEpilogue epilogue;
  for (std::size_t i = 0; i < run.stage_replica_ops.size(); ++i) {
    const int copies = env.units[i].copies;
    epilogue.per_copy_stage_ops.push_back(run.stage_replica_ops[i] /
                                          std::max(copies, 1));
  }
  for (std::size_t k = 0; k < run.link_replica_bytes.size(); ++k) {
    const int copies = env.units[k].copies;  // upstream endpoint
    epilogue.per_copy_link_bytes.push_back(
        static_cast<double>(run.link_replica_bytes[k]) / std::max(copies, 1));
  }
  return epilogue;
}

SimResult simulate_run_full(const PipelineRunResult& run,
                            const EnvironmentSpec& env_spec) {
  const EnvironmentSpec env = measured_env(run, env_spec);
  SimEpilogue epilogue = make_epilogue(run, env);
  return simulate_pipeline(env,
                           uniform_trace(run.packets, run.mean_stage_ops(),
                                         run.mean_link_bytes()),
                           &epilogue);
}

double simulate_run(const PipelineRunResult& run, const EnvironmentSpec& env) {
  return simulate_run_full(run, env).total_time;
}

void write_trace_json(const PipelineRunResult& run, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  out << support::trace_to_json(run) << '\n';
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

}  // namespace cgp
