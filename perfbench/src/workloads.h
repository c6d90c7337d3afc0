// The benchmark's workloads: three paper applications, each compiled with
// the DP-chosen placement on EnvironmentSpec::paper_cluster(width) and run
// on a fixed runner configuration. The seed draws the inputs that vary
// (the isovalue, the vmscope query-window offset) inside a narrow band, so
// every seed keeps the workload's character.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_configs.h"
#include "datacutter/runner.h"
#include "driver/compiler.h"

namespace perfbench {

struct Workload {
  std::string name;
  cgp::apps::AppConfig app;
  std::string main_class;  // class whose main() the oracle runs
  int width = 1;           // paper_cluster(width)
  cgp::dc::RunnerConfig runner;
  /// Single-copy workloads are deterministic: every final must match the
  /// oracle byte for byte. Replicated ones compare `result_keys` within
  /// 1e-9, because replica merges may reorder float sums.
  bool exact = true;
  std::vector<std::string> result_keys;
  /// vmscope only: the finals must also equal run_vmscope_manual's.
  bool check_manual = false;
  /// The seed-drawn constants, for the report.
  std::map<std::string, std::int64_t> drawn;

  cgp::EnvironmentSpec env() const { return cgp::EnvironmentSpec::paper_cluster(width); }
  cgp::CompileOptions compile_options() const;
};

const std::vector<std::string>& workload_names();

/// The named workload with inputs drawn from `seed`; nullopt for an
/// unknown name.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// vmscope-large constants with the query window drawn from `seed` (the
/// native manual pipeline runs on these in every workload).
std::map<std::string, std::int64_t> vmscope_constants(std::uint64_t seed);

}  // namespace perfbench
