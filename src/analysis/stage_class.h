// PS-DSWP-style stage classification (ROADMAP item 1).
//
// A filter is *parallel* when every location it mutates is either
//   (a) per-packet data — declared inside the PipelinedLoop body, so each
//       packet carries its own instance and transparent copies of the
//       filter touch disjoint state, or
//   (b) a loop-global reduction variable (a Reducinterface object declared
//       before the loop): the runtime replicates it per copy and merges
//       replicas at end of stream, so concurrent updates commute (§3).
// Everything else — a scalar or object declared before the loop and
// mutated per packet, a call whose effects the classifier cannot bound —
// is loop-carried state, and the filter is *sequential*: giving its stage
// more than one transparent copy would race packets through shared state.
//
// classify_source_setup asks the same independence question of the
// pre-loop code that synthesizes the dataset (DESIGN.md §6.13).
//
// The classification is deliberately syntactic and conservative. Gen/Cons
// cannot be reused here: imprecise writes never enter Gen (they would
// under-approximate the mutation set), while this analysis must
// over-approximate it. Call receivers and reference-typed call arguments
// are therefore assumed mutated, and an unqualified non-intrinsic call
// forces the filter sequential.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/pipeline_model.h"

namespace cgp {

enum class StageClass : std::uint8_t {
  kSequential,  // carries state between packets outside a Reduce interface
  kParallel,    // stateless, or state expressible as reduction replicas
};

const char* stage_class_name(StageClass cls);

/// Verdict for one atomic filter.
struct FilterClassification {
  StageClass cls = StageClass::kSequential;
  /// Base names of loop-carried locations the filter mutates (empty for
  /// parallel filters).
  std::set<std::string> carried_writes;
  /// Reduction variables the filter updates (informational; these do NOT
  /// make it sequential).
  std::set<std::string> reduction_writes;
  /// Human-readable explanation for the decomposition report.
  std::string reason;

  bool parallel() const { return cls == StageClass::kParallel; }
};

struct PipelineClassification {
  std::vector<FilterClassification> filters;

  /// Per-filter parallel flags in DecompositionInput layout (1 = the
  /// filter tolerates transparent replication).
  std::vector<char> parallel_flags() const;
  /// One line per filter, e.g. "f2: parallel (reductions: acc)".
  std::string to_string() const;
};

/// Classifies every atomic filter of the model. Requires the model's
/// statements to be type-checked (expression types drive the
/// reference-argument conservatism).
PipelineClassification classify_filters(const PipelineModel& model);

/// A pre-loop fill the source-setup check accepted (DESIGN.md §6.13): a
/// top-level rectdomain `foreach` that synthesizes `array` one element per
/// iteration, independently of every other iteration. The PipelinedLoop
/// reads the array only through `sections`, so a source copy need only
/// run the iterations its own packets' sections cover.
struct SetupFill {
  const ForeachStmt* loop = nullptr;
  std::string array;
  /// The distinct rank-1 sections of `array` in input_req, symbolic in
  /// the packet variable.
  std::vector<RectSection> sections;
};

/// Verdict on stage 0's pre-loop setup: which fills each source copy may
/// run over only its own packets' share.
struct SourceSetupVerdict {
  std::vector<SetupFill> fills;  // accepted, one per array
  /// Why the setup of each other pre-loop array the loop reads runs whole.
  std::vector<std::string> whole;
  /// One line per array: "source setup: partitioned fill of cubes over
  /// [p*psize:p*psize + psize - 1]" or "source setup: whole (<reason>)".
  std::string to_string() const;
};

/// Accepts each pre-loop fill of an array A whose body stores only
/// `A[var] = ...` and into fresh body locals, never reads A, and calls
/// only intrinsics and transitively pure methods, provided nothing else
/// reads A (no other pre-loop or post-loop statement mentions it, and the
/// PipelinedLoop reads it only through rank-1 input_req sections) and no
/// later pre-loop statement writes a bound of those sections or of the
/// packet domain. Reuses classify_filters' write and declaration walks.
SourceSetupVerdict classify_source_setup(const PipelineModel& model);

}  // namespace cgp
