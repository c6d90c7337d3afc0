// Stage-classification tests (ROADMAP item 1): which filters tolerate
// transparent replication. Covers the three verdict families — carried
// scalars (sequential), reduction replicas (parallel), pure maps
// (parallel) — plus the conservative alias/call fallbacks. The StageClass.
// Setup* tests cover the source-setup verdict (DESIGN.md §6.13): which
// pre-loop fills a source copy may run over only its own packets' share.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/stage_class.h"
#include "apps/app_configs.h"
#include "parser/parser.h"

namespace cgp {
namespace {

struct Classified {
  std::unique_ptr<Program> program;  // owns the AST the model points into
  PipelineModel model;
  PipelineClassification classification;
};

Classified classify(std::string_view source) {
  Classified out;
  DiagnosticEngine diags;
  out.program = Parser::parse(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  out.model = build_pipeline_model(*out.program, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  out.classification = classify_filters(out.model);
  EXPECT_EQ(out.classification.filters.size(), out.model.filters.size());
  return out;
}

constexpr const char* kPrologue = R"dialect(
interface Reducinterface { }

class App {
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) {
      data[i] = i * 0.5;
    }
)dialect";

TEST(StageClass, CarriedScalarIsSequential) {
  // `carry` is declared before the loop and assigned every packet without
  // a Reduce interface: replicating its filter would race the updates.
  std::string source = std::string(kPrologue) + R"dialect(
    double carry = 0.0;
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] sq = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        sq[i - base] = data[i] * data[i];
      }
      foreach (j in [0 : psize - 1]) {
        carry = carry + sq[j];
      }
    }
    double result = carry;
  }
}
)dialect";
  Classified c = classify(source);
  ASSERT_EQ(c.classification.filters.size(), 3u);
  EXPECT_TRUE(c.classification.filters[0].parallel());  // base + sq decls
  EXPECT_TRUE(c.classification.filters[1].parallel());  // writes sq only
  const FilterClassification& acc = c.classification.filters[2];
  EXPECT_EQ(acc.cls, StageClass::kSequential);
  EXPECT_TRUE(acc.carried_writes.count("carry")) << acc.reason;
  EXPECT_NE(acc.reason.find("carries"), std::string::npos) << acc.reason;
}

TEST(StageClass, ReductionReplicaIsParallel) {
  // The tiny app's accumulator implements Reducinterface: the runtime
  // replicates it per copy and merges at end of stream, so the updating
  // filter stays parallel.
  apps::AppConfig config = apps::tiny_config(64, 4);
  Classified c = classify(config.source);
  ASSERT_EQ(c.classification.filters.size(), 3u);
  for (const FilterClassification& f : c.classification.filters) {
    EXPECT_TRUE(f.parallel()) << f.reason;
    EXPECT_TRUE(f.carried_writes.empty()) << f.reason;
  }
  const FilterClassification& acc = c.classification.filters[2];
  EXPECT_TRUE(acc.reduction_writes.count("acc")) << acc.reason;
  EXPECT_NE(acc.reason.find("reductions"), std::string::npos) << acc.reason;
  std::vector<char> flags = c.classification.parallel_flags();
  EXPECT_EQ(flags, (std::vector<char>{1, 1, 1}));
}

TEST(StageClass, PureMapIsParallel) {
  // Every mutated location is declared inside the loop body (per-packet):
  // copies touch disjoint state.
  std::string source = std::string(kPrologue) + R"dialect(
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] sq = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        sq[i - base] = data[i] * 2.0;
      }
      double[] shifted = new double[psize];
      foreach (j in [0 : psize - 1]) {
        shifted[j] = sq[j] + 1.0;
      }
    }
  }
}
)dialect";
  Classified c = classify(source);
  ASSERT_GE(c.classification.filters.size(), 2u);
  for (const FilterClassification& f : c.classification.filters) {
    EXPECT_TRUE(f.parallel()) << f.reason;
    EXPECT_NE(f.reason.find("stateless"), std::string::npos) << f.reason;
  }
}

TEST(StageClass, WriteThroughAliasCarriesTheAliasedCollection) {
  // `Box b = boxes[j]` binds a reference to a pre-loop object; a write
  // through b mutates loop-carried state and must be attributed to
  // `boxes`, not to the loop-local name.
  std::string source = R"dialect(
interface Reducinterface { }

class Box {
  double v;
}

class App {
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    Box[] boxes = new Box[n];
    foreach (i in [0 : n - 1]) {
      Box b = new Box();
      b.v = i * 0.5;
      boxes[i] = b;
    }
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] sq = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        sq[i - base] = base * 1.0;
      }
      foreach (j in [0 : psize - 1]) {
        Box b = boxes[base + j];
        b.v = sq[j];
      }
    }
  }
}
)dialect";
  Classified c = classify(source);
  ASSERT_EQ(c.classification.filters.size(), 3u);
  const FilterClassification& writer = c.classification.filters[2];
  EXPECT_EQ(writer.cls, StageClass::kSequential);
  EXPECT_TRUE(writer.carried_writes.count("boxes")) << writer.reason;
}

TEST(StageClass, UnboundedCallForcesSequential) {
  // The active-pixels projection filter calls a same-class helper
  // (projectPix); the classifier cannot bound its effects and must fall
  // back to sequential.
  apps::AppConfig config = apps::isosurface_active_pixels_config(false);
  Classified c = classify(config.source);
  ASSERT_EQ(c.classification.filters.size(), 7u);
  EXPECT_EQ(c.classification.filters[4].cls, StageClass::kSequential);
  EXPECT_NE(c.classification.filters[4].reason.find("unbounded"),
            std::string::npos)
      << c.classification.filters[4].reason;
  // The surrounding filters stay parallel; the final z-buffer update is a
  // reduction.
  EXPECT_TRUE(c.classification.filters[0].parallel());
  EXPECT_TRUE(c.classification.filters[6].parallel());
  EXPECT_TRUE(c.classification.filters[6].reduction_writes.count("zbuf"));
}

TEST(StageClass, AllFourAppsClassify) {
  // Regression net over the evaluation applications: reduction-updating
  // tails are parallel, and only the active-pixels helper-call filter is
  // sequential anywhere.
  struct Case {
    apps::AppConfig config;
    int expected_sequential;
  };
  const Case cases[] = {
      {apps::isosurface_zbuffer_config(false), 0},
      {apps::isosurface_active_pixels_config(false), 1},
      {apps::knn_config(3), 0},
      {apps::vmscope_config(false), 0},
  };
  for (const Case& test_case : cases) {
    Classified c = classify(test_case.config.source);
    int sequential = 0;
    for (const FilterClassification& f : c.classification.filters) {
      if (!f.parallel()) ++sequential;
    }
    EXPECT_EQ(sequential, test_case.expected_sequential)
        << test_case.config.name << "\n"
        << c.classification.to_string();
    EXPECT_TRUE(c.classification.filters.back().parallel())
        << test_case.config.name;
  }
}

TEST(StageClass, SetupPartitionsThePaperFills) {
  // Every app but knn synthesizes its dataset with a foreach of
  // independent element stores; the isosurface fills go through the pure
  // field() helper, and vmscope's share is the query band, not the slide.
  struct Case {
    apps::AppConfig config;
    const char* array;
    const char* section;
  };
  const Case cases[] = {
      {apps::tiny_config(64, 4), "data", "[p*psize:p*psize + psize - 1]"},
      {apps::isosurface_zbuffer_config(false), "cubes",
       "[p*psize:p*psize + psize - 1]"},
      {apps::isosurface_active_pixels_config(false), "cubes",
       "[p*psize:p*psize + psize - 1]"},
      {apps::vmscope_config(false), "img",
       "[imgw*p*rowsper + imgw*qy0 + qx0:imgw*p*rowsper + imgw*qy0 + "
       "imgw*rowsper - imgw + qx1]"},
  };
  for (const Case& test_case : cases) {
    Classified c = classify(test_case.config.source);
    const SourceSetupVerdict verdict = classify_source_setup(c.model);
    ASSERT_EQ(verdict.fills.size(), 1u)
        << test_case.config.name << "\n" << verdict.to_string();
    EXPECT_TRUE(verdict.whole.empty()) << verdict.to_string();
    const SetupFill& fill = verdict.fills[0];
    EXPECT_EQ(fill.array, test_case.array) << test_case.config.name;
    ASSERT_EQ(fill.sections.size(), 1u) << test_case.config.name;
    EXPECT_EQ(fill.sections[0].to_string(), test_case.section);
    ASSERT_NE(fill.loop, nullptr);
    EXPECT_EQ(std::count(c.model.before.begin(), c.model.before.end(),
                         fill.loop),
              1);
  }
}

TEST(StageClass, SetupKeepsKnnWhole) {
  Classified c = classify(apps::knn_config(3).source);
  const SourceSetupVerdict verdict = classify_source_setup(c.model);
  EXPECT_TRUE(verdict.fills.empty());
  ASSERT_EQ(verdict.whole.size(), 1u);
  EXPECT_EQ(verdict.whole[0], "pts is filled by a for loop carrying seed");
  EXPECT_EQ(verdict.to_string(),
            "source setup: whole (pts is filled by a for loop carrying "
            "seed)\n");
}

/// A tiny-shaped program: `fill` fills `data` (declared with n elements),
/// `later` follows it before the loop, the loop reads `data` through
/// `read`, and `after` follows the loop.
std::string setup_program(const std::string& fill, const std::string& later,
                          const std::string& read = "data[i]",
                          const std::string& after = "") {
  return R"dialect(
interface Reducinterface { }

class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}

class Cube {
  double x;
}

class App {
  int count;
  void bump() { count = count + 1; }
  double twice(double[] v, int k) {
    v[k] = v[k] * 2.0;
    return v[k];
  }
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    int[] idx = new int[n];
    double[] spare = new double[n];
    Cube[] other = new Cube[n];
    double total = 0.0;
    double[] data = new double[n];
)dialect" + fill + later + R"dialect(
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      foreach (i in [base : base + psize - 1]) {
        acc.add()dialect" + read + R"dialect();
      }
    }
    double result = acc.total;
)dialect" + after + R"dialect(
  }
}
)dialect";
}

TEST(StageClass, SetupRejectsWhatItCannotPartition) {
  const std::string plain_fill =
      "foreach (i in [0 : n - 1]) { data[i] = i * 0.5; }\n";
  struct Case {
    const char* what;
    std::string source;
    const char* reason;
  };
  const Case cases[] = {
      {"fill reads its array",
       setup_program("foreach (i in [1 : n - 1]) { data[i] = data[i - 1] + "
                     "1.0; }\n",
                     ""),
       "the fill of data reads data"},
      {"fill stores another element",
       setup_program("foreach (i in [0 : n - 2]) { data[i + 1] = i * 0.5; "
                     "}\n",
                     ""),
       "the fill of data stores data[(i + 1)], not its own element"},
      {"fill accumulates into an outer scalar",
       setup_program("foreach (i in [0 : n - 1]) { total = total + i; "
                     "data[i] = total; }\n",
                     ""),
       "the fill of data writes total, declared outside it"},
      {"fill calls a method that writes a field",
       setup_program("foreach (i in [0 : n - 1]) { bump(); data[i] = i * "
                     "0.5; }\n",
                     ""),
       "the fill of data calls bump(), which writes field count"},
      {"fill calls a method that writes its argument",
       setup_program("foreach (i in [0 : n - 1]) { data[i] = twice(spare, "
                     "i); }\n",
                     ""),
       "the fill of data calls twice(), which writes its argument v"},
      {"fill writes through a local bound to pre-loop storage",
       setup_program("foreach (i in [0 : n - 1]) { Cube c = other[i]; c.x = "
                     "1.0; data[i] = i * 0.5; }\n",
                     ""),
       "the fill of data writes through c, an alias of other"},
      {"fill links pre-loop storage into a fresh local",
       setup_program("foreach (i in [0 : n - 1]) { Cube[] box = new Cube[1]; "
                     "box[0] = other[i]; box[0].x = 1.0; data[i] = i * 0.5; "
                     "}\n",
                     ""),
       "the fill of data stores existing storage into box"},
      {"array read later in the setup",
       setup_program(plain_fill, "double first = data[0];\n"),
       "data is used after its fill, at line"},
      {"array read after the loop",
       setup_program(plain_fill, "", "data[i]", "double last = data[n - 1];"),
       "data is used after the loop"},
      {"loop reads the array through a data-dependent index",
       setup_program(plain_fill, "", "data[idx[i]]"),
       "the loop reads data[] without a packet section"},
      {"section bound reassigned after the fill",
       setup_program(plain_fill, "psize = n / npackets;\n"),
       "psize, a bound of data's packet sections, is written after the fill"},
  };
  for (const Case& test_case : cases) {
    Classified c = classify(test_case.source);
    const SourceSetupVerdict verdict = classify_source_setup(c.model);
    for (const SetupFill& fill : verdict.fills)
      EXPECT_NE(fill.array, "data") << test_case.what;
    bool named = false;
    for (const std::string& reason : verdict.whole)
      named |= reason.find(test_case.reason) != std::string::npos;
    EXPECT_TRUE(named) << test_case.what << ": wanted \"" << test_case.reason
                       << "\" in\n"
                       << verdict.to_string();
  }
  // The control: the same program with the plain fill is partitioned.
  Classified c = classify(setup_program(plain_fill, ""));
  const SourceSetupVerdict verdict = classify_source_setup(c.model);
  ASSERT_EQ(verdict.fills.size(), 1u) << verdict.to_string();
  EXPECT_EQ(verdict.fills[0].array, "data");
}

}  // namespace
}  // namespace cgp
