#include "apps/manual_filters.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "datacutter/runner.h"

namespace cgp::apps {

namespace {

// Same abstract-op weights as the interpreter, so simulated times of manual
// and compiled pipelines are directly comparable.
constexpr double kMem = 1.5;
constexpr double kFlop = 2.0;
constexpr double kInt = 1.0;
constexpr double kBranch = 1.0;
constexpr double kOpsPerByte = 0.25;
constexpr double kOpsPerBuffer = 400.0;
// Storage-read cost on the data host (same model as the compiled path).
constexpr double kIoOpsPerByte = 0.5;

struct Shared {
  std::mutex mutex;
  PipelineRunResult result;
};

std::int64_t get(const std::map<std::string, std::int64_t>& constants,
                 const std::string& name) {
  auto it = constants.find(name);
  if (it == constants.end())
    throw std::runtime_error("manual pipeline: missing constant " + name);
  return it->second;
}

double pack_cost(std::size_t bytes) {
  return kOpsPerBuffer + kOpsPerByte * static_cast<double>(bytes);
}

// ---------------------------------------------------------------------------
// knn (Decomp-Manual)
// ---------------------------------------------------------------------------

struct KnnParams {
  std::int64_t npoints, npackets, psize, k;
  double qx, qy, qz;
};

/// The dialect program's LCG, reproduced exactly.
std::vector<float> generate_points(std::int64_t npoints) {
  std::vector<float> pts(static_cast<std::size_t>(npoints) * 3);
  std::int64_t seed = 123456789;
  for (std::int64_t i = 0; i < npoints; ++i) {
    for (int d = 0; d < 3; ++d) {
      seed = (seed * 1103515245 + 12345) % 2147483647;
      pts[static_cast<std::size_t>(i * 3 + d)] =
          static_cast<float>(static_cast<double>(seed % 10000) * 0.0001);
    }
  }
  return pts;
}

class KnnManualSource : public dc::Filter {
 public:
  KnnManualSource(KnnParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void init(dc::FilterContext&) override {
    pts_ = generate_points(params_.npoints);
  }

  void process(dc::FilterContext& ctx) override {
    for (std::int64_t p = 0; p < params_.npackets; ++p) {
      if (p % ctx.copy_count() != ctx.copy_index()) continue;
      dc::Buffer out;
      out.write<std::int64_t>(p);
      out.write<std::int64_t>(params_.psize);
      ops_ += kIoOpsPerByte * 12.0 * static_cast<double>(params_.psize);
      const std::int64_t base = p * params_.psize;
      for (std::int64_t i = base; i < base + params_.psize; ++i) {
        const double x = pts_[static_cast<std::size_t>(i * 3 + 0)];
        const double y = pts_[static_cast<std::size_t>(i * 3 + 1)];
        const double z = pts_[static_cast<std::size_t>(i * 3 + 2)];
        // Same rounding as the dialect program: float-typed locals round
        // each difference, the distance expression evaluates in double and
        // rounds once at the float store.
        const double dx = static_cast<float>(x - params_.qx);
        const double dy = static_cast<float>(y - params_.qy);
        const double dz = static_cast<float>(z - params_.qz);
        out.write<float>(static_cast<float>(dx * dx + dy * dy + dz * dz));
        // Interpreter-equivalent weights for the same dialect loop body
        // (element load, three subtractions into float locals, five float
        // ops, indexed store) — the paper's compiled and manual versions
        // run the same native code here (§6.4: no significant difference).
        ops_ += 41.0;
      }
      ops_ += pack_cost(out.size());
      bytes_ += static_cast<std::int64_t>(out.size());
      ctx.emit(std::move(out));
      ++packets_;
    }
  }

  void finalize(dc::FilterContext&) override {
    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_ops[0] += ops_;
    shared_->result.link_packet_bytes[0] += bytes_;
    shared_->result.packets += packets_;
  }

 private:
  KnnParams params_;
  std::shared_ptr<Shared> shared_;
  std::vector<float> pts_;
  double ops_ = 0.0;
  std::int64_t bytes_ = 0;
  std::int64_t packets_ = 0;
};

class KnnManualInsert : public dc::Filter {
 public:
  KnnManualInsert(KnnParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void init(dc::FilterContext&) override {
    best_.assign(static_cast<std::size_t>(params_.k), 1.0e30);
  }

  void process(dc::FilterContext& ctx) override {
    while (auto buffer = ctx.read()) {
      dc::Buffer in = std::move(*buffer);
      ops_ += pack_cost(in.size());
      in.read<std::int64_t>();  // packet id
      std::int64_t count = in.read<std::int64_t>();
      for (std::int64_t j = 0; j < count; ++j) {
        insert(static_cast<double>(in.read<float>()));
      }
    }
  }

  void finalize(dc::FilterContext& ctx) override {
    dc::Buffer out;
    out.write<std::int64_t>(params_.k);
    for (double d : best_) out.write<double>(d);
    replica_ops_ += pack_cost(out.size());
    replica_bytes_ += static_cast<std::int64_t>(out.size());
    ctx.emit(std::move(out));

    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_ops[1] += ops_;
    shared_->result.stage_replica_ops[1] += replica_ops_;
    shared_->result.link_replica_bytes[1] += replica_bytes_;
  }

  bool snapshot_state(dc::Buffer& out) override {
    out.write<std::uint32_t>(static_cast<std::uint32_t>(best_.size()));
    for (double d : best_) out.write<double>(d);
    out.write<double>(worst_);
    out.write<double>(ops_);
    out.write<double>(replica_ops_);
    out.write<std::int64_t>(replica_bytes_);
    return true;
  }

  void restore_state(dc::Buffer& in) override {
    best_.resize(in.read<std::uint32_t>());
    for (double& d : best_) d = in.read<double>();
    worst_ = in.read<double>();
    ops_ = in.read<double>();
    replica_ops_ = in.read<double>();
    replica_bytes_ = in.read<std::int64_t>();
  }

 private:
  void insert(double d) {
    // Same algorithm as the dialect KnnResult::insert: O(1) reject against
    // the cached worst, full scan + worst recompute only on acceptance.
    // Per-point cost matches the interpreter's weights for the foreach
    // body + call + compare (~10 abstract ops).
    ops_ += 13.0;
    if (d >= worst_) return;
    std::size_t mi = 0;
    double mv = best_[0];
    for (std::size_t i = 1; i < best_.size(); ++i) {
      if (best_[i] > mv) {
        mv = best_[i];
        mi = i;
      }
    }
    best_[mi] = d;
    double nw = best_[0];
    for (std::size_t i = 1; i < best_.size(); ++i) {
      if (best_[i] > nw) nw = best_[i];
    }
    worst_ = nw;
    // Two k-long scans at ~6 weighted ops per iteration (loop test, indexed
    // load, compare, occasional update), as the interpreter charges.
    ops_ += 26.0 * static_cast<double>(best_.size()) + 30.0;
  }

  KnnParams params_;
  std::shared_ptr<Shared> shared_;
  std::vector<double> best_;
  double worst_ = 1.0e30;
  double ops_ = 0.0;
  double replica_ops_ = 0.0;
  std::int64_t replica_bytes_ = 0;
};

class KnnManualSink : public dc::Filter {
 public:
  KnnManualSink(KnnParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void init(dc::FilterContext&) override {
    best_.assign(static_cast<std::size_t>(params_.k), 1.0e30);
  }

  void process(dc::FilterContext& ctx) override {
    while (auto buffer = ctx.read()) {
      dc::Buffer in = std::move(*buffer);
      ops_ += pack_cost(in.size());
      std::int64_t k = in.read<std::int64_t>();
      for (std::int64_t i = 0; i < k; ++i) {
        insert(in.read<double>());
      }
    }
  }

  void finalize(dc::FilterContext&) override {
    double kth = 0.0;
    double dsum = 0.0;
    for (double d : best_) {
      dsum += d;
      if (d > kth && d < 1.0e29) kth = d;
      ops_ += 2.0 * kBranch + kFlop;
    }
    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_replica_ops[2] += ops_;
    shared_->result.finals["kth"] = kth;
    shared_->result.finals["dsum"] = dsum;
  }

  bool snapshot_state(dc::Buffer& out) override {
    out.write<std::uint32_t>(static_cast<std::uint32_t>(best_.size()));
    for (double d : best_) out.write<double>(d);
    out.write<double>(worst_);
    out.write<double>(ops_);
    return true;
  }

  void restore_state(dc::Buffer& in) override {
    best_.resize(in.read<std::uint32_t>());
    for (double& d : best_) d = in.read<double>();
    worst_ = in.read<double>();
    ops_ = in.read<double>();
  }

 private:
  void insert(double d) {
    ops_ += 13.0;
    if (d >= worst_) return;
    std::size_t mi = 0;
    double mv = best_[0];
    for (std::size_t i = 1; i < best_.size(); ++i) {
      if (best_[i] > mv) {
        mv = best_[i];
        mi = i;
      }
    }
    best_[mi] = d;
    double nw = best_[0];
    for (std::size_t i = 1; i < best_.size(); ++i) {
      if (best_[i] > nw) nw = best_[i];
    }
    worst_ = nw;
    ops_ += 26.0 * static_cast<double>(best_.size()) + 30.0;
  }

  KnnParams params_;
  std::shared_ptr<Shared> shared_;
  std::vector<double> best_;
  double worst_ = 1.0e30;
  double ops_ = 0.0;
};

// ---------------------------------------------------------------------------
// vmscope (Decomp-Manual)
// ---------------------------------------------------------------------------

struct VmParams {
  std::int64_t imgw, imgh, npackets, rowsper;
  std::int64_t qx0, qx1, qy0, qy1, sub;
  std::int64_t bandw, outw, outh;
};

class VmManualSource : public dc::Filter {
 public:
  VmManualSource(VmParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void init(dc::FilterContext&) override {
    img_.resize(static_cast<std::size_t>(params_.imgw * params_.imgh));
    for (std::int64_t i = 0; i < params_.imgw * params_.imgh; ++i) {
      img_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          (i * 31 + (i / params_.imgw) * 17) % 127);
    }
  }

  void process(dc::FilterContext& ctx) override {
    for (std::int64_t p = 0; p < params_.npackets; ++p) {
      if (p % ctx.copy_count() != ctx.copy_index()) continue;
      const std::int64_t row0 = params_.qy0 + p * params_.rowsper;
      ops_ += kIoOpsPerByte *
              static_cast<double>(params_.rowsper * params_.imgw);
      const std::int64_t r_lo = std::max(row0, params_.qy0);
      const std::int64_t r_hi =
          std::min(row0 + params_.rowsper - 1, params_.qy1);
      dc::Buffer out;
      out.write<std::int64_t>(p);
      out.write<std::int64_t>(r_lo);
      out.write<std::int64_t>(r_hi >= r_lo ? r_hi - r_lo + 1 : 0);
      for (std::int64_t r = r_lo; r <= r_hi; ++r) {
        const std::uint8_t* row =
            img_.data() + r * params_.imgw + params_.qx0;
        out.write_bytes(row, static_cast<std::size_t>(params_.bandw));
        ops_ += static_cast<double>(params_.bandw) * 2.0 * kMem + 5.0;
      }
      ops_ += pack_cost(out.size());
      bytes_ += static_cast<std::int64_t>(out.size());
      ctx.emit(std::move(out));
      ++packets_;
    }
  }

  void finalize(dc::FilterContext&) override {
    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_ops[0] += ops_;
    shared_->result.link_packet_bytes[0] += bytes_;
    shared_->result.packets += packets_;
  }

 private:
  VmParams params_;
  std::shared_ptr<Shared> shared_;
  std::vector<std::uint8_t> img_;
  double ops_ = 0.0;
  std::int64_t bytes_ = 0;
  std::int64_t packets_ = 0;
};

class VmManualSubsample : public dc::Filter {
 public:
  VmManualSubsample(VmParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void process(dc::FilterContext& ctx) override {
    std::vector<std::uint8_t> row(static_cast<std::size_t>(params_.bandw));
    while (auto buffer = ctx.read()) {
      dc::Buffer in = std::move(*buffer);
      ops_ += pack_cost(in.size());
      in.read<std::int64_t>();  // packet id
      const std::int64_t r_lo = in.read<std::int64_t>();
      const std::int64_t nrows = in.read<std::int64_t>();
      dc::Buffer out;
      const std::size_t count_slot = out.reserve_slot<std::int64_t>();
      std::int64_t nk = 0;
      for (std::int64_t rr = 0; rr < nrows; ++rr) {
        in.read_bytes(row.data(), row.size());
        const std::int64_t yr = (r_lo + rr) - params_.qy0;
        // Manual stride: whole rows that miss the subsampling grid are
        // skipped without touching their pixels (§6.5).
        if (yr % params_.sub != 0) {
          ops_ += kBranch + kInt;
          continue;
        }
        for (std::int64_t xr = 0; xr < params_.bandw; xr += params_.sub) {
          std::int64_t v = row[static_cast<std::size_t>(xr)];
          std::int64_t sv = std::min<std::int64_t>(v * 2, 255);
          out.write<std::int32_t>(static_cast<std::int32_t>(
              (yr / params_.sub) * params_.outw + xr / params_.sub));
          out.write<std::int32_t>(static_cast<std::int32_t>(sv + 1));
          ++nk;
          ops_ += 4.0 * kInt + 2.0 * kMem + kBranch;
        }
      }
      out.patch_slot<std::int64_t>(count_slot, nk);
      ops_ += pack_cost(out.size());
      bytes_ += static_cast<std::int64_t>(out.size());
      ctx.emit(std::move(out));
    }
  }

  void finalize(dc::FilterContext&) override {
    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_ops[1] += ops_;
    shared_->result.link_packet_bytes[1] += bytes_;
  }

  // Per-packet stateless; only telemetry accumulators survive a restart.
  bool snapshot_state(dc::Buffer& out) override {
    out.write<double>(ops_);
    out.write<std::int64_t>(bytes_);
    return true;
  }

  void restore_state(dc::Buffer& in) override {
    ops_ = in.read<double>();
    bytes_ = in.read<std::int64_t>();
  }

 private:
  VmParams params_;
  std::shared_ptr<Shared> shared_;
  double ops_ = 0.0;
  std::int64_t bytes_ = 0;
};

class VmManualSink : public dc::Filter {
 public:
  VmManualSink(VmParams params, std::shared_ptr<Shared> shared)
      : params_(params), shared_(std::move(shared)) {}

  void init(dc::FilterContext&) override {
    data_.assign(static_cast<std::size_t>(params_.outw * params_.outh), 0);
  }

  void process(dc::FilterContext& ctx) override {
    while (auto buffer = ctx.read()) {
      dc::Buffer in = std::move(*buffer);
      ops_ += pack_cost(in.size());
      const std::int64_t nk = in.read<std::int64_t>();
      for (std::int64_t i = 0; i < nk; ++i) {
        const std::int32_t pos = in.read<std::int32_t>();
        const std::int32_t val = in.read<std::int32_t>();
        if (pos >= 0 &&
            pos < static_cast<std::int32_t>(data_.size())) {
          data_[static_cast<std::size_t>(pos)] = val;
        }
        ops_ += 2.0 * kMem + kBranch;
      }
    }
  }

  void finalize(dc::FilterContext&) override {
    std::int64_t total = 0;
    std::int64_t filled = 0;
    for (std::int64_t v : data_) {
      total += v;
      if (v > 0) ++filled;
      ops_ += kMem + kBranch + kInt;
    }
    std::lock_guard lock(shared_->mutex);
    shared_->result.stage_ops[2] += ops_;
    shared_->result.finals["total"] = total;
    shared_->result.finals["filled"] = filled;
  }

  bool snapshot_state(dc::Buffer& out) override {
    out.write<std::uint32_t>(static_cast<std::uint32_t>(data_.size()));
    for (std::int64_t v : data_) out.write<std::int64_t>(v);
    out.write<double>(ops_);
    return true;
  }

  void restore_state(dc::Buffer& in) override {
    data_.resize(in.read<std::uint32_t>());
    for (std::int64_t& v : data_) v = in.read<std::int64_t>();
    ops_ = in.read<double>();
  }

 private:
  VmParams params_;
  std::shared_ptr<Shared> shared_;
  std::vector<std::int64_t> data_;
  double ops_ = 0.0;
};

PipelineRunResult run_pipeline(std::vector<dc::FilterGroup> groups,
                               std::shared_ptr<Shared> shared, int stages) {
  shared->result.stage_ops.assign(static_cast<std::size_t>(stages), 0.0);
  shared->result.stage_replica_ops.assign(static_cast<std::size_t>(stages),
                                          0.0);
  shared->result.link_packet_bytes.assign(static_cast<std::size_t>(stages - 1),
                                          0);
  shared->result.link_replica_bytes.assign(
      static_cast<std::size_t>(stages - 1), 0);
  dc::PipelineRunner runner(std::move(groups));
  shared->result.adopt_trace(runner.run());
  return shared->result;
}

}  // namespace

PipelineRunResult run_knn_manual(
    const std::map<std::string, std::int64_t>& constants,
    const EnvironmentSpec& env) {
  KnnParams params;
  params.npoints = get(constants, "runtime_define_num_points");
  params.npackets = get(constants, "runtime_define_num_packets");
  params.psize = params.npoints / params.npackets;
  params.k = get(constants, "runtime_define_k");
  // float-rounded, matching the dialect's `float qx = ... * 0.001`.
  params.qx = static_cast<float>(
      static_cast<double>(get(constants, "runtime_define_qx_mille")) * 0.001);
  params.qy = static_cast<float>(
      static_cast<double>(get(constants, "runtime_define_qy_mille")) * 0.001);
  params.qz = static_cast<float>(
      static_cast<double>(get(constants, "runtime_define_qz_mille")) * 0.001);

  auto shared = std::make_shared<Shared>();
  std::vector<dc::FilterGroup> groups;
  groups.push_back({"knn-dist", [=] {
                      return std::make_unique<KnnManualSource>(params, shared);
                    },
                    env.units[0].copies, 0});
  groups.push_back({"knn-insert", [=] {
                      return std::make_unique<KnnManualInsert>(params, shared);
                    },
                    env.units[1].copies, 1});
  groups.push_back({"knn-view", [=] {
                      return std::make_unique<KnnManualSink>(params, shared);
                    },
                    env.units[2].copies, 2});
  return run_pipeline(std::move(groups), shared, env.stages());
}

PipelineRunResult run_vmscope_manual(
    const std::map<std::string, std::int64_t>& constants,
    const EnvironmentSpec& env) {
  VmParams params;
  params.imgw = get(constants, "runtime_define_img_w");
  params.imgh = get(constants, "runtime_define_img_h");
  params.npackets = get(constants, "runtime_define_num_packets");
  params.qx0 = get(constants, "runtime_define_qx0");
  params.qx1 = get(constants, "runtime_define_qx1");
  params.qy0 = get(constants, "runtime_define_qy0");
  params.qy1 = get(constants, "runtime_define_qy1");
  params.sub = get(constants, "runtime_define_subsample");
  params.rowsper = (params.qy1 - params.qy0 + 1) / params.npackets;
  params.bandw = params.qx1 - params.qx0 + 1;
  params.outw = (params.qx1 - params.qx0 + params.sub) / params.sub;
  params.outh = (params.qy1 - params.qy0 + params.sub) / params.sub;

  auto shared = std::make_shared<Shared>();
  std::vector<dc::FilterGroup> groups;
  groups.push_back({"vm-clip", [=] {
                      return std::make_unique<VmManualSource>(params, shared);
                    },
                    env.units[0].copies, 0});
  groups.push_back({"vm-subsample", [=] {
                      return std::make_unique<VmManualSubsample>(params,
                                                                 shared);
                    },
                    env.units[1].copies, 1});
  groups.push_back({"vm-view", [=] {
                      return std::make_unique<VmManualSink>(params, shared);
                    },
                    env.units[2].copies, 2});
  return run_pipeline(std::move(groups), shared, env.stages());
}

}  // namespace cgp::apps
