#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/json.h"

namespace cgp::support {

void LatencyHistogram::record(double seconds) {
  const double us = seconds * 1e6;
  std::size_t bucket = 0;
  if (us >= 1.0) {
    bucket = static_cast<std::size_t>(std::floor(std::log2(us)));
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  ++counts[bucket];
}

std::int64_t LatencyHistogram::total() const {
  std::int64_t n = 0;
  for (std::int64_t c : counts) n += c;
  return n;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
}

double LatencyHistogram::bucket_lo_us(std::size_t i) {
  return i == 0 ? 0.0 : std::exp2(static_cast<double>(i));
}

void LatencySummary::record(double seconds) {
  if (count == 0) {
    min_seconds = max_seconds = seconds;
  } else {
    min_seconds = std::min(min_seconds, seconds);
    max_seconds = std::max(max_seconds, seconds);
  }
  sum_seconds += seconds;
  ++count;
  histogram.record(seconds);
}

void LatencySummary::merge(const LatencySummary& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min_seconds = other.min_seconds;
    max_seconds = other.max_seconds;
  } else {
    min_seconds = std::min(min_seconds, other.min_seconds);
    max_seconds = std::max(max_seconds, other.max_seconds);
  }
  sum_seconds += other.sum_seconds;
  count += other.count;
  histogram.merge(other.histogram);
}

double FilterMetrics::busy_seconds() const {
  return std::max(0.0,
                  total_seconds - stall_input_seconds - stall_output_seconds);
}

void FilterMetrics::merge(const FilterMetrics& other) {
  if (name.empty()) name = other.name;
  copies += other.copies;
  packets_in += other.packets_in;
  packets_out += other.packets_out;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  total_seconds += other.total_seconds;
  stall_input_seconds += other.stall_input_seconds;
  stall_output_seconds += other.stall_output_seconds;
  faults += other.faults;
  retries += other.retries;
  dropped_packets += other.dropped_packets;
  checkpoints += other.checkpoints;
  init_seconds += other.init_seconds;
  latency.merge(other.latency);
}

void LinkMetrics::merge(const LinkMetrics& other) {
  buffers += other.buffers;
  bytes += other.bytes;
  batches += other.batches;
  capacity = std::max(capacity, other.capacity);
  occupancy_high_water =
      std::max(occupancy_high_water, other.occupancy_high_water);
  dropped_buffers += other.dropped_buffers;
  producer_block_seconds += other.producer_block_seconds;
  consumer_block_seconds += other.consumer_block_seconds;
  if (transport.empty()) transport = other.transport;
  frames += other.frames;
  wire_bytes += other.wire_bytes;
  send_wait_seconds += other.send_wait_seconds;
  recv_wait_seconds += other.recv_wait_seconds;
}

void PoolClassMetrics::merge(const PoolClassMetrics& other) {
  acquires += other.acquires;
  hits += other.hits;
  misses += other.misses;
  recycles += other.recycles;
  discarded += other.discarded;
  high_water = std::max(high_water, other.high_water);
}

void PoolMetrics::merge(const PoolMetrics& other) {
  acquires += other.acquires;
  hits += other.hits;
  misses += other.misses;
  recycles += other.recycles;
  discarded += other.discarded;
  for (const PoolClassMetrics& c : other.classes) {
    auto it = std::find_if(classes.begin(), classes.end(),
                           [&](const PoolClassMetrics& mine) {
                             return mine.class_index == c.class_index;
                           });
    if (it == classes.end()) {
      classes.push_back(c);
    } else {
      it->merge(c);
    }
  }
}

const char* fault_resolution_name(FaultResolution r) {
  switch (r) {
    case FaultResolution::kFatal:
      return "fatal";
    case FaultResolution::kRetried:
      return "retried";
    case FaultResolution::kDroppedPacket:
      return "dropped-packet";
    case FaultResolution::kCopyDead:
      return "copy-dead";
    case FaultResolution::kWatchdog:
      return "watchdog";
    case FaultResolution::kRestoredCheckpoint:
      return "restored-checkpoint";
    case FaultResolution::kRespawnedWorker:
      return "respawned-worker";
  }
  return "fatal";
}

FaultResolution fault_resolution_from_name(const std::string& name) {
  if (name == "fatal") return FaultResolution::kFatal;
  if (name == "retried") return FaultResolution::kRetried;
  if (name == "dropped-packet") return FaultResolution::kDroppedPacket;
  if (name == "copy-dead") return FaultResolution::kCopyDead;
  if (name == "watchdog") return FaultResolution::kWatchdog;
  if (name == "restored-checkpoint")
    return FaultResolution::kRestoredCheckpoint;
  if (name == "respawned-worker") return FaultResolution::kRespawnedWorker;
  throw std::runtime_error("trace: unknown fault resolution '" + name + "'");
}

void HeartbeatMetrics::merge(const HeartbeatMetrics& other) {
  if (group.empty()) group = other.group;
  beats += other.beats;
  max_latency_seconds = std::max(max_latency_seconds,
                                 other.max_latency_seconds);
  sum_latency_seconds += other.sum_latency_seconds;
}

int PipelineTrace::bottleneck_filter() const {
  int best = -1;
  double best_busy = -1.0;
  for (std::size_t i = 0; i < stage_metrics.size(); ++i) {
    const FilterMetrics& f = stage_metrics[i];
    const double busy = std::max(0.0, f.busy_seconds() - f.init_seconds);
    if (busy > best_busy) {
      best_busy = busy;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::int64_t PipelineTrace::total_retries() const {
  std::int64_t n = 0;
  for (const FilterMetrics& m : stage_metrics) n += m.retries;
  return n;
}

std::int64_t PipelineTrace::total_dropped_packets() const {
  std::int64_t n = 0;
  for (const FilterMetrics& m : stage_metrics) n += m.dropped_packets;
  return n;
}

void PipelineTrace::merge(const PipelineTrace& other) {
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  packets += other.packets;
  if (stage_metrics.size() < other.stage_metrics.size())
    stage_metrics.resize(other.stage_metrics.size());
  for (std::size_t i = 0; i < other.stage_metrics.size(); ++i)
    stage_metrics[i].merge(other.stage_metrics[i]);
  if (link_metrics.size() < other.link_metrics.size())
    link_metrics.resize(other.link_metrics.size());
  for (std::size_t i = 0; i < other.link_metrics.size(); ++i)
    link_metrics[i].merge(other.link_metrics[i]);
  batch_size = std::max(batch_size, other.batch_size);
  pool.merge(other.pool);
  if (stage_replicas.empty()) stage_replicas = other.stage_replicas;
  faults.insert(faults.end(), other.faults.begin(), other.faults.end());
  if (fault_policy.empty()) fault_policy = other.fault_policy;
  checkpoints.insert(checkpoints.end(), other.checkpoints.begin(),
                     other.checkpoints.end());
  respawns.insert(respawns.end(), other.respawns.begin(), other.respawns.end());
  for (const HeartbeatMetrics& h : other.heartbeats) {
    auto it = heartbeats.begin();
    while (it != heartbeats.end() && it->group != h.group) ++it;
    if (it == heartbeats.end())
      heartbeats.push_back(h);
    else
      it->merge(h);
  }
  degraded = degraded || other.degraded;
  completed = completed && other.completed;
  if (error.empty()) error = other.error;
}

namespace {

Json latency_to_json(const LatencySummary& latency) {
  Json::Array buckets;
  for (std::int64_t c : latency.histogram.counts) buckets.push_back(Json(c));
  Json out{Json::Object{}};
  out.set("count", Json(latency.count));
  out.set("min_seconds", Json(latency.min_seconds));
  out.set("mean_seconds", Json(latency.mean_seconds()));
  out.set("max_seconds", Json(latency.max_seconds));
  out.set("sum_seconds", Json(latency.sum_seconds));
  out.set("histogram_log2_us", Json(std::move(buckets)));
  return out;
}

LatencySummary latency_from_json(const Json& j) {
  LatencySummary latency;
  latency.count = j.at("count").as_int();
  latency.min_seconds = j.at("min_seconds").as_number();
  latency.max_seconds = j.at("max_seconds").as_number();
  latency.sum_seconds = j.at("sum_seconds").as_number();
  const Json::Array& buckets = j.at("histogram_log2_us").as_array();
  if (buckets.size() != LatencyHistogram::kBuckets)
    throw std::runtime_error("trace: unexpected histogram width");
  for (std::size_t i = 0; i < buckets.size(); ++i)
    latency.histogram.counts[i] = buckets[i].as_int();
  return latency;
}

}  // namespace

std::string trace_to_json(const PipelineTrace& trace, int indent) {
  Json::Array filters;
  for (const FilterMetrics& f : trace.stage_metrics) {
    Json jf{Json::Object{}};
    jf.set("name", Json(f.name));
    jf.set("copies", Json(f.copies));
    jf.set("packets_in", Json(f.packets_in));
    jf.set("packets_out", Json(f.packets_out));
    jf.set("bytes_in", Json(f.bytes_in));
    jf.set("bytes_out", Json(f.bytes_out));
    jf.set("total_seconds", Json(f.total_seconds));
    jf.set("busy_seconds", Json(f.busy_seconds()));
    jf.set("stall_input_seconds", Json(f.stall_input_seconds));
    jf.set("stall_output_seconds", Json(f.stall_output_seconds));
    jf.set("faults", Json(f.faults));
    jf.set("retries", Json(f.retries));
    jf.set("dropped_packets", Json(f.dropped_packets));
    jf.set("checkpoints", Json(f.checkpoints));
    jf.set("init_seconds", Json(f.init_seconds));
    jf.set("latency", latency_to_json(f.latency));
    filters.push_back(std::move(jf));
  }
  Json::Array links;
  for (const LinkMetrics& l : trace.link_metrics) {
    Json jl{Json::Object{}};
    jl.set("buffers", Json(l.buffers));
    jl.set("bytes", Json(l.bytes));
    jl.set("batches", Json(l.batches));
    jl.set("capacity", Json(l.capacity));
    jl.set("occupancy_high_water", Json(l.occupancy_high_water));
    jl.set("dropped_buffers", Json(l.dropped_buffers));
    jl.set("producer_block_seconds", Json(l.producer_block_seconds));
    jl.set("consumer_block_seconds", Json(l.consumer_block_seconds));
    // v7 transport surface.
    jl.set("transport",
           l.transport.empty() ? Json(nullptr) : Json(l.transport));
    jl.set("frames", Json(l.frames));
    jl.set("wire_bytes", Json(l.wire_bytes));
    jl.set("send_wait_seconds", Json(l.send_wait_seconds));
    jl.set("recv_wait_seconds", Json(l.recv_wait_seconds));
    links.push_back(std::move(jl));
  }
  Json::Array faults;
  for (const FaultRecord& fault : trace.faults) {
    Json jf{Json::Object{}};
    jf.set("group", Json(fault.group));
    jf.set("copy", Json(fault.copy));
    jf.set("packet_index", Json(fault.packet_index));
    jf.set("what", Json(fault.what));
    jf.set("attempt", Json(fault.attempt));
    jf.set("resolution", Json(fault_resolution_name(fault.resolution)));
    jf.set("at_seconds", Json(fault.at_seconds));
    faults.push_back(std::move(jf));
  }
  Json::Array checkpoints;
  for (const CheckpointRecord& c : trace.checkpoints) {
    Json jc{Json::Object{}};
    jc.set("id", Json(c.id));
    jc.set("group", Json(c.group));
    jc.set("copy", Json(c.copy));
    jc.set("packet_index", Json(c.packet_index));
    jc.set("snapshot_bytes", Json(c.snapshot_bytes));
    jc.set("parts", Json(c.parts));
    jc.set("quiesce_seconds", Json(c.quiesce_seconds));
    jc.set("at_seconds", Json(c.at_seconds));
    checkpoints.push_back(std::move(jc));
  }
  // v8 self-healing surface: respawn incidents + heartbeat telemetry.
  Json::Array respawns;
  for (const RespawnRecord& r : trace.respawns) {
    Json jr{Json::Object{}};
    jr.set("group", Json(r.group));
    jr.set("worker", Json(static_cast<std::int64_t>(r.worker)));
    jr.set("restart", Json(static_cast<std::int64_t>(r.restart)));
    jr.set("cut_id", Json(r.cut_id));
    jr.set("mttr_seconds", Json(r.mttr_seconds));
    jr.set("at_seconds", Json(r.at_seconds));
    jr.set("cause", Json(r.cause));
    respawns.push_back(std::move(jr));
  }
  Json::Array heartbeats;
  for (const HeartbeatMetrics& h : trace.heartbeats) {
    Json jh{Json::Object{}};
    jh.set("group", Json(h.group));
    jh.set("beats", Json(h.beats));
    jh.set("max_latency_seconds", Json(h.max_latency_seconds));
    jh.set("mean_latency_seconds", Json(h.mean_latency_seconds()));
    jh.set("sum_latency_seconds", Json(h.sum_latency_seconds));
    heartbeats.push_back(std::move(jh));
  }
  Json root{Json::Object{}};
  root.set("schema", Json("cgpipe-trace-v9"));
  root.set("wall_seconds", Json(trace.wall_seconds));
  root.set("packets", Json(trace.packets));
  root.set("completed", Json(trace.completed));
  root.set("degraded", Json(trace.degraded));
  root.set("error", trace.error.empty() ? Json(nullptr) : Json(trace.error));
  root.set("fault_policy", trace.fault_policy.empty()
                               ? Json(nullptr)
                               : Json(trace.fault_policy));
  const int bottleneck = trace.bottleneck_filter();
  Json bottleneck_name(nullptr);
  if (bottleneck >= 0)
    bottleneck_name =
        Json(trace.stage_metrics[static_cast<std::size_t>(bottleneck)].name);
  root.set("bottleneck_filter", std::move(bottleneck_name));
  root.set("batch_size", Json(trace.batch_size));
  Json::Array stage_replicas;
  for (int r : trace.stage_replicas)
    stage_replicas.push_back(Json(static_cast<std::int64_t>(r)));
  root.set("stage_replicas", Json(std::move(stage_replicas)));
  Json pool{Json::Object{}};
  pool.set("acquires", Json(trace.pool.acquires));
  pool.set("hits", Json(trace.pool.hits));
  pool.set("misses", Json(trace.pool.misses));
  pool.set("recycles", Json(trace.pool.recycles));
  pool.set("discarded", Json(trace.pool.discarded));
  // v6 per-size-class breakdown, sparse over active classes.
  Json::Array pool_classes;
  for (const PoolClassMetrics& c : trace.pool.classes) {
    Json jc{Json::Object{}};
    jc.set("class_index", Json(static_cast<std::int64_t>(c.class_index)));
    jc.set("class_bytes", Json(c.class_bytes));
    jc.set("acquires", Json(c.acquires));
    jc.set("hits", Json(c.hits));
    jc.set("misses", Json(c.misses));
    jc.set("recycles", Json(c.recycles));
    jc.set("discarded", Json(c.discarded));
    jc.set("high_water", Json(c.high_water));
    pool_classes.push_back(std::move(jc));
  }
  pool.set("classes", Json(std::move(pool_classes)));
  pool.set("hit_rate", Json(trace.pool.hit_rate()));
  root.set("pool", std::move(pool));
  root.set("filters", Json(std::move(filters)));
  root.set("links", Json(std::move(links)));
  root.set("faults", Json(std::move(faults)));
  root.set("checkpoints", Json(std::move(checkpoints)));
  root.set("respawns", Json(std::move(respawns)));
  root.set("heartbeats", Json(std::move(heartbeats)));
  return root.dump(indent);
}

PipelineTrace trace_from_json(const std::string& text) {
  const Json root = Json::parse(text);
  if (!root.is_object() || !root.contains("schema") ||
      !root.at("schema").is_string())
    throw std::runtime_error("trace: unknown schema");
  const std::string& schema = root.at("schema").as_string();
  if (schema != "cgpipe-trace-v1" && schema != "cgpipe-trace-v2" &&
      schema != "cgpipe-trace-v3" && schema != "cgpipe-trace-v4" &&
      schema != "cgpipe-trace-v5" && schema != "cgpipe-trace-v6" &&
      schema != "cgpipe-trace-v7" && schema != "cgpipe-trace-v8" &&
      schema != "cgpipe-trace-v9")
    throw std::runtime_error("trace: unknown schema");
  PipelineTrace trace;
  trace.wall_seconds = root.at("wall_seconds").as_number();
  trace.packets = root.at("packets").as_int();
  // v2 run-level fault surface; absent in v1 documents.
  if (root.contains("completed"))
    trace.completed = root.at("completed").as_bool();
  // v8 degradation flag; absent in older documents.
  if (root.contains("degraded"))
    trace.degraded = root.at("degraded").as_bool();
  if (root.contains("error") && root.at("error").is_string())
    trace.error = root.at("error").as_string();
  if (root.contains("fault_policy") && root.at("fault_policy").is_string())
    trace.fault_policy = root.at("fault_policy").as_string();
  for (const Json& jf : root.at("filters").as_array()) {
    FilterMetrics f;
    f.name = jf.at("name").as_string();
    f.copies = static_cast<int>(jf.at("copies").as_int());
    f.packets_in = jf.at("packets_in").as_int();
    f.packets_out = jf.at("packets_out").as_int();
    f.bytes_in = jf.at("bytes_in").as_int();
    f.bytes_out = jf.at("bytes_out").as_int();
    f.total_seconds = jf.at("total_seconds").as_number();
    f.stall_input_seconds = jf.at("stall_input_seconds").as_number();
    f.stall_output_seconds = jf.at("stall_output_seconds").as_number();
    if (jf.contains("faults")) f.faults = jf.at("faults").as_int();
    if (jf.contains("retries")) f.retries = jf.at("retries").as_int();
    if (jf.contains("dropped_packets"))
      f.dropped_packets = jf.at("dropped_packets").as_int();
    // v3 checkpoint counter; absent in v1/v2 documents.
    if (jf.contains("checkpoints"))
      f.checkpoints = jf.at("checkpoints").as_int();
    // v9 setup time; absent in v1-v8 documents.
    if (jf.contains("init_seconds"))
      f.init_seconds = jf.at("init_seconds").as_number();
    f.latency = latency_from_json(jf.at("latency"));
    trace.stage_metrics.push_back(std::move(f));
  }
  // Transport counters; absent in documents written before batching/pooling.
  if (root.contains("batch_size"))
    trace.batch_size = root.at("batch_size").as_int();
  // v4 replica plan; absent in v1-v3 documents.
  if (root.contains("stage_replicas")) {
    for (const Json& jr : root.at("stage_replicas").as_array())
      trace.stage_replicas.push_back(static_cast<int>(jr.as_int()));
  }
  if (root.contains("pool")) {
    const Json& jp = root.at("pool");
    trace.pool.acquires = jp.at("acquires").as_int();
    trace.pool.hits = jp.at("hits").as_int();
    trace.pool.misses = jp.at("misses").as_int();
    trace.pool.recycles = jp.at("recycles").as_int();
    trace.pool.discarded = jp.at("discarded").as_int();
    // v6 per-class breakdown; absent in v1-v5 documents.
    if (jp.contains("classes")) {
      for (const Json& jc : jp.at("classes").as_array()) {
        PoolClassMetrics c;
        c.class_index = static_cast<int>(jc.at("class_index").as_int());
        c.class_bytes = jc.at("class_bytes").as_int();
        c.acquires = jc.at("acquires").as_int();
        c.hits = jc.at("hits").as_int();
        c.misses = jc.at("misses").as_int();
        c.recycles = jc.at("recycles").as_int();
        c.discarded = jc.at("discarded").as_int();
        c.high_water = jc.at("high_water").as_int();
        trace.pool.classes.push_back(c);
      }
    }
  }
  for (const Json& jl : root.at("links").as_array()) {
    LinkMetrics l;
    l.buffers = jl.at("buffers").as_int();
    l.bytes = jl.at("bytes").as_int();
    if (jl.contains("batches")) l.batches = jl.at("batches").as_int();
    l.capacity = jl.at("capacity").as_int();
    l.occupancy_high_water = jl.at("occupancy_high_water").as_int();
    if (jl.contains("dropped_buffers"))
      l.dropped_buffers = jl.at("dropped_buffers").as_int();
    l.producer_block_seconds = jl.at("producer_block_seconds").as_number();
    l.consumer_block_seconds = jl.at("consumer_block_seconds").as_number();
    // v7 transport surface; absent (or null) in older documents.
    if (jl.contains("transport") && jl.at("transport").is_string())
      l.transport = jl.at("transport").as_string();
    if (jl.contains("frames")) l.frames = jl.at("frames").as_int();
    if (jl.contains("wire_bytes")) l.wire_bytes = jl.at("wire_bytes").as_int();
    if (jl.contains("send_wait_seconds"))
      l.send_wait_seconds = jl.at("send_wait_seconds").as_number();
    if (jl.contains("recv_wait_seconds"))
      l.recv_wait_seconds = jl.at("recv_wait_seconds").as_number();
    trace.link_metrics.push_back(l);
  }
  if (root.contains("faults")) {
    for (const Json& jf : root.at("faults").as_array()) {
      FaultRecord fault;
      fault.group = jf.at("group").as_string();
      fault.copy = static_cast<int>(jf.at("copy").as_int());
      fault.packet_index = jf.at("packet_index").as_int();
      fault.what = jf.at("what").as_string();
      fault.attempt = static_cast<int>(jf.at("attempt").as_int());
      fault.resolution =
          fault_resolution_from_name(jf.at("resolution").as_string());
      fault.at_seconds = jf.at("at_seconds").as_number();
      trace.faults.push_back(std::move(fault));
    }
  }
  // v3 run-level checkpoint records; absent in v1/v2 documents.
  if (root.contains("checkpoints")) {
    for (const Json& jc : root.at("checkpoints").as_array()) {
      CheckpointRecord c;
      c.id = jc.at("id").as_int();
      c.group = jc.at("group").as_string();
      c.copy = static_cast<int>(jc.at("copy").as_int());
      c.packet_index = jc.at("packet_index").as_int();
      c.snapshot_bytes = jc.at("snapshot_bytes").as_int();
      // v5 per-copy part count; absent in v3/v4 documents.
      if (jc.contains("parts")) c.parts = jc.at("parts").as_int();
      c.quiesce_seconds = jc.at("quiesce_seconds").as_number();
      c.at_seconds = jc.at("at_seconds").as_number();
      trace.checkpoints.push_back(std::move(c));
    }
  }
  // v8 self-healing surface; absent in v1-v7 documents.
  if (root.contains("respawns")) {
    for (const Json& jr : root.at("respawns").as_array()) {
      RespawnRecord r;
      r.group = jr.at("group").as_string();
      r.worker = static_cast<int>(jr.at("worker").as_int());
      r.restart = static_cast<int>(jr.at("restart").as_int());
      r.cut_id = jr.at("cut_id").as_int();
      r.mttr_seconds = jr.at("mttr_seconds").as_number();
      r.at_seconds = jr.at("at_seconds").as_number();
      r.cause = jr.at("cause").as_string();
      trace.respawns.push_back(std::move(r));
    }
  }
  if (root.contains("heartbeats")) {
    for (const Json& jh : root.at("heartbeats").as_array()) {
      HeartbeatMetrics h;
      h.group = jh.at("group").as_string();
      h.beats = jh.at("beats").as_int();
      h.max_latency_seconds = jh.at("max_latency_seconds").as_number();
      h.sum_latency_seconds = jh.at("sum_latency_seconds").as_number();
      trace.heartbeats.push_back(std::move(h));
    }
  }
  return trace;
}

}  // namespace cgp::support
