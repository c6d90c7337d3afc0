// Observability-layer tests: latency histograms/summaries, the JSON
// document model, and the trace round-trip.
#include <gtest/gtest.h>

#include <stdexcept>

#include "support/json.h"
#include "support/metrics.h"

namespace cgp::support {
namespace {

TEST(LatencyHistogram, BucketsByLog2Microseconds) {
  LatencyHistogram h;
  h.record(0.5e-6);   // sub-microsecond -> bucket 0
  h.record(1.5e-6);   // [1us, 2us) -> bucket 0
  h.record(3e-6);     // [2us, 4us) -> bucket 1
  h.record(100e-6);   // [64us, 128us) -> bucket 6
  h.record(1000.0);   // clamped into the last bucket
  EXPECT_EQ(h.counts[0], 2);
  EXPECT_EQ(h.counts[1], 1);
  EXPECT_EQ(h.counts[6], 1);
  EXPECT_EQ(h.counts[LatencyHistogram::kBuckets - 1], 1);
  EXPECT_EQ(h.total(), 5);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_lo_us(0), 0.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_lo_us(6), 64.0);
}

TEST(LatencySummary, TracksMinMeanMaxAndMerges) {
  LatencySummary a;
  a.record(1e-3);
  a.record(3e-3);
  EXPECT_DOUBLE_EQ(a.min_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(a.max_seconds, 3e-3);
  EXPECT_DOUBLE_EQ(a.mean_seconds(), 2e-3);

  LatencySummary b;
  b.record(9e-3);
  a.merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.min_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(a.max_seconds, 9e-3);
  EXPECT_EQ(a.histogram.total(), 3);

  LatencySummary empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 3);
}

TEST(FilterMetrics, BusyIsTotalMinusStalls) {
  FilterMetrics f;
  f.total_seconds = 10.0;
  f.stall_input_seconds = 3.0;
  f.stall_output_seconds = 2.5;
  EXPECT_DOUBLE_EQ(f.busy_seconds(), 4.5);
  f.stall_input_seconds = 20.0;  // clock skew must not go negative
  EXPECT_DOUBLE_EQ(f.busy_seconds(), 0.0);
}

TEST(FilterMetrics, MergeAggregatesCopies) {
  FilterMetrics a;
  a.name = "stage0";
  a.copies = 1;
  a.packets_out = 10;
  a.bytes_out = 100;
  a.total_seconds = 1.0;
  FilterMetrics b = a;
  a.merge(b);
  EXPECT_EQ(a.copies, 2);
  EXPECT_EQ(a.packets_out, 20);
  EXPECT_EQ(a.bytes_out, 200);
  EXPECT_DOUBLE_EQ(a.total_seconds, 2.0);
  EXPECT_EQ(a.name, "stage0");
}

TEST(Json, ParsesScalarsArraysObjects) {
  Json j = Json::parse(R"({"a": [1, 2.5, -3], "b": "x\ny", "c": true,
                           "d": null})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(j.at("a").as_array()[2].as_int(), -3);
  EXPECT_EQ(j.at("b").as_string(), "x\ny");
  EXPECT_TRUE(j.at("c").as_bool());
  EXPECT_TRUE(j.at("d").is_null());
  EXPECT_FALSE(j.contains("missing"));
  EXPECT_THROW(j.at("missing"), std::out_of_range);
}

TEST(Json, DumpParseRoundTripPreservesOrder) {
  Json obj{Json::Object{}};
  obj.set("zeta", Json(1));
  obj.set("alpha", Json("two"));
  obj.set("nested", Json(Json::Array{Json(true), Json(nullptr)}));
  const std::string compact = obj.dump();
  EXPECT_EQ(compact, R"({"zeta":1,"alpha":"two","nested":[true,null]})");
  Json back = Json::parse(obj.dump(2));
  EXPECT_EQ(back.as_object()[0].first, "zeta");
  EXPECT_EQ(back.at("alpha").as_string(), "two");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("12 34"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
}

PipelineTrace sample_trace() {
  PipelineTrace trace;
  trace.wall_seconds = 1.25;
  trace.packets = 16;
  FilterMetrics source;
  source.name = "stage0";
  source.copies = 2;
  source.packets_out = 16;
  source.bytes_out = 4096;
  source.total_seconds = 2.0;
  source.stall_output_seconds = 0.5;
  source.latency.record(1e-4);
  source.latency.record(2e-4);
  FilterMetrics sink;
  sink.name = "stage1";
  sink.copies = 1;
  sink.packets_in = 16;
  sink.bytes_in = 4096;
  sink.total_seconds = 1.2;
  sink.stall_input_seconds = 0.25;
  sink.latency.record(5e-5);
  trace.stage_metrics = {source, sink};
  LinkMetrics link;
  link.buffers = 16;
  link.bytes = 4096;
  link.capacity = 16;
  link.occupancy_high_water = 7;
  link.producer_block_seconds = 0.5;
  link.consumer_block_seconds = 0.25;
  trace.link_metrics = {link};
  return trace;
}

TEST(Trace, JsonRoundTripPreservesEveryField) {
  const PipelineTrace trace = sample_trace();
  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);

  EXPECT_DOUBLE_EQ(back.wall_seconds, trace.wall_seconds);
  EXPECT_EQ(back.packets, trace.packets);
  ASSERT_EQ(back.stage_metrics.size(), 2u);
  const FilterMetrics& src = back.stage_metrics[0];
  EXPECT_EQ(src.name, "stage0");
  EXPECT_EQ(src.copies, 2);
  EXPECT_EQ(src.packets_out, 16);
  EXPECT_EQ(src.bytes_out, 4096);
  EXPECT_DOUBLE_EQ(src.total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(src.stall_output_seconds, 0.5);
  EXPECT_DOUBLE_EQ(src.busy_seconds(), 1.5);
  EXPECT_EQ(src.latency.count, 2);
  EXPECT_DOUBLE_EQ(src.latency.min_seconds, 1e-4);
  EXPECT_DOUBLE_EQ(src.latency.max_seconds, 2e-4);
  EXPECT_EQ(src.latency.histogram.total(), 2);
  ASSERT_EQ(back.link_metrics.size(), 1u);
  EXPECT_EQ(back.link_metrics[0].occupancy_high_water, 7);
  EXPECT_EQ(back.link_metrics[0].capacity, 16);
  EXPECT_DOUBLE_EQ(back.link_metrics[0].producer_block_seconds, 0.5);

  // A second round trip is byte-identical: the schema is stable.
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, BottleneckIsLargestBusyFilter) {
  PipelineTrace trace = sample_trace();
  EXPECT_EQ(trace.bottleneck_filter(), 0);  // source busy 1.5 vs sink 0.95
  trace.stage_metrics[1].total_seconds = 5.0;
  EXPECT_EQ(trace.bottleneck_filter(), 1);
  EXPECT_EQ(PipelineTrace{}.bottleneck_filter(), -1);
}

TEST(Trace, SerializerEmbedsBottleneckAndSchema) {
  const Json j = Json::parse(trace_to_json(sample_trace()));
  EXPECT_EQ(j.at("schema").as_string(), "cgpipe-trace-v9");
  EXPECT_EQ(j.at("bottleneck_filter").as_string(), "stage0");
}

TEST(Trace, RoundTripPreservesReplicaPlan) {
  PipelineTrace trace = sample_trace();
  trace.stage_replicas = {1, 4, 1};

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  ASSERT_EQ(back.stage_replicas.size(), 3u);
  EXPECT_EQ(back.stage_replicas[0], 1);
  EXPECT_EQ(back.stage_replicas[1], 4);
  EXPECT_EQ(back.stage_replicas[2], 1);
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, ReadsV3DocumentsWithEmptyReplicaPlan) {
  // A v3 trace predates per-stage replica counts; it still loads, with the
  // v4 field at its benign default.
  PipelineTrace trace = sample_trace();
  trace.stage_replicas = {2, 2, 1};
  std::string json = trace_to_json(trace);
  const std::size_t pos = json.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "cgpipe-trace-v3");
  const std::size_t field = json.find("\"stage_replicas\"");
  ASSERT_NE(field, std::string::npos);
  const std::size_t close = json.find(']', field);
  ASSERT_NE(close, std::string::npos);
  json.erase(field, close - field + 2);  // drop the field + trailing comma
  const PipelineTrace back = trace_from_json(json);
  EXPECT_TRUE(back.stage_replicas.empty());
}

TEST(Trace, FromJsonRejectsForeignDocuments) {
  EXPECT_THROW(trace_from_json("{}"), std::runtime_error);
  EXPECT_THROW(trace_from_json("[1,2]"), std::runtime_error);
  EXPECT_THROW(trace_from_json(R"({"schema":"other"})"), std::runtime_error);
}

TEST(Trace, RoundTripPreservesFaultSurface) {
  PipelineTrace trace = sample_trace();
  trace.fault_policy = "restart-copy";
  trace.completed = false;
  trace.error = "group 'stage1': all 1 copies dead after bounded retries";
  trace.stage_metrics[1].faults = 2;
  trace.stage_metrics[1].retries = 1;
  trace.stage_metrics[1].dropped_packets = 1;
  trace.link_metrics[0].dropped_buffers = 3;
  FaultRecord fault;
  fault.group = "stage1";
  fault.copy = 0;
  fault.packet_index = 5;
  fault.what = "injected: stage1:throw@5";
  fault.attempt = 1;
  fault.resolution = FaultResolution::kRetried;
  fault.at_seconds = 0.125;
  trace.faults.push_back(fault);

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  EXPECT_FALSE(back.completed);
  EXPECT_EQ(back.error, trace.error);
  EXPECT_EQ(back.fault_policy, "restart-copy");
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].group, "stage1");
  EXPECT_EQ(back.faults[0].copy, 0);
  EXPECT_EQ(back.faults[0].packet_index, 5);
  EXPECT_EQ(back.faults[0].what, "injected: stage1:throw@5");
  EXPECT_EQ(back.faults[0].attempt, 1);
  EXPECT_EQ(back.faults[0].resolution, FaultResolution::kRetried);
  EXPECT_DOUBLE_EQ(back.faults[0].at_seconds, 0.125);
  EXPECT_EQ(back.stage_metrics[1].faults, 2);
  EXPECT_EQ(back.stage_metrics[1].retries, 1);
  EXPECT_EQ(back.stage_metrics[1].dropped_packets, 1);
  EXPECT_EQ(back.link_metrics[0].dropped_buffers, 3);
  // The fault surface survives a second round trip byte-identically.
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, RoundTripPreservesCheckpointSurface) {
  PipelineTrace trace = sample_trace();
  trace.stage_metrics[1].checkpoints = 3;
  CheckpointRecord cut;
  cut.id = 2;
  cut.group = "run";
  cut.copy = -1;
  cut.packet_index = 48;
  cut.snapshot_bytes = 1024;
  cut.parts = 4;
  cut.quiesce_seconds = 0.01;
  cut.at_seconds = 0.5;
  trace.checkpoints.push_back(cut);
  // v5 interleaves per-copy part records with the "run" summaries.
  CheckpointRecord part;
  part.id = 2;
  part.group = "stage1";
  part.copy = 1;
  part.packet_index = -1;
  part.snapshot_bytes = 256;
  part.at_seconds = 0.49;
  trace.checkpoints.push_back(part);

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  EXPECT_EQ(back.stage_metrics[1].checkpoints, 3);
  ASSERT_EQ(back.checkpoints.size(), 2u);
  EXPECT_EQ(back.checkpoints[0].id, 2);
  EXPECT_EQ(back.checkpoints[0].group, "run");
  EXPECT_EQ(back.checkpoints[0].copy, -1);
  EXPECT_EQ(back.checkpoints[0].packet_index, 48);
  EXPECT_EQ(back.checkpoints[0].snapshot_bytes, 1024);
  EXPECT_EQ(back.checkpoints[0].parts, 4);
  EXPECT_DOUBLE_EQ(back.checkpoints[0].quiesce_seconds, 0.01);
  EXPECT_DOUBLE_EQ(back.checkpoints[0].at_seconds, 0.5);
  EXPECT_EQ(back.checkpoints[1].group, "stage1");
  EXPECT_EQ(back.checkpoints[1].copy, 1);
  EXPECT_EQ(back.checkpoints[1].packet_index, -1);
  EXPECT_EQ(back.checkpoints[1].snapshot_bytes, 256);
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, ReadsV4CheckpointRecordsWithoutParts) {
  // A v4 document's checkpoint records predate the per-copy `parts`
  // field; they still load with it at its benign default.
  PipelineTrace trace = sample_trace();
  CheckpointRecord cut;
  cut.id = 0;
  cut.group = "run";
  cut.packet_index = 16;
  trace.checkpoints.push_back(cut);
  std::string json = trace_to_json(trace);
  const std::size_t pos = json.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "cgpipe-trace-v4");
  const std::size_t field = json.find("\"parts\"");
  ASSERT_NE(field, std::string::npos);
  const std::size_t comma = json.find(',', field);
  ASSERT_NE(comma, std::string::npos);
  json.erase(field, comma - field + 1);
  const PipelineTrace back = trace_from_json(json);
  ASSERT_EQ(back.checkpoints.size(), 1u);
  EXPECT_EQ(back.checkpoints[0].parts, 0);
  EXPECT_EQ(back.checkpoints[0].packet_index, 16);
}

TEST(Trace, ReadsV2DocumentsWithZeroCheckpointSurface) {
  // A v2 trace (fault surface, no checkpoint records) still loads, with
  // every v3 field at its benign default.
  PipelineTrace trace = sample_trace();
  std::string json = trace_to_json(trace);
  const std::size_t pos = json.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "cgpipe-trace-v2");
  const PipelineTrace back = trace_from_json(json);
  EXPECT_TRUE(back.checkpoints.empty());
  EXPECT_EQ(back.stage_metrics[1].checkpoints, 0);
}

TEST(Trace, ReadsV1DocumentsWithZeroFaultSurface) {
  // A trace written before the fault surface existed must still load, with
  // every v2 field at its benign default.
  const std::string v1 =
      R"({"schema":"cgpipe-trace-v1","wall_seconds":0.5,"packets":4,)"
      R"("bottleneck_filter":null,"filters":[],"links":[]})";
  const PipelineTrace trace = trace_from_json(v1);
  EXPECT_DOUBLE_EQ(trace.wall_seconds, 0.5);
  EXPECT_EQ(trace.packets, 4);
  EXPECT_TRUE(trace.completed);
  EXPECT_TRUE(trace.faults.empty());
  EXPECT_TRUE(trace.error.empty());
  EXPECT_TRUE(trace.fault_policy.empty());
}

TEST(Trace, RoundTripPreservesPoolClassBreakdown) {
  PipelineTrace trace = sample_trace();
  trace.pool.acquires = 100;
  trace.pool.hits = 90;
  trace.pool.misses = 10;
  trace.pool.recycles = 95;
  trace.pool.discarded = 5;
  PoolClassMetrics c;
  c.class_index = 6;
  c.class_bytes = 64;
  c.acquires = 100;
  c.hits = 90;
  c.misses = 10;
  c.recycles = 95;
  c.discarded = 5;
  c.high_water = 12;
  trace.pool.classes.push_back(c);

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  ASSERT_EQ(back.pool.classes.size(), 1u);
  EXPECT_EQ(back.pool.classes[0].class_index, 6);
  EXPECT_EQ(back.pool.classes[0].class_bytes, 64);
  EXPECT_EQ(back.pool.classes[0].acquires, 100);
  EXPECT_EQ(back.pool.classes[0].hits, 90);
  EXPECT_EQ(back.pool.classes[0].misses, 10);
  EXPECT_EQ(back.pool.classes[0].recycles, 95);
  EXPECT_EQ(back.pool.classes[0].discarded, 5);
  EXPECT_EQ(back.pool.classes[0].high_water, 12);
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, RoundTripPreservesLinkTransportSurface) {
  PipelineTrace trace = sample_trace();
  trace.link_metrics[0].transport = "proc";
  trace.link_metrics[0].frames = 128;
  trace.link_metrics[0].wire_bytes = 65536;
  trace.link_metrics[0].send_wait_seconds = 0.25;
  trace.link_metrics[0].recv_wait_seconds = 0.125;

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  ASSERT_EQ(back.link_metrics.size(), trace.link_metrics.size());
  EXPECT_EQ(back.link_metrics[0].transport, "proc");
  EXPECT_EQ(back.link_metrics[0].frames, 128);
  EXPECT_EQ(back.link_metrics[0].wire_bytes, 65536);
  EXPECT_DOUBLE_EQ(back.link_metrics[0].send_wait_seconds, 0.25);
  EXPECT_DOUBLE_EQ(back.link_metrics[0].recv_wait_seconds, 0.125);
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, ReadsV6DocumentsWithoutTransportSurface) {
  // A v6 trace predates the per-link transport fields; it still loads
  // with the v7 fields at their benign defaults.
  const std::string v6 =
      R"({"schema":"cgpipe-trace-v6","wall_seconds":0.5,"packets":4,)"
      R"("bottleneck_filter":null,"filters":[],"links":[{)"
      R"("buffers":7,"bytes":512,"capacity":4,"occupancy_high_water":3,)"
      R"("producer_block_seconds":0.0,"consumer_block_seconds":0.0}]})";
  const PipelineTrace back = trace_from_json(v6);
  ASSERT_EQ(back.link_metrics.size(), 1u);
  EXPECT_EQ(back.link_metrics[0].buffers, 7);
  EXPECT_TRUE(back.link_metrics[0].transport.empty());
  EXPECT_EQ(back.link_metrics[0].frames, 0);
  EXPECT_EQ(back.link_metrics[0].wire_bytes, 0);
  EXPECT_DOUBLE_EQ(back.link_metrics[0].send_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(back.link_metrics[0].recv_wait_seconds, 0.0);
}

TEST(Trace, ReadsV5DocumentsWithoutPoolClasses) {
  // A v5 trace predates the per-size-class pool breakdown; it still loads
  // with the v6 field empty.
  PipelineTrace trace = sample_trace();
  trace.pool.acquires = 10;
  trace.pool.hits = 8;
  trace.pool.misses = 2;
  std::string json = trace_to_json(trace);
  const std::size_t pos = json.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "cgpipe-trace-v5");
  const std::size_t field = json.find("\"classes\"");
  ASSERT_NE(field, std::string::npos);
  const std::size_t close = json.find(']', field);
  ASSERT_NE(close, std::string::npos);
  json.erase(field, close - field + 2);  // drop the field + trailing comma
  const PipelineTrace back = trace_from_json(json);
  EXPECT_EQ(back.pool.acquires, 10);
  EXPECT_EQ(back.pool.hits, 8);
  EXPECT_TRUE(back.pool.classes.empty());
}

TEST(Trace, RoundTripPreservesSelfHealingSurface) {
  PipelineTrace trace = sample_trace();
  trace.degraded = true;
  trace.completed = false;
  trace.error = "self-heal: restart budget (2) exhausted for stage 'stage1'";
  RespawnRecord r;
  r.group = "stage1";
  r.worker = 1;
  r.restart = 2;
  r.cut_id = 5;
  r.mttr_seconds = 0.043;
  r.at_seconds = 1.5;
  r.cause = "died (signal 9)";
  trace.respawns.push_back(r);
  HeartbeatMetrics h;
  h.group = "stage0";
  h.beats = 120;
  h.max_latency_seconds = 0.002;
  h.sum_latency_seconds = 0.06;
  trace.heartbeats.push_back(h);

  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  EXPECT_TRUE(back.degraded);
  EXPECT_FALSE(back.completed);
  ASSERT_EQ(back.respawns.size(), 1u);
  EXPECT_EQ(back.respawns[0].group, "stage1");
  EXPECT_EQ(back.respawns[0].worker, 1);
  EXPECT_EQ(back.respawns[0].restart, 2);
  EXPECT_EQ(back.respawns[0].cut_id, 5);
  EXPECT_DOUBLE_EQ(back.respawns[0].mttr_seconds, 0.043);
  EXPECT_DOUBLE_EQ(back.respawns[0].at_seconds, 1.5);
  EXPECT_EQ(back.respawns[0].cause, "died (signal 9)");
  ASSERT_EQ(back.heartbeats.size(), 1u);
  EXPECT_EQ(back.heartbeats[0].group, "stage0");
  EXPECT_EQ(back.heartbeats[0].beats, 120);
  EXPECT_DOUBLE_EQ(back.heartbeats[0].max_latency_seconds, 0.002);
  EXPECT_DOUBLE_EQ(back.heartbeats[0].sum_latency_seconds, 0.06);
  EXPECT_DOUBLE_EQ(back.heartbeats[0].mean_latency_seconds(), 0.0005);
  // The self-healing surface survives a second round trip byte-identically.
  EXPECT_EQ(trace_to_json(back), json);
}

TEST(Trace, ReadsV7DocumentsWithoutSelfHealingSurface) {
  // A v7 trace predates respawn records, heartbeat telemetry, and the
  // degradation flag; it still loads with every v8 field at its benign
  // default.
  PipelineTrace trace = sample_trace();
  std::string json = trace_to_json(trace);
  const std::size_t pos = json.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "cgpipe-trace-v7");
  const auto drop = [&json](const std::string& needle) {
    const std::size_t at = json.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    json.erase(at, needle.size());
  };
  drop("\"degraded\": false,");
  drop(",\n  \"respawns\": []");
  drop(",\n  \"heartbeats\": []");
  const PipelineTrace back = trace_from_json(json);
  EXPECT_FALSE(back.degraded);
  EXPECT_TRUE(back.respawns.empty());
  EXPECT_TRUE(back.heartbeats.empty());
}

TEST(Trace, InitSecondsRoundTrips) {
  PipelineTrace trace = sample_trace();
  trace.stage_metrics[0].init_seconds = 0.75;
  const std::string json = trace_to_json(trace);
  const PipelineTrace back = trace_from_json(json);
  EXPECT_EQ(back.stage_metrics[0].init_seconds, 0.75);
  EXPECT_EQ(back.stage_metrics[1].init_seconds, 0.0);
  EXPECT_EQ(trace_to_json(back), json);

  // A v8 document predates the field; it loads as 0.
  std::string v8 = json;
  const std::size_t pos = v8.find("cgpipe-trace-v9");
  ASSERT_NE(pos, std::string::npos);
  v8.replace(pos, 15, "cgpipe-trace-v8");
  for (const std::string needle :
       {"\"init_seconds\": 0.75,", "\"init_seconds\": 0,"}) {
    const std::size_t at = v8.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    v8.erase(at, needle.size());
  }
  ASSERT_EQ(v8.find("init_seconds"), std::string::npos);
  const PipelineTrace old = trace_from_json(v8);
  EXPECT_EQ(old.stage_metrics[0].init_seconds, 0.0);
  EXPECT_DOUBLE_EQ(old.stage_metrics[0].busy_seconds(), 1.5);

  // Copies and attempts sum.
  FilterMetrics sum = trace.stage_metrics[0];
  sum.merge(trace.stage_metrics[0]);
  EXPECT_EQ(sum.init_seconds, 1.5);
}

TEST(Trace, BottleneckIgnoresSetup) {
  // The source is busiest over its lifetime (1.5 s vs the sink's 0.95 s),
  // but 1.0 s of that was setup: the sink is the steady-state bottleneck.
  PipelineTrace trace = sample_trace();
  trace.stage_metrics[0].init_seconds = 1.0;
  EXPECT_DOUBLE_EQ(trace.stage_metrics[0].busy_seconds(), 1.5);
  EXPECT_EQ(trace.bottleneck_filter(), 1);
  const Json j = Json::parse(trace_to_json(trace));
  EXPECT_EQ(j.at("bottleneck_filter").as_string(), "stage1");
  EXPECT_DOUBLE_EQ(
      j.at("filters").as_array()[0].at("busy_seconds").as_number(), 1.5);
  trace.stage_metrics[0].init_seconds = 0.25;
  EXPECT_EQ(trace.bottleneck_filter(), 0);
}

TEST(Trace, MergeFoldsWorkerSlices) {
  // The supervisor's record: stage names seeded by the runner, counters of
  // an earlier attempt, and one event of each kind.
  PipelineTrace run;
  for (const char* name : {"src", "mid", "sink"})
    run.stage_metrics.emplace_back().name = name;
  run.stage_metrics[1].copies = 2;
  run.stage_metrics[1].packets_in = 5;
  run.link_metrics.resize(2);
  run.link_metrics[0].capacity = 16;
  run.link_metrics[0].buffers = 5;
  run.link_metrics[1].transport = "proc";
  run.link_metrics[1].occupancy_high_water = 7;
  run.link_metrics[1].recv_wait_seconds = 0.5;
  PoolClassMetrics c6;
  c6.class_index = 6;
  c6.acquires = 10;
  c6.high_water = 4;
  run.pool.acquires = 10;
  run.pool.classes.push_back(c6);
  run.faults.push_back({.group = "sink", .what = "first"});
  run.checkpoints.push_back({.id = 1, .group = "run"});
  run.respawns.push_back({.group = "src", .cause = "died (signal 9)"});
  run.heartbeats.push_back({"src", 3, 0.002, 0.003});

  // Worker 1's end-of-run slice: its stage, its input link's receive wait,
  // its output link, its pool, and one event of each kind of its own.
  PipelineTrace slice;
  slice.stage_metrics.resize(2);
  slice.stage_metrics[1].copies = 2;
  slice.stage_metrics[1].packets_in = 40;
  slice.stage_metrics[1].bytes_out = 320;
  slice.link_metrics.resize(2);
  slice.link_metrics[0].transport = "tcp";
  slice.link_metrics[0].capacity = 8;
  slice.link_metrics[0].recv_wait_seconds = 0.25;
  slice.link_metrics[1].buffers = 40;
  slice.link_metrics[1].occupancy_high_water = 5;
  slice.link_metrics[1].recv_wait_seconds = 0.25;
  c6.acquires = 5;
  c6.high_water = 9;
  slice.pool.acquires = 5;
  slice.pool.classes.push_back(c6);
  slice.faults.push_back({.group = "mid", .what = "second"});
  slice.checkpoints.push_back({.id = 2, .group = "mid"});
  slice.respawns.push_back({.group = "mid", .cause = "heartbeat lapse"});
  slice.heartbeats.push_back({"src", 2, 0.004, 0.005});
  slice.heartbeats.push_back({"mid", 1, 0.001, 0.001});

  run.merge(slice);

  // Counters sum; stage names survive a slice that carries none.
  ASSERT_EQ(run.stage_metrics.size(), 3u);
  EXPECT_EQ(run.stage_metrics[0].name, "src");
  EXPECT_EQ(run.stage_metrics[1].name, "mid");
  EXPECT_EQ(run.stage_metrics[2].name, "sink");
  EXPECT_EQ(run.stage_metrics[1].copies, 4);
  EXPECT_EQ(run.stage_metrics[1].packets_in, 45);
  EXPECT_EQ(run.stage_metrics[1].bytes_out, 320);
  ASSERT_EQ(run.link_metrics.size(), 2u);
  EXPECT_EQ(run.link_metrics[0].buffers, 5);
  EXPECT_EQ(run.link_metrics[1].buffers, 40);
  EXPECT_DOUBLE_EQ(run.link_metrics[0].recv_wait_seconds, 0.25);
  EXPECT_DOUBLE_EQ(run.link_metrics[1].recv_wait_seconds, 0.75);
  EXPECT_EQ(run.pool.acquires, 15);
  // Capacity and high-water marks take the max.
  EXPECT_EQ(run.link_metrics[0].capacity, 16);
  EXPECT_EQ(run.link_metrics[1].occupancy_high_water, 7);
  ASSERT_EQ(run.pool.classes.size(), 1u);
  EXPECT_EQ(run.pool.classes[0].acquires, 15);
  EXPECT_EQ(run.pool.classes[0].high_water, 9);
  // A non-empty transport wins over an empty one, from either side.
  EXPECT_EQ(run.link_metrics[0].transport, "tcp");
  EXPECT_EQ(run.link_metrics[1].transport, "proc");
  // Event lists append in order.
  ASSERT_EQ(run.faults.size(), 2u);
  EXPECT_EQ(run.faults[0].what, "first");
  EXPECT_EQ(run.faults[1].what, "second");
  ASSERT_EQ(run.checkpoints.size(), 2u);
  EXPECT_EQ(run.checkpoints[0].id, 1);
  EXPECT_EQ(run.checkpoints[1].id, 2);
  ASSERT_EQ(run.respawns.size(), 2u);
  EXPECT_EQ(run.respawns[0].group, "src");
  EXPECT_EQ(run.respawns[1].group, "mid");
  // Heartbeats merge by group.
  ASSERT_EQ(run.heartbeats.size(), 2u);
  EXPECT_EQ(run.heartbeats[0].group, "src");
  EXPECT_EQ(run.heartbeats[0].beats, 5);
  EXPECT_DOUBLE_EQ(run.heartbeats[0].max_latency_seconds, 0.004);
  EXPECT_DOUBLE_EQ(run.heartbeats[0].sum_latency_seconds, 0.008);
  EXPECT_EQ(run.heartbeats[1].group, "mid");
  EXPECT_EQ(run.heartbeats[1].beats, 1);
}

TEST(PoolMetrics, MergeCombinesClassesByIndex) {
  PoolMetrics a;
  PoolClassMetrics c6;
  c6.class_index = 6;
  c6.acquires = 10;
  c6.hits = 8;
  c6.high_water = 4;
  a.classes.push_back(c6);
  PoolMetrics b;
  PoolClassMetrics c6b = c6;
  c6b.high_water = 7;
  b.classes.push_back(c6b);
  PoolClassMetrics c9;
  c9.class_index = 9;
  c9.acquires = 3;
  b.classes.push_back(c9);
  a.merge(b);
  ASSERT_EQ(a.classes.size(), 2u);
  EXPECT_EQ(a.classes[0].class_index, 6);
  EXPECT_EQ(a.classes[0].acquires, 20);
  EXPECT_EQ(a.classes[0].hits, 16);
  EXPECT_EQ(a.classes[0].high_water, 7);  // max, not sum
  EXPECT_EQ(a.classes[1].class_index, 9);
  EXPECT_EQ(a.classes[1].acquires, 3);
}

TEST(FaultResolutionNames, RoundTripAndReject) {
  for (FaultResolution r :
       {FaultResolution::kFatal, FaultResolution::kRetried,
        FaultResolution::kDroppedPacket, FaultResolution::kCopyDead,
        FaultResolution::kWatchdog, FaultResolution::kRestoredCheckpoint}) {
    EXPECT_EQ(fault_resolution_from_name(fault_resolution_name(r)), r);
  }
  EXPECT_THROW(fault_resolution_from_name("nope"), std::runtime_error);
}

TEST(FilterMetrics, MergeAggregatesFaultCounters) {
  FilterMetrics a;
  a.faults = 1;
  a.retries = 2;
  a.dropped_packets = 3;
  FilterMetrics b = a;
  a.merge(b);
  EXPECT_EQ(a.faults, 2);
  EXPECT_EQ(a.retries, 4);
  EXPECT_EQ(a.dropped_packets, 6);
}

}  // namespace
}  // namespace cgp::support
