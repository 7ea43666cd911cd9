// Flight-recorder suite (ctest label: obs). Covers the per-thread ring
// (wrap-around, concurrent writers, enable switch), causal span context on
// the wire (trace_id + parent_span round-trip), the Perfetto exporter, and
// per-segment load attribution — both from a hand-built snapshot and from a
// full simulated Deployment.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "net/protocol.h"
#include "obs/recorder.h"
#include "obs/segment_load.h"
#include "obs/trace_export.h"

namespace bluedove {
namespace {

using obs::RecEvent;
using obs::RecKind;
using obs::Recorder;

/// Finds the dumped ring labelled `label` (test threads label themselves
/// uniquely; rings persist process-wide, so lookup must be by label).
const Recorder::ThreadDump* find_ring(const Recorder::Dump& dump,
                                      const std::string& label) {
  for (const auto& td : dump.threads) {
    if (td.label == label) return &td;
  }
  return nullptr;
}

/// The same lookup in a temporary dump (`find_ring(Recorder::dump(), ...)`):
/// the dump is kept until the next such call, so the returned pointer
/// outlives the expression that made the dump.
const Recorder::ThreadDump* find_ring(Recorder::Dump&& dump,
                                      const std::string& label) {
  static thread_local Recorder::Dump kept;
  kept = std::move(dump);
  return find_ring(kept, label);
}

TEST(Recorder, RecordsAndAttributesEvents) {
  const std::uint16_t name = Recorder::intern("test.basic");
  std::thread t([&] {
    Recorder::bind_node(4242);
    Recorder::label_thread("rec.basic");
    Recorder::instant(name, /*trace=*/77, /*arg=*/5);
    Recorder::counter(name, 99);
  });
  t.join();
  const Recorder::Dump dump = Recorder::dump();
  ASSERT_GE(dump.names.size(), std::size_t{1});
  EXPECT_EQ(dump.names[name], "test.basic");
  const auto* ring = find_ring(dump, "rec.basic");
  ASSERT_NE(ring, nullptr);
  ASSERT_EQ(ring->events.size(), std::size_t{2});
  const RecEvent& inst = ring->events[0];
  EXPECT_EQ(inst.kind, static_cast<std::uint8_t>(RecKind::kInstant));
  EXPECT_EQ(inst.node, 4242u);
  EXPECT_EQ(inst.trace_id, 77u);
  EXPECT_EQ(inst.arg, 5u);
  EXPECT_EQ(inst.name, name);
  const RecEvent& ctr = ring->events[1];
  EXPECT_EQ(ctr.kind, static_cast<std::uint8_t>(RecKind::kCounter));
  EXPECT_EQ(ctr.arg, 99u);
  EXPECT_GE(ctr.ts_ns, inst.ts_ns);  // same thread: timestamps ordered
}

TEST(Recorder, RingWrapKeepsNewestWindow) {
  Recorder::set_default_ring_events(64);
  const std::uint16_t name = Recorder::intern("test.wrap");
  std::thread t([&] {
    Recorder::label_thread("rec.wrap");
    for (std::uint64_t i = 1; i <= 200; ++i) Recorder::instant(name, 0, i);
  });
  t.join();
  Recorder::set_default_ring_events(Recorder::kDefaultRingEvents);
  const auto* ring = find_ring(Recorder::dump(), "rec.wrap");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->written, 200u);
  ASSERT_EQ(ring->events.size(), std::size_t{64});  // capacity, newest only
  // Oldest -> newest, and exactly the last 64 args survive.
  for (std::size_t i = 0; i < ring->events.size(); ++i) {
    EXPECT_EQ(ring->events[i].arg, 200 - 64 + 1 + i);
  }
}

TEST(Recorder, ConcurrentWritersAndDumpers) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  const std::uint16_t name = Recorder::intern("test.concurrent");
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      Recorder::label_thread("rec.conc" + std::to_string(w));
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        Recorder::instant(name, 0, i);
      }
    });
  }
  // Dump concurrently with the writers: must not crash, and every returned
  // window must be internally consistent (args strictly increasing).
  for (int i = 0; i < 50; ++i) {
    const Recorder::Dump mid = Recorder::dump();
    for (const auto& td : mid.threads) {
      if (td.label.rfind("rec.conc", 0) != 0) continue;
      for (std::size_t j = 1; j < td.events.size(); ++j) {
        ASSERT_LT(td.events[j - 1].arg, td.events[j].arg);
      }
    }
  }
  for (auto& t : writers) t.join();
  const Recorder::Dump dump = Recorder::dump();
  for (int w = 0; w < kThreads; ++w) {
    const auto* ring = find_ring(dump, "rec.conc" + std::to_string(w));
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(ring->written, kPerThread);
  }
}

TEST(Recorder, DisableStopsRecording) {
  const std::uint16_t name = Recorder::intern("test.disable");
  Recorder::set_enabled(false);
  std::thread t([&] {
    Recorder::label_thread("rec.disabled");
    Recorder::instant(name, 0, 1);
  });
  t.join();
  Recorder::set_enabled(true);
  // label_thread registered the ring, but the disabled emitter wrote nothing.
  const auto* ring = find_ring(Recorder::dump(), "rec.disabled");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->written, 0u);
  EXPECT_TRUE(ring->events.empty());
}

TEST(Recorder, ScopedNodeBindingNestsAndRestores) {
  std::thread t([] {
    Recorder::bind_node(1);
    {
      obs::ScopedRecorderNode outer(2);
      EXPECT_EQ(Recorder::bound_node(), 2u);
      {
        obs::ScopedRecorderNode inner(3);
        EXPECT_EQ(Recorder::bound_node(), 3u);
      }
      EXPECT_EQ(Recorder::bound_node(), 2u);
    }
    EXPECT_EQ(Recorder::bound_node(), 1u);
  });
  t.join();
}

// ---------------------------------------------------------------------------
// Causal span context on the wire
// ---------------------------------------------------------------------------

TEST(SpanContext, RoundTripsThroughSerializeParse) {
  Message msg;
  msg.id = 11;
  msg.values = {1, 2};
  MatchRequest req{std::move(msg), 1, 3.5};
  req.trace_id = (10ull << 40) | 123;
  req.parent_span = (10ull << 40) | 456;
  serde::Writer w;
  write_envelope(w, Envelope::of(req));
  serde::Reader r(w.bytes());
  const Envelope back = read_envelope(r);
  ASSERT_TRUE(r.ok());
  const auto& m = std::get<MatchRequest>(back.payload);
  EXPECT_EQ(m.trace_id, (10ull << 40) | 123);
  EXPECT_EQ(m.parent_span, (10ull << 40) | 456);

  MatchCompleted done;
  done.msg_id = 11;
  done.matcher = 1000;
  done.trace_id = req.trace_id;
  serde::Writer w2;
  write_envelope(w2, Envelope::of(done));
  serde::Reader r2(w2.bytes());
  const Envelope back2 = read_envelope(r2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(std::get<MatchCompleted>(back2.payload).trace_id, req.trace_id);
}

TEST(SpanContext, UntracedRequestsCarryNoSpanBytes) {
  // parent_span rides inside the trace block: an untraced request must not
  // grow (determinism digests compare untraced runs byte-for-byte).
  Message msg;
  msg.id = 12;
  msg.values = {3, 4};
  MatchRequest plain{std::move(msg), 0, 1.0};
  MatchRequest spanned = plain;
  spanned.parent_span = 999;  // ignored: trace_id == 0
  serde::Writer wp, ws;
  write_envelope(wp, Envelope::of(plain));
  write_envelope(ws, Envelope::of(spanned));
  EXPECT_EQ(wp.size(), ws.size());
  serde::Reader r(ws.bytes());
  EXPECT_EQ(std::get<MatchRequest>(read_envelope(r).payload).parent_span, 0u);
}

// ---------------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------------

/// Minimal structural JSON scan: quotes/braces/brackets balance outside
/// strings. Catches truncated or mis-escaped output without a JSON parser
/// (tools/trace_check.py does the full validation in CI).
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_str;
}

TEST(TraceExport, PerfettoJsonShape) {
  const std::uint16_t span = Recorder::intern("test.export.span");
  const std::uint16_t inst = Recorder::intern("test.export.inst");
  const std::uint16_t ctr = Recorder::intern("test.export.ctr");
  std::thread t([&] {
    Recorder::bind_node(7);
    Recorder::label_thread("rec.export");
    obs::ScopedSpan s(span, /*trace=*/0xabc, /*arg=*/1);
    Recorder::instant(inst, 0xabc, 2);
    Recorder::counter(ctr, 42);
  });
  t.join();
  const std::string json = obs::perfetto_trace_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Traced events additionally ride the cross-node async track.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xabc\""), std::string::npos);
  // Thread/process naming metadata.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"rec.export\""), std::string::npos);
  EXPECT_NE(json.find("\"node7\""), std::string::npos);
}

TEST(TraceExport, WritesFileAtomically) {
  const std::string path =
      testing::TempDir() + "/bluedove_recorder_trace.json";
  ASSERT_TRUE(obs::write_perfetto_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(json_balanced(body));
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-segment load attribution
// ---------------------------------------------------------------------------

TEST(SegmentLoad, ParsesDirectAndPrefixedSnapshots) {
  obs::MetricsSnapshot snap;
  // Matcher 1000, scraped directly.
  snap.gauges["segload.node"] = 1000;
  snap.gauges["segload.dim0.lo"] = 0;
  snap.gauges["segload.dim0.hi"] = 500;
  snap.counters["segload.dim0.requests"] = 12;
  snap.counters["segload.dim0.deliveries"] = 3;
  snap.gauges["segload.dim0.work_units"] = 640.5;
  snap.gauges["segload.dim0.queue_seconds"] = 0.25;
  snap.gauges["segload.dim0.service_seconds"] = 0.125;
  snap.gauges["segload.dim0.subscriptions"] = 7;
  // Matcher 1001 inside a merged cluster snapshot (substrate prefix).
  snap.gauges["runtime.node1001.segload.node"] = 1001;
  snap.gauges["runtime.node1001.segload.dim1.lo"] = 500;
  snap.gauges["runtime.node1001.segload.dim1.hi"] = 1000;
  snap.counters["runtime.node1001.segload.dim1.requests"] = 4;

  const auto tables = obs::SegmentLoadTable::from_snapshot(snap);
  ASSERT_EQ(tables.size(), std::size_t{2});
  EXPECT_EQ(tables[0].node, 1000u);
  ASSERT_EQ(tables[0].rows.size(), std::size_t{1});
  const obs::SegmentLoad& row = tables[0].rows[0];
  EXPECT_EQ(row.dim, 0u);
  EXPECT_DOUBLE_EQ(row.lo, 0.0);
  EXPECT_DOUBLE_EQ(row.hi, 500.0);
  EXPECT_EQ(row.requests, 12u);
  EXPECT_EQ(row.deliveries, 3u);
  EXPECT_DOUBLE_EQ(row.work_units, 640.5);
  EXPECT_DOUBLE_EQ(row.queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(row.service_seconds, 0.125);
  EXPECT_EQ(row.subscriptions, 7u);
  EXPECT_EQ(tables[1].node, 1001u);
  EXPECT_EQ(tables[1].prefix, "runtime.node1001.");
  ASSERT_EQ(tables[1].rows.size(), std::size_t{1});
  EXPECT_EQ(tables[1].rows[0].dim, 1u);
  EXPECT_EQ(tables[1].rows[0].requests, 4u);
  // The rendering mentions the matcher and aligns one line per segment.
  EXPECT_NE(tables[0].format().find("1000"), std::string::npos);
}

TEST(SegmentLoad, EmptySnapshotYieldsNoTables) {
  obs::MetricsSnapshot snap;
  snap.counters["matcher.requests"] = 5;
  EXPECT_TRUE(obs::SegmentLoadTable::from_snapshot(snap).empty());
}

// ---------------------------------------------------------------------------
// Whole-pipeline integration on the simulator
// ---------------------------------------------------------------------------

TEST(RecorderIntegration, SimulatedClusterAttributesLoadAndEvents) {
  ExperimentConfig cfg;
  cfg.dims = 2;
  cfg.subscriptions = 300;
  cfg.matchers = 4;
  cfg.dispatchers = 1;
  cfg.cores = 2;
  cfg.index_kind = IndexKind::kFlatBucket;
  cfg.full_matching = true;
  cfg.trace_sample_rate = 1.0;  // every publication traced
  Deployment dep(cfg);
  dep.start();
  dep.set_rate(500.0);
  dep.run_for(10.0);

  // Segment-load attribution made it into the merged cluster snapshot.
  const auto tables =
      obs::SegmentLoadTable::from_snapshot(dep.cluster_snapshot());
  ASSERT_FALSE(tables.empty());
  std::uint64_t total_requests = 0;
  double total_work = 0.0;
  for (const auto& t : tables) {
    for (const auto& row : t.rows) {
      total_requests += row.requests;
      total_work += row.work_units;
      EXPECT_LT(row.lo, row.hi);
    }
  }
  EXPECT_GT(total_requests, 0u);
  EXPECT_GT(total_work, 0.0);

  // The recorder attributed matcher-side events to matcher node ids even
  // though the whole simulation ran on this one thread.
  const Recorder::Dump dump = Recorder::dump();
  bool saw_matcher_event = false;
  bool saw_traced_event = false;
  for (const auto& td : dump.threads) {
    for (const RecEvent& ev : td.events) {
      for (NodeId m : dep.matcher_ids()) {
        if (ev.node == m) saw_matcher_event = true;
      }
      if (ev.trace_id != 0) saw_traced_event = true;
    }
  }
  EXPECT_TRUE(saw_matcher_event);
  EXPECT_TRUE(saw_traced_event);
}

}  // namespace
}  // namespace bluedove
