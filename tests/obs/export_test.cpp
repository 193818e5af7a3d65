#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/analysis.hpp"
#include "obs/json.hpp"

namespace decos::obs {
namespace {

Instant at(std::int64_t ns) { return Instant::from_ns(ns); }

/// Collector + recorder + registry with a little of everything.
struct Fixture {
  Fixture() {
    const std::uint64_t trace = collector.new_trace();
    const std::uint64_t root =
        collector.emit(trace, 0, Phase::kSend, "node0", "msgA", at(1000), at(1000), 7);
    collector.emit(trace, root, Phase::kBus, "bus", "slot 0", at(1000), at(3000), 32);
    recorder.record(at(2000), TraceKind::kFrameSent, "n0", "slot 0", 32);
    if (kMetricsEnabled) {
      registry.counter("tt.frames_sent").add(3);
      registry.gauge("vn.depth").set(2);
      registry.histogram("gw.latency_ns").observe(1500);
    } else {
      registry.counter("tt.frames_sent");
      registry.gauge("vn.depth");
      registry.histogram("gw.latency_ns");
    }
  }

  TraceCollector collector;
  TraceRecorder recorder;
  MetricsRegistry registry;
};

TEST(DumpRoundtrip, PreservesSpansRecordsAndMetrics) {
  Fixture f;
  std::ostringstream out;
  DumpWriter writer{out};
  writer.begin_cell("cell-a");
  writer.add_spans(f.collector);
  writer.add_records("bus", f.recorder);
  writer.add_metrics(f.registry.snapshot());

  std::istringstream in{out.str()};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().cells.size(), 1u);
  const DumpCell& cell = loaded.value().cells.front();
  EXPECT_EQ(cell.label, "cell-a");

  ASSERT_EQ(cell.spans.size(), 2u);
  const Span& root = cell.spans[0];
  EXPECT_EQ(root.trace_id, 1u);
  EXPECT_EQ(root.span_id, 1u);
  EXPECT_EQ(root.phase, Phase::kSend);
  EXPECT_EQ(root.track, "node0");
  EXPECT_EQ(root.name, "msgA");
  EXPECT_EQ(root.start.ns(), 1000);
  EXPECT_EQ(root.value, 7);
  EXPECT_EQ(cell.spans[1].parent_id, root.span_id);
  EXPECT_EQ(cell.spans[1].end.ns(), 3000);

  ASSERT_EQ(cell.records.size(), 1u);
  EXPECT_EQ(cell.records[0].first, "bus");
  EXPECT_EQ(cell.records[0].second.kind, TraceKind::kFrameSent);
  EXPECT_EQ(cell.records[0].second.subject, "n0");
  EXPECT_EQ(cell.records[0].second.value, 32);

  ASSERT_EQ(cell.metrics.entries.size(), 3u);
  const MetricValue* counter = cell.metrics.find("tt.frames_sent");
  ASSERT_NE(counter, nullptr);
  if (kMetricsEnabled) {
    EXPECT_EQ(counter->value, 3);
  }
}

TEST(DumpRoundtrip, RejectsMalformedLines) {
  std::istringstream in{"{\"type\":\"span\",\"phase\":\"bogus\"}\n"};
  EXPECT_FALSE(load_jsonl(in).ok());
  std::istringstream garbage{"not json at all\n"};
  EXPECT_FALSE(load_jsonl(garbage).ok());
}

TEST(DumpRoundtrip, UnknownLineTypesAreSkipped) {
  std::istringstream in{"{\"type\":\"future-extension\",\"x\":1}\n"};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().cells.empty());
}

TEST(DumpMerging, CellsKeepTraceIdsDisjoint) {
  Fixture f;
  std::ostringstream out;
  DumpWriter writer{out};
  writer.begin_cell("cell-a");
  writer.add_spans(f.collector);
  writer.begin_cell("cell-b");
  writer.add_spans(f.collector);  // same ids again: a second, independent run

  std::istringstream in{out.str()};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().cells.size(), 2u);
  const std::vector<Span> all = loaded.value().all_spans();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_NE(all[0].trace_id, all[2].trace_id);
  // Parent links stay intact after offsetting.
  EXPECT_EQ(all[3].parent_id, all[2].span_id);
  EXPECT_TRUE(check_span_integrity(all).empty());
}

TEST(DumpMerging, MetricsUnionAcrossCells) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  std::ostringstream out;
  DumpWriter writer{out};
  {
    MetricsRegistry run1;
    run1.counter("events").add(10);
    run1.gauge("depth").set(5);
    run1.counter("quiet");  // dead in run 1
    writer.begin_cell("run1");
    writer.add_metrics(run1.snapshot());
  }
  {
    MetricsRegistry run2;
    run2.counter("events").add(32);
    run2.gauge("depth").set(2);
    run2.counter("quiet").add();  // alive in run 2
    writer.begin_cell("run2");
    writer.add_metrics(run2.snapshot());
  }
  std::istringstream in{out.str()};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok());
  const MetricsSnapshot merged = loaded.value().merged_metrics();
  const MetricValue* events = merged.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 42);  // counters sum
  const MetricValue* depth = merged.find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->high_water, 5);  // gauges keep the high-water maximum
  // Union semantics: an instrument is dead only if dead in every cell.
  EXPECT_TRUE(merged.dead_instruments().empty());
}

TEST(DumpMerging, ReplicatedCellsFoldOnce) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // A run captured with both --trace-out and --metrics-out writes the
  // identical cell snapshot into each file; feeding both files to
  // decotrace used to double every counter. Cells that differ only in
  // id but carry identical content dedup on the full key; genuinely
  // distinct cells (different label or different values) still sum.
  MetricsRegistry run1;
  run1.counter("events").add(10);
  run1.histogram("lat_ns").observe(1500);
  MetricsRegistry run2;
  run2.counter("events").add(32);

  std::ostringstream out;
  DumpWriter writer{out};
  writer.begin_cell("run1");
  writer.add_metrics(run1.snapshot());
  writer.begin_cell("run2");
  writer.add_metrics(run2.snapshot());
  // The replica: run1's snapshot again, as a --metrics-out file would
  // repeat it.
  writer.begin_cell("run1");
  writer.add_metrics(run1.snapshot());

  std::istringstream in{out.str()};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok());
  const MetricsSnapshot merged = loaded.value().merged_metrics();
  const MetricValue* events = merged.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 42);  // 10 + 32, replica folded once
  const MetricValue* lat = merged.find("lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
}

TEST(DumpRoundtrip, SamplePeriodSurvives) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry registry;
  registry.histogram("sim.handler_ns", Determinism::kHostTime, 16).observe(700);
  registry.histogram("gw.latency_ns").observe(1500);  // unsampled

  std::ostringstream out;
  DumpWriter writer{out};
  writer.begin_cell("cell");
  writer.add_metrics(registry.snapshot());
  // Sampled instruments carry the factor; unsampled ones omit it.
  EXPECT_NE(out.str().find("\"sample_period\":16"), std::string::npos);
  EXPECT_EQ(out.str().find("\"sample_period\":1,"), std::string::npos);

  std::istringstream in{out.str()};
  Result<Dump> loaded = load_jsonl(in);
  ASSERT_TRUE(loaded.ok());
  const MetricsSnapshot merged = loaded.value().merged_metrics();
  const MetricValue* sampled = merged.find("sim.handler_ns");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->sample_period, 16u);
  const MetricValue* unsampled = merged.find("gw.latency_ns");
  ASSERT_NE(unsampled, nullptr);
  EXPECT_EQ(unsampled->sample_period, 1u);
}

TEST(ChromeTrace, MatchesGoldenOutput) {
  TraceCollector collector;
  const std::uint64_t trace = collector.new_trace();
  collector.emit(trace, 0, Phase::kSend, "node0", "msgA", at(1000), at(3000), 7);
  TraceRecorder recorder;
  recorder.record(at(2000), TraceKind::kFrameSent, "n0", "slot 0", 32);

  std::vector<Span> spans{collector.spans().begin(), collector.spans().end()};
  std::vector<std::pair<std::string, TraceRecord>> records;
  for (const TraceRecord& r : recorder.records()) records.emplace_back("bus", r);

  std::ostringstream out;
  write_chrome_trace(out, spans, records);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"decos\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"bus\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"node0\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.000,\"dur\":2.000,\"name\":\"send msgA\","
      "\"cat\":\"send\",\"args\":{\"trace\":1,\"span\":1,\"parent\":0,\"value\":7}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":2.000,\"name\":\"frame_sent n0\","
      "\"args\":{\"detail\":\"slot 0\",\"value\":32}}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);

  // Byte-deterministic: a second invocation produces identical output.
  std::ostringstream again;
  write_chrome_trace(again, spans, records);
  EXPECT_EQ(out.str(), again.str());
}

}  // namespace
}  // namespace decos::obs
