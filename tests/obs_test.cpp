// Telemetry foundations: registry thread-safety, null-sink handles,
// deterministic fake-clock spans, snapshot merging, and the JSON artifact
// round-trip through io::serialize.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "casa/io/serialize.hpp"
#include "casa/obs/export.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/trace_analysis.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/error.hpp"
#include "casa/support/thread_pool.hpp"

namespace casa::obs {
namespace {

TEST(Counter, NullHandleIsInert) {
  const Counter null;
  EXPECT_FALSE(null.attached());
  null.add();      // must not crash
  null.add(1000);  // and must not record anywhere
}

TEST(Counter, HandleRecordsIntoRegistry) {
  MetricsRegistry reg;
  const Counter c = reg.counter("x");
  EXPECT_TRUE(c.attached());
  c.add();
  c.add(41);
  EXPECT_EQ(reg.snapshot().counters.at("x"), 42u);
}

TEST(Counter, SameNameResolvesToSameCell) {
  MetricsRegistry reg;
  reg.counter("x").add(1);
  reg.counter("x").add(2);
  reg.add("x", 3);
  EXPECT_EQ(reg.snapshot().counters.at("x"), 6u);
}

TEST(Counter, NullSafeLookupHelper) {
  EXPECT_FALSE(counter_or_null(nullptr, "x").attached());
  MetricsRegistry reg;
  EXPECT_TRUE(counter_or_null(&reg, "x").attached());
}

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly) {
  // The registry's core guarantee: counts survive contention losslessly.
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerTask = 10'000;
  MetricsRegistry reg;
  const Counter c = reg.counter("contended");

  support::ThreadPool pool(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.submit([&reg, c] {
      // Half via the shared handle, half via name lookup — both paths must
      // land on the same cell.
      for (std::uint64_t i = 0; i < kPerTask; ++i) c.add();
      reg.add("contended", kPerTask);
    });
  }
  pool.wait();

  EXPECT_EQ(reg.snapshot().counters.at("contended"),
            2 * kThreads * kPerTask);
}

TEST(MetricsRegistry, GaugesLastWriteWins) {
  MetricsRegistry reg;
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", -2.5);
  EXPECT_EQ(reg.snapshot().gauges.at("g"), -2.5);
}

TEST(DistSummary, ObserveTracksCountSumMinMax) {
  MetricsRegistry reg;
  reg.observe("d", 3.0);
  reg.observe("d", -1.0);
  reg.observe("d", 2.0);
  const DistSummary d = reg.snapshot().distributions.at("d");
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.sum, 4.0);
  EXPECT_EQ(d.min, -1.0);
  EXPECT_EQ(d.max, 3.0);
}

TEST(DistSummary, MergeWidensAndSums) {
  DistSummary a;
  a.observe(1.0);
  a.observe(5.0);
  DistSummary b;
  b.observe(-2.0);

  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 4.0);
  EXPECT_EQ(a.min, -2.0);
  EXPECT_EQ(a.max, 5.0);

  DistSummary empty;
  a.merge(empty);  // merging nothing changes nothing
  EXPECT_EQ(a.count, 3u);
  empty.merge(a);  // merging into nothing copies
  EXPECT_EQ(empty.count, 3u);
  EXPECT_EQ(empty.min, -2.0);
}

TEST(Span, NullRegistryIsFullyInert) {
  FakeClock clock;
  const Span s(nullptr, "phase", &clock);
  EXPECT_TRUE(s.path().empty());
}

TEST(Span, FakeClockDurationsAreExact) {
  MetricsRegistry reg;
  FakeClock clock;
  {
    const Span s(&reg, "phase", &clock);
    clock.advance_seconds(1.25);
  }
  const DistSummary d = reg.snapshot().spans.at("phase");
  EXPECT_EQ(d.count, 1u);
  EXPECT_DOUBLE_EQ(d.sum, 1.25);
}

TEST(Span, NestingBuildsSlashJoinedPaths) {
  MetricsRegistry reg;
  FakeClock clock;
  {
    const Span outer(&reg, "run_casa", &clock);
    clock.advance_seconds(1.0);
    {
      const Span inner(&reg, "allocation", &clock);
      EXPECT_EQ(inner.path(), "run_casa/allocation");
      clock.advance_seconds(2.0);
    }
    {
      const Span inner(&reg, "simulation", &clock);
      clock.advance_seconds(4.0);
    }
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.spans.at("run_casa").sum, 7.0);
  EXPECT_DOUBLE_EQ(snap.spans.at("run_casa/allocation").sum, 2.0);
  EXPECT_DOUBLE_EQ(snap.spans.at("run_casa/simulation").sum, 4.0);
}

TEST(Span, SiblingScopesAggregateUnderOnePath) {
  MetricsRegistry reg;
  FakeClock clock;
  for (int i = 0; i < 3; ++i) {
    const Span s(&reg, "phase", &clock);
    clock.advance_seconds(1.0);
  }
  const DistSummary d = reg.snapshot().spans.at("phase");
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 3.0);
}

TEST(Span, RealClockMeasuresSomethingNonNegative) {
  MetricsRegistry reg;
  { const Span s(&reg, "real"); }
  const DistSummary d = reg.snapshot().spans.at("real");
  EXPECT_EQ(d.count, 1u);
  EXPECT_GE(d.sum, 0.0);
}

TEST(MetricsSnapshot, MergeSumsCountersAndKeepsDisjointKeys) {
  MetricsRegistry a;
  a.add("shared", 10);
  a.add("only_a", 1);
  a.set_gauge("g", 1.0);
  MetricsRegistry b;
  b.add("shared", 32);
  b.add("only_b", 2);
  b.set_gauge("g", 2.0);

  MetricsRegistry total;
  total.merge_from(a.snapshot());
  total.merge_from(b.snapshot());
  const MetricsSnapshot snap = total.snapshot();
  EXPECT_EQ(snap.counters.at("shared"), 42u);
  EXPECT_EQ(snap.counters.at("only_a"), 1u);
  EXPECT_EQ(snap.counters.at("only_b"), 2u);
  EXPECT_EQ(snap.gauges.at("g"), 2.0);  // last write wins
}

MetricsSnapshot populated_snapshot() {
  MetricsRegistry reg;
  reg.set_config("workload", "mpeg");
  reg.set_config("notes", "quotes \" and \\ and\nnewlines\tsurvive");
  reg.add("cache.hits", 123456789);
  reg.add("solver.nodes", 1);
  reg.set_gauge("runner.threads", 4.0);
  reg.set_gauge("awkward", 0.1);  // not exactly representable
  reg.observe("job.seconds", 0.25);
  reg.observe("job.seconds", 1.0 / 3.0);
  FakeClock clock;
  {
    const Span outer(&reg, "run_casa", &clock);
    const Span inner(&reg, "allocation", &clock);
    clock.advance_ns(123456789);
  }
  return reg.snapshot();
}

void expect_snapshots_equal(const MetricsSnapshot& got,
                            const MetricsSnapshot& want) {
  EXPECT_EQ(got.config, want.config);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.gauges, want.gauges);
  ASSERT_EQ(got.distributions.size(), want.distributions.size());
  for (const auto& [k, d] : want.distributions) {
    ASSERT_TRUE(got.distributions.count(k)) << k;
    const DistSummary& g = got.distributions.at(k);
    EXPECT_EQ(g.count, d.count) << k;
    EXPECT_EQ(g.sum, d.sum) << k;
    EXPECT_EQ(g.min, d.min) << k;
    EXPECT_EQ(g.max, d.max) << k;
  }
  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (const auto& [k, d] : want.spans) {
    ASSERT_TRUE(got.spans.count(k)) << k;
    EXPECT_EQ(got.spans.at(k).count, d.count) << k;
    EXPECT_EQ(got.spans.at(k).sum, d.sum) << k;
  }
}

/// The original format_double: the shortest %.{1..16}g that sscanf parses
/// back to v, else %.17g. Kept as the oracle for the to_chars-seeded one.
std::string format_double_oracle(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      std::sscanf(shorter, "%lf", &back);
      if (back == v) return shorter;
    }
  }
  return buf;
}

TEST(FormatDouble, MatchesTheOracleOnSeededDoubles) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                1.0 / 3.0,
                                5e-324,
                                2.2250738585072014e-308,
                                1.7976931348623157e308,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  // Powers of two and their predecessors: where the gap below a value is
  // half the gap above, so the nearest %g rounding may not round-trip at
  // the shortest digit count.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
  }
  std::mt19937_64 rng(20041);
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));  // every exponent
    values.push_back(uniform(rng));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = format_double_oracle(v);
    const std::string got = format_double(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": got " << got << ", want "
                    << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(Artifact, JsonRoundTripsThroughIoSerialize) {
  const MetricsSnapshot snap = populated_snapshot();

  std::stringstream ss;
  io::write_metrics_json(ss, snap);
  const MetricsSnapshot back = io::read_metrics_json(ss);

  expect_snapshots_equal(back, snap);
}

TEST(Artifact, JsonIsByteStableAcrossWrites) {
  const MetricsSnapshot snap = populated_snapshot();
  std::ostringstream a, b;
  io::write_metrics_json(a, snap);
  io::write_metrics_json(b, snap);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Artifact, TasksArrayExportsPerTaskSnapshots) {
  MetricsRegistry t0, t1;
  t0.add("cache.hits", 7);
  t1.add("cache.hits", 35);
  const std::vector<MetricsSnapshot> tasks = {t0.snapshot(), t1.snapshot()};

  MetricsRegistry merged;
  for (const MetricsSnapshot& t : tasks) merged.merge_from(t);

  ArtifactOptions opt;
  opt.tasks = &tasks;
  std::ostringstream os;
  write_artifact_json(os, merged.snapshot(), opt);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"tasks\": ["), std::string::npos);
  EXPECT_NE(text.find("\"cache.hits\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"cache.hits\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"cache.hits\": 35"), std::string::npos);
}

TEST(Artifact, ReaderRejectsWrongSchema) {
  std::istringstream is(R"({"schema": "something-else v9"})");
  EXPECT_THROW(io::read_metrics_json(is), PreconditionError);
}

TEST(Artifact, ReaderRejectsMalformedJson) {
  std::istringstream is("{\"schema\": \"casa-metrics v1\", ");
  EXPECT_THROW(io::read_metrics_json(is), PreconditionError);
}

TEST(Artifact, CsvListsEveryMetricKind) {
  const MetricsSnapshot snap = populated_snapshot();
  std::ostringstream os;
  write_artifact_csv(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("kind,name,value"), std::string::npos);
  EXPECT_NE(text.find("counter,cache.hits,123456789"), std::string::npos);
  EXPECT_NE(text.find("config,workload,mpeg"), std::string::npos);
  EXPECT_NE(text.find("phase,run_casa/allocation.count,1"),
            std::string::npos);
  EXPECT_NE(text.find("gauge,runner.threads,4"), std::string::npos);
  EXPECT_NE(text.find("distribution,job.seconds.count,2"),
            std::string::npos);
}

TEST(Artifact, CsvLeadsWithRunProvenanceRows) {
  std::ostringstream os;
  ArtifactOptions opt;
  opt.tool = "unit_test";
  write_artifact_csv(os, populated_snapshot(), opt);
  const std::string text = os.str();
  // The run.* block sits right after the header, before any metric rows,
  // so a spreadsheet shows provenance first.
  const std::size_t header = text.find("kind,name,value");
  ASSERT_NE(header, std::string::npos);
  const std::size_t tool = text.find("run,run.tool,unit_test");
  ASSERT_NE(tool, std::string::npos);
  EXPECT_LT(header, tool);
  EXPECT_NE(text.find("run,run.git,"), std::string::npos);
  EXPECT_NE(text.find("run,run.build_type,"), std::string::npos);
  EXPECT_NE(text.find("run,run.compiler,"), std::string::npos);
  const std::size_t first_metric = text.find("\nconfig,");
  ASSERT_NE(first_metric, std::string::npos);
  EXPECT_LT(tool, first_metric);
}

TEST(ArtifactSinks, DashMeansStdoutExactlyOnce) {
  const ArtifactSinkPlan plan = plan_artifact_sinks("-", /*stdout_flag=*/false);
  EXPECT_TRUE(plan.to_stdout);
  EXPECT_TRUE(plan.file.empty());
  EXPECT_TRUE(plan.note.empty());
}

TEST(ArtifactSinks, DashPlusStdoutFlagDedupesWithNote) {
  const ArtifactSinkPlan plan = plan_artifact_sinks("-", /*stdout_flag=*/true);
  EXPECT_TRUE(plan.to_stdout);
  EXPECT_TRUE(plan.file.empty());
  EXPECT_NE(plan.note.find("redundant"), std::string::npos);
}

TEST(ArtifactSinks, FilePlusStdoutKeepsBothAndSaysSo) {
  const ArtifactSinkPlan plan =
      plan_artifact_sinks("out.json", /*stdout_flag=*/true);
  EXPECT_TRUE(plan.to_stdout);
  EXPECT_EQ(plan.file, "out.json");
  EXPECT_NE(plan.note.find("out.json"), std::string::npos);
}

TEST(ArtifactSinks, FileOnlyAndStdoutOnlyAreQuiet) {
  const ArtifactSinkPlan file_only =
      plan_artifact_sinks("out.json", /*stdout_flag=*/false);
  EXPECT_FALSE(file_only.to_stdout);
  EXPECT_EQ(file_only.file, "out.json");
  EXPECT_TRUE(file_only.note.empty());

  const ArtifactSinkPlan stdout_only =
      plan_artifact_sinks("", /*stdout_flag=*/true);
  EXPECT_TRUE(stdout_only.to_stdout);
  EXPECT_TRUE(stdout_only.file.empty());
  EXPECT_TRUE(stdout_only.note.empty());
}

// ---------------------------------------------------------------------------
// Event tracing.

// Restores the global tracer slot even when a test fails mid-way.
struct CurrentTracerGuard {
  ~CurrentTracerGuard() { Tracer::set_current(nullptr); }
};

TEST(Tracer, RecordsAndDrainsInTimestampOrder) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);

  tracer.begin("run");
  clock.advance_ns(100);
  tracer.instant("checkpoint", 7.0);
  clock.advance_ns(50);
  tracer.counter("nodes", 42.0);
  clock.advance_ns(25);
  tracer.end("run");

  const TraceData data = tracer.drain();
  EXPECT_EQ(data.dropped, 0u);
  ASSERT_EQ(data.events.size(), 4u);
  EXPECT_EQ(data.events[0].kind, TraceEventKind::kBegin);
  EXPECT_EQ(data.events[0].name, "run");
  EXPECT_EQ(data.events[0].ts_ns, 0u);  // rebased to the first event
  EXPECT_EQ(data.events[1].kind, TraceEventKind::kInstant);
  EXPECT_EQ(data.events[1].ts_ns, 100u);
  EXPECT_EQ(data.events[1].value, 7.0);
  EXPECT_EQ(data.events[2].kind, TraceEventKind::kCounter);
  EXPECT_EQ(data.events[2].value, 42.0);
  EXPECT_EQ(data.events[3].kind, TraceEventKind::kEnd);
  EXPECT_EQ(data.events[3].ts_ns, 175u);
  ASSERT_EQ(data.tracks.size(), 1u);
  EXPECT_EQ(data.tracks[0].tid, 0u);
  EXPECT_EQ(data.tracks[0].label, "main");
  EXPECT_EQ(data.tracks[0].worker_index, -1);
}

TEST(Tracer, TraceSpanEmitsBalancedBeginEnd) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);
  {
    const TraceSpan outer(&tracer, "outer");
    clock.advance_ns(10);
    const TraceSpan inner(&tracer, "inner", "sim");
    clock.advance_ns(20);
  }
  const TraceData data = tracer.drain();
  ASSERT_EQ(data.events.size(), 4u);
  EXPECT_EQ(data.events[0].name, "outer");
  EXPECT_EQ(data.events[1].name, "inner");
  EXPECT_EQ(data.events[1].cat, "sim");
  EXPECT_EQ(data.events[2].name, "inner");  // inner closes first
  EXPECT_EQ(data.events[2].kind, TraceEventKind::kEnd);
  EXPECT_EQ(data.events[3].name, "outer");
}

TEST(Tracer, NullTraceSpanIsInert) {
  const TraceSpan span(nullptr, "nothing");  // must not crash or record
  EXPECT_EQ(Tracer::current(), nullptr);
}

TEST(Tracer, SpanDualEmitsWhenAttached) {
  const CurrentTracerGuard guard;
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);
  Tracer::set_current(&tracer);
  EXPECT_EQ(Tracer::current(), &tracer);

  MetricsRegistry reg;
  {
    const Span both(&reg, "phase", &clock);
    clock.advance_seconds(0.001);
  }
  { const Span trace_only(nullptr, "orphan", &clock); }

  // The metrics side still aggregates...
  EXPECT_EQ(reg.snapshot().spans.at("phase").count, 1u);
  // ...and the tracer saw both spans, including the registry-less one.
  const TraceData data = tracer.drain();
  ASSERT_EQ(data.events.size(), 4u);
  EXPECT_EQ(data.events[0].name, "phase");
  EXPECT_EQ(data.events[0].kind, TraceEventKind::kBegin);
  EXPECT_EQ(data.events[1].name, "phase");
  EXPECT_EQ(data.events[1].ts_ns, 1'000'000u);
  EXPECT_EQ(data.events[2].name, "orphan");
}

TEST(Tracer, DropNewestCountsOverflow) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  opt.buffer_capacity = 4;
  Tracer tracer(opt);
  for (int i = 0; i < 10; ++i) tracer.instant("e", i);
  EXPECT_EQ(tracer.dropped(), 6u);
  const TraceData data = tracer.drain();
  EXPECT_EQ(data.dropped, 6u);
  ASSERT_EQ(data.events.size(), 4u);
  EXPECT_EQ(data.events[0].value, 0.0);  // oldest events survive
  EXPECT_EQ(data.events[3].value, 3.0);
}

TEST(Tracer, FlowIdsAreUniqueAndPairUp) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);

  const std::uint64_t a = tracer.flow_begin("task");
  const std::uint64_t b = tracer.flow_begin("task");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  clock.advance_ns(5);
  {
    const TraceSpan s(&tracer, "task", "sim", a);
    clock.advance_ns(5);
  }
  tracer.flow_end("task", b);

  const TraceData data = tracer.drain();
  ASSERT_EQ(data.events.size(), 6u);
  EXPECT_EQ(data.events[0].kind, TraceEventKind::kFlowBegin);
  EXPECT_EQ(data.events[0].flow_id, a);
  // The flow head lands immediately before the span's begin.
  EXPECT_EQ(data.events[2].kind, TraceEventKind::kFlowEnd);
  EXPECT_EQ(data.events[2].flow_id, a);
  EXPECT_EQ(data.events[3].kind, TraceEventKind::kBegin);
  EXPECT_EQ(data.events[3].name, "task");
}

TEST(Tracer, AlternatingTracersReuseOnePerThreadBuffer) {
  // A thread bouncing between two live tracers must keep one buffer (one
  // tid/track) per tracer, not register a fresh ring on every switch.
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer a(opt);
  Tracer b(opt);
  for (int i = 0; i < 4; ++i) {
    a.instant("a", i);
    b.instant("b", i);
    clock.advance_ns(1);
  }
  const TraceData da = a.drain();
  const TraceData db = b.drain();
  EXPECT_EQ(da.tracks.size(), 1u);
  EXPECT_EQ(db.tracks.size(), 1u);
  ASSERT_EQ(da.events.size(), 4u);
  ASSERT_EQ(db.events.size(), 4u);
  for (const TraceEvent& e : da.events) EXPECT_EQ(e.tid, 0u);
  for (const TraceEvent& e : db.events) EXPECT_EQ(e.tid, 0u);
}

TEST(Tracer, PoolWorkersGetNamedTracksConcurrently) {
  // Exercised under TSan in CI: pool threads record while the main thread
  // drains mid-flight, then a final drain must account for every event.
  constexpr unsigned kThreads = 4;
  constexpr int kPerTask = 2'000;
  Tracer tracer;
  support::ThreadPool pool(kThreads, "tp");
  // Hold every task until all have started, so each of the kThreads tasks
  // is pinned to a distinct worker (one idle worker could otherwise drain
  // several tasks and the tracer would see fewer tracks).
  std::atomic<unsigned> started{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.submit([&tracer, &started] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerTask; ++i) {
        const TraceSpan s(&tracer, "work", "test");
      }
    });
  }
  const TraceData mid = tracer.drain();  // races with recording by design
  EXPECT_LE(mid.events.size(), 2u * kThreads * kPerTask);
  pool.wait();

  const TraceData data = tracer.drain();
  EXPECT_EQ(data.dropped, 0u);
  EXPECT_EQ(data.events.size(), 2u * kThreads * kPerTask);
  ASSERT_EQ(data.tracks.size(), kThreads);
  for (const TraceTrack& track : data.tracks) {
    EXPECT_GE(track.worker_index, 0);
    EXPECT_LT(track.worker_index, static_cast<int>(kThreads));
    EXPECT_EQ(track.label,
              "tp-" + std::to_string(track.worker_index));
  }
}

TEST(Tracer, WriteTraceJsonIsByteStableAndRoundTrips) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);
  {
    const TraceSpan outer(&tracer, "run_casa");
    clock.advance_ns(1'234'567);
    const std::uint64_t flow = tracer.flow_begin("task");
    clock.advance_ns(1);
    {
      const TraceSpan task(&tracer, "task", "sim", flow);
      clock.advance_ns(500);
      tracer.instant("ilp.incumbent", 42.5, "ilp");
      tracer.counter("ilp.nodes", 1024);
      clock.advance_ns(500);
    }
    clock.advance_ns(1);
  }
  const TraceData data = tracer.drain();

  std::ostringstream a, b;
  write_trace_json(a, data, "unit_test");
  write_trace_json(b, data, "unit_test");
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\": \"casa-trace v1\""), std::string::npos);
  EXPECT_NE(a.str().find("\"tool\": \"unit_test\""), std::string::npos);
  EXPECT_NE(a.str().find("\"thread_name\""), std::string::npos);

  // Nanosecond timestamps survive the microsecond `ts` encoding exactly.
  std::istringstream is(a.str());
  const TraceData back = io::read_trace_json(is);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Trace analysis.

TraceEvent make_event(TraceEventKind kind, std::uint32_t tid,
                      std::uint64_t ts_ns, std::string name,
                      std::uint64_t flow_id = 0) {
  TraceEvent e;
  e.kind = kind;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.name = std::move(name);
  e.cat = "test";
  e.flow_id = flow_id;
  return e;
}

TEST(TraceAnalysis, SingleThreadCriticalPathEqualsRootWallTime) {
  FakeClock clock;
  TracerOptions opt;
  opt.clock = &clock;
  Tracer tracer(opt);
  {
    const TraceSpan root(&tracer, "run_casa");
    clock.advance_ns(100);
    {
      const TraceSpan a(&tracer, "allocation");
      clock.advance_ns(300);
    }
    {
      const TraceSpan b(&tracer, "simulation");
      clock.advance_ns(500);
    }
    clock.advance_ns(100);
  }
  const TraceAnalysis analysis = analyze_trace(tracer.drain());
  EXPECT_EQ(analysis.spans, 3u);
  EXPECT_EQ(analysis.unmatched_begins, 0u);
  EXPECT_EQ(analysis.critical_path_ns, 1000u);  // exactly the root span
  std::uint64_t self_sum = 0;
  for (const CriticalStep& step : analysis.critical_path) {
    self_sum += step.self_ns;
  }
  EXPECT_EQ(self_sum, analysis.critical_path_ns);
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_EQ(analysis.critical_path.front().name, "run_casa");
}

TEST(TraceAnalysis, PhaseSelfTimeExcludesChildren) {
  TraceData data;
  data.tracks.push_back({0, -1, "main"});
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 0, "outer"));
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 100, "inner"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 700, "inner"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 1000, "outer"));

  const TraceAnalysis analysis = analyze_trace(data);
  ASSERT_EQ(analysis.phases.size(), 2u);
  const PhaseStat* outer = nullptr;
  const PhaseStat* inner = nullptr;
  for (const PhaseStat& p : analysis.phases) {
    if (p.name == "outer") outer = &p;
    if (p.name == "inner") inner = &p;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->total_ns, 1000u);
  EXPECT_EQ(outer->self_ns, 400u);
  EXPECT_EQ(inner->total_ns, 600u);
  EXPECT_EQ(inner->self_ns, 600u);
}

TEST(TraceAnalysis, CriticalPathFollowsFlowAcrossThreads) {
  TraceData data;
  data.tracks.push_back({0, -1, "main"});
  data.tracks.push_back({1, 0, "tp-0"});
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 0, "batch"));
  data.events.push_back(
      make_event(TraceEventKind::kFlowBegin, 0, 10, "task", 1));
  data.events.push_back(
      make_event(TraceEventKind::kFlowEnd, 1, 20, "task", 1));
  data.events.push_back(make_event(TraceEventKind::kBegin, 1, 20, "task"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 1, 800, "task"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 1000, "batch"));

  const TraceAnalysis analysis = analyze_trace(data);
  EXPECT_EQ(analysis.critical_path_ns, 1000u);
  ASSERT_EQ(analysis.critical_path.size(), 2u);
  EXPECT_EQ(analysis.critical_path[0].name, "batch");
  EXPECT_EQ(analysis.critical_path[1].name, "task");
  EXPECT_EQ(analysis.critical_path[1].tid, 1u);
  // batch keeps what the flow child does not cover: 1000 - 780.
  EXPECT_EQ(analysis.critical_path[0].self_ns, 220u);
  EXPECT_EQ(analysis.critical_path[1].self_ns, 780u);

  ASSERT_EQ(analysis.tracks.size(), 2u);
  EXPECT_EQ(analysis.tracks[1].busy_ns, 780u);
}

TEST(TraceAnalysis, UnmatchedBeginsCloseAtTraceEnd) {
  TraceData data;
  data.tracks.push_back({0, -1, "main"});
  // An end with nothing open is dropped; a begin never closed is clamped to
  // the trace end (Chrome-trace "E" closes the innermost span by position,
  // not by name, so both raggednesses need their own event here).
  data.events.push_back(
      make_event(TraceEventKind::kEnd, 0, 100, "never_opened"));
  data.events.push_back(
      make_event(TraceEventKind::kBegin, 0, 200, "left_open"));
  data.events.push_back(
      make_event(TraceEventKind::kInstant, 0, 500, "marker"));

  const TraceAnalysis analysis = analyze_trace(data);
  EXPECT_EQ(analysis.unmatched_begins, 1u);
  EXPECT_EQ(analysis.unmatched_ends, 1u);
  EXPECT_EQ(analysis.wall_ns, 500u);
  EXPECT_EQ(analysis.critical_path_ns, 300u);  // closed at the trace end

  std::ostringstream os;
  write_trace_summary(os, analysis);  // must not crash on a ragged trace
  EXPECT_NE(os.str().find("critical path: 300 ns"), std::string::npos);
}

TEST(TraceAnalysis, ZeroDurationChildDoesNotStallCriticalPath) {
  // Regression: a zero-length child whose begin/end share a timestamp
  // (coarse clock) used to be re-picked forever — the frontier never
  // advanced past it and analyze_trace hung.
  TraceData data;
  data.tracks.push_back({0, -1, "main"});
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 0, "parent"));
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 5, "blip"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 5, "blip"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 10, "parent"));

  const TraceAnalysis analysis = analyze_trace(data);
  EXPECT_EQ(analysis.critical_path_ns, 10u);
  ASSERT_EQ(analysis.critical_path.size(), 1u);
  EXPECT_EQ(analysis.critical_path[0].name, "parent");
  EXPECT_EQ(analysis.critical_path[0].self_ns, 10u);
}

TEST(TraceAnalysis, OverlappingRootsKeepUtilizationBounded) {
  // A parsed artifact need not be timestamp-sorted, so rebuilt root spans on
  // one thread can overlap; busy time is their union, never above wall.
  TraceData data;
  data.tracks.push_back({0, -1, "main"});
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 100, "late"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 200, "late"));
  data.events.push_back(make_event(TraceEventKind::kBegin, 0, 50, "early"));
  data.events.push_back(make_event(TraceEventKind::kEnd, 0, 300, "early"));

  const TraceAnalysis analysis = analyze_trace(data);
  EXPECT_EQ(analysis.wall_ns, 300u);
  ASSERT_EQ(analysis.tracks.size(), 1u);
  EXPECT_EQ(analysis.tracks[0].busy_ns, 250u);  // union of [50,300)
  EXPECT_LE(analysis.tracks[0].utilization, 1.0);
}

}  // namespace
}  // namespace casa::obs
