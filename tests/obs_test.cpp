// Tests for src/obs: counter/histogram correctness under concurrent
// increments, span nesting and cross-thread aggregation, JSON export
// round-trip (validated with a minimal JSON parser), and a pipeline-level
// check that stage spans and RunStats-derived metrics are recorded.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "obs/diff.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::obs {
namespace {

/// Enables collection for one test and restores the global state after —
/// the obs registry/aggregator are process-wide.
class ObsEnabledScope : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();
  }
  void TearDown() override {
    reset();
    set_enabled(false);
  }
};

using ObsMetrics = ObsEnabledScope;
using ObsTrace = ObsEnabledScope;
using ObsExport = ObsEnabledScope;
using ObsPipeline = ObsEnabledScope;

// --- Minimal recursive-descent JSON validator. Accepts exactly the JSON
// grammar (objects/arrays/strings/numbers/true/false/null); the export
// tests fail on any malformed document the writer could produce.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool parse_value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               s_[pos_ - 1]));
  }

  bool parse_literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- Counters / gauges -----------------------------------------------------

TEST_F(ObsMetrics, CounterConcurrentIncrementsLoseNothing) {
  Counter& c = Registry::global().counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetrics, ConvenienceRecordersRespectEnabledFlag) {
  count("test.gated", 5);
  EXPECT_EQ(Registry::global().counter("test.gated").value(), 5u);
  set_enabled(false);
  count("test.gated", 7);
  EXPECT_EQ(Registry::global().counter("test.gated").value(), 5u);
}

TEST_F(ObsMetrics, GaugeLastWriteWins) {
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST_F(ObsMetrics, ResetKeepsHandlesValid) {
  Counter& c = Registry::global().counter("test.reset");
  c.add(41);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// --- Histograms ------------------------------------------------------------

TEST_F(ObsMetrics, HistogramBucketsAndStats) {
  Histogram& h = Registry::global().histogram("test.histo", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 9.0}) h.observe(v);
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5, 1.0 (<= 1)
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1.5
  EXPECT_EQ(h.bucket_count(2), 1u);  // 3.0
  EXPECT_EQ(h.bucket_count(3), 1u);  // 9.0 (overflow)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST_F(ObsMetrics, HistogramConcurrentObservations) {
  Histogram& h =
      Registry::global().histogram("test.histo.mt", {10.0, 20.0, 30.0});
  constexpr std::size_t kN = 40000;
  parallel_for(
      kN, [&h](std::size_t i) { h.observe(static_cast<double>(i % 40)); },
      8);
  EXPECT_EQ(h.count(), kN);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    bucket_total += h.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kN);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 39.0);
}

TEST_F(ObsMetrics, HistogramRejectsBadBounds) {
  EXPECT_ANY_THROW(Histogram({}));
  EXPECT_ANY_THROW(Histogram({1.0, 1.0}));
  EXPECT_ANY_THROW(Histogram({2.0, 1.0}));
}

// --- Spans -----------------------------------------------------------------

TEST_F(ObsTrace, SpanNestingBuildsPaths) {
  {
    BALLFIT_SPAN("outer");
    EXPECT_EQ(current_span_path(), "outer");
    {
      BALLFIT_SPAN("inner");
      EXPECT_EQ(current_span_path(), "outer/inner");
    }
    {
      BALLFIT_SPAN("inner");
      EXPECT_EQ(current_span_path(), "outer/inner");
    }
  }
  EXPECT_EQ(current_span_path(), "");
  const auto spans = TraceAggregator::global().snapshot();
  ASSERT_TRUE(spans.count("outer"));
  ASSERT_TRUE(spans.count("outer/inner"));
  EXPECT_EQ(spans.at("outer").count, 1u);
  EXPECT_EQ(spans.at("outer/inner").count, 2u);
  EXPECT_GE(spans.at("outer").total_ns, spans.at("outer/inner").total_ns);
  EXPECT_LE(spans.at("outer/inner").min_ns, spans.at("outer/inner").max_ns);
}

TEST_F(ObsTrace, SpanAggregatesAcrossParallelForWorkers) {
  constexpr std::size_t kN = 512;
  {
    BALLFIT_SPAN("stage");
    const std::string parent = current_span_path();
    parallel_for(
        kN,
        [&parent](std::size_t) {
          const SpanPathScope adopt(parent);
          BALLFIT_SPAN("work");
        },
        8);
  }
  const auto spans = TraceAggregator::global().snapshot();
  ASSERT_TRUE(spans.count("stage/work"));
  EXPECT_EQ(spans.at("stage/work").count, kN);
  EXPECT_EQ(spans.at("stage").count, 1u);
}

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
  set_enabled(false);
  {
    BALLFIT_SPAN("ghost");
    EXPECT_EQ(current_span_path(), "");
  }
  EXPECT_TRUE(TraceAggregator::global().snapshot().empty());
  set_enabled(true);
}

// --- Timeline + Chrome trace export ----------------------------------------

/// Enables the event timeline alongside the registry for one test.
class ObsTimeline : public ObsEnabledScope {
 protected:
  void SetUp() override {
    ObsEnabledScope::SetUp();
    TraceTimeline::global().set_enabled(true);
  }
  void TearDown() override {
    TraceTimeline::global().set_enabled(false);
    ObsEnabledScope::TearDown();
  }
};

TEST_F(ObsTimeline, RecordsEventsInOrder) {
  {
    BALLFIT_SPAN("tl_outer");
    BALLFIT_SPAN("tl_inner");
  }
  const TraceTimeline::Snapshot snap = TraceTimeline::global().snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.dropped, 0u);
  // Spans close inner-first, so the inner event is recorded first; both
  // carry the full slash path and a start inside the enabled window.
  EXPECT_EQ(snap.events[0].path, "tl_outer/tl_inner");
  EXPECT_EQ(snap.events[1].path, "tl_outer");
  EXPECT_LE(snap.events[1].start_ns, snap.events[0].start_ns);
  EXPECT_GE(snap.events[1].dur_ns, snap.events[0].dur_ns);
}

TEST_F(ObsTimeline, RingBufferDropsOldestBeyondCapacity) {
  TraceTimeline::global().set_enabled(true, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    BALLFIT_SPAN("wrap");
  }
  const TraceTimeline::Snapshot snap = TraceTimeline::global().snapshot();
  EXPECT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 6u);
  // Chronological order survives the wrap.
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_GE(snap.events[i].start_ns, snap.events[i - 1].start_ns);
  }
}

TEST_F(ObsTimeline, DisabledTimelineRecordsNothing) {
  TraceTimeline::global().set_enabled(false);
  {
    BALLFIT_SPAN("ghost_event");
  }
  EXPECT_TRUE(TraceTimeline::global().snapshot().events.empty());
  // The aggregator still saw the span — only the timeline is opt-in.
  EXPECT_TRUE(TraceAggregator::global().snapshot().count("ghost_event"));
}

TEST_F(ObsTimeline, ChromeTraceIsWellFormedAndMultiTrack) {
  {
    BALLFIT_SPAN("stage");
    const std::string parent = current_span_path();
    parallel_for(
        64,
        [&parent](std::size_t) {
          const SpanPathScope adopt(parent);
          BALLFIT_SPAN("work");
        },
        4);
  }
  const TraceTimeline::Snapshot snap = TraceTimeline::global().snapshot();
  const std::string json = to_chrome_trace(snap);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // One thread_name metadata event per distinct tid, and the worker spans
  // land on more than one track (parallel_for spawned real threads).
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : snap.events) tids.insert(e.tid);
  EXPECT_GE(tids.size(), 2u);
  // Event names are the leaf span name; the full path rides in args.
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"stage/work\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "/ballfit_trace_test.json";
  std::remove(path.c_str());
  write_chrome_trace(path, snap);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(JsonValidator(buf.str()).valid());
  std::remove(path.c_str());
}

// --- Snapshot diffing (the obs_diff library) -------------------------------

TEST(ObsDiff, FlattenWalksNumbersBoolsAndArrays) {
  const auto flat = flatten_json_numbers(
      R"({"a":{"b":1.5,"c":[2,4],"skip":"text","gone":null,"on":true}})");
  const std::map<std::string, double> expected{{"a.b", 1.5},
                                               {"a.c.0", 2.0},
                                               {"a.c.1", 4.0},
                                               {"a.on", 1.0}};
  EXPECT_EQ(flat, expected);
  EXPECT_ANY_THROW(flatten_json_numbers("{\"a\":"));
  EXPECT_ANY_THROW(flatten_json_numbers("{} trailing"));
}

TEST(ObsDiff, DiffFindsChangesAndOneSidedKeys) {
  const std::map<std::string, double> before{
      {"same", 1.0}, {"changed", 10.0}, {"gone", 3.0}};
  const std::map<std::string, double> after{
      {"same", 1.0}, {"changed", 12.0}, {"fresh", 7.0}};
  const std::vector<DiffRow> rows = diff_snapshots(before, after);
  ASSERT_EQ(rows.size(), 3u);  // "same" hidden by default
  EXPECT_EQ(rows[0].key, "changed");
  EXPECT_DOUBLE_EQ(rows[0].delta(), 2.0);
  EXPECT_DOUBLE_EQ(rows[0].rel(), 2.0 / 12.0);
  EXPECT_EQ(rows[1].key, "fresh");
  EXPECT_TRUE(rows[1].only_after);
  EXPECT_EQ(rows[2].key, "gone");
  EXPECT_TRUE(rows[2].only_before);

  DiffOptions opts;
  opts.include_unchanged = true;
  EXPECT_EQ(diff_snapshots(before, after, opts).size(), 4u);
  opts.include_unchanged = false;
  opts.key_filter = "chan";
  EXPECT_EQ(diff_snapshots(before, after, opts).size(), 1u);
  opts.key_filter = "";
  opts.min_rel = 0.5;  // hides "changed" (16.7%), keeps one-sided rows
  EXPECT_EQ(diff_snapshots(before, after, opts).size(), 2u);
}

// The --fail-over gate fails a row beyond the bound and a row present on
// one side only: a gated counter that vanished has not stayed within it.
TEST(ObsDiff, GateFailsOverBoundAndOneSidedRows) {
  DiffOptions opts;
  opts.key_filter = "gated";
  const std::map<std::string, double> base{{"gated.a", 10.0},
                                           {"gated.b", 5.0}};
  const auto rows = [&](const std::map<std::string, double>& after) {
    return diff_snapshots(base, after, opts);
  };
  const auto within = rows({{"gated.a", 10.4}, {"gated.b", 5.0}});
  EXPECT_EQ(first_gate_failure(within, 0.05), nullptr);
  const auto over = rows({{"gated.a", 12.0}, {"gated.b", 5.0}});
  ASSERT_NE(first_gate_failure(over, 0.05), nullptr);
  EXPECT_EQ(first_gate_failure(over, 0.05)->key, "gated.a");
  const auto gone = rows({{"gated.a", 10.0}, {"other", 1.0}});
  ASSERT_NE(first_gate_failure(gone, 0.05), nullptr);
  EXPECT_EQ(first_gate_failure(gone, 0.05)->key, "gated.b");
  const auto fresh = rows({{"gated.a", 10.0}, {"gated.b", 5.0},
                           {"gated.c", 1.0}});
  ASSERT_NE(first_gate_failure(fresh, 0.05), nullptr);
  EXPECT_TRUE(first_gate_failure(fresh, 0.05)->only_after);
  // Rows outside the filter never reach the gate.
  EXPECT_EQ(first_gate_failure(rows({{"gated.a", 10.0}, {"gated.b", 5.0},
                                     {"other", 1.0}}),
                               0.0),
            nullptr);
}

TEST(ObsDiff, RenderMatchesGoldenTable) {
  const std::vector<DiffRow> rows = diff_snapshots(
      {{"runs.0.nodes", 100.0}, {"runs.0.old_metric", 1.0}},
      {{"runs.0.nodes", 150.0}, {"runs.0.new_metric", 2.0}});
  const std::string golden =
      "           metric    before     after    delta       rel\n"
      "-----------------  --------  --------  -------  --------\n"
      "runs.0.new_metric         -    2.0000        -  new/gone\n"
      "     runs.0.nodes  100.0000  150.0000  50.0000     33.3%\n"
      "runs.0.old_metric    1.0000         -        -  new/gone\n";
  EXPECT_EQ(render_diff(rows), golden);
  EXPECT_TRUE(render_diff({}).empty());
}

TEST(ObsDiff, LoadSnapshotUsesLastJsonlLine) {
  const std::string path = ::testing::TempDir() + "/ballfit_diff_test.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"v\":1}\n{\"v\":2}\n{\"v\":3}\n";
  }
  const auto flat = load_snapshot(path);
  ASSERT_TRUE(flat.count("v"));
  EXPECT_DOUBLE_EQ(flat.at("v"), 3.0);
  std::remove(path.c_str());
}

// --- JSON writer + export --------------------------------------------------

TEST(JsonWriter, EscapesAndStructures) {
  JsonWriter w;
  w.begin_object()
      .field("plain", "abc")
      .field("quoted", "a\"b\\c\n")
      .field("num", 1.5)
      .field("count", std::uint64_t{7})
      .field("neg", -3)
      .field("flag", true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.key("none").null();
  w.end_object();
  const std::string s = w.str();
  EXPECT_TRUE(JsonValidator(s).valid()) << s;
  EXPECT_NE(s.find("\"quoted\":\"a\\\"b\\\\c\\n\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"arr\":[1,2]"), std::string::npos) << s;
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, RejectsMalformedSequences) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_ANY_THROW(w.value(1.0));  // object value without a key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_ANY_THROW(w.key("k"));  // key inside an array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_ANY_THROW(w.str());  // unclosed document
  }
}

TEST_F(ObsExport, SnapshotJsonRoundTrip) {
  Registry::global().counter("export.count").add(3);
  Registry::global().gauge("export.gauge").set(2.5);
  Registry::global().histogram("export.histo", {1.0, 10.0}).observe(4.0);
  {
    BALLFIT_SPAN("export_outer");
    BALLFIT_SPAN("export_inner");
  }

  const std::string json = to_json(snapshot());
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"export.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"export.gauge\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"export.histo\""), std::string::npos);
  EXPECT_NE(json.find("\"export_outer/export_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos) << json;
}

TEST_F(ObsExport, JsonlAppendsOneValidLinePerCall) {
  Registry::global().counter("jsonl.count").add(1);
  const std::string path =
      ::testing::TempDir() + "/ballfit_obs_test.jsonl";
  std::remove(path.c_str());
  append_jsonl(path, snapshot(), "first");
  append_jsonl(path, snapshot(), "second");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    EXPECT_NE(line.find("\"label\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST_F(ObsExport, RenderTableListsSpansAndMetrics) {
  Registry::global().counter("table.count").add(2);
  {
    BALLFIT_SPAN("table_span");
  }
  const std::string table = render_table(snapshot());
  EXPECT_NE(table.find("table_span"), std::string::npos);
  EXPECT_NE(table.find("table.count"), std::string::npos);
}

// --- Pipeline-level integration -------------------------------------------

TEST_F(ObsPipeline, PipelineRecordsStageSpansAndMetrics) {
  Rng rng(21);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 220;
  opt.interior_count = 320;
  const net::Network network = net::build_network(shape, opt, rng);

  reset();  // drop network-construction metrics; observe the pipeline only
  core::PipelineConfig cfg;
  cfg.measurement_error = 0.1;
  const core::PipelineResult result = core::detect_boundaries(network, cfg);

  const RunSnapshot snap = snapshot();
  // Stage spans, nested under the pipeline root.
  for (const char* path :
       {"pipeline", "pipeline/ubf", "pipeline/ubf/mds_frames",
        "pipeline/ubf/mds_frames/measurement", "pipeline/ubf/ball_test",
        "pipeline/iff", "pipeline/grouping"}) {
    ASSERT_TRUE(snap.spans.count(path)) << "missing span " << path;
    EXPECT_GE(snap.spans.at(path).count, 1u) << path;
  }
  // Per-node spans aggregate across parallel_for workers: one entry per node.
  ASSERT_TRUE(snap.spans.count("pipeline/ubf/mds_frames/frame"));
  EXPECT_EQ(snap.spans.at("pipeline/ubf/mds_frames/frame").count,
            network.num_nodes());

  // RunStats-derived protocol counters match the pipeline's own cost report.
  ASSERT_TRUE(snap.metrics.counters.count("sim.ttl_flood.messages"));
  EXPECT_EQ(snap.metrics.counters.at("sim.ttl_flood.messages"),
            result.iff_cost.messages);
  ASSERT_TRUE(snap.metrics.counters.count("sim.leader_flood.messages"));
  EXPECT_EQ(snap.metrics.counters.at("sim.leader_flood.messages"),
            result.grouping_cost.messages);
  EXPECT_EQ(snap.metrics.counters.at("pipeline.boundary_nodes"),
            result.num_boundary());

  // Per-node UBF work histograms.
  bool found_balls = false, found_neighbors = false;
  for (const auto& h : snap.metrics.histograms) {
    if (h.name == "ubf.candidate_balls") {
      found_balls = true;
      EXPECT_GT(h.count, 0u);
    }
    if (h.name == "ubf.node_neighbors") {
      found_neighbors = true;
      EXPECT_GT(h.count, 0u);
      EXPECT_GT(h.max, 0.0);
    }
  }
  EXPECT_TRUE(found_balls);
  EXPECT_TRUE(found_neighbors);

  // The whole document serializes to valid JSON.
  EXPECT_TRUE(JsonValidator(to_json(snap)).valid());
}

TEST_F(ObsPipeline, DisabledPipelineRecordsNothing) {
  set_enabled(false);
  Rng rng(22);
  const model::SphereShape shape({0, 0, 0}, 2.5);
  net::BuildOptions opt;
  opt.surface_count = 150;
  opt.interior_count = 200;
  const net::Network network = net::build_network(shape, opt, rng);
  core::PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  (void)core::detect_boundaries(network, cfg);

  const RunSnapshot snap = snapshot();
  EXPECT_TRUE(snap.spans.empty());
  // Registrations from earlier tests survive reset(), but nothing may have
  // been recorded while disabled.
  for (const auto& [name, value] : snap.metrics.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& h : snap.metrics.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }
  set_enabled(true);
}

}  // namespace
}  // namespace ballfit::obs
