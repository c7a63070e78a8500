// MetricsRegistry: instrument semantics, label cardinality cap, span ring
// wraparound, virtual-time stamping and export round-trips. Every test
// gets a fresh context, hence a fresh registry.
#include <gtest/gtest.h>

#include "common/context.hpp"
#include "sim/simulator.hpp"

namespace siphoc {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsRegistry& registry() { return ctx_.metrics(); }
  SimContext ctx_;
};

TEST_F(MetricsTest, CounterIsMonotonicAndSharedByKey) {
  auto& c = registry().counter("test.events_total", "n0", "unit");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  // Same (name, node, component) -> same series.
  EXPECT_EQ(&registry().counter("test.events_total", "n0", "unit"), &c);
  // Different node -> distinct series.
  auto& other = registry().counter("test.events_total", "n1", "unit");
  EXPECT_NE(&other, &c);
  other.add(7);
  EXPECT_EQ(registry().counter_total("test.events_total"), 12u);
}

TEST_F(MetricsTest, GaugeMovesBothWays) {
  auto& g = registry().gauge("test.level", "n0", "unit");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketEdges) {
  const double bounds[] = {1.0, 5.0, 10.0};
  auto& h = registry().histogram("test.latency_ms", bounds, "n0", "unit");

  h.observe(0.5);   // below first bound
  h.observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h.observe(5.000000001);  // just above -> next bucket
  h.observe(10.0);
  h.observe(99.0);  // beyond every bound -> +inf

  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 2u);  // 5.000000001, 10.0
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // 99.0
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.000000001 + 10.0 + 99.0);
}

TEST_F(MetricsTest, HistogramBoundsFixedAtFirstRegistration) {
  const double first[] = {1.0, 2.0};
  const double second[] = {100.0};
  auto& a = registry().histogram("test.h", first, "n0", "unit");
  auto& b = registry().histogram("test.h", second, "n0", "unit");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(MetricsTest, LabelCardinalityCapFoldsIntoOverflowSeries) {
  registry().set_label_cardinality_cap(3);
  registry().counter("test.capped_total", "n0", "unit").add();
  registry().counter("test.capped_total", "n1", "unit").add();
  registry().counter("test.capped_total", "n2", "unit").add();

  // Label sets beyond the cap share one overflow series...
  auto& over_a = registry().counter("test.capped_total", "n3", "unit");
  auto& over_b = registry().counter("test.capped_total", "n4", "unit");
  EXPECT_EQ(&over_a, &over_b);
  over_a.add(10);

  // ...while existing series stay reachable, and nothing is lost from the
  // aggregate.
  EXPECT_EQ(registry().counter("test.capped_total", "n1", "unit").value(), 1u);
  EXPECT_EQ(registry().counter_total("test.capped_total"), 13u);
  EXPECT_NE(registry().find_counter("test.capped_total", "(overflow)",
                                    "(overflow)"),
            nullptr);
  // The cap is per name: a fresh name is unaffected.
  auto& fresh = registry().counter("test.other_total", "n9", "unit");
  fresh.add();
  EXPECT_EQ(registry().find_counter("test.other_total", "n9", "unit"),
            &fresh);
}

TEST_F(MetricsTest, SpanRingWrapsAroundKeepingNewest) {
  registry().set_span_capacity(4);
  for (int i = 0; i < 10; ++i) {
    registry().record_span("s" + std::to_string(i), "unit", "n0",
                           TimePoint{microseconds(i)},
                           TimePoint{microseconds(i + 1)});
  }
  EXPECT_EQ(registry().spans_recorded(), 10u);
  EXPECT_EQ(registry().spans_dropped(), 6u);
  const auto spans = registry().spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
  EXPECT_EQ(spans.back().t_start, TimePoint{microseconds(9)});
}

TEST_F(MetricsTest, SpansCarryVirtualTimeFromSimulator) {
  sim::Simulator sim(1, &ctx_);  // registers itself as the time source
  sim.schedule(milliseconds(5), [this] {
    registry().record_span("work", "unit", "n0", registry().now(),
                           registry().now());  // records [5ms, 5ms]
  });
  sim.schedule(milliseconds(7), [this] {
    registry().record_span("tail", "unit", "n0",
                           registry().now() - milliseconds(2),
                           registry().now());
  });
  sim.run_to_completion();

  const auto spans = registry().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].t_start, TimePoint{milliseconds(5)});
  EXPECT_EQ(spans[1].t_start, TimePoint{milliseconds(5)});
  EXPECT_EQ(spans[1].t_end, TimePoint{milliseconds(7)});
}

TEST_F(MetricsTest, JsonExportRoundTrip) {
  registry().counter("test.events_total", "n0", "unit").add(3);
  registry().gauge("test.level", "n0", "unit").set(1.5);
  const double bounds[] = {1.0, 10.0};
  auto& h = registry().histogram("test.latency_ms", bounds, "n0", "unit");
  h.observe(0.5);
  h.observe(42.0);
  registry().record_span("test_span", "unit", "n0",
                         TimePoint{microseconds(100)},
                         TimePoint{microseconds(250)});

  const std::string json = registry().to_json();
  EXPECT_NE(json.find("\"schema\": \"siphoc.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"test.events_total\", \"node\": \"n0\", "
                      "\"component\": \"unit\", \"value\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 42.5"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+inf\", \"count\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"t_start_us\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"t_end_us\": 250"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\": 0"), std::string::npos);
}

TEST_F(MetricsTest, CsvExportRoundTrip) {
  registry().counter("test.events_total", "n0", "unit").add(3);
  const double bounds[] = {1.0};
  registry().histogram("test.latency_ms", bounds, "n0", "unit").observe(2.0);
  registry().record_span("test_span", "unit", "n0",
                         TimePoint{microseconds(100)},
                         TimePoint{microseconds(250)});

  const std::string csv = registry().to_csv();
  EXPECT_EQ(csv.rfind("kind,name,node,component,key,value,value2\n", 0), 0u);
  EXPECT_NE(csv.find("counter,test.events_total,n0,unit,value,3,"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,test.latency_ms,n0,unit,le,+inf,1"),
            std::string::npos);
  EXPECT_NE(csv.find("span,test_span,n0,unit,span,100,250"),
            std::string::npos);
}

}  // namespace
}  // namespace siphoc
