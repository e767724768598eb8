#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace tradefl::obs {
namespace {

SpanEvent make_event(const std::string& name, double start_us, double duration_us,
                     int thread = 0, int depth = 0) {
  SpanEvent event;
  event.name = name;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.thread = thread;
  event.depth = depth;
  return event;
}

std::vector<std::string> names_of(const std::vector<SpanEvent>& events) {
  std::vector<std::string> names;
  names.reserve(events.size());
  for (const SpanEvent& event : events) names.push_back(event.name);
  return names;
}

/// Serializes spans recorded through the global trace() sink; tests that use
/// it restore a clean disabled state on exit.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace().reset();
    set_enabled(false);
  }
  void TearDown() override {
    set_enabled(false);
    trace().reset();
  }
};

TEST(TraceBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(TraceBuffer(0), std::invalid_argument);
  TraceBuffer buffer(4);
  EXPECT_THROW(buffer.set_capacity(0), std::invalid_argument);
}

TEST(TraceBuffer, RecordsInOrderUntilFull) {
  TraceBuffer buffer(4);
  buffer.record(make_event("a", 0.0, 1.0));
  buffer.record(make_event("b", 1.0, 1.0));
  buffer.record(make_event("c", 2.0, 1.0));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(names_of(buffer.events()), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TraceBuffer, OverwritesOldestWhenFull) {
  TraceBuffer buffer(3);
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    buffer.record(make_event(name, 0.0, 1.0));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  // Oldest surviving first: a and b were overwritten.
  EXPECT_EQ(names_of(buffer.events()), (std::vector<std::string>{"c", "d", "e"}));
}

TEST(TraceBuffer, ResetClearsEventsAndDropCount) {
  TraceBuffer buffer(2);
  buffer.record(make_event("a", 0.0, 1.0));
  buffer.record(make_event("b", 0.0, 1.0));
  buffer.record(make_event("c", 0.0, 1.0));
  buffer.reset();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.capacity(), 2u);
}

TEST(TraceBuffer, SetCapacityRebounds) {
  TraceBuffer buffer(2);
  buffer.record(make_event("a", 0.0, 1.0));
  buffer.set_capacity(5);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 5u);
}

TEST(TraceBuffer, ChromeTraceMatchesGolden) {
  TraceBuffer buffer(8);
  buffer.record(make_event("cgbd.master_step", 1.5, 2.25, 0, 0));
  buffer.record(make_event("cgbd.primal_solve", 2.0, 0.5, 1, 1));
  std::ostringstream out;
  buffer.write_chrome_trace(out);
  const std::string expected =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"cgbd.master_step\", \"ph\": \"X\", \"ts\": 1.500, \"dur\": 2.250, "
      "\"pid\": 0, \"tid\": 0, \"args\": {\"depth\": 0}},\n"
      "  {\"name\": \"cgbd.primal_solve\", \"ph\": \"X\", \"ts\": 2.000, \"dur\": 0.500, "
      "\"pid\": 0, \"tid\": 1, \"args\": {\"depth\": 1}}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(TraceBuffer, ChromeTraceEmptyBuffer) {
  TraceBuffer buffer(2);
  std::ostringstream out;
  buffer.write_chrome_trace(out);
  EXPECT_EQ(out.str(), "{\"traceEvents\": []}\n");
}

TEST(TraceBuffer, ChromeTraceEscapesNames) {
  TraceBuffer buffer(2);
  buffer.record(make_event("quote\"back\\slash", 0.0, 1.0));
  std::ostringstream out;
  buffer.write_chrome_trace(out);
  EXPECT_NE(out.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TraceNow, IsMonotonicNonNegative) {
  const double first = trace_now_us();
  const double second = trace_now_us();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST_F(SpanTest, RecordsNothingWhenDisabled) {
  { Span span("quiet"); }
  EXPECT_TRUE(trace().events().empty());
}

TEST_F(SpanTest, NestedSpansRecordDepthAndCloseInnerFirst) {
  set_enabled(true);
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  const std::vector<SpanEvent> events = trace().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and therefore records) before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_GE(events[0].duration_us, 0.0);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
}

TEST_F(SpanTest, SpanOpenedWhileEnabledStillClosesAfterDisable) {
  set_enabled(true);
  {
    Span span("toggled");
    set_enabled(false);  // mid-flight toggle must not lose or corrupt the span
  }
  ASSERT_EQ(trace().events().size(), 1u);
  EXPECT_EQ(trace().events()[0].name, "toggled");
}

#if TRADEFL_ENABLE_TRACING
TEST_F(SpanTest, SpanMacroRecordsScope) {
  set_enabled(true);
  { TFL_SPAN("macro.scope"); }
  ASSERT_EQ(trace().events().size(), 1u);
  EXPECT_EQ(trace().events()[0].name, "macro.scope");
}
#endif

TEST(ScopedTimer, FeedsSecondsHistogram) {
  Histogram histogram("t", {0.5, 1.0, 10.0});
  { ScopedTimer timer(&histogram); }
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.sum, 0.0);
  EXPECT_LT(snap.sum, 10.0);  // a no-op scope is nowhere near 10 s
}

TEST(ScopedTimer, NullSinkIsInert) {
  ScopedTimer timer(nullptr);  // must not crash or record anything
}

#if TRADEFL_ENABLE_TRACING
/// One call site per timer macro, run both outside and inside a scope.
void timed_call_site() {
  TFL_SCOPED_TIMER("test.scoped_timer.seconds");
  TFL_LATENCY_TIMER("test.latency_timer.seconds");
}

TEST(ScopedTimer, MacrosRecordIntoTheScopedTwin) {
  // The first call caches the bare histograms at the call site; calls under
  // a MetricScope must still land in the `<scope>/<name>` twins.
  set_enabled(true);
  timed_call_site();
  {
    const MetricScope scope("session=7");
    timed_call_site();
    timed_call_site();
  }
  timed_call_site();
  set_enabled(false);
  MetricsRegistry& registry = metrics();
  EXPECT_EQ(registry.histogram("test.scoped_timer.seconds").snapshot().count, 2u);
  EXPECT_EQ(registry.histogram("session=7/test.scoped_timer.seconds").snapshot().count, 2u);
  EXPECT_EQ(latency_histogram("test.latency_timer.seconds").snapshot().count, 2u);
  const Histogram& twin = latency_histogram("session=7/test.latency_timer.seconds");
  EXPECT_EQ(twin.snapshot().count, 2u);
  EXPECT_EQ(twin.bounds(), latency_histogram_bounds());  // inherited from the bare one
}
#endif

}  // namespace
}  // namespace tradefl::obs
