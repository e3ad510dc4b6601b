#include "qp/obs/trace.h"

#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "obs_test_parsers.h"

namespace qp {
namespace obs {
namespace {

using ::qp::testing_util::JsonParser;
using ::qp::testing_util::JsonValue;

TEST(RequestTraceTest, SpansNestByOpenDepth) {
  RequestTrace trace;
  size_t outer = trace.StartSpan("execution");
  size_t inner = trace.StartSpan("disjunct");
  size_t leaf = trace.StartSpan("probe");
  trace.EndSpan(leaf);
  trace.EndSpan(inner);
  size_t sibling = trace.StartSpan("disjunct");
  trace.EndSpan(sibling);
  trace.EndSpan(outer);

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[outer].depth, 0);
  EXPECT_EQ(trace.spans()[inner].depth, 1);
  EXPECT_EQ(trace.spans()[leaf].depth, 2);
  EXPECT_EQ(trace.spans()[sibling].depth, 1);
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.duration_millis, 0.0);
    EXPECT_GE(span.start_millis, 0.0);
  }
  // A parent's window contains its child's.
  EXPECT_LE(trace.spans()[outer].start_millis,
            trace.spans()[inner].start_millis);
  EXPECT_GE(trace.spans()[outer].duration_millis,
            trace.spans()[inner].duration_millis);
  EXPECT_GE(trace.total_millis(), trace.spans()[outer].duration_millis);
}

TEST(RequestTraceTest, OutOfOrderEndClosesChildren) {
  RequestTrace trace;
  size_t outer = trace.StartSpan("selection");
  size_t inner = trace.StartSpan("expansion");
  // Closing the parent (e.g. via an early return unwinding a ScopedSpan)
  // must close the still-open child too, never leave it dangling.
  trace.EndSpan(outer);
  EXPECT_GE(trace.spans()[inner].duration_millis, 0.0);
  // Spans opened afterwards are roots again, not children of a ghost.
  size_t next = trace.StartSpan("integration");
  trace.EndSpan(next);
  EXPECT_EQ(trace.spans()[next].depth, 0);
}

TEST(RequestTraceTest, CountersAndFindSpan) {
  RequestTrace trace;
  size_t span = trace.StartSpan("preference_selection");
  trace.AddCounter(span, "selected", 4);
  trace.AddCounter(span, "pruned_cycle", 2);
  trace.EndSpan(span);

  const TraceSpan* found = trace.FindSpan("preference_selection");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->counter("selected"), 4u);
  EXPECT_EQ(found->counter("pruned_cycle"), 2u);
  EXPECT_TRUE(found->has_counter("selected"));
  EXPECT_FALSE(found->has_counter("absent"));
  EXPECT_EQ(found->counter("absent"), 0u);
  EXPECT_EQ(trace.FindSpan("no_such_span"), nullptr);
}

TEST(RequestTraceTest, DispositionDefaultsToFull) {
  RequestTrace trace;
  EXPECT_EQ(trace.disposition(), "full");
  EXPECT_EQ(trace.stopped_phase(), "");
  trace.SetDisposition("degraded", "preference_selection");
  EXPECT_EQ(trace.disposition(), "degraded");
  EXPECT_EQ(trace.stopped_phase(), "preference_selection");
}

TEST(RequestTraceTest, ToStringRendersTree) {
  RequestTrace trace;
  size_t outer = trace.StartSpan("execution");
  size_t inner = trace.StartSpan("disjunct");
  trace.AddCounter(inner, "rows", 7);
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.SetDisposition("full", "");

  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("execution"), std::string::npos);
  EXPECT_NE(rendered.find("disjunct"), std::string::npos);
  EXPECT_NE(rendered.find("rows"), std::string::npos);
  EXPECT_NE(rendered.find("full"), std::string::npos);
  // The child renders after (and indented under) the parent.
  EXPECT_LT(rendered.find("execution"), rendered.find("disjunct"));
}

TEST(RequestTraceTest, ToJsonParses) {
  RequestTrace trace;
  size_t span = trace.StartSpan("cache_lookup");
  trace.AddCounter(span, "hit", 1);
  trace.EndSpan(span);
  trace.SetDisposition("full", "");

  JsonValue root;
  ASSERT_TRUE(JsonParser(trace.ToJson()).Parse(&root)) << trace.ToJson();
  const JsonValue* disposition = root.Find("disposition");
  ASSERT_NE(disposition, nullptr);
  EXPECT_EQ(disposition->str, "full");
  const JsonValue* spans = root.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 1u);
  const JsonValue* name = spans->array[0].Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->str, "cache_lookup");
  const JsonValue* counters = spans->array[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* hit = counters->Find("hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->number, 1.0);
}

TEST(ScopedSpanTest, NullTraceIsNoOp) {
  // Instrumented code passes a null trace when tracing is off; every
  // method must be safe (and cheap) in that state.
  ScopedSpan span(nullptr, "anything");
  span.Counter("rows", 3);
  span.End();
  span.End();  // Idempotent.
}

TEST(ScopedSpanTest, RaiiClosesOnScopeExit) {
  RequestTrace trace;
  {
    ScopedSpan span(&trace, "scoped");
    span.Counter("rows", 3);
  }
  const TraceSpan* found = trace.FindSpan("scoped");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->counter("rows"), 3u);
  EXPECT_GE(found->duration_millis, 0.0);
}

TEST(ScopedSpanTest, ExplicitEndThenDestructorCountsOnce) {
  RequestTrace trace;
  {
    ScopedSpan span(&trace, "ended_early");
    span.End();
  }  // Destructor must not close (or re-open) anything.
  ASSERT_EQ(trace.spans().size(), 1u);
}

TEST(LastTraceSinkTest, KeepsMostRecentTrace) {
  LastTraceSink sink;
  EXPECT_EQ(sink.last(), nullptr);

  RequestTrace first;
  first.SetDisposition("full", "");
  sink.Consume(std::move(first));
  std::shared_ptr<const RequestTrace> held = sink.last();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->disposition(), "full");

  RequestTrace second;
  second.SetDisposition("shed", "admission");
  sink.Consume(std::move(second));
  ASSERT_NE(sink.last(), nullptr);
  EXPECT_EQ(sink.last()->disposition(), "shed");
  // The earlier shared_ptr stays valid after being replaced.
  EXPECT_EQ(held->disposition(), "full");
}

}  // namespace
}  // namespace obs
}  // namespace qp
