// FlightRecorder tests: slot publication and total ordering, string
// truncation into the fixed slots, ring wraparound retaining the newest
// kSlots events, Clear isolation, JSON escaping, trace summarization,
// the FaultHub fire listener wiring, and a writers-vs-dumpers hammer
// that the sanitized CI stage runs under TSan.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "qp/obs/flight_recorder.h"
#include "qp/obs/trace.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  // The recorder is process-global; every test starts from an empty
  // (but still counting) view.
  void SetUp() override { FlightRecorder::Global()->Clear(); }
  void TearDown() override {
    FlightRecorder::Global()->Clear();
    FaultHub::Global()->Reset();
  }
};

TEST_F(FlightRecorderTest, RecordsInOrderWithPayload) {
  RecordFlightEvent(FlightEventType::kBreakerTransition, "breaker",
                    "closed->open", 7, 0);
  RecordFlightEvent(FlightEventType::kQuarantine, "julie", "db", 0, 0,
                    0xabcdef);
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].sequence, events[1].sequence);
  EXPECT_EQ(events[0].type, FlightEventType::kBreakerTransition);
  EXPECT_EQ(events[0].what_view(), "breaker");
  EXPECT_EQ(events[0].detail_view(), "closed->open");
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[1].type, FlightEventType::kQuarantine);
  EXPECT_EQ(events[1].what_view(), "julie");
  EXPECT_EQ(events[1].trace_id, 0xabcdefu);
}

TEST_F(FlightRecorderTest, TruncatesOverlongStrings) {
  const std::string longer(200, 'x');
  RecordFlightEvent(FlightEventType::kTraceSummary, longer, longer);
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].what_view().size(), sizeof(FlightEvent{}.what));
  EXPECT_EQ(events[0].what_view(),
            std::string_view(longer).substr(0, events[0].what_view().size()));
}

TEST_F(FlightRecorderTest, WrapAroundKeepsTheNewestEvents) {
  const size_t total = FlightRecorder::kSlots + 100;
  for (size_t i = 0; i < total; ++i) {
    RecordFlightEvent(FlightEventType::kTraceSummary, "evt", "", i);
  }
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  // Oldest-first and contiguous: exactly the last kSlots of the stream.
  EXPECT_EQ(events.front().a, total - FlightRecorder::kSlots);
  EXPECT_EQ(events.back().a, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, events[i - 1].a + 1);
  }
}

TEST_F(FlightRecorderTest, ClearHidesButKeepsCounting) {
  RecordFlightEvent(FlightEventType::kRepair, "user", "");
  const uint64_t before = FlightRecorder::Global()->total_recorded();
  FlightRecorder::Global()->Clear();
  EXPECT_TRUE(FlightRecorder::Global()->Dump().empty());
  RecordFlightEvent(FlightEventType::kRepair, "user2", "");
  EXPECT_EQ(FlightRecorder::Global()->Dump().size(), 1u);
  EXPECT_EQ(FlightRecorder::Global()->total_recorded(), before + 1);
}

TEST_F(FlightRecorderTest, ToJsonEscapesAndNamesTypes) {
  RecordFlightEvent(FlightEventType::kFaultFired, "site\"with\\quotes",
                    "", 3);
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  std::string json = FlightRecorder::ToJson(events);
  EXPECT_NE(json.find("\"fault_fired\""), std::string::npos) << json;
  EXPECT_NE(json.find("site\\\"with\\\\quotes"), std::string::npos) << json;
}

TEST_F(FlightRecorderTest, SummarizesAFinishedTrace) {
  RequestTrace trace;
  trace.EndSpan(trace.StartSpan("selection"));
  trace.EndSpan(trace.StartSpan("execution"));
  trace.SetDisposition("degraded", "execution");
  RecordTraceSummary(trace);
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kTraceSummary);
  EXPECT_EQ(events[0].what_view(), "degraded");
  EXPECT_EQ(events[0].detail_view(), "execution");
  EXPECT_EQ(events[0].b, 2u);  // Span count.
  EXPECT_EQ(events[0].trace_id, trace.trace_id());
}

TEST_F(FlightRecorderTest, ArmedFaultSiteFiresIntoTheRecorder) {
  // The hub-to-recorder bridge: install the listener the way the
  // storage layer's registrar does, arm a deterministic rule, and the
  // fire shows up as a kFaultFired event naming the site and call index.
  FaultHub::SetFireListener(&RecordFaultFire);
  FaultRule rule;
  rule.fire_on_nth = 2;
  FaultHub::Global()->SetRule("test.site", rule);
  FaultHub::Global()->Arm(42);
  EXPECT_FALSE(FaultHub::Global()->Evaluate("test.site").fire);
  EXPECT_TRUE(FaultHub::Global()->Evaluate("test.site").fire);
  std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kFaultFired);
  EXPECT_EQ(events[0].what_view(), "test.site");
  EXPECT_EQ(events[0].a, 2u);  // 1-based call index of the fire.
}

TEST_F(FlightRecorderTest, ConcurrentWritersAndDumpersStayConsistent) {
  // 4 writers flood the ring past wraparound while 2 readers dump
  // continuously: every dumped event must be internally consistent
  // (payload matches its writer's stamp) and in strictly increasing
  // sequence order. TSan vets the seqlock in the sanitized CI stage.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<FlightEvent> events = FlightRecorder::Global()->Dump();
        uint64_t last_seq = 0;
        for (const FlightEvent& event : events) {
          // Writer w stamps what="w<w>", a=w, b=i and a=b-consistent
          // payloads; a torn read would mix them.
          if (event.sequence <= last_seq && last_seq != 0) torn.fetch_add(1);
          last_seq = event.sequence;
          std::string expect_what = "w" + std::to_string(event.a);
          if (event.what_view() != expect_what) torn.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      std::string what = "w" + std::to_string(w);
      for (int i = 0; i < kPerWriter; ++i) {
        RecordFlightEvent(FlightEventType::kTraceSummary, what, "",
                          static_cast<uint64_t>(w),
                          static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(FlightRecorder::Global()->Dump().size(), FlightRecorder::kSlots);
}

}  // namespace
}  // namespace obs
}  // namespace qp
