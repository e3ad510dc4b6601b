#include "qp/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "qp/obs/trace.h"

namespace qp {
namespace obs {
namespace {

void CopyTruncated(std::string_view from, char* to, size_t capacity) {
  size_t n = std::min(from.size(), capacity - 1);
  std::memcpy(to, from.data(), n);
  to[n] = '\0';
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string FormatId(uint64_t id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kTraceSummary:
      return "trace_summary";
    case FlightEventType::kFaultFired:
      return "fault_fired";
    case FlightEventType::kBreakerTransition:
      return "breaker_transition";
    case FlightEventType::kQuarantine:
      return "quarantine";
    case FlightEventType::kRepair:
      return "repair";
    case FlightEventType::kMigrationPhase:
      return "migration_phase";
  }
  return "?";
}

FlightRecorder* FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return recorder;
}

FlightRecorder::FlightRecorder() : slots_(kSlots) {}

void FlightRecorder::Record(const FlightEvent& event) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % kSlots];

  FlightEvent stamped = event;
  stamped.sequence = ticket;
  uint64_t words[kWords] = {};
  std::memcpy(words, &stamped, sizeof(stamped));

  // Per-slot seqlock: mark the write in flight (odd), store the payload
  // through the word atomics, publish (even). A reader that overlaps
  // either skips the slot or notices the seq moved and drops its copy.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  const uint64_t floor = floor_.load(std::memory_order_relaxed);
  std::vector<FlightEvent> events;
  events.reserve(kSlots);
  for (const Slot& slot : slots_) {
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // Empty or mid-write.
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // Overwritten while copying.
    FlightEvent event;
    std::memcpy(&event, words, sizeof(event));
    if (event.sequence < floor) continue;  // Cleared.
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.sequence < b.sequence;
            });
  return events;
}

void FlightRecorder::Clear() {
  floor_.store(next_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::string FlightRecorder::ToJson(const std::vector<FlightEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& event = events[i];
    if (i > 0) out.push_back(',');
    out += "{\"seq\":" + std::to_string(event.sequence);
    out += ",\"type\":";
    AppendJsonString(FlightEventTypeName(event.type), &out);
    out += ",\"what\":";
    AppendJsonString(event.what_view(), &out);
    out += ",\"detail\":";
    AppendJsonString(event.detail_view(), &out);
    out += ",\"a\":" + std::to_string(event.a);
    out += ",\"b\":" + std::to_string(event.b);
    out += ",\"trace_id\":";
    AppendJsonString(FormatId(event.trace_id), &out);
    out += "}";
  }
  out += "]";
  return out;
}

void RecordFlightEvent(FlightEventType type, std::string_view what,
                       std::string_view detail, uint64_t a, uint64_t b,
                       uint64_t trace_id) {
  FlightEvent event;
  event.type = type;
  CopyTruncated(what, event.what, sizeof(event.what));
  CopyTruncated(detail, event.detail, sizeof(event.detail));
  event.a = a;
  event.b = b;
  event.trace_id = trace_id;
  FlightRecorder::Global()->Record(event);
}

void RecordTraceSummary(const RequestTrace& trace) {
  RecordFlightEvent(FlightEventType::kTraceSummary, trace.disposition(),
                    trace.stopped_phase(),
                    static_cast<uint64_t>(trace.total_millis() * 1000.0),
                    trace.spans().size(), trace.trace_id());
}

void RecordFaultFire(std::string_view site, uint64_t call_index) {
  RecordFlightEvent(FlightEventType::kFaultFired, site, "", call_index, 0, 0);
}

}  // namespace obs
}  // namespace qp
