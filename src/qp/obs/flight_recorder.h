#ifndef QP_OBS_FLIGHT_RECORDER_H_
#define QP_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace qp {
namespace obs {

class RequestTrace;

/// What a flight-recorder entry describes. The recorder is the crash-
/// forensics layer: the last few thousand notable events (completed
/// request summaries, injected-fault fires, breaker and migration state
/// transitions, scrubber quarantines/repairs) survive in memory and are
/// dumpable after the fact — qpshell \blackbox, or a JSON snapshot when
/// a chaos trial fails.
enum class FlightEventType : uint8_t {
  kTraceSummary = 0,
  kFaultFired = 1,
  kBreakerTransition = 2,
  kQuarantine = 3,
  kRepair = 4,
  kMigrationPhase = 5,
};

/// One fixed-size, trivially-copyable recorder entry. Strings are
/// truncated into the inline arrays: `what` is the primary identifier
/// (fault site, disposition, breaker name, user id, partition phase),
/// `detail` the qualifier (stopped phase, from->to transition, reason).
struct FlightEvent {
  uint64_t sequence = 0;  // Assigned by the recorder; total order.
  FlightEventType type = FlightEventType::kTraceSummary;
  char what[40] = {};
  char detail[40] = {};
  uint64_t a = 0;  // Type-specific (total micros, call index, partition).
  uint64_t b = 0;  // Type-specific (span count, fire count, shard).
  uint64_t trace_id = 0;

  std::string_view what_view() const {
    return std::string_view(what, ::strnlen(what, sizeof(what)));
  }
  std::string_view detail_view() const {
    return std::string_view(detail, ::strnlen(detail, sizeof(detail)));
  }
};

/// Lock-free bounded ring of FlightEvents. Writers claim a slot with
/// one fetch_add and publish through a per-slot sequence word (seqlock);
/// readers copy the payload word-by-word through relaxed atomics and
/// retry/skip slots a writer is mid-flight in, so a dump never blocks a
/// writer and the whole structure is data-race-free under TSan. Memory
/// bound: kSlots * sizeof(slot) ~= kSlots * 128 bytes, fixed at start.
class FlightRecorder {
 public:
  static constexpr size_t kSlots = 4096;

  /// The process-wide recorder every subsystem records into.
  static FlightRecorder* Global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const FlightEvent& event);

  /// Consistent copies of the retained events, oldest first. Slots being
  /// overwritten during the scan are skipped, not torn.
  std::vector<FlightEvent> Dump() const;

  /// Drops retained events (they stay overwritable but invisible);
  /// counters keep running. Test isolation between chaos trials.
  void Clear();

  /// Events ever recorded (including overwritten ones).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// One-line-per-event JSON array of a dump.
  static std::string ToJson(const std::vector<FlightEvent>& events);

 private:
  static constexpr size_t kWords =
      (sizeof(FlightEvent) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct alignas(64) Slot {
    /// 0 = never written; odd = write in progress for ticket (seq-1)/2;
    /// even non-zero = ticket (seq-2)/2 published.
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> floor_{0};  // Tickets below this are cleared.
  std::vector<Slot> slots_;
};

/// Convenience recorders. These are the only calls instrumented
/// subsystems make, so the callsites stay one line.
void RecordFlightEvent(FlightEventType type, std::string_view what,
                       std::string_view detail, uint64_t a = 0,
                       uint64_t b = 0, uint64_t trace_id = 0);

/// Summarizes a finished request/operation trace into the recorder:
/// what=disposition, detail=stopped phase, a=total micros, b=span count.
void RecordTraceSummary(const RequestTrace& trace);

/// The FaultHub fire listener (matches FaultHub::FireListener). Wired up
/// by the storage layer at static-init time; records kFaultFired with
/// what=site, a=call index.
void RecordFaultFire(std::string_view site, uint64_t call_index);

const char* FlightEventTypeName(FlightEventType type);

}  // namespace obs
}  // namespace qp

#endif  // QP_OBS_FLIGHT_RECORDER_H_
