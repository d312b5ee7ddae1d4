// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, kept in memory and written out when the run ends. No span
// is recorded from inside the library; the engine's own per-stage timings
// arrive through `IntegratedResult::timings` instead.
#ifndef PERFBENCH_TRACE_LOG_H_
#define PERFBENCH_TRACE_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "source/federated_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded interval. `parent` is the id of the `engine.execute` span
/// the interval belongs to, or 0 when it cannot be attributed (two queries
/// of the same requester in flight at once).
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string owner;  ///< source owner for fragment spans, else empty
  uint64_t rows = 0;  ///< rows the fragment returned (fragment spans)
  bool ok = true;

  double micros() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

/// Thread-safe in-memory span store. Recording is off until `Enable`; while
/// off, the decorators below cost one relaxed atomic load per call.
///
/// Fragments run on engine and server pool threads, not on the client
/// thread that called Execute, so a fragment is tied to its Execute span
/// through the requester the fragment carries: each benchmark client has at
/// most one query in flight, and a requester with exactly one in-flight
/// Execute names the parent unambiguously.
class SpanLog {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens an `engine.execute` span for `requester` and returns its id.
  uint64_t BeginExecute(const std::string& requester);
  /// Closes the span opened by BeginExecute.
  void EndExecute(uint64_t id, const std::string& requester,
                  Clock::time_point start, Clock::time_point end);

  /// The in-flight Execute span of `requester`, or 0 when there is none or
  /// more than one.
  uint64_t ParentFor(const std::string& requester) const;

  void Record(Span span);

  /// Moves the recorded spans out (ordered by start time).
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<uint64_t>> inflight_;
};

/// A `FederatedSource` decorator that times every `ExecuteFragment` of the
/// source it wraps into `log` under `span_name`. Sketch export and transport
/// counters pass straight through.
class TimingSource : public piye::source::FederatedSource {
 public:
  TimingSource(const piye::source::FederatedSource* inner, SpanLog* log,
               const char* span_name)
      : inner_(inner), log_(log), span_name_(span_name) {}

  const std::string& owner() const override { return inner_->owner(); }

  piye::Result<FragmentResult> ExecuteFragment(
      const piye::source::PiqlQuery& fragment,
      const piye::CancelToken& cancel = {}) const override;

  piye::Result<std::vector<piye::match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const override {
    return inner_->ExportSketches(shared_key);
  }

  piye::source::TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }

 private:
  const piye::source::FederatedSource* inner_;
  SpanLog* log_;
  const char* span_name_;
};

/// Writes spans as a Chrome trace-event JSON array (load it in
/// chrome://tracing or ui.perfetto.dev). Times are microseconds from `origin`.
bool WriteChromeTrace(const std::vector<Span>& spans, Clock::time_point origin,
                      const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_LOG_H_
