// hdc::obs tracing — RAII spans recorded into thread-local ring buffers and
// flushed on demand as Chrome trace-event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev).
//
// A Span stamps steady-clock begin/end timestamps around a scope; the
// completed event (name, thread, begin, duration) is appended to the calling
// thread's buffer. Buffers hold kTraceCapacity events each; overflow drops
// new events and counts them (pairing is never corrupted). Timestamps are
// observability output only — they never feed back into any computation, so
// tracing cannot perturb the library's determinism guarantees.
//
// Causality across threads: every active Span gets a process-unique id and
// records the id of the span it was opened under (same thread, or adopted
// from another thread via ContextGuard). ThreadPool::submit captures
// current_span_context() at submit time and re-enters it on the worker, so a
// task's spans parent back to the code that scheduled it; flow_begin() /
// flow_end() additionally emit Chrome flow events ("ph":"s"/"f") drawing
// submit→execute arrows in the viewer. collapsed_stacks() folds the same
// parent chains into flamegraph ("folded stacks") lines weighted by
// self-time.
//
// Span names must be string literals (or otherwise outlive the trace); the
// buffer stores the pointer, not a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hdc::obs {

/// Process-wide tracing switch (default off). Spans constructed while the
/// switch is off record nothing, ever; flipping it mid-span is safe.
void set_trace_enabled(bool on) noexcept;
[[nodiscard]] bool trace_enabled() noexcept;

/// Events each thread's ring buffer can hold before dropping.
inline constexpr std::size_t kTraceCapacity = 1 << 16;

class Span {
 public:
  /// `name` must point at storage that outlives the trace (string literal).
  explicit Span(const char* name) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True if this span is recording (tracing was enabled at construction).
  [[nodiscard]] bool active() const noexcept { return name_ != nullptr; }

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Snapshot of the calling thread's innermost active span (0 = none).
/// Capture at task-submit time; re-enter on the worker with ContextGuard.
struct SpanContext {
  std::uint64_t span_id = 0;
};

[[nodiscard]] SpanContext current_span_context() noexcept;

/// Adopts `context` as the calling thread's parent span for the guard's
/// scope, so spans opened inside parent back across the thread boundary.
/// Restores the previous context on destruction. Safe (and near-free) when
/// tracing is off.
class ContextGuard {
 public:
  explicit ContextGuard(SpanContext context) noexcept;
  ~ContextGuard();

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  std::uint64_t saved_ = 0;
};

/// Start a Chrome flow arrow on the calling thread (e.g. at task submit).
/// Returns the flow id to pass to flow_end() where the work executes, or 0
/// when tracing is off (flow_end ignores id 0). `name` must outlive the
/// trace, and both ends must use the same name for viewers to bind them.
[[nodiscard]] std::uint64_t flow_begin(const char* name) noexcept;
void flow_end(const char* name, std::uint64_t id) noexcept;

/// Total buffered events / events dropped to overflow, across all threads.
[[nodiscard]] std::size_t trace_event_count();
[[nodiscard]] std::size_t trace_dropped_count();

/// Discard all buffered events (buffers stay registered).
void clear_trace();

/// Serialise every buffered event to Chrome trace-event JSON. Complete
/// events carry {"args":{"span":id,"parent":id}}; flow events are emitted
/// as "ph":"s" / "ph":"f" pairs sharing an "id".
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; false on I/O failure. Logs a WARN
/// line if any thread dropped events to ring-buffer overflow.
bool write_chrome_trace(const std::string& path);

/// Fold span parent chains into flamegraph "collapsed stacks": one line per
/// unique root;...;leaf chain, weighted by self-time in nanoseconds (span
/// duration minus child spans' durations), sorted lexicographically. Feed to
/// flamegraph.pl / speedscope as folded format.
[[nodiscard]] std::string collapsed_stacks();

/// Write collapsed_stacks() to `path`; false on I/O failure.
bool write_collapsed_stacks(const std::string& path);

}  // namespace hdc::obs
