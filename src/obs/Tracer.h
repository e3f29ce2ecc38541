//===- obs/Tracer.h - Session-wide tracing & profiling hub ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-session observability hub.  One Tracer lives inside every
/// SessionEngine; the engine's ConstructionScopes, the Exploration driver,
/// the GuardCache, and the Solver all hold a pointer to it and emit:
///
///  - a span tree ('B'/'E' events) mirroring the ConstructionScope nesting,
///    with exploration worklist batches and minterm splits as inner spans
///    and counter deltas attached to every span end;
///  - complete leaf spans ('X' events) for individual solver isSat /
///    getModel calls that reach Z3;
///  - instant events ('i') for progress heartbeats and budget exhaustion.
///
/// Tracing is compiled in but disabled by default: every hook first checks
/// active(), a single relaxed atomic load, so a session without a sink
/// pays one branch per hook.  A sink is attached with openTrace() (file
/// extension selects the format: ".jsonl" streams flush-per-event JSONL,
/// anything else writes the Perfetto-loadable Chrome JSON array) or from
/// the FAST_TRACE environment variable.
///
/// Two pieces stay on even without a sink because they feed `fastc
/// --stats`: the slow-query log (worst-K solver queries, admission is one
/// comparison) and the construction label stack that attributes those
/// queries.  The progress heartbeat additionally mirrors to a stream
/// (stderr under `fastc --progress`, or FAST_PROGRESS=1).
///
/// The Tracer is single-threaded, like the analysis session it observes.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_TRACER_H
#define FAST_OBS_TRACER_H

#include "obs/FlightRecorder.h"
#include "obs/SlowQueryLog.h"
#include "obs/TraceSink.h"

#include <atomic>
#include <chrono>
#include <iosfwd>
#include <vector>

namespace fast::obs {

class Tracer {
public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// True when a sink is attached; the only check hot paths make.
  bool active() const { return Active.load(std::memory_order_relaxed); }

  /// Attaches a file sink, replacing any current one.  The format is
  /// chosen by extension: ".jsonl" streams JSONL, anything else writes a
  /// Chrome trace-event JSON array.  Returns false (and stays inactive)
  /// if the file cannot be opened.
  bool openTrace(const std::string &Path);

  /// Installs a custom sink (tests), or detaches with null.
  void setSink(std::unique_ptr<TraceSink> NewSink);

  /// Finishes and closes the current sink, balancing still-open spans
  /// first so the emitted trace is well-formed.
  void closeTrace();

  /// Applies FAST_TRACE (trace file path) and FAST_PROGRESS=1 (heartbeat
  /// to stderr).  Called by the SessionEngine constructor.
  void configureFromEnv();

  /// Adopts \p Base's timebase, so events this tracer emits (into a
  /// worker's BufferTraceSink) carry timestamps directly comparable with
  /// the base session's and can be replayed into its sink unadjusted.
  /// The flight recorder rides the same timebase.
  void alignEpochTo(const Tracer &Base) {
    Epoch = Base.Epoch;
    Recorder.setEpoch(Epoch);
  }

  /// The always-on incident ring buffer (see FlightRecorder.h).  Owned
  /// here so every existing emit site reaches it through the Tracer
  /// pointer it already holds; disarmed by default.
  FlightRecorder &recorder() { return Recorder; }
  const FlightRecorder &recorder() const { return Recorder; }

  /// Forwards an already-timestamped event (a worker buffer replay) to
  /// this tracer's sink; no-op when inactive.
  void emitForeign(const TraceEvent &E) {
    if (active())
      Sink->event(E);
  }

  /// Microseconds since tracer construction (the trace timebase).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  /// --- Span API (LIFO; no-ops when inactive) -------------------------

  void beginSpan(std::string_view Name, std::string_view Category);
  void endSpan(std::span<const TraceAttr> Attrs = {});
  /// A leaf span emitted as one complete 'X' event; \p StartUs is the
  /// value nowUs() returned when the work began.
  void complete(std::string_view Name, std::string_view Category,
                double StartUs, std::span<const TraceAttr> Attrs = {});
  void instant(std::string_view Name, std::string_view Category,
               std::span<const TraceAttr> Attrs = {});
  size_t openSpans() const { return SpanStack.size(); }

  /// --- Construction attribution (always on) --------------------------

  /// Maintained by ConstructionScope; names are string literals, so views
  /// are stored as-is.
  void pushConstruction(std::string_view Name) {
    ConstructionStack.push_back(Name);
  }
  void popConstruction() {
    if (!ConstructionStack.empty())
      ConstructionStack.pop_back();
  }
  /// The innermost active construction, or "" outside any.
  std::string_view currentConstruction() const {
    return ConstructionStack.empty() ? std::string_view()
                                     : ConstructionStack.back();
  }

  /// --- Slow-query log (always on) ------------------------------------

  SlowQueryLog &slowQueries() { return Slow; }
  const SlowQueryLog &slowQueries() const { return Slow; }

  /// --- Progress heartbeat --------------------------------------------

  /// Mirror stream for progress lines (null disables; stderr under
  /// --progress).  Instant events also reach the sink when active.
  void setProgressStream(std::ostream *Stream) { Progress = Stream; }
  std::ostream *progressStream() const { return Progress; }
  /// Minimum milliseconds between heartbeats of one exploration.
  unsigned ProgressIntervalMs = 1000;

private:
  std::atomic<bool> Active{false};
  std::unique_ptr<TraceSink> Sink;
  /// Open spans: name/category copies so 'E' events can repeat them.
  struct OpenSpan {
    std::string Name;
    std::string Category;
  };
  std::vector<OpenSpan> SpanStack;
  std::vector<std::string_view> ConstructionStack;
  SlowQueryLog Slow;
  std::ostream *Progress = nullptr;
  std::chrono::steady_clock::time_point Epoch;
  FlightRecorder Recorder;
};

/// RAII span: begins on construction when the tracer is active, collects
/// attributes, ends on destruction.  Captures activity once, so a sink
/// attached mid-span cannot see an unbalanced end.
class SpanGuard {
public:
  SpanGuard(Tracer *T, std::string_view Name, std::string_view Category)
      : T(T && T->active() ? T : nullptr) {
    if (this->T)
      this->T->beginSpan(Name, Category);
  }
  ~SpanGuard() {
    if (T)
      T->endSpan(Attrs);
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

  /// True when the span is being recorded (attributes are worth building).
  bool live() const { return T != nullptr; }
  void add(TraceAttr Attr) {
    if (T)
      Attrs.push_back(std::move(Attr));
  }

private:
  Tracer *T;
  std::vector<TraceAttr> Attrs;
};

} // namespace fast::obs

#endif // FAST_OBS_TRACER_H
