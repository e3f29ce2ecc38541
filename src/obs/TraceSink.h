//===- obs/TraceSink.h - Pluggable trace-event sinks ------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event model and output sinks of the tracing layer.  A TraceEvent is
/// one of the Chrome trace-event phases the Tracer emits: span begin ('B'),
/// span end ('E'), complete leaf span ('X', with an explicit duration), and
/// instant ('i').  Two sinks consume them:
///
///  - ChromeTraceSink writes the Chrome trace-event JSON array format,
///    loadable in Perfetto and chrome://tracing.  The array is closed by
///    finish(), but every event line ends in a newline-terminated record,
///    so a truncated file is still salvageable (both viewers tolerate a
///    missing closing bracket).
///  - JsonlTraceSink writes one self-contained JSON object per line and
///    flushes after every event, so the trace of a crashed or killed
///    process is complete up to its last event.
///
/// Attribute values are pre-rendered JSON fragments (see attr()), which
/// keeps the sink interface free of a value variant.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_TRACESINK_H
#define FAST_OBS_TRACESINK_H

#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fast::obs {

/// One span/event attribute: Text is a complete JSON value (number or
/// quoted string), rendered by the attr() helpers.
struct TraceAttr {
  std::string Key;
  std::string Text;
};

TraceAttr attr(std::string_view Key, uint64_t Value);
TraceAttr attr(std::string_view Key, int64_t Value);
TraceAttr attr(std::string_view Key, double Value);
TraceAttr attr(std::string_view Key, std::string_view Value);

/// Escapes \p Text as the body of a JSON string literal (no quotes added).
std::string jsonEscape(std::string_view Text);

struct TraceEvent;

/// Renders one event as the Chrome trace-event JSON object both file sinks
/// emit.  Exposed so in-memory sinks (the HTML report) serialize events
/// identically to the file formats.
std::string renderEventJson(const TraceEvent &E);

/// One emitted event.  Name/Category/Attrs are only borrowed for the
/// duration of the event() call; sinks serialize immediately.
struct TraceEvent {
  char Phase = 'i'; // 'B', 'E', 'X', or 'i'.
  std::string_view Name;
  std::string_view Category;
  /// Event timestamp in microseconds since the tracer's start.
  double TsUs = 0;
  /// 'X' events only: the span's duration.
  double DurUs = 0;
  std::span<const TraceAttr> Attrs;
  /// Thread lane (the Chrome "tid" field).  Lane 1 is the session's own
  /// thread; a parallel run replays each task's buffered events onto lane
  /// 2 + task index, which keeps timestamps monotone per lane even though
  /// the tasks overlapped in real time.
  double Tid = 1;
};

class TraceSink {
public:
  virtual ~TraceSink();
  virtual void event(const TraceEvent &E) = 0;
  /// Called once before the sink is destroyed on an orderly close; sinks
  /// that need a closing delimiter write it here.
  virtual void finish() {}
};

/// Chrome trace-event JSON array ("[ {...}, {...} ]"), one event object
/// per line.
class ChromeTraceSink : public TraceSink {
public:
  /// Opens \p Path for writing; ok() reports failure.
  explicit ChromeTraceSink(const std::string &Path);
  bool ok() const { return static_cast<bool>(Out); }
  void event(const TraceEvent &E) override;
  void finish() override;

private:
  std::ofstream Out;
  bool First = true;
};

/// Streaming JSONL: one JSON object per line, flushed per event.
class JsonlTraceSink : public TraceSink {
public:
  explicit JsonlTraceSink(const std::string &Path);
  bool ok() const { return static_cast<bool>(Out); }
  void event(const TraceEvent &E) override;

private:
  std::ofstream Out;
};

/// In-memory sink that owns full copies of every event it receives, for
/// deferred replay.  Worker contexts of a parallel run record into one of
/// these; at the join point the driver replays each buffer into the base
/// session's sink in task-index order, so the merged trace is byte-stable
/// across thread counts and schedules.
class BufferTraceSink : public TraceSink {
public:
  /// A TraceEvent with owned strings (TraceEvent itself only borrows).
  struct OwnedEvent {
    char Phase;
    std::string Name;
    std::string Category;
    double TsUs;
    double DurUs;
    std::vector<TraceAttr> Attrs;
    double Tid;
  };

  void event(const TraceEvent &E) override {
    Events.push_back({E.Phase, std::string(E.Name), std::string(E.Category),
                      E.TsUs, E.DurUs,
                      std::vector<TraceAttr>(E.Attrs.begin(), E.Attrs.end()),
                      E.Tid});
  }

  const std::vector<OwnedEvent> &events() const { return Events; }

private:
  std::vector<OwnedEvent> Events;
};

/// Opens a file sink for \p Path, choosing the format by extension
/// (".jsonl" streams JSONL, anything else writes the Chrome JSON array).
/// Returns null if the file cannot be opened.  Factored out of
/// Tracer::openTrace so `--report` can tee into the same file formats.
std::unique_ptr<TraceSink> makeFileTraceSink(const std::string &Path);

} // namespace fast::obs

#endif // FAST_OBS_TRACESINK_H
