//===- engine/AdminEndpoints.h - Session admin endpoints --------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The endpoint layer of the live introspection plane: SessionAdmin binds a
/// SessionEngine's telemetry to an obs::AdminServer route table, and
/// MetricsFileFlusher periodically writes the same exposition to a file for
/// deployments that scrape the filesystem instead of a port.
///
/// SessionAdmin's central contract is *what may be read from a worker
/// thread while the session runs*:
///
///   /metrics, /metrics.json   live — collectSessionMetrics() reads only
///                             relaxed-atomic cells, holding the stats
///                             registry's slots lock for map iteration.
///   /healthz, /readyz         live — a constant and a caller-supplied
///                             readiness callback (the Session wrapper
///                             wires it to Session::frozen() and the
///                             Quiescent gate).
///   /statusz, /debug/slowqueries
///                             published — served from a board that only
///                             publish() (a session-thread snapshot point)
///                             rewrites, because ReportBuilder inputs and
///                             the slow-query log are not lock-free.
///   /debug/flightrecorder     live — FlightRecorder::snapshotTo() copies
///                             the ring under its incident mutex without
///                             consuming the first-incident-wins dump.
///   /debug/trace              mutating — attaches/detaches a
///                             MemoryTraceSink, allowed only while the
///                             Quiescent callback says no program is
///                             running (409 otherwise).
///
/// `/metrics?delta=1` serves the change since the previous delta scrape
/// (first scrape: since start), using MetricsSnapshot::deltaFrom against a
/// baseline held under a mutex so concurrent delta scrapers never double-
/// count an increment between them.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_ADMINENDPOINTS_H
#define FAST_ENGINE_ADMINENDPOINTS_H

#include "obs/AdminServer.h"
#include "obs/Metrics.h"
#include "obs/Report.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace fast::engine {

class SessionEngine;

struct AdminOptions {
  /// Page title for /statusz.
  std::string Title = "fast session";
  /// Readiness for /readyz; null or false -> 503.  The Session-owned
  /// wrapper wires this to Session::frozen() && Quiescent().
  std::function<bool()> Ready;
  /// Gate for /debug/trace; null means always quiescent.  fastc wires
  /// this to "the program is not currently executing".
  std::function<bool()> Quiescent;
  /// Optional hook to add assertions/witnesses to the /statusz report.
  std::function<void(obs::ReportBuilder &)> Decorate;
};

/// Binds one SessionEngine to an AdminServer route table.  Construct,
/// registerOn() before AdminServer::start(), and call publish() from the
/// session thread whenever /statusz should advance (at minimum once after
/// the run completes).
class SessionAdmin {
public:
  SessionAdmin(SessionEngine &Eng, AdminOptions Opts = {});

  /// Registers every endpoint (see file comment).  Call before start().
  void registerOn(obs::AdminServer &Server);

  /// Session-thread snapshot point: rebuilds the /statusz page and the
  /// /debug/slowqueries document from current session state.  Safe to
  /// call repeatedly; scrapers see either the old or the new board.
  void publish();

  /// Number of publish() calls so far (used by tests).
  uint64_t publishCount() const;

private:
  obs::MetricsSnapshot collect() const;
  obs::HttpResponse serveMetrics(const obs::HttpRequest &Req, bool Json);
  obs::HttpResponse serveTrace(const obs::HttpRequest &Req);

  SessionEngine &Eng;
  AdminOptions Opts;

  // The published board (/statusz + /debug/slowqueries).
  mutable std::mutex BoardMu;
  std::string StatusHtml;
  std::string SlowJson = "[]";
  uint64_t Publishes = 0;

  // Baseline for ?delta=1 scrapes.
  std::mutex DeltaMu;
  obs::MetricsSnapshot DeltaBase;

  // /debug/trace attach state (worker threads race on start/stop).
  std::mutex TraceMu;
  bool TraceActive = false;
  std::shared_ptr<std::vector<std::string>> TraceStorage;
};

/// Periodically collects the session metrics and writes the exposition to
/// a file, atomically (write <path>.tmp, then rename) so readers never see
/// a partial document even if the process aborts mid-flush.  The format
/// follows the path suffix: ".json" -> JSON document, else Prometheus
/// text.  fastc drives this from --metrics=FILE + FAST_METRICS_INTERVAL_MS.
class MetricsFileFlusher {
public:
  MetricsFileFlusher() = default;
  ~MetricsFileFlusher() { stop(); }
  MetricsFileFlusher(const MetricsFileFlusher &) = delete;
  MetricsFileFlusher &operator=(const MetricsFileFlusher &) = delete;

  /// Starts the flush thread; writes every \p IntervalMs until stop().
  /// Flushes once immediately so a file exists from the start.
  void start(const SessionEngine &Eng, std::string Path, unsigned IntervalMs);

  /// Final flush + join.  Idempotent; the destructor calls it too.
  void stop();

  bool running() const { return Thread.joinable(); }
  uint64_t flushCount() const;

  /// One atomic collect+write (also the body of each periodic tick).
  /// Exposed so fastc's non-periodic --metrics path shares the writer.
  static bool flushOnce(const SessionEngine &Eng, const std::string &Path);

private:
  const SessionEngine *Engine = nullptr;
  std::string Path;
  unsigned IntervalMs = 0;
  std::thread Thread;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
  uint64_t Flushes = 0;
};

} // namespace fast::engine

#endif // FAST_ENGINE_ADMINENDPOINTS_H
