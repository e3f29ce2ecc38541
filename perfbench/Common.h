//===- perfbench/Common.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run configuration, the per-run
/// report (metrics, verdicts, exact counters), an in-memory span recorder
/// that the traced run wraps around calls into the library's public API,
/// and small statistics helpers.  Spans live only in this benchmark; the
/// library itself is not instrumented for it.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_PERFBENCH_COMMON_H
#define FAST_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fast {
struct Session;
} // namespace fast

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Command-line configuration of one benchmark process.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the trace file and the counts/verdicts record.
  std::string OutDir = ".bench_out";
  /// Which fixed corpus the analysis workloads use (0 is the benchmark's;
  /// others are held out for rechecking claims).
  unsigned Corpus = 0;
};

/// One recorded span.  Op is the operation id (~0u outside operations).
struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent;
  uint32_t Op;
};

/// In-memory span recorder.  Disabled recorders cost one branch per scope.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  int32_t begin(const char *Name, uint32_t Op);
  void end(int32_t Index);

  /// Total duration (ms) of the spans named \p Name.
  double totalMs(const std::string &Name) const;
  /// Total self time (ms) per span name: duration minus the part covered
  /// by direct children.
  std::map<std::string, double> selfMs() const;

  /// Writes the spans as a Chrome trace-event JSON array ('X' events in
  /// start order), the format tools/trace_check validates.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span around one call.
class SpanScope {
public:
  SpanScope(SpanRecorder &R, const char *Name, uint32_t Op)
      : R(R), Index(R.enabled() ? R.begin(Name, Op) : -1) {}
  ~SpanScope() {
    if (Index >= 0)
      R.end(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder &R;
  int32_t Index;
};

/// Exact counter values keyed by metric name.
using Counters = std::map<std::string, uint64_t>;

/// A named metric value with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything one workload run reports.
struct Report {
  uint64_t Attempted = 0;
  /// Operations that failed (by index), whatever the number of reasons.
  std::set<uint64_t> FailedOps;
  /// Failures that belong to no operation (e.g. an unwritable trace).
  uint64_t OtherFailures = 0;
  /// First few failure descriptions (stderr only).
  std::vector<std::string> FailureNotes;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> Metrics;
  /// Exact counters of the operation loop, for the determinism check.
  Counters Counts;
  /// One character per operation ('1'/'0' verdicts, or '1' for a
  /// sanitized page), in operation order.
  std::string Verdicts;
  /// Operation identity in verdict order (pair "i-j", instance index, or
  /// page seed), so pinned vectors can be matched by key.
  std::vector<std::string> Keys;
  /// Latency of each completed operation, in order (over all passes where
  /// a workload repeats them).
  std::vector<double> LatMs;
  /// FNV-1a digest of every operation's output.
  uint64_t OutputDigest = 14695981039346656037ull;

  uint64_t failed() const { return FailedOps.size() + OtherFailures; }
  /// Records a failure of operation \p Op (~0ull: of no operation).
  void fail(uint64_t Op, const std::string &Note) {
    if (Op == ~0ull)
      ++OtherFailures;
    else
      FailedOps.insert(Op);
    if (FailureNotes.size() < 8)
      FailureNotes.push_back(Note);
  }
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void digest(const std::string &Bytes);
};

/// DIR/<workload>-s<seed>[-c<corpus>]: the prefix of the run's files.
std::string outputStem(const RunConfig &Cfg);

/// Runs one workload under \p Cfg.
Report runSanitize(const RunConfig &Cfg);
Report runArConflicts(const RunConfig &Cfg);
Report runTypecheck(const RunConfig &Cfg);

/// Exact library counters of \p S, read through the public accessors
/// (Solver::stats, MintermTrie::stats, the session stats registry and its
/// VM slot, TreeFactory::numNodes), keyed by metric name.
Counters readCounters(fast::Session &S);
/// \p After minus \p Before, key by key.
Counters operator-(const Counters &After, const Counters &Before);

/// Harrell-Davis estimate of the \p Q quantile: the order statistics
/// weighted by the Beta((n+1)Q, (n+1)(1-Q)) mass of each 1/n interval.  It
/// does not jump when the sample has a gap at the quantile, as the
/// interpolated order statistic does on heavy-tailed latencies.
double hdQuantile(std::vector<double> Values, double Q);

/// The process's resident-set high-water mark in MB (VmHWM).
double peakRssMb();

/// splitmix64: derives independent sub-seeds from the run seed.
uint64_t mix(uint64_t Seed, uint64_t Stream);

/// Times \p Build (a workload's set-up) at least \p MinReps times and for
/// at least \p MinSeconds, so that a short stall of the host moves few of
/// the samples, and appends each time, in seconds, to \p Secs.  \p Discard
/// drops the previous build, untimed, before each one; the last build is
/// the one the workload then uses.
void timeSetups(const std::function<void()> &Build,
                const std::function<void()> &Discard, unsigned MinReps,
                double MinSeconds, std::vector<double> &Secs);

/// The median of \p Values (0 if empty).
double median(const std::vector<double> &Values);

/// timeSetups for at least 31 set-ups and one second, returning their
/// median.
double medianSetupSeconds(const std::function<void()> &Build,
                          const std::function<void()> &Discard);

/// Adds the end-to-end latency/throughput metrics of \p LatMs to \p R:
/// ops_s, mb_s (\p Bytes of input), and p50_ms / p90_ms (hdQuantile).
void addLatencyMetrics(Report &R, const std::vector<double> &LatMs,
                       double Bytes);


/// Adds a layer's total time (`<Name>_ms`) and its share of \p OpMs
/// (`<Name>_share`, percent).
void addLayerTime(Report &R, const std::string &Name, double Ms, double OpMs);

/// Adds the traced run's bookkeeping: tracing overhead relative to the
/// untraced pass over the same operations, and the part of operation time
/// no layer span explains.
void addTraceAccounting(Report &R, double UntracedOpMs, double TracedOpMs,
                        double UnexplainedMs);

} // namespace perfbench

#endif // FAST_PERFBENCH_COMMON_H
