//===- engine/MetricsBridge.h - Session stats -> metric families -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one exporter of a session's counters.  The plain stats structs
/// (StatsRegistry / Solver::Stats / VmStats, relaxed cells so recording
/// remains a bare increment) are the only counter store;
/// collectSessionMetrics() reads them into one MetricsSnapshot
/// (obs/Metrics.h) covering:
///
///   fast_engine_*   per-construction counters (labelled by construction),
///                   wall time, and the guard-query / minterm-split
///                   latency histograms
///   fast_solver_*   the session Solver's query/cache/Z3 counters and the
///                   z3_check_us histogram
///   fast_vm_*       the compiled data plane's control+data counters and
///                   compile/run latency histograms (always present, zeros
///                   when the VM never ran)
///   fast_flightrecorder_*  ring-buffer occupancy and drop accounting
///   fast_assertions / fast_assertions_failed / fast_program_runs
///                   the StatsRegistry program counters (always present,
///                   zeros when no driver recorded them)
///
/// `fastc --stats` / `--stats-json` print the same structs through
/// StatsRegistry::report()/json().
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_METRICSBRIDGE_H
#define FAST_ENGINE_METRICSBRIDGE_H

#include "obs/Metrics.h"

namespace fast::engine {

class SessionEngine;

/// Appends every session metric family to \p Snap (see file comment).
/// Family and sample order is deterministic: families in the fixed bridge
/// order, construction labels in name order.
void collectSessionMetrics(const SessionEngine &Eng, obs::MetricsSnapshot &Snap);

} // namespace fast::engine

#endif // FAST_ENGINE_METRICSBRIDGE_H
