//===- perfbench/Sanitize.cpp - The data-path workload --------------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// Each operation sanitizes one distinct HTML page the way
// html::sanitizeHtmlString does: parseHtml -> SttrRunner::run with the VM
// attached -> renderHtml, all on one long-lived session.  Page sizes are
// log-uniform over 4-409 KB, stratified (see makePages) so that every
// block of ten pages spans the whole size range and runs with different
// seeds do nearly the same amount of work.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/Html.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>

using namespace fast;
using namespace perfbench;

namespace {

constexpr unsigned kBlock = 10;
constexpr double kMinKB = 4, kMaxKB = 409;
/// Pages per second of --seconds: with its output checks, a run takes
/// about --seconds on a 4-core x86 host.  Never fewer than 100 pages, so at
/// least ten latencies lie beyond p90.
constexpr double kPagesPerSecond = 4;
constexpr unsigned kMinPages = 100;

struct Page {
  std::string Html;
  unsigned Seed;
};

std::vector<Page> makePages(uint64_t Seed, unsigned N) {
  // N pages, N a multiple of kBlock, split into N strata of equal width in
  // log-size.  Block b takes one stratum from each tenth of the range, so
  // every block spans all sizes; which stratum of a tenth goes to which
  // block, the order inside a block and the size within a stratum are
  // drawn from the seed.
  std::mt19937_64 Rng(mix(Seed, 1));
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  unsigned Blocks = N / kBlock;
  std::vector<std::vector<unsigned>> Assign(kBlock);
  for (std::vector<unsigned> &Tenth : Assign) {
    Tenth.resize(Blocks);
    std::iota(Tenth.begin(), Tenth.end(), 0u);
    std::shuffle(Tenth.begin(), Tenth.end(), Rng);
  }
  std::vector<Page> Pages;
  Pages.reserve(N);
  for (unsigned B = 0; B < Blocks; ++B) {
    std::vector<unsigned> Order(kBlock);
    std::iota(Order.begin(), Order.end(), 0u);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (unsigned Tenth : Order) {
      double U = (Tenth * Blocks + Assign[Tenth][B] + Unit(Rng)) / N;
      double KB = kMinKB * std::pow(kMaxKB / kMinKB, U);
      unsigned PageSeed = static_cast<unsigned>(mix(Seed, 1000 + Pages.size()));
      Pages.push_back({html::generatePage(static_cast<size_t>(KB * 1000),
                                          PageSeed),
                       PageSeed});
    }
  }
  return Pages;
}

/// A session with the compiled sanitizer: the workload's set-up.
struct Plant {
  std::unique_ptr<Session> S;
  html::Sanitizer San;

  void discard() {
    San = html::Sanitizer(); // Refers into S: drop it first.
    S.reset();
  }
  void build() {
    discard();
    S = std::make_unique<Session>();
    San = html::buildSanitizer(*S, /*FixBug=*/true);
    vm::compiledProgram(*S, *San.Sani, nullptr, "sanitizer");
  }
};

/// What one pass over the pages leaves for the checks.
struct Pass {
  std::vector<double> LatMs;
  std::vector<TreeRef> Docs, Outs;
  std::vector<std::string> Rendered;
  /// Why a page got no output ("" when it did).
  std::vector<std::string> Errors;
  Counters Delta;
  double Bytes = 0;
};

Pass runPass(Plant &P, const std::vector<Page> &Pages, SpanRecorder &Rec) {
  Session &S = *P.S;
  Pass Out;
  Out.Docs.assign(Pages.size(), nullptr);
  Out.Outs.assign(Pages.size(), nullptr);
  Out.Rendered.resize(Pages.size());
  Out.Errors.resize(Pages.size());
  Counters Before = readCounters(S);
  for (uint32_t I = 0; I < Pages.size(); ++I) {
    std::string &Error = Out.Errors[I];
    Clock::time_point T0 = Clock::now();
    {
      SpanScope Op(Rec, "sanitize.op", I);
      {
        SpanScope Parse(Rec, "apps.parse", I);
        Out.Docs[I] = html::parseHtml(S, P.San.Sig, Pages[I].Html, Error);
      }
      if (!Out.Docs[I])
        continue;
      SttrRunResult Result;
      {
        SpanScope Run(Rec, "vm.run", I);
        SttrRunner Runner(*P.San.Sani, S.Trees);
        vm::attachVm(Runner, S, *P.San.Sani, "sanitizer");
        Result = Runner.runChecked(Out.Docs[I]);
      }
      if (Result.Outputs.empty() || Result.Truncated) {
        Error = Result.Truncated ? "output set truncated"
                                 : "page outside the sanitizer's domain";
        continue;
      }
      Out.Outs[I] = Result.Outputs.front();
      SpanScope Render(Rec, "apps.render", I);
      Out.Rendered[I] = html::renderHtml(Out.Outs[I]);
    }
    Out.LatMs.push_back(msSince(T0));
    Out.Bytes += static_cast<double>(Pages[I].Html.size());
  }
  Out.Delta = readCounters(S) - Before;
  return Out;
}

} // namespace

Report perfbench::runSanitize(const RunConfig &Cfg) {
  Report R;
  unsigned N = std::max<unsigned>(
      kMinPages, static_cast<unsigned>(std::ceil(Cfg.Seconds * kPagesPerSecond)));
  N = (N + kBlock - 1) / kBlock * kBlock;
  std::vector<Page> Pages = makePages(Cfg.Seed, N);

  Plant P;
  double SetupS = medianSetupSeconds([&] { P.build(); }, [&] { P.discard(); });

  SpanRecorder Rec(Cfg.Trace);
  double UntracedOpMs = 0;
  if (Cfg.Trace) {
    // Same pages untraced first, for the tracing-overhead figure; then a
    // fresh session so the traced pass starts from the same state.
    SpanRecorder Off(false);
    Pass U = runPass(P, Pages, Off);
    UntracedOpMs = std::accumulate(U.LatMs.begin(), U.LatMs.end(), 0.0);
    P.build();
  }
  Pass Main = runPass(P, Pages, Rec);
  Session &S = *P.S;

  // Checks, outside every timed region.
  R.Attempted = Pages.size();
  for (uint32_t I = 0; I < Pages.size(); ++I) {
    R.Keys.push_back("page" + std::to_string(Pages[I].Seed));
    bool Ok = false;
    std::string Why = Main.Errors[I];
    if (Main.Outs[I]) {
      TreeRef Base;
      {
        SpanScope B(Rec, "apps.baseline", I);
        Base = html::monolithicSanitize(S, P.San.Sig, Main.Docs[I]);
      }
      std::string Error;
      TreeRef Again = html::parseHtml(S, P.San.Sig, Main.Rendered[I], Error);
      if (Base != Main.Outs[I])
        Why = "output differs from monolithicSanitize";
      else if (Again != Main.Outs[I])
        Why = "rendered output does not parse back to the same tree";
      else
        Ok = true;
      R.digest(Main.Rendered[I]);
    }
    R.Verdicts.push_back(Ok ? '1' : '0');
    if (!Ok)
      R.fail(I, "page " + std::to_string(I) + " (" +
             std::to_string(Pages[I].Html.size()) + " bytes): " + Why);
  }
  R.Counts = Main.Delta;
  R.LatMs = Main.LatMs;

  if (Cfg.Trace && !Rec.writeChromeTrace(outputStem(Cfg) + ".trace.json"))
    R.fail(~0ull, "cannot write the trace file");
  if (!Cfg.Trace) {
    R.set("setup_s", SetupS, "s");
    addLatencyMetrics(R, Main.LatMs, Main.Bytes);
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  double OpMs = Rec.totalMs("sanitize.op");
  double ParseMs = Rec.totalMs("apps.parse"), RunMs = Rec.totalMs("vm.run"),
         RenderMs = Rec.totalMs("apps.render"),
         BaseMs = Rec.totalMs("apps.baseline");
  addLayerTime(R, "apps.parse", ParseMs, OpMs);
  addLayerTime(R, "vm.run", RunMs, OpMs);
  addLayerTime(R, "apps.render", RenderMs, OpMs);
  R.set("apps.baseline_ms", BaseMs, "ms");
  // The hand-written sanitizer end to end: the same parse and render, with
  // monolithicSanitize as the transform (its output tree is the same).
  R.set("apps.baseline_mb_s",
        Main.Bytes / 1e6 / ((ParseMs + BaseMs + RenderMs) / 1e3), "MB/s");
  addTraceAccounting(R, UntracedOpMs, OpMs, Rec.selfMs()["sanitize.op"]);

  // ms per KB of the last tenth of requests over the first tenth: growth
  // of the session's interned-tree store shows up as late slowdown.  (Only
  // defined when every page completed, so latencies align with pages.)
  size_t Tenth = Main.LatMs.size() == Pages.size() ? Pages.size() / 10 : 0;
  double FirstMs = 0, FirstKB = 0, LastMs = 0, LastKB = 0;
  for (size_t I = 0; I < Tenth; ++I) {
    size_t J = Main.LatMs.size() - Tenth + I;
    FirstMs += Main.LatMs[I];
    FirstKB += Pages[I].Html.size() / 1e3;
    LastMs += Main.LatMs[J];
    LastKB += Pages[J].Html.size() / 1e3;
  }
  R.set("trees.late_slowdown",
        FirstMs > 0 && LastKB > 0 ? (LastMs / LastKB) / (FirstMs / FirstKB) : 0,
        "ratio");
  for (const char *Name :
       {"trees.nodes_interned", "vm.instructions", "vm.memo_hits",
        "vm.lookahead_checks", "vm.arena_nodes", "vm.fallback_runs",
        "smt.queries"})
    R.set(Name, static_cast<double>(Main.Delta[Name]), "count");
  return R;
}
