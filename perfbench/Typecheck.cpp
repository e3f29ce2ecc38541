//===- perfbench/Typecheck.cpp - The .fast-file-to-verdict workload -------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// Each operation is one runFastProgram call on a generated program:
//
//   type ...; lang A; lang B; trans d1; trans d2
//   def c : T -> T := (compose d1 d2)
//   assert-true (type-check A c B)
//
// exported with exportTypeDecl / exportLanguage / exportSttr from a
// testing::makeInstance instance (3 states; signature and rules per
// constructor vary with the instance index).  Each program runs in a
// fresh session, as `fastc` runs a file.
//
// Per-program times are heavy-tailed (a few Mix-signature instances take
// a second, most take milliseconds), so a corpus drawn afresh per seed
// would make the run's total work swing by a fifth or more from seed to
// seed.  The corpus is therefore fixed (--corpus selects a held-out one)
// and the seed sets the order in which the programs are sent.  A session
// shared by all programs would make each program's cost depend on which
// programs warmed its caches before it, i.e. on that order.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "automata/Determinize.h"
#include "automata/StaOps.h"
#include "fast/Export.h"
#include "fast/Fast.h"
#include "testing/Instance.h"
#include "transducers/Compose.h"
#include "transducers/Run.h"
#include "trees/TreeText.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>

using namespace fast;
using namespace perfbench;

namespace {

/// Programs per second of --seconds: about the rate of a 4-core x86 host,
/// so the programs take about --seconds there.  Never fewer than 100, so
/// at least ten latencies lie beyond p90.
constexpr double kProgramsPerSecond = 15;
constexpr unsigned kMinPrograms = 100;
constexpr unsigned kCorpusStride = 100000;

/// One generated program and the instance it was exported from.
struct Case {
  unsigned Index = 0;
  testing::FuzzInstance Instance;
  /// The full program, and the same declarations without `def c` and the
  /// assertion (the traced run's frontend-only replay).
  std::string Source, Decls;
};

Case makeCase(Session &G, unsigned Corpus, unsigned Index) {
  testing::InstanceOptions Options;
  Options.SignatureIndex = Index % 3;
  Options.NumStates = 3;
  Options.MaxRulesPerCtor = 1 + (Index / 3) % 2;
  Options.NumSamples = 20;
  Case P;
  P.Index = Index;
  P.Instance = testing::makeInstance(G, 1 + Corpus * kCorpusStride + Index,
                                     Options);
  const testing::FuzzInstance &I = P.Instance;
  std::string Type = I.Sig->typeName();
  P.Decls = exportTypeDecl(*I.Sig) + exportLanguage("A", I.LangA) +
            exportLanguage("B", I.LangB) + exportSttr("d1", *I.Det1) +
            exportSttr("d2", *I.Det2);
  P.Source = P.Decls + "def c : " + Type + " -> " + Type +
             " := (compose d1 d2)\nassert-true (type-check A c B)\n";
  return P;
}

std::unique_ptr<Session> freshSession() {
  auto S = std::make_unique<Session>();
  S->engine(); // The solver's engine is otherwise built by the first query.
  return S;
}

struct Pass {
  std::vector<double> LatMs;
  /// 1 = type-check holds, 0 = fails, -1 = no verdict (error).
  std::vector<int> Verdict;
  std::vector<std::string> Detail, Errors;
  Counters Delta;
};

/// Replays the program's type check step by step on the values the
/// frontend compiled, in the replay session, one span per library call.
void replay(Session &Rs, const Case &C, SpanRecorder &Rec, uint32_t Op) {
  SpanScope Top(Rec, "typecheck.replay", Op);
  FastProgramResult D;
  {
    SpanScope Step(Rec, "fast.frontend", Op);
    D = runFastProgram(Rs, C.Decls);
  }
  std::optional<TreeLanguage> A = D.language("A"), B = D.language("B");
  std::shared_ptr<Sttr> D1 = D.transducer("d1"), D2 = D.transducer("d2");
  if (!A || !B || !D1 || !D2)
    return;
  ComposeResult Composed;
  TreeLanguage NotB, Pre, Bad;
  bool Empty;
  {
    SpanScope Step(Rec, "transducers.compose", Op);
    Composed = composeSttr(Rs.Solv, Rs.Outputs, *D1, *D2);
  }
  {
    SpanScope Step(Rec, "automata.complement", Op);
    NotB = complementLanguage(Rs.Solv, *B);
  }
  {
    SpanScope Step(Rec, "transducers.preimage", Op);
    Pre = preImageLanguage(Rs.Solv, *Composed.Composed, NotB);
  }
  {
    SpanScope Step(Rec, "automata.intersect", Op);
    Bad = intersectLanguages(Rs.Solv, *A, Pre);
  }
  {
    SpanScope Step(Rec, "automata.emptiness", Op);
    Empty = isEmptyLanguage(Rs.Solv, Bad);
  }
  if (!Empty) {
    SpanScope Step(Rec, "automata.witness", Op);
    witness(Rs.Solv, Bad, Rs.Trees);
  }
}

/// Sends each program to a fresh session, the way `fastc prog.fast` runs
/// one.  The session is made before the program's clock starts; its cost
/// is what setup_s measures.  Traced, each program is also replayed in a
/// second fresh session, so the replay cannot warm the measured one.
Pass runPass(const std::vector<Case> &Cases, SpanRecorder &Rec) {
  Pass Out;
  for (uint32_t K = 0; K < Cases.size(); ++K) {
    std::unique_ptr<Session> S = freshSession();
    Counters Before = readCounters(*S);
    Clock::time_point T0 = Clock::now();
    FastProgramResult Result;
    {
      SpanScope Op(Rec, "typecheck.op", K);
      Result = runFastProgram(*S, Cases[K].Source);
    }
    Out.LatMs.push_back(msSince(T0));
    for (const auto &[Name, V] : readCounters(*S) - Before)
      Out.Delta[Name] += V;
    bool Answered = Result.ErrorCount == 0 && Result.Assertions.size() == 1;
    Out.Verdict.push_back(Answered ? int(Result.Assertions[0].Actual) : -1);
    Out.Detail.push_back(Answered ? Result.Assertions[0].Detail : "");
    Out.Errors.push_back(Result.DiagText);
    if (Rec.enabled())
      replay(*freshSession(), Cases[K], Rec, K);
  }
  return Out;
}

/// All outputs of Det2(Det1(Input)) on the structural interpreter.
std::vector<TreeRef> runBoth(Session &G, const testing::FuzzInstance &I,
                             TreeRef Input) {
  std::vector<TreeRef> Result;
  SttrRunner Run1(*I.Det1, G.Trees);
  for (TreeRef Mid : Run1.runChecked(Input).Outputs) {
    SttrRunner Run2(*I.Det2, G.Trees);
    for (TreeRef Out : Run2.runChecked(Mid).Outputs)
      Result.push_back(Out);
  }
  return Result;
}

/// Why the verdict for \p C is wrong, or "" if the check passes.  A
/// failing type check must name a bad input: in A, with some output of d1
/// then d2 outside B.  A holding one is probed on the instance's sample
/// trees that lie in A.
std::string checkVerdict(Session &G, const Case &C, int Verdict,
                         const std::string &Detail) {
  const testing::FuzzInstance &I = C.Instance;
  if (Verdict < 0)
    return "program did not produce a verdict";
  if (Verdict == 0) {
    const std::string Prefix = "bad input: ";
    if (Detail.rfind(Prefix, 0) != 0)
      return "failing type check without a bad input";
    std::string Error;
    TreeRef In = parseTree(G.Trees, I.Sig, Detail.substr(Prefix.size()), Error);
    if (!In)
      return "bad input does not parse: " + Error;
    if (!I.LangA.contains(In))
      return "bad input " + In->str() + " is not in A";
    std::vector<TreeRef> Outs = runBoth(G, I, In);
    if (std::all_of(Outs.begin(), Outs.end(),
                    [&](TreeRef O) { return I.LangB.contains(O); }))
      return "bad input " + In->str() + " has every output in B";
    return "";
  }
  for (TreeRef Sample : I.Samples) {
    if (!I.LangA.contains(Sample))
      continue;
    for (TreeRef O : runBoth(G, I, Sample))
      if (!I.LangB.contains(O))
        return "type check holds, but " + Sample->str() + " maps outside B";
  }
  return "";
}

} // namespace

Report perfbench::runTypecheck(const RunConfig &Cfg) {
  Report R;
  unsigned N = std::max<unsigned>(
      kMinPrograms,
      static_cast<unsigned>(std::ceil(Cfg.Seconds * kProgramsPerSecond)));

  // Inputs: the generator session owns the instances and the oracles.
  Session G;
  std::vector<Case> Cases;
  for (unsigned K = 0; K < N; ++K)
    Cases.push_back(makeCase(G, Cfg.Corpus, K));
  std::mt19937_64 Rng(mix(Cfg.Seed, 4));
  std::shuffle(Cases.begin(), Cases.end(), Rng);

  std::unique_ptr<Session> S;
  double SetupS = medianSetupSeconds([&] { S = freshSession(); },
                                     [&] { S.reset(); });
  S.reset();

  SpanRecorder Rec(Cfg.Trace);
  double UntracedOpMs = 0;
  if (Cfg.Trace) {
    SpanRecorder Off(false);
    Pass U = runPass(Cases, Off);
    UntracedOpMs = std::accumulate(U.LatMs.begin(), U.LatMs.end(), 0.0);
  }
  Pass Main = runPass(Cases, Rec);

  // Checks, outside every timed region; verdicts are also compared with
  // the pinned vector by run.py.
  R.Attempted = N;
  double Bytes = 0;
  for (uint32_t K = 0; K < N; ++K) {
    const Case &C = Cases[K];
    R.Keys.push_back("inst" + std::to_string(C.Index));
    R.Verdicts.push_back(Main.Verdict[K] == 1 ? '1' : '0');
    Bytes += static_cast<double>(C.Source.size());
    std::string Why = checkVerdict(G, C, Main.Verdict[K], Main.Detail[K]);
    if (!Why.empty())
      R.fail(K, "instance " + std::to_string(C.Index) + ": " + Why +
             (Main.Verdict[K] < 0 ? "\n" + Main.Errors[K] : ""));
    R.digest(Main.Detail[K]);
  }
  R.Counts = Main.Delta;
  R.LatMs = Main.LatMs;

  if (Cfg.Trace && !Rec.writeChromeTrace(outputStem(Cfg) + ".trace.json"))
    R.fail(~0ull, "cannot write the trace file");
  if (!Cfg.Trace) {
    R.set("setup_s", SetupS, "s");
    addLatencyMetrics(R, Main.LatMs, Bytes);
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  double OpMs = Rec.totalMs("typecheck.op");
  double Explained = 0;
  for (const char *Step :
       {"fast.frontend", "transducers.compose", "automata.complement",
        "transducers.preimage", "automata.intersect", "automata.emptiness",
        "automata.witness"}) {
    double Ms = Rec.totalMs(Step);
    addLayerTime(R, Step, Ms, OpMs);
    Explained += Ms;
  }
  addTraceAccounting(R, UntracedOpMs, OpMs, OpMs - Explained);
  for (const char *Name :
       {"smt.z3_checks", "smt.z3_model_checks", "smt.core_checks",
        "smt.scoped_checks", "smt.subsumption_answers",
        "engine.trie_nodes_decided", "engine.trie_node_hits",
        "engine.trie_subsumed", "engine.minterm_splits",
        "engine.states_explored"})
    R.set(Name, static_cast<double>(R.Counts[Name]), "count");
  return R;
}
