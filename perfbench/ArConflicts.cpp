//===- perfbench/ArConflicts.cpp - The Section 5.2 analysis workload ------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// Each operation is one pairwise conflict check from the Fig. 6 corpus
// (ar::generateArWorkload, 100 taggers), run as the paper's four library
// steps -- composeSttr, restrictInput, restrictOutput, isEmptyTransducer --
// so the traced run can time each step.
//
// The corpus is the one bench/fig6_ar_conflicts checks (seed 2014;
// --corpus K selects the held-out corpus 2014 + K).  Tagger sizes range
// from 1 to 95 states, so corpora drawn per run seed differ in total work
// by a fifth or more; the run seed instead picks which of the 4,950 pairs
// are checked, and in which order.
//
// When --seconds allows more checks than there are pairs, the untraced
// run checks all the pairs in several passes, each from a fresh session
// and in the same order, so every pass does the same work.  The figures
// pool the latencies of all passes: a longer run averages over more of
// the host's slow and fast periods.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/ArTaggers.h"
#include "automata/StaOps.h"
#include "fast/Export.h"
#include "transducers/Domain.h"
#include "transducers/Run.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>

using namespace fast;
using namespace perfbench;

namespace {

/// Pairs per second of --seconds: about the rate of a 4-core x86 host, so
/// the checks take about --seconds there (--seconds 25 makes two passes
/// over all pairs).
constexpr double kPairsPerSecond = 330;
constexpr unsigned kSetupsPerPass = 15;
constexpr double kSetupSecondsPerPass = 0.5;
constexpr unsigned kTaggers = 100;
constexpr unsigned kCorpusSeed = 2014;
constexpr unsigned CtorNil = 0, CtorElem = 2;

/// A session with the tagger corpus: the workload's set-up.
struct Plant {
  std::unique_ptr<Session> S;
  ar::ArWorkload W;
  unsigned CorpusSeed = 0;

  void discard() {
    W = ar::ArWorkload(); // Refers into S: drop it first.
    S.reset();
  }
  void build() {
    discard();
    S = std::make_unique<Session>();
    ar::ArOptions Options;
    Options.NumTaggers = kTaggers;
    W = ar::generateArWorkload(*S, CorpusSeed, Options);
  }
};

struct Pass {
  std::vector<double> LatMs;
  std::vector<char> Conflict;
  /// Output-restricted transducers of the conflicting pairs (witness
  /// source for the checks).
  std::vector<std::shared_ptr<Sttr>> Restricted;
  uint64_t ComposedRules = 0, RestrictedRules = 0;
  Counters Delta;
};

Pass runPass(Plant &P, const std::vector<std::pair<unsigned, unsigned>> &Pairs,
             SpanRecorder &Rec) {
  Session &S = *P.S;
  Pass Out;
  Out.Conflict.assign(Pairs.size(), 0);
  Out.Restricted.resize(Pairs.size());
  Counters Before = readCounters(S);
  for (uint32_t K = 0; K < Pairs.size(); ++K) {
    const Sttr &TI = *P.W.Taggers[Pairs[K].first];
    const Sttr &TJ = *P.W.Taggers[Pairs[K].second];
    Clock::time_point T0 = Clock::now();
    ComposeResult Composed, OutRestricted;
    std::shared_ptr<Sttr> InRestricted;
    bool Conflict;
    {
      SpanScope Op(Rec, "ar.op", K);
      {
        SpanScope Step(Rec, "transducers.compose", K);
        Composed = composeSttr(S.Solv, S.Outputs, TI, TJ);
      }
      {
        SpanScope Step(Rec, "transducers.restrict_in", K);
        InRestricted = restrictInput(S.Solv, *Composed.Composed, P.W.Untagged);
      }
      {
        SpanScope Step(Rec, "transducers.restrict_out", K);
        OutRestricted =
            restrictOutput(S.Solv, S.Outputs, *InRestricted, P.W.DoubleTagged);
      }
      SpanScope Step(Rec, "transducers.emptiness", K);
      Conflict = !isEmptyTransducer(S.Solv, *OutRestricted.Composed);
    }
    Out.LatMs.push_back(msSince(T0));
    Out.ComposedRules += Composed.Composed->numRules();
    Out.RestrictedRules += InRestricted->numRules();
    Out.Conflict[K] = Conflict;
    if (Conflict)
      Out.Restricted[K] = OutRestricted.Composed;
  }
  Out.Delta = readCounters(S) - Before;
  return Out;
}

/// All outputs of TJ(TI(Input)) on the structural interpreter (no VM).
std::vector<TreeRef> runBoth(Session &S, const Sttr &TI, const Sttr &TJ,
                             TreeRef Input) {
  std::vector<TreeRef> Result;
  SttrRunner RunI(TI, S.Trees);
  for (TreeRef Mid : RunI.runChecked(Input).Outputs) {
    SttrRunner RunJ(TJ, S.Trees);
    for (TreeRef Out : RunJ.runChecked(Mid).Outputs)
      Result.push_back(Out);
  }
  return Result;
}

/// A random world with empty tag lists: elem(nil, elem(nil, ... nil)).
TreeRef randomUntaggedWorld(Session &S, const SignatureRef &Sig,
                            std::mt19937_64 &Rng) {
  auto Attrs = [&] {
    int64_t V = std::uniform_int_distribution<int64_t>(-45, 50)(Rng);
    int64_t W = std::uniform_int_distribution<int64_t>(-26, 26)(Rng);
    return std::vector<Value>{Value::integer(V), Value::real(Rational(W, 2))};
  };
  unsigned Len = std::uniform_int_distribution<unsigned>(1, 12)(Rng);
  TreeRef World = S.Trees.makeLeaf(Sig, CtorNil, Attrs());
  for (unsigned I = 0; I < Len; ++I)
    World = S.Trees.make(Sig, CtorElem, Attrs(),
                         {S.Trees.makeLeaf(Sig, CtorNil, Attrs()), World});
  return World;
}

} // namespace

Report perfbench::runArConflicts(const RunConfig &Cfg) {
  Report R;
  Plant P;
  P.CorpusSeed = kCorpusSeed + Cfg.Corpus;
  // Set-up is timed before every pass, so its samples span the run.
  std::vector<double> SetupSecs;
  auto SetUp = [&] {
    timeSetups([&] { P.build(); }, [&] { P.discard(); }, kSetupsPerPass,
               kSetupSecondsPerPass, SetupSecs);
  };
  SetUp();

  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned I = 0; I < kTaggers; ++I)
    for (unsigned J = I + 1; J < kTaggers; ++J)
      Pairs.emplace_back(I, J);
  std::mt19937_64 Rng(mix(Cfg.Seed, 2));
  std::shuffle(Pairs.begin(), Pairs.end(), Rng);
  double Checks = std::ceil(Cfg.Seconds * kPairsPerSecond);
  size_t N = std::min<size_t>(Pairs.size(), static_cast<size_t>(Checks));
  Pairs.resize(N);
  unsigned Passes = std::max(1u, static_cast<unsigned>(std::lround(Checks / N)));

  // Input bytes: the taggers' .fast text, as a caller would ship them.
  std::vector<double> TaggerBytes;
  for (unsigned I = 0; I < kTaggers; ++I)
    TaggerBytes.push_back(static_cast<double>(
        exportSttr("t" + std::to_string(I), *P.W.Taggers[I]).size()));

  // Untraced: the passes before the last.  Traced: one untraced pass, the
  // reference of the tracing overhead, and then the traced one.
  SpanRecorder Rec(Cfg.Trace);
  std::vector<double> LatMs;
  std::vector<std::vector<char>> EarlierConflicts;
  for (unsigned K = 1; K < (Cfg.Trace ? 2 : Passes); ++K) {
    {
      SpanRecorder Off(false);
      Pass U = runPass(P, Pairs, Off);
      LatMs.insert(LatMs.end(), U.LatMs.begin(), U.LatMs.end());
      EarlierConflicts.push_back(std::move(U.Conflict));
    } // U refers into the session: drop it first.
    SetUp();
  }
  double UntracedOpMs = std::accumulate(LatMs.begin(), LatMs.end(), 0.0);
  Pass Main = runPass(P, Pairs, Rec);
  if (Cfg.Trace)
    LatMs.clear();
  LatMs.insert(LatMs.end(), Main.LatMs.begin(), Main.LatMs.end());
  Session &S = *P.S;

  // Checks, outside every timed region.  A conflict must come with a
  // witness that really is one: an untagged world on which tagger I then
  // tagger J, on the structural interpreter, tag some element twice.  A
  // non-conflict is probed on random untagged worlds, none of which may
  // come out doubly tagged.  Verdicts are also compared with the pinned
  // vector by run.py.
  R.Attempted = LatMs.size();
  double Bytes = 0;
  std::mt19937_64 Probe(mix(Cfg.Seed, 3));
  for (uint32_t K = 0; K < N; ++K) {
    auto [I, J] = Pairs[K];
    const Sttr &TI = *P.W.Taggers[I], &TJ = *P.W.Taggers[J];
    std::string Key = std::to_string(I) + "-" + std::to_string(J);
    R.Keys.push_back(Key);
    R.Verdicts.push_back(Main.Conflict[K] ? '1' : '0');
    Bytes += TaggerBytes[I] + TaggerBytes[J];
    if (std::any_of(EarlierConflicts.begin(), EarlierConflicts.end(),
                    [&](const std::vector<char> &C) {
                      return C[K] != Main.Conflict[K];
                    })) {
      R.fail(K, "pair " + Key + ": the verdict differs between passes");
      continue;
    }
    if (Main.Conflict[K]) {
      std::optional<TreeRef> W = witness(
          S.Solv, domainLanguage(*Main.Restricted[K], &S.Solv), S.Trees);
      if (!W || !P.W.Untagged.contains(*W)) {
        R.fail(K, "pair " + Key + ": no untagged witness for the conflict");
        continue;
      }
      std::vector<TreeRef> Outs = runBoth(S, TI, TJ, *W);
      if (std::none_of(Outs.begin(), Outs.end(), [&](TreeRef O) {
            return P.W.DoubleTagged.contains(O);
          }))
        R.fail(K, "pair " + Key + ": witness " + (*W)->str() +
               " is not doubly tagged by I then J");
      R.digest((*W)->str());
      continue;
    }
    for (int Sample = 0; Sample < 4; ++Sample) {
      TreeRef World = randomUntaggedWorld(S, P.W.Sig, Probe);
      for (TreeRef O : runBoth(S, TI, TJ, World))
        if (P.W.DoubleTagged.contains(O)) {
          R.fail(K, "pair " + Key + ": reported no conflict, but " +
                 World->str() + " is doubly tagged");
          Sample = 4;
          break;
        }
    }
  }
  R.Counts = Main.Delta;
  R.LatMs = LatMs;
  R.Counts["transducers.composed_rules"] = Main.ComposedRules;
  R.Counts["transducers.restricted_rules"] = Main.RestrictedRules;
  R.Counts["ar.conflicts"] =
      std::count(Main.Conflict.begin(), Main.Conflict.end(), 1);

  if (Cfg.Trace && !Rec.writeChromeTrace(outputStem(Cfg) + ".trace.json"))
    R.fail(~0ull, "cannot write the trace file");
  if (!Cfg.Trace) {
    R.set("setup_s", median(SetupSecs), "s");
    addLatencyMetrics(R, LatMs, Bytes * (LatMs.size() / N));
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  double OpMs = Rec.totalMs("ar.op");
  for (const char *Step : {"transducers.compose", "transducers.restrict_in",
                           "transducers.restrict_out", "transducers.emptiness"})
    addLayerTime(R, Step, Rec.totalMs(Step), OpMs);
  addTraceAccounting(R, UntracedOpMs, OpMs, Rec.selfMs()["ar.op"]);
  for (const char *Name :
       {"transducers.composed_rules", "transducers.restricted_rules",
        "smt.queries", "smt.cache_hits", "smt.fast_path_answers",
        "smt.z3_checks", "engine.guard_queries", "engine.guard_cache_hits",
        "engine.states_explored", "engine.minterm_splits",
        "engine.minterm_cache_hits"})
    R.set(Name, static_cast<double>(R.Counts[Name]), "count");
  return R;
}
