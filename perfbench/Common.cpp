//===- perfbench/Common.cpp - Shared benchmark plumbing -------------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "transducers/Session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

using namespace perfbench;

namespace {

/// Linear-interpolated quantile of \p Values (0 <= Q <= 1).
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - Lo);
}

} // namespace

int32_t SpanRecorder::begin(const char *Name, uint32_t Op) {
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  int32_t Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, Now, Now, Parent, Op});
  Open.push_back(static_cast<int32_t>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int32_t Index) {
  Spans[Index].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - Epoch)
                           .count();
  Open.pop_back();
}

double SpanRecorder::totalMs(const std::string &Name) const {
  double Ns = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Ns += static_cast<double>(S.EndNs - S.StartNs);
  return Ns / 1e6;
}

std::map<std::string, double> SpanRecorder::selfMs() const {
  std::vector<int64_t> Covered(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - Covered[I]) /
        1e6;
  return Self;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::vector<size_t> Order(Spans.size());
  std::iota(Order.begin(), Order.end(), 0);
  // Parents start no later than their children, and a stable sort keeps
  // a parent (recorded first) ahead of a child with the same start.
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Spans[A].StartNs < Spans[B].StartNs;
  });
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "[\n";
  for (size_t K = 0; K < Order.size(); ++K) {
    const Span &S = Spans[Order[K]];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%lld,"
                  "\"parent\":%d}}%s\n",
                  S.Name, Cat.c_str(), S.StartNs / 1e3,
                  (S.EndNs - S.StartNs) / 1e3,
                  S.Op == ~0u ? -1LL : static_cast<long long>(S.Op), S.Parent,
                  K + 1 < Order.size() ? "," : "");
    Out << Buf;
  }
  Out << "]\n";
  return static_cast<bool>(Out);
}

std::string perfbench::outputStem(const RunConfig &Cfg) {
  return Cfg.OutDir + "/" + Cfg.Workload + "-s" + std::to_string(Cfg.Seed) +
         (Cfg.Corpus ? "-c" + std::to_string(Cfg.Corpus) : "");
}

void Report::digest(const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    OutputDigest ^= C;
    OutputDigest *= 1099511628211ull;
  }
}

double perfbench::hdQuantile(std::vector<double> Values, double Q) {
  size_t N = Values.size();
  if (N == 0)
    return 0;
  std::sort(Values.begin(), Values.end());
  double A = (N + 1) * Q, B = (N + 1) * (1 - Q);
  double LogNorm = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B);
  auto Pdf = [&](double X) {
    if (X <= 0 || X >= 1)
      return 0.0;
    return std::exp(LogNorm + (A - 1) * std::log(X) + (B - 1) * std::log1p(-X));
  };
  // Simpson's rule on each interval; the density is smooth at this step.
  constexpr int Steps = 16;
  double Sum = 0, Mass = 0;
  for (size_t I = 0; I < N; ++I) {
    double Lo = double(I) / N, H = 1.0 / N / Steps;
    double W = Pdf(Lo) + Pdf(Lo + Steps * H);
    for (int K = 1; K < Steps; ++K)
      W += (K % 2 ? 4 : 2) * Pdf(Lo + K * H);
    Sum += W * Values[I];
    Mass += W;
  }
  return Mass > 0 ? Sum / Mass : Values[N / 2];
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

uint64_t perfbench::mix(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

void perfbench::timeSetups(const std::function<void()> &Build,
                           const std::function<void()> &Discard,
                           unsigned MinReps, double MinSeconds,
                           std::vector<double> &Secs) {
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < MinReps || msSince(Start) < MinSeconds * 1e3;
       ++I) {
    Discard();
    Clock::time_point T0 = Clock::now();
    Build();
    Secs.push_back(msSince(T0) / 1e3);
  }
}

double perfbench::median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

double perfbench::medianSetupSeconds(const std::function<void()> &Build,
                                     const std::function<void()> &Discard) {
  std::vector<double> Secs;
  timeSetups(Build, Discard, 31, 1.0, Secs);
  return median(Secs);
}

void perfbench::addLatencyMetrics(Report &R, const std::vector<double> &LatMs,
                                  double Bytes) {
  double TotalMs = std::accumulate(LatMs.begin(), LatMs.end(), 0.0);
  R.set("ops_s", TotalMs > 0 ? LatMs.size() / (TotalMs / 1e3) : 0, "1/s");
  R.set("p50_ms", hdQuantile(LatMs, 0.5), "ms");
  R.set("p90_ms", hdQuantile(LatMs, 0.9), "ms");
  R.set("mb_s", TotalMs > 0 ? Bytes / 1e6 / (TotalMs / 1e3) : 0, "MB/s");
}

void perfbench::addLayerTime(Report &R, const std::string &Name, double Ms,
                             double OpMs) {
  R.set(Name + "_ms", Ms, "ms");
  R.set(Name + "_share", OpMs > 0 ? 100.0 * Ms / OpMs : 0, "%");
}

void perfbench::addTraceAccounting(Report &R, double UntracedOpMs,
                                   double TracedOpMs, double UnexplainedMs) {
  R.set("trace.overhead_pct",
        UntracedOpMs > 0 ? 100.0 * (TracedOpMs - UntracedOpMs) / UntracedOpMs
                         : 0,
        "%");
  R.set("trace.unexplained_pct",
        TracedOpMs > 0 ? 100.0 * UnexplainedMs / TracedOpMs : 0, "%");
}

Counters perfbench::readCounters(fast::Session &S) {
  const fast::Solver::Stats &Solv = S.Solv.stats();
  const fast::MintermTrie::Stats &Trie = S.engine().Guards.trie().stats();
  const fast::engine::VmStats &Vm = S.stats().vm();
  uint64_t Explored = 0, Splits = 0, SplitHits = 0, Guards = 0, GuardHits = 0;
  {
    auto Lock = S.stats().slotsLock();
    for (const auto &[Name, C] : S.stats().constructions()) {
      Explored += C.StatesExplored;
      Splits += C.MintermSplits;
      SplitHits += C.MintermCacheHits;
      Guards += C.SatQueries;
      GuardHits += C.SatCacheHits;
    }
  }
  return {
      {"smt.queries", Solv.Queries},
      {"smt.cache_hits", Solv.CacheHits},
      {"smt.fast_path_answers", Solv.FastPathAnswers},
      {"smt.core_checks", Solv.CoreChecks},
      {"smt.z3_checks", Solv.Z3Checks},
      {"smt.z3_model_checks", Solv.Z3ModelChecks},
      {"smt.scoped_checks", Solv.ScopedChecks},
      {"smt.subsumption_answers", Solv.SubsumptionAnswers},
      {"engine.guard_queries", Guards},
      {"engine.guard_cache_hits", GuardHits},
      {"engine.states_explored", Explored},
      {"engine.minterm_splits", Splits},
      {"engine.minterm_cache_hits", SplitHits},
      {"engine.trie_nodes_decided", Trie.NodesDecided},
      {"engine.trie_node_hits", Trie.NodeHits},
      {"engine.trie_subsumed", Trie.SubsumptionAnswers},
      {"vm.runs", Vm.Runs},
      {"vm.fallback_runs", Vm.FallbackRuns},
      {"vm.instructions", Vm.Instructions},
      {"vm.memo_hits", Vm.MemoHits},
      {"vm.lookahead_checks", Vm.LookaheadChecks},
      {"vm.arena_nodes", Vm.ArenaNodes},
      {"trees.nodes_interned", S.Trees.numNodes()},
  };
}

Counters perfbench::operator-(const Counters &After, const Counters &Before) {
  Counters D;
  for (const auto &[Name, V] : After) {
    auto It = Before.find(Name);
    D[Name] = V - (It == Before.end() ? 0 : It->second);
  }
  return D;
}
