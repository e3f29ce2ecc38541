//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload sanitize|ar_conflicts|typecheck --seed N
//             --seconds S --trace 0|1 [--out DIR] [--corpus K]
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced.  Writes DIR/<workload>-
// s<seed>-t<trace>.record.json (verdicts, keys, exact counters, output
// digest) and, traced, DIR/<workload>-s<seed>.trace.json (Chrome trace
// events).  run.py builds this binary and wraps it; see NOTES.md.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload sanitize|ar_conflicts|typecheck "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--corpus K]\n";
  return 2;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

bool writeRecord(const std::string &Path, const RunConfig &Cfg,
                 const Report &R) {
  std::ofstream Out(Path);
  Out << "{\"workload\": " << quoted(Cfg.Workload) << ", \"seed\": "
      << Cfg.Seed << ", \"corpus\": " << Cfg.Corpus
      << ", \"trace\": " << (Cfg.Trace ? 1 : 0) << ",\n \"counts\": {";
  bool First = true;
  for (const auto &[Name, V] : R.Counts) {
    Out << (First ? "" : ", ") << quoted(Name) << ": " << V;
    First = false;
  }
  char Digest[32];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(R.OutputDigest));
  Out << "},\n \"output_digest\": \"" << Digest << "\",\n \"verdicts\": "
      << quoted(R.Verdicts) << ",\n \"keys\": [";
  for (size_t I = 0; I < R.Keys.size(); ++I)
    Out << (I ? ", " : "") << quoted(R.Keys[I]);
  Out << "],\n \"latency_ms\": [";
  for (size_t I = 0; I < R.LatMs.size(); ++I)
    Out << (I ? ", " : "") << number(R.LatMs[I]);
  Out << "],\n \"failed_ops\": [";
  bool FirstOp = true;
  for (uint64_t Op : R.FailedOps) {
    Out << (FirstOp ? "" : ", ") << Op;
    FirstOp = false;
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string Val = Argv[++I];
    try {
      if (Arg == "--workload") {
        Cfg.Workload = Val;
        HaveWorkload = true;
      } else if (Arg == "--seed") {
        Cfg.Seed = std::stoull(Val);
      } else if (Arg == "--seconds") {
        Cfg.Seconds = std::stod(Val);
      } else if (Arg == "--trace") {
        Cfg.Trace = Val != "0";
      } else if (Arg == "--out") {
        Cfg.OutDir = Val;
      } else if (Arg == "--corpus") {
        Cfg.Corpus = static_cast<unsigned>(std::stoul(Val));
      } else {
        return usage();
      }
    } catch (const std::exception &) {
      return usage();
    }
  }
  if (!HaveWorkload || Cfg.Seconds <= 0)
    return usage();

  std::error_code Ec;
  std::filesystem::create_directories(Cfg.OutDir, Ec);

  Report R;
  if (Cfg.Workload == "sanitize")
    R = runSanitize(Cfg);
  else if (Cfg.Workload == "ar_conflicts")
    R = runArConflicts(Cfg);
  else if (Cfg.Workload == "typecheck")
    R = runTypecheck(Cfg);
  else
    return usage();

  if (!writeRecord(outputStem(Cfg) + "-t" + std::to_string(Cfg.Trace) + ".record.json",
                   Cfg, R))
    std::cerr << "perfbench: cannot write the run record under " << Cfg.OutDir
              << "\n";

  for (const std::string &Note : R.FailureNotes)
    std::cerr << "perfbench: FAILED " << Note << "\n";
  for (const auto &[Name, M] : R.Metrics)
    std::cerr << "perfbench: " << Cfg.Workload << " " << Name << " = "
              << M.Value << " " << M.Unit << "\n";

  std::cout << "{\"correct\": " << (R.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << R.Attempted << ", \"failed\": "
            << R.failed() << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    std::cout << (First ? "" : ", ") << quoted(Name) << ": {\"value\": "
              << number(M.Value) << ", \"unit\": " << quoted(M.Unit) << "}";
    First = false;
  }
  std::cout << "}}" << std::endl;
  return R.failed() == 0 ? 0 : 1;
}
