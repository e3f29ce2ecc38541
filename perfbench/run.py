#!/usr/bin/env python3
"""End-to-end benchmark of the fast-transducers library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sanitize|ar_conflicts|typecheck \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project that compiles ../src) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), runs one
workload in a fresh process, compares its verdicts with perfbench/pinned.json
where that file pins them, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.

Extra modes (not used by the fixed protocol; see NOTES.md):
  --check-counts  run twice with the same arguments and compare the exact
                  counters, verdicts and output digest of the two runs
  --pin           record this run's verdicts in pinned.json
  --corpus K      use held-out corpus K (ar_conflicts and typecheck)
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINNED = os.path.join(BENCH_DIR, "pinned.json")
WORKLOADS = ("sanitize", "ar_conflicts", "typecheck")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, out_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--corpus", str(args.corpus)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("run.py: workload run exceeded %d s" % RUN_TIMEOUT_S)
    log("%s seed %d trace %d: %.1f s wall" %
        (args.workload, args.seed, args.trace, time.monotonic() - start))
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit("run.py: workload run printed no result (exit %d)" %
                 proc.returncode)
    result = json.loads(lines[-1])
    stem = "%s-s%d%s" % (args.workload, args.seed,
                         "-c%d" % args.corpus if args.corpus else "")
    with open(os.path.join(out_dir, "%s-t%d.record.json" %
                           (stem, args.trace))) as f:
        record = json.load(f)
    return result, record


def pinned_key(args):
    if args.workload == "sanitize":
        return None
    return "%s/corpus%d" % (args.workload, args.corpus)


def load_pinned():
    if not os.path.exists(PINNED):
        return {}
    with open(PINNED) as f:
        return json.load(f)


def all_keys(workload, ops):
    """The operation keys a pinned entry of \p ops operations covers."""
    if workload == "typecheck":
        return ["inst%d" % k for k in range(ops)]
    taggers = next(n for n in range(2, 1000) if n * (n - 1) // 2 == ops)
    return ["%d-%d" % (i, j) for i in range(taggers)
            for j in range(i + 1, taggers)]


def check_pinned(args, record):
    """Indices of operations whose verdict differs from the pinned one."""
    entry = load_pinned().get(pinned_key(args) or "")
    if not entry:
        return set(), 0
    holds = set(entry["holds"])
    pinned = {k: "1" if k in holds else "0"
              for k in all_keys(args.workload, entry["ops"])}
    bad, compared = set(), 0
    for op, (key, verdict) in enumerate(zip(record["keys"],
                                            record["verdicts"])):
        if key in pinned:
            compared += 1
            if pinned[key] != verdict:
                bad.add(op)
                log("verdict of %s is %s, pinned %s" %
                    (key, verdict, pinned[key]))
    return bad, compared


def complete_metrics(args, result):
    """Every metric BENCHMARK.json lists for this mode, in its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                sys.exit("run.py: end-to-end metric %s missing" % m["name"])
            # A layer this workload never calls: it does no work there.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            sys.exit("run.py: %s reported in %s, expected %s" %
                     (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def check_counts(binary, args, out_dir):
    """Runs twice and names every counter that does not repeat exactly."""
    records = []
    for _ in range(2):
        _, record = run_binary(binary, args, out_dir)
        records.append(record)
    a, b = records
    differing = sorted(k for k in set(a["counts"]) | set(b["counts"])
                       if a["counts"].get(k) != b["counts"].get(k))
    same_verdicts = a["verdicts"] == b["verdicts"]
    same_digest = a["output_digest"] == b["output_digest"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "counts": a["counts"], "verdict_digest_equal": same_verdicts,
        "output_digest": a["output_digest"],
        "output_digest_equal": same_digest,
        "differing_counters": differing}, sort_keys=True))
    ok = not differing and same_verdicts and same_digest
    return 0 if ok else 1


def pin(args, record):
    """Pins the verdicts of a run that covered a whole corpus prefix."""
    keys = all_keys(args.workload, len(record["keys"]))
    if sorted(keys) != sorted(record["keys"]):
        sys.exit("run.py: --pin needs a run over a whole corpus prefix")
    pinned = load_pinned()
    pinned[pinned_key(args)] = {
        "ops": len(keys),
        "holds": sorted(k for k, v in zip(record["keys"], record["verdicts"])
                        if v == "1")}
    with open(PINNED, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    log("pinned %d verdicts under %s" % (len(keys), pinned_key(args)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corpus", type=int, default=0)
    parser.add_argument("--check-counts", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.check_counts:
        return check_counts(binary, args, out_dir)

    result, record = run_binary(binary, args, out_dir)
    if args.pin:
        if pinned_key(args) is None or result["failed"]:
            sys.exit("run.py: only a correct analysis-workload run is pinned")
        pin(args, record)
    bad, compared = check_pinned(args, record)
    failed_ops = set(record["failed_ops"]) | bad
    failed = len(failed_ops) + result["failed"] - len(record["failed_ops"])
    log("%d verdicts compared with pinned.json, %d differ" %
        (compared, len(bad)))
    out = {"correct": failed == 0, "attempted": result["attempted"],
           "failed": failed, "metrics": complete_metrics(args, result)}
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
