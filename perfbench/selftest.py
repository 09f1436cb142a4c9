#!/usr/bin/env python3
"""Self-test of the benchmark: repeatability and the metric contract.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Run from the root of a qbpart checkout.  For every workload (default:
all four) it runs the shortest traced form (one set-up, one untraced
and one traced pass) twice with the same seed and requires the counts
printed on the COUNTS line -- certified_obj, qbp.iterations,
gap.calls, checkpoint.bytes and session.warm_ratio -- to be identical.
It then runs the shortest untraced form once and requires the same
certified_obj.  Every run must exit 0 and report correct answers, and
its JSON must carry exactly the metrics BENCHMARK.json declares.
Exits 1 on the first failure.
"""

import json
import subprocess
import sys

WORKLOADS = ["table1", "synth10k", "eco_stream", "daemon_jobs"]


def run(workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--setups", "1"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("FAIL %s: exit %d\n%s%s" % (" ".join(cmd), p.returncode, p.stdout, p.stderr))
    result = json.loads(lines[-1])
    counts = None
    for line in lines:
        if line.startswith("COUNTS "):
            counts = json.loads(line[len("COUNTS "):])
    return result, counts


def main():
    args = sys.argv[1:]
    seed = 7
    if args[:1] == ["--seed"]:
        seed, args = int(args[1]), args[2:]
    workloads = args or WORKLOADS
    declared = json.load(open("BENCHMARK.json"))
    names = {0: {m["name"] for m in declared["end_to_end"]},
             1: {m["name"] for m in declared["per_layer"]}}
    for w in workloads:
        seen = []
        for trace in (1, 1, 0):
            result, counts = run(w, seed, trace)
            if not result["correct"] or result["failed"] != 0:
                raise SystemExit("FAIL %s: incorrect answers %s" % (w, result))
            got = set(result["metrics"])
            if got != names[trace]:
                raise SystemExit("FAIL %s: metrics differ from BENCHMARK.json: %s"
                                 % (w, sorted(got ^ names[trace])))
            if trace == 1:
                seen.append(counts)
            else:
                obj = result["metrics"]["certified_obj"]["value"]
                if obj != seen[0]["certified_obj"]:
                    raise SystemExit("FAIL %s: untraced certified_obj %r, traced %r"
                                     % (w, obj, seen[0]["certified_obj"]))
        if seen[0] != seen[1]:
            raise SystemExit("FAIL %s: counts differ between runs\n  %s\n  %s" % (w, seen[0], seen[1]))
        print("ok %-12s %s" % (w, seen[0]), flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
