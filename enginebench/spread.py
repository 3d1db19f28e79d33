#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 enginebench/spread.py --workload mixed --seeds 1-10 [--seconds 30] [--trace 0]

Run from the root of a checkout. For every metric of the result lines
it prints the median, the quartiles (statistics.quantiles, n=4) and
the distance between the quartiles as a share of the median, then the
same as one JSON object on the last line. A run that exits non-zero or
reports correct=false is printed and counted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    values, bad = {}, 0
    for s in seeds(a.seeds):
        p = subprocess.run([sys.executable, RUN, "--workload", a.workload, "--seed", str(s),
                            "--seconds", a.seconds, "--trace", a.trace], capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if p.returncode != 0 or res is None or not res["correct"]:
            bad += 1
            print("seed %d: exit %d\n%s" % (s, p.returncode, p.stderr[-2000:]))
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        print("%-12s %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" % (a.workload, name, med, q1, q3, spread))
    print(json.dumps({"workload": a.workload, "seconds": a.seconds, "trace": a.trace, "failed_runs": bad, "metrics": summary}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
