#!/usr/bin/env python3
"""Compare two sets of cake_ledger end-to-end runs.

    python3 bench/ledger/compare.py A_DIR B_DIR

Each directory holds the *.e2e.log files run.sh writes, one per workload
and seed; the last line of each is the JSON result. For every workload and
end-to-end metric of BENCHMARK.json this prints each side's median,
quartiles and spread ((q3 - q1) / median), and B's median against A's. A
pair is flagged when the medians differ by more than the metric's bound; a
side is flagged when any call failed. A metric whose spread on either side
is wider than its bound is marked unresolved. Exit status 1 if anything
is flagged. Standard library only.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load(directory):
    """{workload: [result, ...]} from every *.e2e.log."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.e2e.log"))):
        workload = os.path.basename(path).split(".")[0]
        with open(path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            sys.exit("compare.py: empty result " + path)
        runs.setdefault(workload, []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(SPEC) as f:
        metrics = json.load(f)["end_to_end"]
    sides = [load(argv[1]), load(argv[2])]
    flagged = False
    row = "%-16s %-12s %-42s %-42s %8s %6s  %s"
    print(row % ("workload", "metric", "A median [q1, q3] spread",
                 "B median [q1, q3] spread", "B vs A", "bound", ""))
    for workload in sorted(set(sides[0]) | set(sides[1])):
        for side, runs in zip("AB", sides):
            results = runs.get(workload, [])
            failed = sum(r["failed"] for r in results)
            bad = sum(1 for r in results if not r["correct"])
            if not results or failed or bad:
                flagged = True
                print("%-16s side %s: %d runs, %d of %d calls failed, %d "
                      "runs not correct  FLAG" % (
                          workload, side, len(results), failed,
                          sum(r["attempted"] for r in results), bad))
        for m in metrics:
            cells, medians, noisy = [], [], False
            for runs in sides:
                values = [r["metrics"][m["name"]]["value"]
                          for r in runs.get(workload, [])
                          if m["name"] in r["metrics"]]
                if not values:
                    cells.append("-")
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0
                noisy = noisy or spread > m["bound"]
                medians.append(q2)
                cells.append("%.6g [%.6g, %.6g] %.2f%% n=%d" % (
                    q2, q1, q3, 100 * spread, len(values)))
            change, note = "-", "unresolved: spread > bound" if noisy else ""
            if len(medians) == 2 and medians[0]:
                rel = (medians[1] - medians[0]) / medians[0]
                change = "%+.2f%%" % (100 * rel)
                if abs(rel) > m["bound"]:
                    flagged = True
                    worse = rel > 0 if m["better"] == "lower" else rel < 0
                    note = "FLAG (%s)" % ("worse" if worse else "better")
            print(row % (workload, m["name"], cells[0], cells[1], change,
                         "%g" % m["bound"], note))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
