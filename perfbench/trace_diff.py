#!/usr/bin/env python3
"""Compare two traced runs layer by layer.

    python3 perfbench/trace_diff.py OLD.json NEW.json

Each argument is a trace file that a traced run writes
(.perfbench/trace-<workload>-<seed>.json). The script prints, for each
layer, the self time and allocation of both runs and their ratio NEW/OLD,
then the ratio of every per-layer metric the runs recorded (the counts
among them should read 1.000 unless the change moved them). A ratio below
1 means the new run spent less.
"""

import json
import sys


def load(path):
    with open(path) as f:
        other = json.load(f)["otherData"]
    return other


def ratio(old, new):
    if old == 0:
        return "    =" if new == 0 else "  new"
    return "%5.3f" % (new / old)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    old, new = (load(p) for p in argv)
    if old["workload"] != new["workload"]:
        print("warning: comparing %s with %s" % (old["workload"], new["workload"]), file=sys.stderr)
    print("%-18s %12s %12s %6s %12s %12s %6s" %
          ("layer", "old self ms", "new self ms", "ratio", "old MB", "new MB", "ratio"))
    for name in sorted(set(old["layers"]) | set(new["layers"])):
        zero = {"self_ms": 0, "alloc_mb": 0, "calls": 0}
        o, n = old["layers"].get(name, zero), new["layers"].get(name, zero)
        print("%-18s %12.1f %12.1f %6s %12.1f %12.1f %6s" %
              (name, o["self_ms"], n["self_ms"], ratio(o["self_ms"], n["self_ms"]),
               o["alloc_mb"], n["alloc_mb"], ratio(o["alloc_mb"], n["alloc_mb"])))
    print()
    print("%-30s %16s %16s %6s" % ("metric", "old", "new", "ratio"))
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        o, n = old["metrics"].get(name, 0), new["metrics"].get(name, 0)
        print("%-30s %16.6g %16.6g %6s" % (name, o, n, ratio(o, n)))


if __name__ == "__main__":
    main(sys.argv[1:])
