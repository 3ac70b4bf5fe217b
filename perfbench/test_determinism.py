#!/usr/bin/env python3
"""Determinism self-check of the benchmark, on smoke-sized runs.

    python3 perfbench/test_determinism.py

For every workload, two runs with the same seed must report identical
counts, untraced (alloc_b_per_gate, swaps_total, makespan_ratio.geomean,
ok_ratio) and traced (every codar.*, cache.* and service.* count). A run
with another seed must change the daemon's cold set, which shows in the
request bytes the daemon read. Exits 1 on the first difference.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

UNTRACED = ["alloc_b_per_gate", "swaps_total", "makespan_ratio.geomean", "ok_ratio"]

# Counts that repeat exactly. Left out: service.bytes_out, because a cold
# reply carries the measured route time, whose printed length varies, and
# the daemon's alloc_b_per_gate, because its event loop allocates per
# select() wake-up and those depend on timing.
def traced_counts(metrics):
    return sorted(k for k, v in metrics.items()
                  if k.split(".")[0] in ("codar", "cache", "service")
                  and v["unit"] in ("count", "B", "ratio")
                  and not k.endswith("share")
                  and k != "service.bytes_out")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, universal_newlines=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], "%s seed %d: wrong output" % (workload, seed)
    return result["metrics"]


def same(workload, name, a, b):
    if a[name]["value"] != b[name]["value"]:
        print("FAIL %s: %s differs between two runs of one seed: %r vs %r"
              % (workload, name, a[name]["value"], b[name]["value"]))
        sys.exit(1)


def main():
    for workload in ("paper-suite", "large-route", "daemon-mixed"):
        a, b = run(workload, 1, 0), run(workload, 1, 0)
        for name in UNTRACED:
            if not (workload == "daemon-mixed" and name == "alloc_b_per_gate"):
                same(workload, name, a, b)
        a, b = run(workload, 1, 1), run(workload, 1, 1)
        names = traced_counts(a)
        for name in names:
            same(workload, name, a, b)
        print("ok %s: %d counts repeat" % (workload, len(UNTRACED) + len(names)))
    c = run("daemon-mixed", 2, 1)
    if c["service.bytes_in"]["value"] == a["service.bytes_in"]["value"]:
        print("FAIL daemon-mixed: seed 2 sent the same request bytes as seed 1")
        sys.exit(1)
    print("ok daemon-mixed: another seed changes the cold set")


if __name__ == "__main__":
    main()
