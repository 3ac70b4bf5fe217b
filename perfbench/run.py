#!/usr/bin/env python3
"""Build the CODAR compiler from source and run one benchmark workload.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. It builds
perfbench/codar_bench.exe with dune (the first run builds the whole
library) and runs it with the same arguments. The last line of stdout is
the result: one JSON object with the keys correct, attempted, failed and
metrics. Build output and notes go to stderr. Traces and daemon sockets go
to .perfbench/ in the checkout.

Exits non-zero, without a result, when the checkout holds no compiler
sources to build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "codar_bench.exe")
WORKLOADS = ("paper-suite", "large-route", "daemon-mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    workload = dict(zip(argv, argv[1:])).get("--workload")
    if workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no compiler sources to build: %s is missing from %s" % (needed, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/codar_bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)
    run = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                         universal_newlines=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited %d without a result" % run.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: %s" % lines[-1])
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
