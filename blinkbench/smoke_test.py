#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 blinkbench/smoke_test.py

Runs every workload in BENCHMARK.json twice for one second (plus one traced
run each) through run.py and checks that each run is correct with ok_frac 1,
that every end-to-end and per-layer metric BENCHMARK.json names is printed
with its unit, and that the simulated-makespan digests of the two untraced
invocations match. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-2000:]))
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest")]
    return json.loads(lines[-1]), (digest[0] if digest else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print("  [%s] %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        digests = []
        for trace, wanted in ((0, spec["end_to_end"]), (0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            result, digest = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, label + " correct")
            metrics = result["metrics"]
            if trace == 0:
                digests.append(digest)
                check(metrics.get("ok_frac", {}).get("value") == 1,
                      label + " ok_frac = 1")
            missing = [m["name"] for m in wanted
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, label + " prints every metric with its unit"
                  + (" (missing %s)" % missing if missing else ""))
        check(digests[0] is not None and digests[0] == digests[1],
              workload + " sim digest repeats across invocations")
    print("smoke_test: %s" % ("OK" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
