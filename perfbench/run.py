#!/usr/bin/env python3
"""End-to-end serving benchmark: build, replay checks and the measured run.

Run from the repository root:

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 15 --trace 0

Builds perfbench/e2e.exe with dune, then runs, one after another:
  * replay processes, each of which builds the workload's system from
    the seed and replays the first operations of the timed window,
    reporting its set-up time and a determinism fingerprint;
  * the measured run.
setup_s is the median of every process's set-up time. The fingerprints
(op-stream digest, result checksum and, on single-engine workloads,
logical I/O and probe counts) must equal the measured run's, or the
run is marked incorrect. With --trace 0 the result carries the
end-to-end metrics; with --trace 1 the per-layer ones. The last line
of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["read_hot", "read_cold", "write_mix", "sharded_mix"]
HERE = "perfbench"
EXE = os.path.join("_build", "default", HERE, "e2e.exe")
TMP = os.path.join(HERE, "_tmp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    cmd = dune()
    if cmd is None:
        log("perfbench: dune not found")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd + ["build", "--root", ".", "./" + HERE + "/e2e.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def tagged(lines, tag):
    for line in reversed(lines):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def run_exe(args, tag, echo, timeout):
    """Run e2e.exe; return its tagged JSON (None on failure)."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % " ".join(args[:3]))
        return None
    lines = r.stdout.splitlines()
    if echo:
        for line in lines:
            if not line.startswith(tag + " "):
                print(line, flush=True)
    if r.returncode != 0:
        log("perfbench: %s exited with %d" % (" ".join(args[:3]), r.returncode))
        return None
    return tagged(lines, tag)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    os.makedirs(TMP, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--tmpdir", TMP]

    # Two replays give two more set-up samples for the median; a traced
    # run reports no set-up time and keeps one for the determinism check.
    replays = []
    problems = []
    for _ in range(2 if a.trace == 0 else 1):
        rep = run_exe(["replay"] + common, "REPLAY", echo=False, timeout=60)
        if rep is None:
            problems.append("replay failed")
        else:
            replays.append(rep)

    res = run_exe(["run"] + common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                  "RESULT", echo=True, timeout=150)
    if res is None:
        log("perfbench: measured run failed")
        return 1

    for rep in replays:
        if rep["failed"]:
            problems.append("replay reported %d failures" % rep["failed"])
    if res["fingerprint"] == "-":
        print("determinism: window ended before the fingerprint prefix; not compared")
    else:
        for rep in replays:
            if rep["fingerprint"] != res["fingerprint"]:
                problems.append("determinism mismatch: replay %s vs run %s"
                                % (rep["fingerprint"], res["fingerprint"]))
        if not problems:
            print("determinism: %d replay(s) matched %s" % (len(replays), res["fingerprint"]))
    for p in problems:
        print("FAILURE: " + p)

    metrics = res["metrics"]
    if a.trace == 0:
        samples = [res["setup_s"]] + [r["setup_s"] for r in replays]
        setup = statistics.median(samples)
        print("setup_s samples: " + " ".join("%.4f" % s for s in samples))
        metrics = dict([("setup_s", {"value": setup, "unit": "s"})] + list(metrics.items()))
    failed = res["failed"] + len(problems)
    out = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
