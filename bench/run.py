"""The repository benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Run from the repository root.  The workload runs in a single process
(bench/worker.py) with one client in a closed loop, calling
`algebroid.cli.run` in process; see bench/workloads.py for the three
workloads and why each is there.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (bench/spans.py).  The lines above it
give each metric with its unit and sample count, and the run metadata;
the same record is written to bench/out/.

Every time is reported at reference speed (see bench/speed.py): it is
scaled by a fixed probe timed next to it, so the drift of a shared host's
speed drops out and a change to the program does not.  The raw times and
the scale are printed in the header and kept in bench/out/.

Set-up time (interpreter start, `import algebroid`, input generation and
warm-up, up to the worker's `ready` line) is measured on SETUPS fresh
worker processes, the timed one included, each scaled by probes this
process runs just before it starts the worker, and reported as the
median of the scaled set-up times.
Exits 2 without a result when the tree holds no `algebroid` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 7
SETUP_PROBE_S = 0.5         # probes before each set-up, as for this much time
RUN_LIMIT_S = 170           # the whole run, set-ups included
NEEDED = ("src/algebroid/cli.py", "tests/golden_cases.py", "tests/golden", "tests/data")


def start_worker(args, extra=()):
    """(process, seconds until its `ready` line, scale of those seconds)."""
    speed = Speed()
    speed.probe(SETUP_PROBE_S)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if json.loads(line or "{}").get("ready") is not True:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not get ready: %r" % line)
    return proc, setup, speed.scale()


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("bench: run from the repository root; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    began = time.perf_counter()
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, setup, scale = start_worker(args, ["--setup-only"])
            proc.communicate(timeout=RUN_LIMIT_S)
            setups.append((setup, scale))
    proc, setup, scale = start_worker(args)
    setups.append((setup, scale))
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - began))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("bench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("bench: worker exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics, samples, raw = result["metrics"], result["samples"], result["raw"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s * f for s, f in setups),
                              "unit": "s"}
        samples["setup_s"] = len(setups)
        raw["setup_s"] = statistics.median(s for s, _ in setups)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines(root),
            "attempted": result["attempted"], "failed": result["failed"],
            "failed_ratio": result["failed"] / result["attempted"]}
    for key, value in meta.items():
        print("# %-22s %s" % (key, value))
    print("# %-22s %s" % ("samples", json.dumps(samples, sort_keys=True)))
    print("# %-22s %s" % ("raw", json.dumps(raw, sort_keys=True)))
    for name, m in sorted(metrics.items()):
        print("%-32s %14.6f %-6s n=%s" % (name, m["value"], m["unit"],
                                          samples.get(name, samples.get("traced_passes"))))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "run-%s-s%d-t%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "samples": samples, "raw": raw}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
