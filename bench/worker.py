"""One benchmark run of one workload, in this single process.

Started by run.py from the repository root.  It imports `algebroid` from
src/, builds pass 0's inputs, asks the warm-up questions, and prints a
`ready` line; that is the end of set-up.  Then one client asks the
questions of one pass after another through `algebroid.cli.run`, each
only after the previous one answered (a closed loop), and stops starting
passes when the next one would end after --seconds.  Every answer is
checked by its oracle outside the timed interval; an answer over the
per-question cap is cut off and counted as failed.  After each answer,
also outside the timed interval, the machine-speed probe of speed.py
runs, and every time of a pass is reported at reference speed by the
scale its probes give (the raw times go to the `raw` record).

With --trace 1 the passes alternate between untraced and traced ones, so
the per-layer metrics come with the tracing overhead measured on the
same inputs mix.  Prints one JSON line with the metrics and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import spans
import workloads
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
QUESTION_CAP_S = 30


class QuestionTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot catch it."""


def _alarm(signum, frame):
    raise QuestionTimeout()


def ask(cli, argv):
    """(exit code, stdout, wall s, cpu s) of one question, or exit code
    None when it was cut off at the cap.  `cli.run` is looked up on every
    call so that the tracer's wrapper is the one called in traced passes."""
    buf = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUESTION_CAP_S)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(argv))
    except QuestionTimeout:
        code = None
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, buf.getvalue(), t1 - t0, c1 - c0


class Run:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.records = []           # per-question span records of traced passes

    def one_pass(self, k, questions, traced, hard_stop):
        """(wall s, cpu s, latencies, layer records, speed scale) of pass
        k, or wall None when the hard stop cut the pass short.  Wall and
        cpu time sum the questions' own intervals, so oracles, probes and
        span bookkeeping between questions are not counted.  Times are raw;
        multiplied by the scale they are at reference speed."""
        tr = self.tracer if traced else None
        latencies, records, cpu = [], [], 0.0
        speed = Speed()
        if tr is not None:
            tr.install()
        try:
            for i, q in enumerate(questions):
                if time.perf_counter() > hard_stop:
                    return None, None, latencies, records, None
                if tr is not None:
                    tr.forget_open_spans()
                    before = tr.snapshot()
                self.attempted += 1
                try:
                    code, out, seconds, cpu_s = ask(self.cli, q.argv)
                except Exception:          # a crash is a failed answer, not the end
                    code, out, seconds, cpu_s = "crash", traceback.format_exc(), 0.0, 0.0
                cpu += cpu_s
                if tr is not None:
                    rec = spans.question_record(before, tr.snapshot())
                    rec.update(kind=q.kind, wall_ns=int(seconds * 1e9))
                    records.append(rec)
                latencies.append(seconds)
                if code != q.exit_code or not q.check(out):
                    self.failures.append({"pass": k, "question": i, "kind": q.kind,
                                          "argv": list(q.argv), "exit": code,
                                          "stdout": out[:400]})
                speed.probe(seconds)
            return sum(latencies), cpu, latencies, records, speed.scale()
        finally:
            if tr is not None:
                tr.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from algebroid import cli

    workload = workloads.WORKLOADS[args.workload](root, args.seed)
    os.chdir(workload.cwd)
    questions = workload.questions(0)
    for argv in workload.warmup():
        ask(cli, argv)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    bench = Run(cli, tracer)
    start = time.perf_counter()
    deadline = start + args.seconds
    hard_stop = deadline + QUESTION_CAP_S
    plain, traced = [], []          # (wall, cpu, latencies, scale) / (wall, metrics)
    k = 0
    while True:
        is_traced = bool(tracer) and k % 2 == 1
        wall, cpu, lat, records, scale = bench.one_pass(k, questions, is_traced,
                                                        hard_stop)
        if wall is None:
            break
        if is_traced:
            for rec in records:
                rec["pass"] = k
            bench.records.extend(records)
            layers = spans.layer_metrics(records, int(wall * 1e9))
            for name in layers:
                if spans.unit(name) == "ms":
                    layers[name] *= scale
            traced.append((wall * scale, layers))
        else:
            plain.append((wall, cpu, lat, scale))
        k += 1
        enough = plain and (traced or not tracer)
        if enough and time.perf_counter() + wall > deadline:
            break
        questions = workload.questions(k)

    metrics, samples, raw = {}, {}, {}
    if tracer is None:
        def times(scaled):
            f = (lambda p: p[3]) if scaled else (lambda p: 1.0)
            lat = [x * f(p) for p in plain for x in p[2]]
            p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
            return {"pass_s": (statistics.median(p[0] * f(p) for p in plain), "s"),
                    "cpu_s": (statistics.median(p[1] * f(p) for p in plain), "s"),
                    "answer_ms_p50": (statistics.median(lat) * 1e3, "ms"),
                    "answer_ms_p90": (p90 * 1e3, "ms")}, lat, p90

        metrics, lat, p90 = times(scaled=True)
        raw = {k: v for k, (v, _) in times(scaled=False)[0].items()}
        raw["speed_scale"] = statistics.median(p[3] for p in plain)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (maxrss_mb, "MB")
        samples = {"pass_s": len(plain), "cpu_s": len(plain),
                   "answer_ms_p50": len(lat), "answer_ms_p90": len(lat),
                   "answer_ms_p90_above": sum(x > p90 for x in lat),
                   "peak_rss_mb": 1}
    else:
        names = traced[0][1].keys()
        for name in names:
            metrics[name] = (statistics.median(m[name] for _, m in traced),
                             spans.unit(name))
        metrics["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in traced)
            / statistics.median(p[0] * p[3] for p in plain), "ratio")
        samples = {"traced_passes": len(traced), "untraced_passes": len(plain)}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", "spans-%s-s%d.jsonl"
                               % (args.workload, args.seed)), "w") as fh:
            for rec in bench.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    for f in bench.failures[:5]:
        print("failed: %s" % json.dumps(f), file=sys.stderr)
    print(json.dumps({"attempted": bench.attempted, "failed": len(bench.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()},
                      "samples": samples, "raw": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
