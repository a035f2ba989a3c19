"""Self-test of the benchmark, about a minute:

    python3 bench/selftest.py        # from the repository root

1. Under a fixed seed, one pass of each workload is answered twice in
   this process, untraced and traced: every answer must pass its oracle
   and tracing must change no answer, byte for byte.
2. bench/run.py with --seconds 1 (one pass) and --trace 0 / 1 on each
   workload must report every answer correct and print exactly the
   metrics BENCHMARK.json names for that mode, each with its unit.
3. In a directory holding only BENCHMARK.json and bench/, run.py must
   exit non-zero without printing a result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SEED = 7
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import _alarm, ask  # noqa: E402


def check_tracing_changes_nothing(name: str) -> None:
    from algebroid import cli
    workload = workloads.WORKLOADS[name](ROOT, SEED)
    questions = workload.questions(0)
    os.chdir(workload.cwd)
    try:
        plain = [ask(cli, q.argv)[:2] for q in questions]
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = [ask(cli, q.argv)[:2] for q in questions]
        finally:
            tracer.uninstall()
    finally:
        os.chdir(ROOT)
    for q, (code, out) in zip(questions, plain):
        assert code == q.exit_code and q.check(out), (name, q.argv, code, out)
    assert plain == traced, "%s: tracing changed an answer" % name
    assert tracer.calls["cli.run"] == len(questions), name


def check_run(name: str, trace: int, spec: dict) -> None:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           name, "--seed", str(SEED), "--seconds", "1", "--trace",
                           str(trace)], capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == wanted, (name, trace, set(got) ^ set(wanted))
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (k, m)


def check_refuses_bare_tree() -> None:
    bare = os.path.join(HERE, "gen", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("gen", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in workloads.WORKLOADS:
        check_tracing_changes_nothing(name)
        print("ok  %-14s answers pass; tracing changes none" % name, flush=True)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec)
            print("ok  %-14s run.py --trace %d: correct, metrics and units" % (name, trace),
                  flush=True)
    check_refuses_bare_tree()
    print("ok  run.py refuses a tree without the program")


if __name__ == "__main__":
    main()
