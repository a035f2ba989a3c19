"""Writes bench/pinned.json: the answers the benchmark's oracles cannot
derive in closed form, taken from the program once and then frozen.

    python3 bench/pin.py        # from the repository root

It pins the so(3) window-4 cohomology report, the matched-pair
compare-total report at window 3,3 and the normal-form answers for the
so(3) words at lambda = 1, each as the program printed it.  The two
reports must not depend on the drawn coefficients; the script checks
that over the whole draw range before writing.  Rerun it only to extend
the pinned set, never to absorb a changed answer.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from algebroid.cli import run  # noqa: E402

import workloads  # noqa: E402


def answer(path: str, text: str, argv) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([argv[0], path] + list(argv[1:]))
    return buf.getvalue()


def only(answers) -> str:
    if len(set(answers)) != 1:
        raise SystemExit("answer depends on the drawn coefficient: %r" % answers)
    return answers[0]


def main() -> None:
    scratch = os.path.join(HERE, "gen", "pin.adf")
    os.makedirs(os.path.dirname(scratch), exist_ok=True)
    draws = [v for v in range(-3, 4) if v]
    so3 = only([answer(scratch, "ring R3 = poly(Q; x, y, z);\n"
                       + workloads._so3_algebroid("S", Fraction(lam)),
                       ("cohomology", "S", "--degrees", "0..3", "--window", "4"))
                for lam in draws])
    total = only([answer(scratch, workloads._MATCHED % (
        workloads._lincomb([(s, "x*d/dx"), (1, "d/dz")]), -s),
        ("compare-total", "M", "--degrees", "0..2", "--window", "3,3"))
        for s in draws])
    so3_rel = ("ring R3 = poly(Q; x, y, z);\n"
               + workloads._so3_algebroid("S", Fraction(1)) + "relations SR on S;\n")
    forms = {word: answer(scratch, so3_rel, ("normal-form", "SR", word))
             for word in workloads.so3_words()}
    os.remove(scratch)
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump({"cohomology_so3_w4": so3, "compare_total_w33": total,
                   "so3_normal_forms": forms}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
