"""Question lists and answer oracles for the three benchmark workloads.

Each workload yields one list of `adf` questions per pass.  Pass k of a
run with seed s draws its coefficients and its question order from
Random("s/k"), so the same seed gives the same inputs, and every pass
sees fresh definition files (a content-keyed cache inside the program
cannot turn repeats into hits).  Shapes stay fixed across seeds: only
coefficients, bundle degrees and orderings are drawn, so a pass does the
same amount of work whatever the seed.

The mix of questions in a pass is fixed so that a pass's 90th-percentile
latency falls inside a group of like questions (exact/obstruction in
catalog, R3 cohomology in window-ladder, the slowest so(3) words in
pbw-words) rather than in the gap between two groups.

Every question carries its oracle: the exit code it must return and a
check on its stdout.  The oracles are independent of the program where
a closed form exists (golden files, de Rham dimensions, the Weyl normal
form, residue certificates, Riemann-Roch on the projective line); the
rest are pinned in `pinned.json` (see `pin.py`), scaled by the drawn
coefficient where the answer depends on it.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Question:
    kind: str                      # label in the span record, e.g. "weyl_n6"
    argv: Tuple[str, ...]          # passed to algebroid.cli.run
    exit_code: int                 # the exit code the answer must carry
    check: Callable[[str], bool]   # oracle on the answer's stdout


def _equals(text: str) -> Callable[[str], bool]:
    return lambda out: out == text


def _starts(prefix: str) -> Callable[[str], bool]:
    return lambda out: out.startswith(prefix) and out.count("\n") == 1


# -- rendering of .adf scalars ----------------------------------------------------


def _num(c: Fraction) -> str:
    return str(Fraction(c))


def _lincomb(terms) -> str:
    """'2*x*d/dx - y*d/dz' from [(2, 'x*d/dx'), (-1, 'y*d/dz')]; an empty
    atom stands for the constant 1."""
    out = ""
    for coeff, atom in terms:
        coeff = Fraction(coeff)
        mag = abs(coeff)
        if not atom:
            body = _num(mag)
        else:
            body = atom if mag == 1 else "%s*%s" % (_num(mag), atom)
        if not out:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += (" - " if coeff < 0 else " + ") + body
    return out


def _laurent_poly(poly: Dict[Tuple[int, int], Fraction]) -> str:
    terms = []
    for (ex, ey), c in sorted(poly.items()):
        factors = ["%s^%d" % (v, e) if e != 1 else v
                   for v, e in (("x", ex), ("y", ey)) if e != 0]
        terms.append((c, "*".join(factors)))
    return _lincomb(terms)


def _nonzero(rng: random.Random, hi: int) -> int:
    return rng.choice([v for v in range(-hi, hi + 1) if v != 0])


# -- normal-form answers ------------------------------------------------------------


_TERM = re.compile(r"^(?:\((?P<coeff>-?\d+(?:/\d+)?)\))?\*?(?P<word>[e0-9^*]*)$")


def parse_normal_form(out: str) -> Dict[Tuple[int, ...], Fraction] | None:
    """{ascending word: coefficient} from 'normal form: (-5) + e1*e2';
    None when the line does not have that shape."""
    if not out.startswith("normal form: ") or not out.endswith("\n"):
        return None
    terms = {}
    for part in out[len("normal form: "):-1].split(" + "):
        m = _TERM.match(part)
        if m is None or not (m.group("coeff") or m.group("word")):
            return None
        word: List[int] = []
        for factor in filter(None, m.group("word").split("*")):
            gen, _, power = factor.partition("^")
            word.extend([int(gen[1:]) - 1] * int(power or 1))
        terms[tuple(word)] = Fraction(m.group("coeff") or 1)
    return terms


def _normal_form_is(expected: Dict[Tuple[int, ...], Fraction]):
    return lambda out: parse_normal_form(out) == expected


def weyl_normal_form(n: int, c: Fraction) -> Dict[Tuple[int, ...], Fraction]:
    """e2^n e1^n in the Weyl algebra with e2 e1 = e1 e2 - c:
    sum_k (-c)^k k! C(n,k)^2 e1^(n-k) e2^(n-k)."""
    return {(0,) * (n - k) + (1,) * (n - k): (-c) ** k * factorial(k) * comb(n, k) ** 2
            for k in range(n + 1)}


def scaled_normal_form(pinned: str, length: int, lam: Fraction):
    """The pinned lambda = 1 answer for a length-`length` word in the so(3)
    system, for the system whose brackets are scaled by lambda: each
    bracket step shortens the word by one and carries one lambda."""
    return {w: c * lam ** (length - len(w))
            for w, c in parse_normal_form(pinned).items()}


# -- definition files -------------------------------------------------------------------


def _so3_algebroid(name: str, lam: Fraction) -> str:
    """Cotangent algebroid of the Lie-Poisson structure lam * so(3)*."""
    return ("algebroid %s over R3 {\n  basis e1, e2, e3;\n"
            "  anchor e1 -> %s,\n         e2 -> %s,\n         e3 -> %s;\n"
            "  bracket [e1, e2] = %s;\n  bracket [e2, e3] = %s;\n"
            "  bracket [e3, e1] = %s;\n}\n"
            % (name,
               _lincomb([(lam, "z*d/dy"), (-lam, "y*d/dz")]),
               _lincomb([(-lam, "z*d/dx"), (lam, "x*d/dz")]),
               _lincomb([(lam, "y*d/dx"), (-lam, "x*d/dy")]),
               _num(lam) + "*e3", _num(lam) + "*e1", _num(lam) + "*e2"))


_MATCHED = """\
ring R = poly(Q; x, y, z, w);
algebroid L1 over R {
  basis e1, e2;
  anchor e1 -> d/dx, e2 -> d/dy;
}
algebroid L2 over R {
  basis f1, f2;
  anchor f1 -> %s, f2 -> d/dw;
}
connection act12 on L1 rank 2 {
}
connection act21 on L2 rank 2 {
  f1 -> [[%s, 0], [0, 0]];
}
matched M { l1 L1; l2 L2; action12 act12; action21 act21; }
"""


def _p1(structure: str, k: int) -> str:
    return ("cover P = p1(%s, bundle=%d);\ncocycle A = atiyah(P);\n"
            "cocycle Z on P {\n}\n" % (structure, k))


# -- workloads ----------------------------------------------------------------------------


class Workload:
    """`cwd` is where the questions run; `questions(k)` writes pass k's
    files (if any) and returns its questions in the order to ask them;
    `warmup()` returns the argv of small questions that touch every
    command the workload uses, asked once before timing starts.  The
    generated workloads start each run from an empty directory under
    bench/gen."""

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.cwd = os.path.join(HERE, "gen", "%s-s%d" % (self.name, seed))
        shutil.rmtree(self.cwd, ignore_errors=True)
        os.makedirs(self.cwd)

    def rng(self, k: int) -> random.Random:
        return random.Random("%d/%d" % (self.seed, k))

    def write(self, k: int, files: Dict[str, str], questions: List[Question]):
        pdir = os.path.join(self.cwd, "p%d" % k)
        os.makedirs(pdir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(pdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(pdir, "argv.json"), "w", encoding="utf-8") as fh:
            json.dump([list(q.argv) for q in questions], fh, indent=0)


class Catalog(Workload):
    """The golden CLI invocations of tests/golden_cases.py, checked
    byte-exact against tests/golden/."""

    name = "catalog"

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.cwd = os.path.join(root, "tests", "data")
        sys.path.insert(0, os.path.join(root, "tests"))
        try:
            from golden_cases import CASES
        finally:
            sys.path.pop(0)
        self.cases = []
        for name, argv, code in CASES:
            with open(os.path.join(root, "tests", "golden", name + ".txt"),
                      encoding="utf-8") as fh:
                golden = fh.read()
            self.cases.append(Question(name, tuple(argv), code, _equals(golden)))

    def questions(self, k: int) -> List[Question]:
        order = list(self.cases)
        self.rng(k).shuffle(order)
        return order

    def warmup(self) -> List[Tuple[str, ...]]:
        return [q.argv for q in self.cases if q.argv[0] != "compare-total"]


class WindowLadder(Workload):
    """Windowed linear questions: cohomology, exactness, the matched-pair
    total complex and the projective-line Cech systems."""

    name = "window-ladder"

    def __init__(self, root: str, seed: int):
        super().__init__(root, seed)
        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            self.pinned = json.load(fh)

    def files(self, rng: random.Random):
        a = [_nonzero(rng, 3) for _ in range(3)]
        lam = Fraction(_nonzero(rng, 3))
        s = _nonzero(rng, 3)
        k_tan, k_log, k_cech = (_nonzero(rng, 4) for _ in range(3))
        r3 = ("ring R3 = poly(Q; x, y, z);\n"
              "algebroid T over R3 {\n  basis e1, e2, e3;\n  anchor %s;\n}\n"
              % ", ".join("e%d -> %d*d/d%s" % (i + 1, a[i], v)
                          for i, v in enumerate("xyz")))
        so3 = "ring R3 = poly(Q; x, y, z);\n" + _so3_algebroid("S", lam)
        b = [_nonzero(rng, 3) for _ in range(2)]
        torus = ("ring L = laurent(Q; x, y);\n"
                 "algebroid T over L {\n  basis e1, e2;\n"
                 "  anchor e1 -> %d*d/dx, e2 -> %d*d/dy;\n}\n" % tuple(b))
        for t in range(6):
            theta = self.exact_form(rng, b)
            if t >= 3:           # carries the residue monomial x^-1 y^-1
                theta[(-1, -1)] = Fraction(_nonzero(rng, 5))
            torus += "form t%d on T = (%s) * e1^ ^ e2^;\n" % (t, _laurent_poly(theta))
        matched = _MATCHED % (_lincomb([(s, "x*d/dx"), (1, "d/dz")]), _num(-s))
        files = {"r3.adf": r3, "so3.adf": so3, "torus.adf": torus,
                 "matched.adf": matched, "p1.adf": _p1("tangent", k_tan),
                 "p1log.adf": _p1("log", k_log), "p1cech.adf": _p1("tangent", k_cech)}
        return files, (k_tan, k_log, k_cech)

    @staticmethod
    def exact_form(rng: random.Random, b) -> Dict[Tuple[int, int], Fraction]:
        """d(f e1^ + g e2^) = (b1 dg/dx - b2 df/dy) e1^ ^ e2^ for random
        Laurent f, g with three terms each; never touches x^-1 y^-1."""
        while True:
            theta: Dict[Tuple[int, int], Fraction] = {}
            for comp in (0, 1):
                for _ in range(3):
                    ex, ey = rng.randint(-4, 4), rng.randint(-4, 4)
                    c = Fraction(_nonzero(rng, 5))
                    if comp == 1 and ex != 0:      # b1 * d/dx of c x^ex y^ey
                        key, val = (ex - 1, ey), b[0] * c * ex
                    elif comp == 0 and ey != 0:    # -b2 * d/dy of c x^ex y^ey
                        key, val = (ex, ey - 1), -b[1] * c * ey
                    else:
                        continue
                    theta[key] = theta.get(key, Fraction(0)) + val
            theta = {m: c for m, c in theta.items() if c}
            if theta:
                return theta

    def questions(self, k: int) -> List[Question]:
        rng = self.rng(k)
        files, (k_tan, k_log, k_cech) = self.files(rng)
        p = "p%d/" % k
        qs = [
            Question("cohomology_r3", ("cohomology", p + "r3.adf", "T", "--degrees",
                                       "0..3", "--window", "6"), 0,
                     _cohomology_is((1, 0, 0, 0))),
            Question("cohomology_so3", ("cohomology", p + "so3.adf", "S", "--degrees",
                                        "0..3", "--window", "4"), 3,
                     _equals(self.pinned["cohomology_so3_w4"])),
            Question("cohomology_torus", ("cohomology", p + "torus.adf", "T", "--degrees",
                                          "0..2", "--window", "5,5"), 0,
                     _cohomology_is((1, 2, 1))),
            Question("compare_total", ("compare-total", p + "matched.adf", "M", "--degrees",
                                       "0..2", "--window", "3,3"), 0,
                     _equals(self.pinned["compare_total_w33"])),
            Question("class_compare_tangent", ("class-compare", p + "p1.adf", "Z", "A",
                                               "--window", "200,8"), 1,
                     _equals("inequivalent: res = %d\n" % k_tan)),
            Question("class_compare_log", ("class-compare", p + "p1log.adf", "Z", "A",
                                           "--window", "200,8"), 0,
                     _equals("equivalent: difference is a coboundary\n"
                             "eta 0 = (%d) * z*d/dz^\neta 1 = 0\n" % k_log)),
            Question("cech_dims", ("cech-dims", p + "p1cech.adf", "P", "--window", "8,150"),
                     0, _equals("h0 = %d\nh1 = %d\n" % (max(0, k_cech + 1),
                                                        max(0, -k_cech - 1)))),
        ]
        for t, window in enumerate((12, 14, 16) * 2):
            argv = ("exact", p + "torus.adf", "t%d" % t,
                    "--window", "%d,%d" % (window, window))
            if t < 3:
                qs.append(Question("exact_primitive", argv, 0, _starts("primitive: ")))
            else:
                qs.append(Question("exact_certificate", argv, 1, _equals(
                    "obstructed: residue certificate "
                    "(component (1,2), residue monomial x^-1, y^-1)\n")))
        rng.shuffle(qs)
        self.write(k, files, qs)
        return qs

    def warmup(self) -> List[Tuple[str, ...]]:
        p = "p0/"
        return [("cohomology", p + "torus.adf", "T", "--window", "1,1"),
                ("exact", p + "torus.adf", "t0", "--window", "1,1"),
                ("compare-total", p + "matched.adf", "M", "--degrees", "0..1",
                 "--window", "1,1"),
                ("class-compare", p + "p1.adf", "Z", "A", "--window", "2,2"),
                ("cech-dims", p + "p1cech.adf", "P", "--window", "2,2")]


def _cohomology_is(dims):
    """Every degree stable with the given cohomology dimensions."""
    pattern = re.compile(r"^H\^(\d+): dim (\d+) \(kernel \d+, image \d+\) \[stable\]$")

    def check(out: str) -> bool:
        lines = out.splitlines()
        got = [pattern.match(line) for line in lines]
        return (len(lines) == len(dims) and all(got)
                and [(int(m.group(1)), int(m.group(2))) for m in got]
                == list(enumerate(dims)))
    return check


SO3_BLOCKS = [(a, b, c) for a in (3, 2, 1) for b in (3, 2, 1) for c in (3, 2, 1)
              if len({a, b, c}) == 3]
SO3_ALTERNATING = ["*".join("e%d" % (1 + (r + t) % 3) for t in range(9)) for r in range(3)]


def so3_words() -> List[str]:
    return (["e%d^3*e%d^3*e%d^3" % blocks for blocks in SO3_BLOCKS]
            + SO3_ALTERNATING)


class PbwWords(Workload):
    """PBW normal forms and confluence: no linear algebra."""

    name = "pbw-words"

    def __init__(self, root: str, seed: int):
        super().__init__(root, seed)
        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            self.pinned = json.load(fh)["so3_normal_forms"]

    def questions(self, k: int) -> List[Question]:
        rng = self.rng(k)
        c = Fraction(_nonzero(rng, 9), rng.randint(1, 4))
        lam = Fraction(_nonzero(rng, 3))
        a, b, d = (rng.randint(1, 5) for _ in range(3))
        twist = " + ".join("(%d)*e%d^ ^ e%d^" % (_nonzero(rng, 5), i, j)
                           for i in range(1, 5) for j in range(i + 1, 5))
        files = {
            "weyl.adf": ("ring R = poly(Q; x, y);\n"
                         "algebroid T over R {\n  basis e1, e2;\n"
                         "  anchor e1 -> d/dx, e2 -> d/dy;\n}\n"
                         "form q on T = %s * e1^ ^ e2^;\nrelations W on T twist q;\n"
                         % _num(c)),
            "so3.adf": ("ring R3 = poly(Q; x, y, z);\n" + _so3_algebroid("S", lam)
                        + "relations SR on S;\n"),
            "rank4.adf": ("ring R4 = poly(Q; x, y, z, w);\n"
                          "algebroid T4 over R4 {\n  basis e1, e2, e3, e4;\n"
                          "  anchor e1 -> d/dx, e2 -> d/dy, e3 -> d/dz, e4 -> d/dw;\n}\n"
                          "form q on T4 = %s;\nrelations W4 on T4 twist q;\n"
                          % twist),
            "broken.adf": ("ring R = poly(Q; x);\n" + "".join(
                "algebroid B%d over R {\n  basis %s;\n  bracket [e1, e2] = %d*e3;\n"
                "  bracket [e1, e3] = %d*e1;\n  bracket [e2, e3] = %d*e2;\n}\n"
                "relations BR%d on B%d;\n"
                % (r, ", ".join("e%d" % i for i in range(1, r + 1)), a, b, d, r, r)
                for r in (3, 4))),
        }
        p = "p%d/" % k
        qs = [Question("weyl_n%d" % n, ("normal-form", p + "weyl.adf", "W",
                                        "e2^%d*e1^%d" % (n, n)),
                       0, _normal_form_is(weyl_normal_form(n, c)))
              for n in (4, 5, 6)]
        for word in so3_words():
            kind = "so3_blocks" if "^" in word else "so3_alternating"
            qs.append(Question(kind, ("normal-form", p + "so3.adf", "SR", word), 0,
                               _normal_form_is(scaled_normal_form(
                                   self.pinned[word], 9, lam))))
        confluent = "confluent: all minimal overlaps resolve\n"
        # the broken table's Jacobiator on (e1, e2, e3) is a(b + d) e3; the
        # ambiguity resolved both ways differs by its negative
        witness = "ambiguity at e3*e2*e1: difference (%d)*e3\n" % (-a * (b + d))
        qs += [Question("confluence_confluent", ("confluence", p + "so3.adf", "SR"),
                        0, _equals(confluent)),
               Question("confluence_confluent", ("confluence", p + "rank4.adf", "W4"),
                        0, _equals(confluent)),
               Question("confluence_broken", ("confluence", p + "broken.adf", "BR3"),
                        1, _equals(witness)),
               Question("confluence_broken", ("confluence", p + "broken.adf", "BR4"),
                        1, _equals(witness))]
        rng.shuffle(qs)
        self.write(k, files, qs)
        return qs

    def warmup(self) -> List[Tuple[str, ...]]:
        p = "p0/"
        return [("normal-form", p + "weyl.adf", "W", "e2*e1"),
                ("normal-form", p + "so3.adf", "SR", "e3*e2*e1"),
                ("confluence", p + "so3.adf", "SR"),
                ("confluence", p + "broken.adf", "BR3")]


WORKLOADS = {w.name: w for w in (Catalog, WindowLadder, PbwWords)}
