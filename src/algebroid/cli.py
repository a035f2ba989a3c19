"""Command-line driver: every library operation over a definition file.

Exit codes: 0 verified/true, 1 refuted with a printed witness, 2 usage
or parse error, 3 window-inconclusive, 4 internal error (an answer that
failed the check made on it).  All output is deterministic;
--json switches to a stable JSON rendering with rationals as "num/den"
strings and forms as coefficient maps keyed by 1-based index tuples.
The ADF_WINDOW environment variable ("degree" or "degree,laurent")
overrides the default truncation window.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .cech import (atiyah_cocycle, coboundary_test, glue_sridharan,
                   line_bundle_cech_dims, make_p1_cover, verify_cocycle,
                   verify_lambda_module)
from .connections import (chern_trace_form, curvature, is_flat,
                          obstruction_trace_check)
from .core import InputError, InternalError, StructureError, verify_axioms
from .forms import (LForm, TruncationWindow, exactness_solve,
                    truncated_cohomology)
from .matched import total_cohomology_compare, twilled_sum, verify_matched
from .pbw import build_relations, confluence_check
from .parser import (Definitions, ParseError, parse, parse_word, render_form,
                     render_matrix)
from .rings import RingError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_WINDOW = 3
EXIT_INTERNAL = 4


def frac_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def form_json(form: LForm) -> dict:
    return {
        "degree": form.degree,
        "coefficients": {
            ",".join(str(t + 1) for t in idx): str(val)
            for idx, val in sorted(form.coeffs.items())
        },
    }


def matrix_json(mat) -> list:
    return [[str(x) for x in row] for row in mat]


class Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines = []
        self.payload = {}

    def line(self, text: str):
        self.lines.append(text)

    def set(self, key: str, value):
        self.payload[key] = value

    def error(self, text: str):
        self.line("error: " + text)
        self.set("error", text)

    def verdict(self, verified: bool, *lines: str) -> int:
        """The verdict's lines and "verified" key; exit 0 or 1."""
        for text in lines:
            self.line(text)
        self.set("verified", verified)
        return self.emit(EXIT_OK if verified else EXIT_REFUTED)

    def report(self, notes: list | None, failures: list, success: str,
               prefix: str) -> int:
        """A check's degenerate notes (None for a check that has none to
        give), then its success line or its failures, one line each."""
        if notes is not None:
            for note in notes:
                self.line("degenerate: %s" % note)
            self.set("degenerate", notes)
        if failures:
            self.set("failures", failures)
        return self.verdict(not failures,
                            *([prefix + f for f in failures] or [success]))

    def emit(self, code: int) -> int:
        if self.as_json:
            self.payload["exit"] = code
            sys.stdout.write(json.dumps(self.payload, sort_keys=True,
                                        separators=(", ", ": ")) + "\n")
        else:
            for line in self.lines:
                sys.stdout.write(line + "\n")
        return code


def parse_window(spec: str | None) -> TruncationWindow:
    """"degree" or "degree,laurent"; ValueError or StructureError if bad."""
    if not spec:
        return TruncationWindow()
    parts = spec.split(",")
    if len(parts) > 2:
        raise ValueError("window %r has more than two parts" % spec)
    return TruncationWindow(*map(int, parts))


MAX_DEGREE_RANGE = 1000    # degrees in one "lo..hi" range


def parse_degrees(spec: str) -> list:
    """"lo..hi" or a comma list of integers; ValueError if bad, or if the
    range holds more than MAX_DEGREE_RANGE degrees (every degree past the
    rank answers zero, so a longer range only fills memory)."""
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        lo, hi = int(lo), int(hi)
        if hi - lo >= MAX_DEGREE_RANGE:
            raise ValueError("degree range %r holds more than %d degrees"
                             % (spec, MAX_DEGREE_RANGE))
        degrees = list(range(lo, hi + 1))
    else:
        degrees = [int(p) for p in spec.split(",")]
    if not degrees:
        raise ValueError("empty degree range %r" % spec)
    return degrees


def load(path: str, out: Output) -> Definitions | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        out.error(str(err))
        return None
    defs = parse(text)
    if not defs.ok():
        for diag in defs.diagnostics:
            out.line(str(diag))
        out.set("diagnostics", [str(d) for d in defs.diagnostics])
        return None
    return defs


class UsageError(InputError):
    """A question the definitions cannot answer as asked; `json_error` is
    the JSON "error" text, the message itself unless given."""

    def __init__(self, message: str, json_error: str | None = None):
        super().__init__(message)
        self.json_error = json_error or message


def need(defs: Definitions, name: str, kind: str | None = None):
    if name not in defs.objects:
        raise UsageError("undefined name %r" % name)
    if kind is not None and defs.kinds[name] != kind:
        raise UsageError(defs.mismatch(name, kind), "wrong kind for %r" % name)
    return defs.objects[name]


def cmd_verify(args, defs: Definitions, out: Output, window) -> int:
    name = args.name
    obj = need(defs, name)
    kind = defs.kinds[name]
    if kind == "algebroid":
        v = verify_axioms(obj)
        out.set("kind", "algebroid")
        if v.verified:
            return out.verdict(
                True, "verified: %s satisfies the Lie algebroid axioms" % name)
        out.set("witness", v.witness.describe(obj))
        return out.verdict(False, "refuted: %s" % v.witness.describe(obj))
    if kind == "matched":
        out.set("kind", "matched")
        try:
            v = verify_matched(obj)
        except StructureError as err:
            out.set("witness", str(err))
            return out.verdict(False, "refuted: %s" % err)
        if v.verified:
            return out.verdict(True, "verified: %s is a matched pair" % name)
        out.set("equation", v.witness.equation)
        return out.verdict(False, "refuted: %s" % v.witness.describe())
    if kind == "cocycle":
        rep = verify_cocycle(obj.cover, obj)
        out.set("kind", "cocycle")
        return out.report(rep.degenerate, rep.failures,
                          "verified: %s satisfies the cocycle equations"
                          % name, "refuted: ")
    if kind == "cover":
        try:
            obj.verify()
        except StructureError as err:
            return out.verdict(False, "refuted: %s" % err)
        return out.verdict(True, "verified: %s is a consistent cover" % name)
    raise UsageError("cannot verify a %s" % kind)


def cmd_cohomology(args, defs, out, window) -> int:
    alg = need(defs, args.name, "algebroid")
    rep = truncated_cohomology(alg, args.degrees, window)
    stable = True
    dims = {}
    for p in sorted(rep.degrees):
        entry = rep.degrees[p]
        flag = "stable" if entry.stable else "window-unstable"
        out.line("H^%d: dim %d (kernel %d, image %d) [%s]"
                 % (p, entry.cohomology_dim, entry.kernel_dim,
                    entry.image_dim, flag))
        dims[str(p)] = {"dim": entry.cohomology_dim,
                        "kernel": entry.kernel_dim,
                        "image": entry.image_dim,
                        "stable": entry.stable}
        stable = stable and entry.stable
    out.set("cohomology", dims)
    out.set("window", [window.degree, window.laurent])
    return out.emit(EXIT_OK if stable else EXIT_WINDOW)


def cmd_d(args, defs, out, window) -> int:
    form = need(defs, args.name, "form")
    result = form.d()
    out.line("d %s = %s" % (args.name, render_form(result)))
    out.set("differential", form_json(result))
    return out.emit(EXIT_OK)


def cmd_exact(args, defs, out, window) -> int:
    form = need(defs, args.name, "form")
    res = exactness_solve(form, window)
    if res.status == "primitive":
        out.line("primitive: %s" % render_form(res.primitive))
        out.set("status", "primitive")
        out.set("primitive", form_json(res.primitive))
        return out.emit(EXIT_OK)
    out.set("status", res.status)
    if res.certified:
        out.line("obstructed: residue certificate (%s)" % res.residue_witness)
        out.set("certified", True)
        out.set("residue", res.residue_witness)
        return out.emit(EXIT_REFUTED)
    out.line("no primitive in window (degree %d, laurent %d); inconclusive"
             % (window.degree, window.laurent))
    out.set("certified", False)
    return out.emit(EXIT_WINDOW)


def cmd_curvature(args, defs, out, window) -> int:
    conn = need(defs, args.name, "connection")
    f = curvature(conn)
    names = conn.algebroid.basis_names
    payload = {}
    if not f.entries:
        out.line("curvature: 0")
    for (i, j), mat in sorted(f.entries.items()):
        out.line("F(%s,%s) = %s" % (names[i], names[j], render_matrix(mat)))
        payload["%d,%d" % (i + 1, j + 1)] = matrix_json(mat)
    out.set("curvature", payload)
    return out.emit(EXIT_OK)


def cmd_flat(args, defs, out, window) -> int:
    conn = need(defs, args.name, "connection")
    rep = is_flat(conn)
    if rep.flat:
        out.line("flat")
        out.set("flat", True)
        return out.emit(EXIT_OK)
    i, j, a, b, val = rep.witness
    names = conn.algebroid.basis_names
    out.line("not flat: F(%s,%s)[%d,%d] = %s" % (names[i], names[j], a, b, val))
    out.set("flat", False)
    out.set("witness", {"pair": [i + 1, j + 1], "entry": [a, b],
                        "value": str(val)})
    return out.emit(EXIT_REFUTED)


def cmd_chern(args, defs, out, window) -> int:
    conn = need(defs, args.name, "connection")
    form = chern_trace_form(conn, args.k)
    out.line("chern trace (k=%d): %s" % (args.k, render_form(form)))
    out.set("k", args.k)
    out.set("form", form_json(form))
    return out.emit(EXIT_OK)


def cmd_obstruction(args, defs, out, window) -> int:
    conn = need(defs, args.connection, "connection")
    form = need(defs, args.form, "form")
    rep = obstruction_trace_check(conn, form, window)
    out.set("status", rep.status)
    if rep.status == "consistent":
        out.line("consistent: trace form is exact; primitive %s"
                 % render_form(rep.primitive))
        out.set("primitive", form_json(rep.primitive))
        return out.emit(EXIT_OK)
    if rep.status == "obstructed":
        out.line("obstructed: residue certificate (%s)"
                 % rep.detail.residue_witness)
        out.set("residue", rep.detail.residue_witness)
        return out.emit(EXIT_REFUTED)
    out.line("obstructed in window (degree %d, laurent %d); inconclusive"
             % (window.degree, window.laurent))
    return out.emit(EXIT_WINDOW)


def cmd_matched(args, defs, out, window) -> int:
    need(defs, args.name, "matched")
    return cmd_verify(args, defs, out, window)


def cmd_twilled(args, defs, out, window) -> int:
    pair = need(defs, args.name, "matched")
    tw = twilled_sum(pair)
    out.line("twilled sum: rank %d over %d chart variables"
             % (tw.rank, len(tw.base.variables)))
    brackets = {}
    for (i, j), comps in sorted(tw.structure.items()):
        rendered = " + ".join("(%s)*%s" % (c, tw.basis_names[k])
                              for k, c in enumerate(comps) if not c.is_zero())
        out.line("[%s, %s] = %s" % (tw.basis_names[i], tw.basis_names[j],
                                    rendered))
        brackets["%d,%d" % (i + 1, j + 1)] = rendered
    out.set("rank", tw.rank)
    out.set("brackets", brackets)
    return out.emit(EXIT_OK)


def cmd_compare_total(args, defs, out, window) -> int:
    pair = need(defs, args.name, "matched")
    rep = total_cohomology_compare(pair, args.degrees, window)
    for n in sorted(rep.total_dims):
        out.line("degree %d: total %d, twilled %d"
                 % (n, rep.total_dims[n], rep.twilled_dims[n]))
    out.set("total", {str(n): d for n, d in rep.total_dims.items()})
    out.set("twilled", {str(n): d for n, d in rep.twilled_dims.items()})
    out.line("agree")
    out.set("agree", True)
    return out.emit(EXIT_OK)


def cmd_relations(args, defs, out, window) -> int:
    alg = need(defs, args.algebroid, "algebroid")
    twist = need(defs, args.form, "form") if args.form is not None else None
    names = alg.basis_names
    rules = []
    for i, right, rhs in build_relations(alg, twist).relations():
        left = names[i]
        if not isinstance(right, str):
            right = names[right]
        tail = "".join(" + (%s)*%s" % (c, names[w[0]]) if w else " + (%s)" % c
                       for w, c in rhs.terms.items())
        rules.append("%s*%s -> %s*%s%s" % (left, right, right, left, tail))
        out.line(rules[-1])
    out.set("rules", rules)
    return out.emit(EXIT_OK)


def cmd_normal_form(args, defs, out, window) -> int:
    system = need(defs, args.relations, "relations")
    try:
        element = parse_word(args.word, system)
    except (ParseError, RingError, StructureError) as err:
        raise UsageError(str(err)) from err
    out.line("normal form: %s" % element)
    if out.as_json:
        out.set("terms", {
            ",".join(str(t + 1) for t in word): str(coeff)
            for word, coeff in sorted(element.terms.items())})
    return out.emit(EXIT_OK)


def cmd_confluence(args, defs, out, window) -> int:
    system = need(defs, args.name, "relations")
    rep = confluence_check(system)
    if rep is None:
        out.line("confluent: all minimal overlaps resolve")
        out.set("confluent", True)
        return out.emit(EXIT_OK)
    names = system.algebroid.basis_names
    word = "*".join(names[t] if isinstance(t, int) else "(%s)" % t
                    for t in rep.word)
    out.line("ambiguity at %s: difference %s" % (word, rep.difference))
    out.set("confluent", False)
    out.set("word", word)
    out.set("difference", str(rep.difference))
    return out.emit(EXIT_REFUTED)


def cmd_atiyah(args, defs, out, window) -> int:
    if args.k is not None:
        cover = make_p1_cover(args.algebroid or "tangent", bundle=args.k)
    elif args.cover is None:
        raise UsageError("name a cover or pass --k for the built-in line",
                         "no cover given")
    else:
        cover = need(defs, args.cover, "cover")
    try:
        pair = atiyah_cocycle(cover)
    except StructureError as err:
        raise UsageError(str(err)) from err
    for (a, b), form in sorted(pair.phi.items()):
        out.line("phi %d %d = %s" % (a, b, render_form(form)))
    out.set("phi", {"%d,%d" % k: form_json(v) for k, v in pair.phi.items()})
    verified = verify_cocycle(cover, pair).verified
    return out.verdict(verified, "cocycle equations: %s"
                       % ("verified" if verified else "failed"))


def cmd_class_compare(args, defs, out, window) -> int:
    p1 = need(defs, args.first, "cocycle")
    p2 = need(defs, args.second, "cocycle")
    if p1.cover is not p2.cover:
        raise UsageError("cocycle pairs live on different covers")
    cmp = coboundary_test(p1.cover, p1, p2, window)
    out.set("status", cmp.status)
    if cmp.status == "equivalent":
        out.line("equivalent: difference is a coboundary")
        for a in sorted(cmp.eta):
            out.line("eta %d = %s" % (a, render_form(cmp.eta[a])))
        out.set("eta", {str(a): form_json(f) for a, f in cmp.eta.items()})
        return out.emit(EXIT_OK)
    if cmp.status == "inequivalent":
        out.line("inequivalent: res = %s" % cmp.residue_value)
        out.set("residue", frac_str(cmp.residue_value))
        return out.emit(EXIT_REFUTED)
    out.line("inequivalent in window (degree %d, laurent %d); inconclusive"
             % (window.degree, window.laurent))
    return out.emit(EXIT_WINDOW)


def cmd_glue(args, defs, out, window) -> int:
    cover = need(defs, args.cover, "cover")
    pair = need(defs, args.pair, "cocycle")
    rep = glue_sridharan(cover, pair)
    gens = {}
    for (a, b), gmap in sorted(rep.maps.items()):
        names = gmap.target.algebroid.basis_names
        for i in range(gmap.target.algebroid.rank):
            img = gmap.image_of_generator(i)
            out.line("g_%d%d(%s) = %s" % (a, b, names[i], img))
            gens["%d,%d:%s" % (a, b, names[i])] = str(img)
    out.set("generators", gens)
    return out.report(None, rep.failures, "gluing: relations preserved",
                      "failure: ")


def cmd_lambda_check(args, defs, out, window) -> int:
    cover = need(defs, args.cover, "cover")
    pair = need(defs, args.pair, "cocycle")
    bunch = need(defs, args.bunch, "bunch")
    rep = verify_lambda_module(cover, pair, bunch)
    return out.report(rep.degenerate, rep.failures,
                      "verified: bunch is a module for the cocycle pair",
                      "failure: ")


def cmd_cech_dims(args, defs, out, window) -> int:
    cover = need(defs, args.cover, "cover")
    h0, h1, stable = line_bundle_cech_dims(cover, window)
    out.line("h0 = %d" % h0)
    out.line("h1 = %d" % h1)
    out.set("h0", h0)
    out.set("h1", h1)
    if stable:
        return out.emit(EXIT_OK)
    out.line("window-unstable: the dims change at the window enlarged by 2; "
             "inconclusive")
    out.set("stable", False)
    return out.emit(EXIT_WINDOW)


COMMANDS = {
    "verify": cmd_verify,
    "cohomology": cmd_cohomology,
    "d": cmd_d,
    "exact": cmd_exact,
    "curvature": cmd_curvature,
    "flat": cmd_flat,
    "chern": cmd_chern,
    "obstruction": cmd_obstruction,
    "matched": cmd_matched,
    "twilled": cmd_twilled,
    "compare-total": cmd_compare_total,
    "relations": cmd_relations,
    "normal-form": cmd_normal_form,
    "confluence": cmd_confluence,
    "atiyah": cmd_atiyah,
    "class-compare": cmd_class_compare,
    "glue": cmd_glue,
    "lambda-check": cmd_lambda_check,
    "cech-dims": cmd_cech_dims,
}


class _ArgvError(Exception):
    """An argparse usage error, as (message, the parser that found it)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises its usage errors as _ArgvError, and reads an argument that
    starts with "-" and a digit as a value, so `--degrees -1..2` parses."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argparse internal; test_negative_degrees_parse_as_a_value checks it
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message: str):
        raise _ArgvError(message, self)


def _wants_json(argv) -> bool:
    """Whether argv asks for --json, read without the rest of its syntax."""
    scan = _ArgumentParser(add_help=False)
    scan.add_argument("--json", action="store_true")
    try:
        return scan.parse_known_args(argv)[0].json
    except _ArgvError:
        return False


def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="adf",
        description="exact Lie algebroid calculus over definition files")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="definition file (.adf)")
        p.add_argument("--json", action="store_true")
        p.add_argument("--window", default=None,
                       help="degree[,laurent] truncation window")

    p = sub.add_parser("verify"); common(p); p.add_argument("name")
    p = sub.add_parser("cohomology"); common(p); p.add_argument("name")
    p.add_argument("--degrees", default="0..2")
    p = sub.add_parser("d"); common(p); p.add_argument("name")
    p = sub.add_parser("exact"); common(p); p.add_argument("name")
    p = sub.add_parser("curvature"); common(p); p.add_argument("name")
    p = sub.add_parser("flat"); common(p); p.add_argument("name")
    p = sub.add_parser("chern"); common(p); p.add_argument("name")
    p.add_argument("--k", type=int, default=1, choices=(1, 2))
    p = sub.add_parser("obstruction"); common(p)
    p.add_argument("connection"); p.add_argument("form")
    p = sub.add_parser("matched"); common(p); p.add_argument("name")
    p = sub.add_parser("twilled"); common(p); p.add_argument("name")
    p = sub.add_parser("compare-total"); common(p); p.add_argument("name")
    p.add_argument("--degrees", default="0..2")
    p = sub.add_parser("relations"); common(p)
    p.add_argument("algebroid"); p.add_argument("form", nargs="?", default=None)
    p = sub.add_parser("normal-form"); common(p)
    p.add_argument("relations"); p.add_argument("word")
    p = sub.add_parser("confluence"); common(p); p.add_argument("name")
    p = sub.add_parser("atiyah"); common(p)
    p.add_argument("cover", nargs="?", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--algebroid", choices=("tangent", "log"), default=None)
    p = sub.add_parser("class-compare"); common(p)
    p.add_argument("first"); p.add_argument("second")
    p = sub.add_parser("glue"); common(p)
    p.add_argument("cover"); p.add_argument("pair")
    p = sub.add_parser("lambda-check"); common(p)
    p.add_argument("cover"); p.add_argument("pair"); p.add_argument("bunch")
    p = sub.add_parser("cech-dims"); common(p); p.add_argument("cover")
    return top


_PARSER: argparse.ArgumentParser | None = None


def run(argv) -> int:
    global _PARSER
    if _PARSER is None:
        # parse_args leaves the parser unchanged, so one serves every call
        _PARSER = build_arg_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:     # -h
        return EXIT_USAGE if exc.code else EXIT_OK
    except _ArgvError as err:
        message, parser = err.args
        if not _wants_json(argv):
            try:    # argparse's own usage text on stderr
                argparse.ArgumentParser.error(parser, message)
            except SystemExit:
                return EXIT_USAGE
        out = Output(True)
        out.set("error", message)
        return out.emit(EXIT_USAGE)
    out = Output(args.json)
    try:
        window = parse_window(args.window or os.environ.get("ADF_WINDOW"))
        if "degrees" in args:
            args.degrees = parse_degrees(args.degrees)
    except (ValueError, StructureError) as err:
        out.error(str(err))
        return out.emit(EXIT_USAGE)
    defs = load(args.file, out)
    if defs is None:
        return out.emit(EXIT_USAGE)
    handler = COMMANDS[args.command]
    try:
        return handler(args, defs, out, window)
    except InputError as err:
        out.line("error: %s" % err)
        out.set("error", getattr(err, "json_error", str(err)))
        return out.emit(EXIT_USAGE)
    except (StructureError, RingError) as err:
        out.line("refuted: %s" % err)
        out.set("error", str(err))
        return out.emit(EXIT_REFUTED)
    except InternalError as err:
        out = Output(args.json)     # one line, whatever the handler wrote
        out.line("internal error: %s" % err)
        out.set("error", str(err))
        return out.emit(EXIT_INTERNAL)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
