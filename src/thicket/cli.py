"""Command-line surface.

Exit codes: 0 success, 1 validation error or a documented scope limit (a Hom
space beyond the supported dimension one, reported as ``error:
unsupported: ...``), 2 usage error (argparse), 70 internal invariant
violation.  All randomized suites run serially and are deterministic given
--seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import random
import sys
import time
from fractions import Fraction

from .barcode import dualize, global_sections, global_sections_c
from .circle import circle_distance, circle_thicken, fourier_sato
from .corpus import (rand_barcode, rand_bounded_barcode, rand_circle_sheaf,
                     rand_fraction, rand_plmap, rand_shift)
from .docio import (Document, DocumentError, barcode_doc, circle_doc, parse,
                    report_doc, serialize)
from .extend import coherence_check, extend_apply, line_seed
from .interleave import check_interleaving, distance
from .morphisms import UnsupportedHomError
from .plmaps import (lipschitz_experiment, pushforward_shriek,
                     stability_experiment)
from .scalars import format_extended, parse_rational
from .svgplot import emit_plot
from .thicken import convolution_ball, thicken

VALIDATION_EXIT = 1
USAGE_EXIT = 2
INTERNAL_EXIT = 70


class CliError(Exception):
    pass


def _read_doc(path: str) -> Document:
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write ``path`` as a one-line validation error."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_doc(doc: Document, path: str | None):
    text = serialize(doc)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with _writing(path), open(path, "w") as fh:
            fh.write(text)


def _shift(text: str) -> Fraction:
    """The rational given to ``--a``."""
    try:
        return parse_rational(text)
    except ValueError:
        raise CliError(f"--a must be a rational number, got {text!r}") from None


def _need(doc: Document, kind: str):
    if doc.kind != kind:
        raise CliError(f"expected a {kind} document, found {doc.kind}")
    return doc.payload


# ---------------------------------------------------------------------------
# Commands.

def cmd_thicken(args):
    F = _need(_read_doc(args.input), "barcode")
    _write_doc(barcode_doc(thicken(F, _shift(args.a))), args.output)
    return 0


def cmd_dual(args):
    F = _need(_read_doc(args.input), "barcode")
    _write_doc(barcode_doc(dualize(F)), args.output)
    return 0


def cmd_rgamma(args):
    F = _need(_read_doc(args.input), "barcode")
    dims = global_sections_c(F) if args.compact else global_sections(F)
    payload = {"name": "rgamma_c" if args.compact else "rgamma"}
    payload.update({f"deg{d}": str(n) for d, n in dims.items()})
    _write_doc(report_doc(payload), args.output)
    return 0


def _bounds_row(name, bounds, micros):
    return {
        "inputs": name,
        "lower": format_extended(bounds.lower),
        "upper": format_extended(bounds.upper),
        "exact": str(bounds.exact).lower(),
        "verdict": "exact" if bounds.exact else
                   ("conclusive" if bounds.conclusive else "inconclusive"),
        "micros": str(micros),
    }


def _write_csv(rows, path):
    cols = ["inputs", "lower", "upper", "exact", "verdict", "micros"]
    if path in (None, "-"):
        out = sys.stdout
    else:
        with _writing(path):
            out = open(path, "w", newline="")
    try:
        w = csv.DictWriter(out, fieldnames=cols)
        w.writeheader()
        for r in rows:
            w.writerow({c: r.get(c, "") for c in cols})
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_distance(args):
    F = _need(_read_doc(args.F), "barcode")
    G = _need(_read_doc(args.G), "barcode")
    t0 = time.perf_counter()
    b = distance(F, G)
    _write_csv([_bounds_row(f"{args.F}|{args.G}", b,
                            int((time.perf_counter() - t0) * 1e6))], args.output)
    return 0


def cmd_interleave(args):
    F = _need(_read_doc(args.F), "barcode")
    G = _need(_read_doc(args.G), "barcode")
    a = _shift(args.a)
    cert = check_interleaving(F, G, a)
    payload = {"name": "interleave", "a": format_extended(a),
               "found": str(cert is not None).lower()}
    _write_doc(report_doc(payload), args.output)
    return 0


def cmd_push(args):
    f = _need(_read_doc(args.map), "plmap")
    F = _need(_read_doc(args.input), "barcode")
    _write_doc(barcode_doc(pushforward_shriek(f, F)), args.output)
    return 0


def cmd_stability(args):
    f = _need(_read_doc(args.f), "plmap")
    g = _need(_read_doc(args.g), "plmap")
    F = _need(_read_doc(args.input), "barcode")
    rep = stability_experiment(f, g, F)
    payload = {"name": "stability", "bound": format_extended(rep.bound),
               "verdict": rep.verdict, "micros": str(rep.micros)}
    _write_doc(report_doc(payload), args.output)
    return 0


def cmd_lipschitz(args):
    f = _need(_read_doc(args.map), "plmap")
    F1 = _need(_read_doc(args.F1), "barcode")
    F2 = _need(_read_doc(args.F2), "barcode")
    rep = lipschitz_experiment(f, F1, F2, _shift(args.a))
    payload = {"name": "lipschitz", "bound": format_extended(rep.bound),
               "verdict": rep.verdict, "micros": str(rep.micros)}
    _write_doc(report_doc(payload), args.output)
    return 0


def cmd_circle_thicken(args):
    F = _need(_read_doc(args.input), "circle")
    _write_doc(circle_doc(circle_thicken(F, _shift(args.a))), args.output)
    return 0


def cmd_fs(args):
    F = _need(_read_doc(args.input), "circle")
    out = fourier_sato(F, "inverse" if args.inverse else "forward")
    _write_doc(circle_doc(out), args.output)
    return 0


def cmd_circle_distance(args):
    F = _need(_read_doc(args.F), "circle")
    G = _need(_read_doc(args.G), "circle")
    t0 = time.perf_counter()
    b = circle_distance(F, G)
    _write_csv([_bounds_row(f"{args.F}|{args.G}", b,
                            int((time.perf_counter() - t0) * 1e6))], args.output)
    return 0


def _load_seed(spec: str):
    if spec == "line":
        return line_seed(1), "line"
    if os.path.exists(spec):
        return _need(_read_doc(spec), "seed"), "synthetic"
    raise CliError(f"seed {spec!r} is neither 'line' nor a readable file")


def cmd_extend(args):
    seed, kind = _load_seed(args.seed)
    a = _shift(args.a)
    if kind == "line":
        if args.input is None:
            raise CliError("the line seed needs an input barcode document")
        F = _need(_read_doc(args.input), "barcode")
        _write_doc(barcode_doc(extend_apply(seed, a, F)), args.output)
        return 0
    grid = [Fraction(0), seed.alpha / 4, seed.alpha / 2, seed.alpha]
    rep = coherence_check(seed, grid, ["X"])
    payload = {"name": "extend-synthetic", "a": str(a),
               "object": str(extend_apply(seed, a, "X")),
               "coherence": "pass" if rep.ok else "fail",
               "failures": str(len(rep.failures))}
    _write_doc(report_doc(payload), args.output)
    return 0 if rep.ok else VALIDATION_EXIT


def cmd_plot(args):
    doc = _read_doc(args.input)
    if doc.kind not in ("barcode", "circle"):
        raise CliError(f"cannot plot a {doc.kind} document")
    with _writing(args.output):
        emit_plot(doc.payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# Suites.

def _suite_case(name: str, seed: int, index: int) -> dict:
    rng = random.Random(f"{seed}:{name}:{index}")
    t0 = time.perf_counter()
    verdict = "pass"
    lower = upper = exact = ""
    if name == "semigroup":
        F = rand_barcode(rng)
        a, b = rand_fraction(rng), rand_fraction(rng)
        ok = thicken(thicken(F, a), b) == thicken(F, a + b)
        inputs = f"|F|={len(F)} a={a} b={b}"
        verdict = "pass" if ok else "fail"
    elif name == "rgamma":
        F = rand_barcode(rng)
        a = rand_shift(rng)
        T = thicken(F, a)
        ok = (global_sections(T) == global_sections(F)
              and global_sections_c(T) == global_sections_c(F))
        inputs = f"|F|={len(F)} a={a}"
        verdict = "pass" if ok else "fail"
    elif name == "duality":
        F = rand_barcode(rng)
        a = rand_fraction(rng)
        ok = dualize(thicken(F, a)) == thicken(dualize(F), -a)
        inputs = f"|F|={len(F)} a={a}"
        verdict = "pass" if ok else "fail"
    elif name == "convolution":
        F = rand_barcode(rng)
        a = rand_shift(rng)
        ok = convolution_ball(F, a) == thicken(F, a)
        inputs = f"|F|={len(F)} a={a}"
        verdict = "pass" if ok else "fail"
    elif name == "distance":
        F = rand_bounded_barcode(rng, max_bars=2)
        G = rand_bounded_barcode(rng, max_bars=2)
        b = distance(F, G)
        lower, upper = format_extended(b.lower), format_extended(b.upper)
        exact = str(b.exact).lower()
        sym = distance(G, F)
        verdict = "pass" if b.fields() == sym.fields() else "fail"
        inputs = f"|F|={len(F)} |G|={len(G)}"
    elif name == "stability":
        f = rand_plmap(rng)
        g = rand_plmap(rng, match_tails_with=f)
        F = rand_bounded_barcode(rng, max_bars=2)
        rep = stability_experiment(f, g, F)
        verdict = rep.verdict
        upper = format_extended(rep.bound)
        inputs = f"sup={rep.bound}"
    elif name == "lipschitz":
        f = rand_plmap(rng)
        F = rand_bounded_barcode(rng, max_bars=1)
        shift = rand_fraction(rng, 0, 1)
        G = thicken(F, shift)
        rep = lipschitz_experiment(f, F, G, shift)
        verdict = rep.verdict
        upper = format_extended(rep.bound)
        inputs = f"delta*a={rep.bound}"
    elif name == "isometry":
        F = rand_circle_sheaf(rng)
        G = rand_circle_sheaf(rng)
        d1 = circle_distance(F, G)
        d2 = circle_distance(fourier_sato(F), fourier_sato(G))
        verdict = "pass" if d1.fields() == d2.fields() else "fail"
        lower, upper = format_extended(d1.lower), format_extended(d1.upper)
        exact = str(d1.exact).lower()
        inputs = f"|F|={len(F.spirals)} |G|={len(G.spirals)}"
    elif name == "fs-roundtrip":
        F = rand_circle_sheaf(rng, with_bands=True)
        ok = fourier_sato(fourier_sato(F), "inverse") == F
        verdict = "pass" if ok else "fail"
        inputs = f"|F|={len(F.spirals)}+{len(F.bands)}"
    else:
        raise CliError(f"unknown suite {name!r}")
    micros = int((time.perf_counter() - t0) * 1e6)
    return {"inputs": f"case{index}: {inputs}", "lower": lower, "upper": upper,
            "exact": exact, "verdict": verdict, "micros": str(micros)}


SUITES = ("semigroup", "rgamma", "duality", "convolution", "distance",
          "stability", "lipschitz", "isometry", "fs-roundtrip")


def cmd_suite(args):
    if args.name not in SUITES:
        raise CliError(f"unknown suite {args.name!r}; choose from {', '.join(SUITES)}")
    if args.cases < 0:
        raise CliError(f"--cases must be nonnegative, got {args.cases}")
    rows = [_suite_case(args.name, args.seed, i) for i in range(args.cases)]
    _write_csv(rows, args.output)
    bad = [r for r in rows if r["verdict"] == "fail"]
    return 0 if not bad else VALIDATION_EXIT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thicket",
                                description="Exact thickening and interleaving "
                                            "distance toolkit for graded barcodes")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, inputs=("input",)):
        for name in inputs:
            sp.add_argument(name)
        sp.add_argument("--out", dest="output", default=None)

    sp = sub.add_parser("thicken", help="thicken a barcode document")
    sp.add_argument("--a", required=True)
    add_io(sp)
    sp.set_defaults(fn=cmd_thicken)

    sp = sub.add_parser("dual", help="duality on a barcode document")
    add_io(sp)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("rgamma", help="derived global sections")
    sp.add_argument("--compact", action="store_true")
    add_io(sp)
    sp.set_defaults(fn=cmd_rgamma)

    sp = sub.add_parser("distance", help="interleaving distance bounds")
    add_io(sp, ("F", "G"))
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("interleave", help="search one interleaving shift")
    sp.add_argument("--a", required=True)
    add_io(sp, ("F", "G"))
    sp.set_defaults(fn=cmd_interleave)

    sp = sub.add_parser("push", help="proper pushforward along a PL map")
    sp.add_argument("--map", required=True)
    add_io(sp)
    sp.set_defaults(fn=cmd_push)

    sp = sub.add_parser("stability", help="stability experiment")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    add_io(sp)
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("lipschitz", help="Lipschitz experiment")
    sp.add_argument("--map", required=True)
    sp.add_argument("--a", required=True)
    add_io(sp, ("F1", "F2"))
    sp.set_defaults(fn=cmd_lipschitz)

    sp = sub.add_parser("circle-thicken", help="thicken a circle document")
    sp.add_argument("--a", required=True)
    add_io(sp)
    sp.set_defaults(fn=cmd_circle_thicken)

    sp = sub.add_parser("fs", help="quarter-circumference transform")
    sp.add_argument("--inverse", action="store_true")
    add_io(sp)
    sp.set_defaults(fn=cmd_fs)

    sp = sub.add_parser("circle-distance", help="circle interleaving distance")
    add_io(sp, ("F", "G"))
    sp.set_defaults(fn=cmd_circle_distance)

    sp = sub.add_parser("extend", help="extension-engine application")
    sp.add_argument("--seed", required=True,
                    help="'line' or a synthetic seed file")
    sp.add_argument("--a", required=True)
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--out", dest="output", default=None)
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("suite", help="run a named invariant corpus")
    sp.add_argument("name")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=50)
    sp.add_argument("--out", dest="output", default=None)
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("plot", help="emit an SVG figure")
    sp.add_argument("input")
    sp.add_argument("--out", dest="output", required=True)
    sp.set_defaults(fn=cmd_plot)
    return p


def _join_negative_shifts(argv) -> list:
    """Write ``--a -1/2`` as ``--a=-1/2``.  argparse reads only ``-<int>`` and
    ``-<decimal>`` as negative numbers, and would take ``-1/2`` for an
    option and leave ``--a`` without its value."""
    out = []
    for tok in argv:
        if out and out[-1] == "--a" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--a={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_shifts(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.fn(args)
    except UnsupportedHomError as exc:
        print(f"error: unsupported: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (CliError, DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send the rest of the
        # output, and the flush at exit, to devnull and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = VALIDATION_EXIT
    sys.exit(code)


if __name__ == "__main__":
    main()
