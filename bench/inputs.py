"""Seeded input generators, one per workload.

Inputs are built from the public constructors only (``Bar``, ``Interval``,
``GradedBarcode``, ``CircleSheaf``, ``PLMap``), never from ``thicket.corpus``,
so a change to the package cannot change what the benchmark feeds it.

Every generator is driven by ``random.Random(seed)``.  Size mixes are
stratified: the number of operations of each kind and size is fixed by the
operation count, and the seed only chooses the contents and the order.  That
keeps the latency quantiles inside one size class and makes a run's total
work nearly independent of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from thicket import Bar, CircleSheaf, GradedBarcode, Interval, PLMap
from thicket.barcode import CLOSED, OPEN
from thicket.interleave import finite_gate

KINDS = {
    "closed": (CLOSED, CLOSED),
    "open": (OPEN, OPEN),
    "ho": (CLOSED, OPEN),       # [a, b)
    "oh": (OPEN, CLOSED),       # (a, b]
}
QUARTER = Fraction(1, 4)


def _quarters(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Uniform point of the 1/4 grid in [lo, hi]."""
    return Fraction(rng.randint(4 * lo, 4 * hi), 4)


def _bar(left: Fraction, right: Fraction, kind: str, degree: int) -> Bar:
    lk, rk = KINDS[kind]
    return Bar(Interval(left, lk, right, rk), degree)


def _shape(rng: random.Random) -> tuple[str, int]:
    return rng.choice(tuple(KINDS)), rng.choice((0, 1))


def _random_bar(rng: random.Random, kind: str, degree: int, span: int) -> Bar:
    left = _quarters(rng, 0, span - 1)
    length = QUARTER * rng.randint(1, 12)          # 1/4 .. 3
    return _bar(left, left + length, kind, degree)


def _nudge(rng: random.Random, b: Bar) -> Bar:
    """Move both endpoints by at most 1/2 on the 1/4 grid, keeping the kind,
    the degree and a positive length."""
    while True:
        left = b.iv.left + QUARTER * rng.randint(-2, 2)
        right = b.iv.right + QUARTER * rng.randint(-2, 2)
        if right > left:
            return Bar(Interval(left, b.iv.lkind, right, b.iv.rkind), b.degree)


def _spirals(rng: random.Random, n: int, longest: Fraction) -> list[Bar]:
    """n spiral lifts on the circle of circumference C = 4, starting on the
    1/4 grid in [0, C), with lengths on the 1/4 grid up to ``longest``."""
    q = int(CIRCLE_C / QUARTER)                      # circumference in quarters
    out = []
    for _ in range(n):
        left = QUARTER * rng.randint(0, q - 1)
        length = QUARTER * rng.randint(1, int(longest / QUARTER))
        out.append(_bar(left, left + length, *_shape(rng)))
    return out


def _stratified(count: int, mix) -> list:
    """``count`` labels in the fixed shares of ``mix`` ((label, share), ...):
    every block of sum(shares) consecutive slots holds each label ``share``
    times.  The caller shuffles."""
    period = sum(share for _, share in mix)
    slots = [label for label, share in mix for _ in range(share)]
    return [slots[i % period] for i in range(count)]


# ---------------------------------------------------------------------------
# distance
#
# Why: ``interleave.distance`` is the paper's headline computation and the
# only caller of the Hom/Ext calculus (``morphisms``, ``model``) and of the
# matching and exhaustive searches; ``zigzag``, ``docio`` and ``plmaps`` do
# almost nothing here.  Near pairs (every endpoint moved by at most 1/2) stop
# at an early grid value; far pairs (independent bars of the same kinds and
# degrees) force long scans and exhaustive refutations.
#
# Mix per 80 operations: 72 line pairs with 2, 3, 4 and 5 bars a side in
# shares 18 : 22 : 18 : 14, half near and half far within each size, and 8
# circle pairs: 5 with spirals of length up to C/4 (4, 5 and 6 spirals,
# 2 : 2 : 1) and 3 with lengths up to 3C/4 (one each of 4, 5 and 6
# spirals).  The long ones find a defect: ``circle_distance`` raises an
# IndexError inside ``morphisms.struct_scalar`` on about 30 % of them (more
# often the longer the longest lift), and ok_ratio counts it.  Larger line
# pairs have a heavy tail: 8 bars measured at mean 0.48 s and standard
# deviation 0.61 s (26 pairs, up to 2.6 s), and single 6-bar pairs took 1.2,
# 1.7 and 4.7 s among 38.  With them a run's total rested on a handful of
# operations and ops_per_s spread by 22 % between seeds, so the mix stops at
# 5 bars.  At these sizes nearly every far pair fits the exhaustive budget,
# and exact_ratio sits just below ok_ratio.

CIRCLE_C = Fraction(4)
SHORT, LONG = CIRCLE_C / 4, 3 * CIRCLE_C / 4     # longest spiral lift
LINE_SPAN = 6                                     # left endpoints in [0, 6)
LINE_MIX = ((("line", 2, True), 9), (("line", 2, False), 9),
            (("line", 3, True), 11), (("line", 3, False), 11),
            (("line", 4, True), 9), (("line", 4, False), 9),
            (("line", 5, True), 7), (("line", 5, False), 7),
            (("circle", 4, SHORT), 2), (("circle", 5, SHORT), 2),
            (("circle", 6, SHORT), 1), (("circle", 4, LONG), 1),
            (("circle", 5, LONG), 1), (("circle", 6, LONG), 1))


def _line_pair(rng: random.Random, n: int, near: bool):
    while True:
        shapes = [_shape(rng) for _ in range(n)]
        F = GradedBarcode([_random_bar(rng, k, d, LINE_SPAN) for k, d in shapes])
        if near:
            G = GradedBarcode([_nudge(rng, b) for b in F.bars])
        else:
            G = GradedBarcode([_random_bar(rng, k, d, LINE_SPAN) for k, d in shapes])
        if F != G and finite_gate(F, G) == "pass":
            return F, G


def _circle_pair(rng: random.Random, n: int, longest: Fraction):
    while True:
        spirals = _spirals(rng, n, longest)
        F = CircleSheaf(CIRCLE_C, spirals)
        G = CircleSheaf(CIRCLE_C, [_nudge(rng, b) for b in spirals])
        if F != G:
            return F, G


def distance_ops(seed: int, count: int) -> list[tuple]:
    """``count`` operations: ("line", F, G) or ("circle", F, G)."""
    rng = random.Random(seed)
    plan = _stratified(count, LINE_MIX)
    rng.shuffle(plan)
    ops = []
    for item in plan:
        if item[0] == "circle":
            ops.append(("circle",) + _circle_pair(rng, *item[1:]))
        else:
            ops.append(("line",) + _line_pair(rng, item[1], item[2]))
    return ops


# ---------------------------------------------------------------------------
# decompose
#
# Why: the elimination-bound paths.  ``fourier_sato`` (with its default
# cyclic re-decomposition), ``circle_thicken`` and ``pushforward_shriek``
# spend their time in ``zigzag``, ``fieldmath.rref``, ``circle`` and
# ``plmaps``; ``interleave`` is never called, so a change to the distance
# search must leave this workload unmoved.
#
# Mix per 36 operations: 6 Fourier-Sato round trips on 3 spirals (about
# half carry one band of rank 1-3), 12 circle thickenings at signed shifts
# on 3-5 spirals (4 each), and 18 pushforwards of 1-24 bounded bars (sizes
# stepping evenly from 1 to 24) along 8-breakpoint maps.  The cyclic
# decomposition has a heavy tail in the spiral count.  Measured per
# transform: 3 spirals mean 33 ms (sd 53 ms, up to 0.5 s), 4 spirals mean
# 48-72 ms (sd 0.1-0.27 s, up to 2.3 s), 5 spirals mean 0.12-0.18 s (sd
# 0.4-0.5 s, up to 2.9 s), 6 spirals mean 0.6-1.0 s (sd 1.9-2.2 s, up to
# 13.5 s), 8 spirals mean 2.9 s (sd 7.4 s, up to 33 s); thickenings of 6-8
# spirals have sd 120-260 ms with single cases over 1 s.  A run's total
# rests on its slowest transforms: with 5-8 spirals ops_per_s spread by 46 %
# between seeds, and with a third of the transforms on 4 spirals one 1.8 s
# case still moved it by 20 %.  So transforms stay at 3 spirals and
# thickenings at 5, and the steadier pushforwards take half the slots.  The
# per-operation cap records any remaining outlier as a timeout.  Spiral
# lifts are at most C/4 long for the same reason: with lifts up to 3C/4, 36
# transforms and thickenings of 3-5 spirals all passed their checks, but
# single transforms took up to 1.3 s.

DECOMPOSE_MIX = ((("fs", 3), 6),) + \
    tuple((("thicken", n), 4) for n in range(3, 6)) + \
    tuple((("push", 1 + round(23 * k / 17)), 1) for k in range(18))
SHIFTS = tuple(QUARTER * k for k in (-3, -2, -1, 1, 2, 3))


def _invertible(rng: random.Random, r: int):
    """A random invertible r x r matrix over F_2."""
    while True:
        m = [[rng.randint(0, 1) for _ in range(r)] for _ in range(r)]
        rows = [int("".join(map(str, row)), 2) for row in m]
        rank = 0
        for bit in reversed(range(r)):
            pivot = next((x for x in rows if x >> bit & 1), None)
            if pivot is None:
                continue
            rows = [x ^ pivot if x >> bit & 1 else x for x in rows if x != pivot]
            rank += 1
        if rank == r:
            return m


def _circle_sheaf(rng: random.Random, n: int, band: bool) -> CircleSheaf:
    spirals = _spirals(rng, n, SHORT)
    bands = []
    if band:
        r = rng.randint(1, 3)
        bands.append((r, _invertible(rng, r), rng.choice((0, 1))))
    return CircleSheaf(CIRCLE_C, spirals, bands)


def _pl_map(rng: random.Random) -> PLMap:
    xs = sorted(rng.sample(range(-8, 17), 8))
    ys = [_quarters(rng, -4, 4) for _ in xs]
    return PLMap(tuple(Fraction(x, 2) for x in xs), tuple(ys))


def decompose_ops(seed: int, count: int) -> list[tuple]:
    """``count`` operations: ("fs", F), ("thicken", F, a) or ("push", f, F)."""
    rng = random.Random(seed)
    plan = _stratified(count, DECOMPOSE_MIX)
    rng.shuffle(plan)
    ops = []
    for kind, n in plan:
        if kind == "fs":
            ops.append(("fs", _circle_sheaf(rng, n, rng.random() < 0.5)))
        elif kind == "thicken":
            ops.append(("thicken", _circle_sheaf(rng, n, False), rng.choice(SHIFTS)))
        else:
            F = GradedBarcode([_random_bar(rng, *_shape(rng), span=LINE_SPAN)
                               for _ in range(n)])
            ops.append(("push", _pl_map(rng), F))
    return ops


# ---------------------------------------------------------------------------
# bulk-io
#
# Why: many distinct bars, no repeats and no Hom calculus.  It runs
# ``thicken`` and ``barcode`` at a scale ``distance`` never reaches, so a memo
# that pays off on repeated bars shows its cost here, and it is the only
# workload that measures ``docio`` (``parse`` beside ``serialize``).
#
# Sizes run from 10^2 to 10^4 bars in five classes, stratified per 40
# documents as 100 x 16, 300 x 10, 1000 x 8, 3000 x 5 and 10000 x 1, in
# seeded order.  Each latency quantile then falls inside one class of
# same-sized documents, away from a class boundary: at 120 documents (three
# blocks) p50 is the 12th of 30 documents of 300 bars and p90 the 6th of 15
# of 3000.  A continuous size spread put neighbouring ranks 12 % apart in
# size at p90, so a one-rank shift moved op_p90_ms by as much.  A p90 class
# of 48 documents of 1000 bars spread op_p90_ms no less (0.105 over five
# seeds): the same document timed back to back varies by 10-13 % after
# speed scaling, and that sets the spread.  The mean document has ~940
# bars, so a run of 120 documents takes about 8 s of pipeline time at
# reference speed, plus as much again for the checks.

BULK_MIX = ((100, 16), (300, 10), (1000, 8), (3000, 5), (10000, 1))


def barcode_text(F: GradedBarcode) -> str:
    """The thicket/1 text of a line barcode, written here rather than by
    ``docio`` so that the documents do not depend on the code under test."""
    lines = ["thicket/1", "kind: barcode", f"char: {F.char}", "space: line"]
    for b in F.bars:
        lb = "[" if b.iv.lkind is CLOSED else "("
        rb = "]" if b.iv.rkind is CLOSED else ")"
        lines.append(f"bar: {b.degree} {lb}{b.iv.left}, {b.iv.right}{rb}")
    return "\n".join(lines) + "\n"


def bulk_ops(seed: int, count: int) -> list[tuple]:
    """``count`` operations: ("pipeline", text, a) with ``text`` a thicket/1
    barcode document and ``a`` a positive shift."""
    rng = random.Random(seed)
    sizes = _stratified(count, BULK_MIX)
    rng.shuffle(sizes)
    ops = []
    for n in sizes:
        span = max(8, n // 8)
        F = GradedBarcode([_random_bar(rng, *_shape(rng), span=span)
                           for _ in range(n)])
        a = QUARTER * rng.randint(1, 8)
        ops.append(("pipeline", barcode_text(F), a))
    return ops


GENERATORS = {
    "distance": distance_ops,
    "decompose": decompose_ops,
    "bulk-io": bulk_ops,
}
