"""Seeded random generators for test corpora and CLI suites.

Everything is driven by random.Random(seed) so suite outputs are
reproducible byte-for-byte given the same seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval, full_line,
                      singleton)
from .circle import CircleSheaf
from .fieldmath import inverse
from .plmaps import PLMap
from .scalars import NEG_INF, POS_INF

DENOMS = (1, 2, 4, 8, 16)


def rand_fraction(rng: random.Random, lo=-4, hi=4, denoms=DENOMS) -> Fraction:
    d = rng.choice(denoms)
    return Fraction(rng.randint(int(lo * d), int(hi * d)), d)


def rand_interval(rng: random.Random, lo=-4, hi=4, allow_unbounded=True) -> Interval:
    shapes = ["closed", "open", "ho", "oh", "point"]
    if allow_unbounded:
        shapes += ["rayr", "rayl", "line"]
    shape = rng.choice(shapes)
    if shape == "line":
        return full_line()
    if shape == "point":
        return singleton(rand_fraction(rng, lo, hi))
    if shape in ("rayr", "rayl"):
        x = rand_fraction(rng, lo, hi)
        kind = rng.choice((CLOSED, OPEN))
        if shape == "rayr":
            return Interval(x, kind, POS_INF, OPEN)
        return Interval(NEG_INF, OPEN, x, kind)
    a = rand_fraction(rng, lo, hi)
    b = rand_fraction(rng, lo, hi)
    if a == b:
        return singleton(a)
    a, b = min(a, b), max(a, b)
    kinds = {"closed": (CLOSED, CLOSED), "open": (OPEN, OPEN),
             "ho": (CLOSED, OPEN), "oh": (OPEN, CLOSED)}[shape]
    return Interval(a, kinds[0], b, kinds[1])


def rand_bar(rng: random.Random, degrees=(-1, 0, 1, 2), **kw) -> Bar:
    return Bar(rand_interval(rng, **kw), rng.choice(degrees))


def rand_barcode(rng: random.Random, max_bars=6, char=2, **kw) -> GradedBarcode:
    n = rng.randint(0, max_bars)
    return GradedBarcode([rand_bar(rng, **kw) for _ in range(n)], char)


def rand_bounded_barcode(rng: random.Random, max_bars=4, char=2,
                         lo=-3, hi=3) -> GradedBarcode:
    n = rng.randint(1, max_bars)
    return GradedBarcode(
        [rand_bar(rng, degrees=(0, 1), lo=lo, hi=hi, allow_unbounded=False)
         for _ in range(n)], char)


def rand_shift(rng: random.Random, lo=0, hi=4) -> Fraction:
    return rand_fraction(rng, lo, hi)


def rand_circle_sheaf(rng: random.Random, C=4, max_spirals=3, with_bands=False,
                      char=2) -> CircleSheaf:
    C = Fraction(C)
    spirals = []
    for _ in range(rng.randint(0, max_spirals)):
        left = rand_fraction(rng, 0, float(C), denoms=(1, 2, 4, 8))
        length = rand_fraction(rng, 0, float(C) / 4, denoms=(2, 4, 8))
        deg = rng.choice((0, 1))
        if length == 0:
            spirals.append(Bar(singleton(left), deg))
            continue
        kinds = rng.choice(((CLOSED, CLOSED), (OPEN, OPEN),
                            (CLOSED, OPEN), (OPEN, CLOSED)))
        spirals.append(Bar(Interval(left, kinds[0], left + length, kinds[1]), deg))
    bands = []
    if with_bands and rng.random() < 0.5:
        rank = rng.randint(1, 2)
        mono = _rand_invertible(rng, rank, char)
        bands.append((rank, mono, rng.choice((0, 1))))
    return CircleSheaf(C, spirals, bands, char)


def _rand_invertible(rng: random.Random, n: int, p: int):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if inverse(m, p) is not None:
            return m


def rand_plmap(rng: random.Random, max_breaks=4, lo=-3, hi=3,
               match_tails_with: PLMap | None = None) -> PLMap:
    k = rng.randint(1, max_breaks)
    xs = sorted({rand_fraction(rng, lo, hi, denoms=(1, 2, 4)) for _ in range(k)})
    if not xs:
        xs = [Fraction(0)]
    ys = [rand_fraction(rng, lo, hi, denoms=(1, 2, 4)) for _ in xs]
    if match_tails_with is None:
        exts = [rng.choice(("affine", "constant")) for _ in range(2)]
        return PLMap(tuple(xs), tuple(ys), exts[0], exts[1])
    # same breakpoints and tail slopes as the reference, bounded offsets
    ref = match_tails_with
    offs = rand_fraction(rng, -2, 2, denoms=(2, 4, 8))
    ys = tuple(ref.value(x) + offs for x in ref.xs)
    return PLMap(ref.xs, ys, ref.left_ext, ref.right_ext)


def grid_bar_pool(char=2):
    """All bars with endpoints in {0, 1/2, ..., 4} and degrees in {0, 1}."""
    vals = [Fraction(i, 2) for i in range(9)]
    pool = []
    ivs = []
    for v in vals:
        ivs.append(singleton(v))
        ivs.append(Interval(v, CLOSED, POS_INF, OPEN))
        ivs.append(Interval(v, OPEN, POS_INF, OPEN))
        ivs.append(Interval(NEG_INF, OPEN, v, CLOSED))
        ivs.append(Interval(NEG_INF, OPEN, v, OPEN))
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            for kinds in ((CLOSED, CLOSED), (OPEN, OPEN), (CLOSED, OPEN),
                          (OPEN, CLOSED)):
                ivs.append(Interval(a, kinds[0], b, kinds[1]))
    ivs.append(full_line())
    for iv in ivs:
        for d in (0, 1):
            pool.append(Bar(iv, d))
    return pool


def sample_grid_barcode(rng: random.Random, pool, max_bars=3, char=2) -> GradedBarcode:
    n = rng.randint(0, max_bars)
    return GradedBarcode([rng.choice(pool) for _ in range(n)], char)
