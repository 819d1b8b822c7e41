"""Piecewise-linear maps, proper pushforward of barcodes, and the stability
and Lipschitz experiment harness.

A ``PLMap`` derives one tuple when it is constructed, its slopes (left
tail, segments, right tail); an evaluation bisects the breakpoints and
interpolates from the one on its left.  The pushforward of a bar is the
levelset barcode of the map on the bar, which one pass over the map's
extrema along the bar reads off by a relative elder rule
(``_pushforward_bar``).  One call of ``pushforward_shriek`` scales the
map's breakpoints, values and pieces and the bars' finite ends once into
one integer frame (``_Frame``), so the elder rule bisects, evaluates and
compares ints; a value becomes a ``Fraction`` again only as the end of an
output bar.

The stability and Lipschitz experiments each make one
``interleave.check_interleaving`` call at their bound: a certificate (always
verified) is ``pass`` and a refuted shift ``fail``.  PL maps live on the
line, where the matching search decides every shift, so ``inconclusive``
means only an infinite sup distance.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                      canonical_indices, intersect)
from .interleave import InterleavingCertificate, check_interleaving
from .scalars import NEG_INF, POS_INF, int_frame, is_finite


class NonProperError(ValueError):
    pass


@dataclass(frozen=True)
class PLMap:
    """Continuous piecewise-linear map given by breakpoints and values.

    The domain is the whole line (default) or an interval.  On an unbounded
    side the map continues either constantly or affinely with the adjacent
    segment's slope.  The slopes, left tail first, then one per segment,
    then the right tail, are derived from the other fields at construction
    and take no part in equality or hashing.
    """
    xs: tuple
    ys: tuple
    left_ext: str = "affine"
    right_ext: str = "affine"
    domain: Interval | None = None
    _slopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = tuple(Fraction(x) for x in self.xs)
        ys = tuple(Fraction(y) for y in self.ys)
        if len(xs) != len(ys) or not xs:
            raise ValueError("breakpoints and values must match and be nonempty")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must increase strictly")
        if self.left_ext not in ("affine", "constant") or \
           self.right_ext not in ("affine", "constant"):
            raise ValueError("extension must be 'affine' or 'constant'")
        if self.domain is not None:
            if xs[0] < self.domain.left or xs[-1] > self.domain.right:
                raise ValueError("breakpoints leave the domain")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        slopes = [(y2 - y1) / (x2 - x1)
                  for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])]
        left = slopes[0] if slopes and self.left_ext == "affine" else Fraction(0)
        right = slopes[-1] if slopes and self.right_ext == "affine" else Fraction(0)
        object.__setattr__(self, "_slopes", (left, *slopes, right))

    @property
    def left_slope(self) -> Fraction:
        return self._slopes[0]

    @property
    def right_slope(self) -> Fraction:
        return self._slopes[-1]

    def pieces(self) -> tuple:
        """Affine pieces (lo, hi, slope, intercept) over the whole line: the
        left tail, one per segment, then the right tail.  On a domain the
        map is their restriction."""
        xs, ys = self.xs, self.ys
        anchors = ((xs[0], ys[0]),) + tuple(zip(xs, ys))
        return tuple((lo, hi, s, y - s * x) for lo, hi, s, (x, y)
                     in zip((NEG_INF,) + xs, xs + (POS_INF,), self._slopes,
                            anchors))

    def value(self, x) -> Fraction:
        """f(x), interpolated from the last breakpoint at or left of x (the
        first one, for x left of every breakpoint).  The check is against
        the domain's closure, so at an open domain end this is the limit
        value, which ``sup_distance`` reads there."""
        if not is_finite(x):
            x = Fraction(x)
        if self.domain is not None and not (self.domain.left <= x <= self.domain.right):
            raise ValueError(f"{x} lies outside the domain {self.domain}")
        k = bisect_right(self.xs, x)
        j = max(k - 1, 0)
        return self.ys[j] + self._slopes[k] * (x - self.xs[j])


def identity_map() -> PLMap:
    return PLMap((0, 1), (0, 1))


def constant_map(c) -> PLMap:
    return PLMap((0,), (c,), "constant", "constant")


def abs_map() -> PLMap:
    return PLMap((-1, 0, 1), (1, 0, 1))


def scale_map(r) -> PLMap:
    r = Fraction(r)
    return PLMap((0, 1), (0, r))


def translate_map(c) -> PLMap:
    c = Fraction(c)
    return PLMap((0, 1), (c, 1 + c))


def offset_map(f: PLMap, c) -> PLMap:
    c = Fraction(c)
    return PLMap(f.xs, tuple(y + c for y in f.ys), f.left_ext, f.right_ext,
                 f.domain)


def compose_pl(g: PLMap, f: PLMap) -> PLMap:
    """g after f, with breakpoints refined by preimages of g's breakpoints,
    found on each of f's pieces from its slope."""
    if f.domain is not None or g.domain is not None:
        raise ValueError("composition is implemented for whole-line maps")
    bps = set(f.xs)
    n = len(f.xs)
    for k, s in enumerate(f._slopes):
        if s == 0:
            continue
        j = max(k - 1, 0)
        for c in g.xs:
            x = f.xs[j] + (c - f.ys[j]) / s
            if (k == 0 or f.xs[k - 1] <= x) and (k == n or x <= f.xs[k]):
                bps.add(x)
    xs = sorted(bps)
    if len(xs) == 1:
        xs.append(xs[0] + 1)
    # tail slopes of the composite decide the extension flags
    lslope = f.left_slope * (g.left_slope if f.left_slope > 0 else g.right_slope)
    rslope = f.right_slope * (g.right_slope if f.right_slope > 0 else g.left_slope)
    ys = [g.value(f.value(x)) for x in xs]
    return PLMap(tuple(xs), tuple(ys),
                 "constant" if lslope == 0 else "affine",
                 "constant" if rslope == 0 else "affine")


def sup_distance(f: PLMap, g: PLMap):
    """Exact supremum of |f - g| over the common domain; attained at a
    breakpoint or domain endpoint, +inf when unbounded tails diverge."""
    if f.domain != g.domain:
        raise ValueError("sup distance requires a common domain")
    candidates = set(f.xs) | set(g.xs)
    if f.domain is None:
        if f.left_slope != g.left_slope or f.right_slope != g.right_slope:
            return POS_INF
    else:
        candidates = {x for x in candidates
                      if f.domain.left <= x <= f.domain.right}
        for e in (f.domain.left, f.domain.right):
            if is_finite(e):
                candidates.add(e)
        if not is_finite(f.domain.left) and f.left_slope != g.left_slope:
            return POS_INF
        if not is_finite(f.domain.right) and f.right_slope != g.right_slope:
            return POS_INF
    best = Fraction(0)
    for x in sorted(candidates):
        best = max(best, abs(f.value(x) - g.value(x)))
    return best


def lipschitz_constant(f: PLMap) -> Fraction:
    return max(abs(s) for s in f._slopes)


# ---------------------------------------------------------------------------
# Proper pushforward.

def _check_proper(f: PLMap, iv: Interval):
    if f.domain is not None:
        if intersect(f.domain, iv) != iv:
            raise ValueError(f"bar support {iv} leaves the map domain {f.domain}")
        if is_finite(f.domain.left) and is_finite(f.domain.right):
            return
    if not is_finite(iv.left) and f.left_slope == 0:
        raise NonProperError(f"constant tail over the unbounded bar {iv}")
    if not is_finite(iv.right) and f.right_slope == 0:
        raise NonProperError(f"constant tail over the unbounded bar {iv}")


class _Frame:
    """One call's integer frame: f and the ends of its bars scaled to ints,
    so that the elder rule evaluates and compares ints.

    An x becomes X = x Lx, where Lx is the lcm of the denominators of f's
    breakpoints and of the bar ends, all scaled in one ``scalars.int_frame``
    call; bar k's ends are kept as ``ends[2k]``, ``ends[2k + 1]``.  A value
    y becomes V = y Ly D, where Ly is the lcm of the values' denominators
    and D that of the piece widths in Lx units, so every piece, the tails
    included, is V = A X + B with int A and B; ``lines[k]`` is the piece
    left of breakpoint k and ``lines[n]`` the right tail.  The pieces are
    the whole line's: ``_check_proper`` has kept every bar inside a domain,
    where f agrees with them.  The float infinities stand for themselves,
    and Python ints keep the frame exact at any size."""

    __slots__ = ("lx", "xs", "ends", "vs", "lines", "scale", "_back")

    def __init__(self, f: PLMap, bars):
        ends = [e for b in bars for e in (b.iv.left, b.iv.right)]
        self.lx, ints = int_frame([*f.xs, *ends])
        xs, self.ends = ints[:len(f.xs)], ints[len(f.xs):]
        ly, ws = int_frame(f.ys)
        d = lcm(*{x1 - x0 for x0, x1 in zip(xs, xs[1:])})
        vs = [w * d for w in ws]
        segments = []
        for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
            a = (v1 - v0) // (x1 - x0)
            segments.append((a, v0 - a * x0))
        left = segments[0] if segments and f.left_ext == "affine" else (0, vs[0])
        right = segments[-1] if segments and f.right_ext == "affine" else (0, vs[-1])
        self.xs, self.vs = xs, vs
        self.lines = [left] + segments + [right]
        self.scale = ly * d
        # a breakpoint value maps back to the map's own value
        self._back = dict(zip(vs, f.ys))
        self._back[NEG_INF], self._back[POS_INF] = NEG_INF, POS_INF

    def end(self, x: int) -> tuple:
        """(V at the finite end X = x, index of the first breakpoint past
        it, index of the first at or past it), so that the breakpoints
        strictly inside a bar are one slice."""
        at = bisect_left(self.xs, x)
        if at < len(self.xs) and self.xs[at] == x:
            return self.vs[at], at + 1, at
        a, b = self.lines[at]
        return a * x + b, at, at

    def fraction(self, v):
        """The extended rational that the frame value v stands for."""
        q = self._back.get(v)
        if q is None:
            q = self._back[v] = Fraction(v, self.scale)
        return q


def _extrema(frame: _Frame, k: int, iv: Interval) -> list:
    """(value, attained) of f at the ends of bar k, on iv, and at the
    breakpoints strictly inside it, in the call's frame, with runs of equal
    value merged (attained only if every vertex of the run is) and the
    vertices f passes monotonically dropped.  An infinite end takes the
    limit of the tail and is not attained; a finite end is attained when
    the bar is closed there."""
    if is_finite(iv.left):
        value, first, _ = frame.end(frame.ends[2 * k])
        left = (value, iv.lkind is CLOSED)
    else:
        left = (NEG_INF if frame.lines[0][0] > 0 else POS_INF, False)
        first = 0
    if is_finite(iv.right):
        value, _, stop = frame.end(frame.ends[2 * k + 1])
        right = (value, iv.rkind is CLOSED)
    else:
        right = (POS_INF if frame.lines[-1][0] > 0 else NEG_INF, False)
        stop = len(frame.xs)
    runs = [left]
    for value, attained in [(v, True) for v in frame.vs[first:stop]] + [right]:
        if runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] and attained)
        else:
            runs.append((value, attained))
    verts = runs[:1]
    for prev, (value, attained), nxt in zip(runs, runs[1:], runs[2:]):
        if (prev[0] < value) != (value < nxt[0]):
            verts.append((value, attained))
    if len(runs) > 1:
        verts.append(runs[-1])
    return verts


def _deaths(verts: list, order: list) -> list:
    """(birth, death) values of one elder-rule sweep over the path of
    extrema, visited in ``order``.  An attained vertex with no visited
    neighbour starts a component; an unattained one (an end that f
    approaches) belongs to the ground, which is older than every component.
    Where components meet, all but the eldest die.  Parents and ages are
    lists indexed by vertex, the ground last; -1 marks a vertex not yet
    visited."""
    ground = len(verts)
    parent = [-1] * ground + [ground]
    age = [0] * ground + [-1]
    out = []
    for step, i in enumerate(order):
        here, attained = verts[i]
        met = []
        for j in (i - 1, i + 1):
            if 0 <= j < ground and parent[j] >= 0:
                while parent[j] != j:
                    j = parent[j]
                if j not in met:
                    met.append(j)
        if not attained and ground not in met:
            met.append(ground)
        if not met:
            parent[i], age[i] = i, step
            continue
        eldest = min(met, key=age.__getitem__)
        for r in met:
            if r != eldest:
                parent[r] = eldest
                out.append((verts[r][0], here))
        parent[i] = eldest
    return out


def _pushforward_bar(frame: _Frame, k: int, bar: Bar) -> list[tuple]:
    """Proper pushforward of bar k: the levelset barcode of f on the bar,
    which is its extended persistence (Carlsson-de Silva-Morozov, *Zigzag
    persistent homology and real-valued functions*, SoCG 2009;
    Cohen-Steiner-Edelsbrunner-Harer, *Extending persistence using Poincare
    and Lefschetz duality*, FoCM 2009), read off f's extrema along the bar.

    A constant f gives the point [v, v] in degree d when v is attained, in
    degree d + 1 over an open bar, and nothing otherwise.  Else the
    sublevel sweep gives [birth, death), the superlevel sweep (death,
    birth], and the essential class is [min, max] when both ends are
    attained, (min, max) when neither is, and nothing when one is.  The
    sweeps run in the call's frame, and each output bar is one row
    (lo, lkind, hi, rkind, degree) of frame values."""
    iv, d = bar.iv, bar.degree
    verts = _extrema(frame, k, iv)
    if len(verts) == 1:
        v, attained = verts[0]
        if attained:
            return [(v, CLOSED, v, CLOSED, d)]
        if iv.lkind is OPEN and iv.rkind is OPEN:
            return [(v, CLOSED, v, CLOSED, d + 1)]
        return []
    rising = sorted(range(len(verts)), key=lambda i: verts[i][0])
    out = [(b, CLOSED, h, OPEN, d) for b, h in _deaths(verts, rising)]
    out += [(h, OPEN, b, CLOSED, d) for b, h in _deaths(verts, rising[::-1])]
    lo, hi = verts[rising[0]][0], verts[rising[-1]][0]
    ends = (verts[0][1], verts[-1][1])
    if ends == (True, True):
        out.append((lo, CLOSED, hi, CLOSED, d))
    elif ends == (False, False):
        out.append((lo, OPEN, hi, OPEN, d))
    return out


def pushforward_shriek(f: PLMap, F: GradedBarcode) -> GradedBarcode:
    """Proper pushforward along a PL map, assembled per bar and per degree.
    Every bar is checked first, in canonical order, so the first bar that
    is not proper or leaves the domain names the error.  Then f and the
    bar ends are scaled once into one integer frame (``_Frame``), which
    every bar reads.  The output is ordered on its frame values and each
    value becomes a rational once, as the end of an output bar."""
    for b in F.bars:
        _check_proper(f, b.iv)
    frame = _Frame(f, F.bars)
    rows = [r for k, b in enumerate(F.bars) for r in _pushforward_bar(frame, k, b)]
    q = frame.fraction
    bars = [Bar(Interval(q(lo), lk, q(hi), rk), d) for lo, lk, hi, rk, d in rows]
    order = canonical_indices(bars, [v for r in rows for v in (r[0], r[2])])
    return GradedBarcode._sorted([bars[i] for i in order], F.char)


# ---------------------------------------------------------------------------
# Experiments.

@dataclass
class ExperimentReport:
    inputs: dict
    bound: object
    certificate: InterleavingCertificate | None
    verdict: str                 # 'pass' | 'fail' | 'inconclusive'
    micros: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _report(inputs, bound, F, G, t0) -> ExperimentReport:
    """The report of one interleaving search of (F, G) at ``bound``."""
    cert = check_interleaving(F, G, bound)
    return ExperimentReport(inputs, bound, cert,
                            "fail" if cert is None else "pass", _micros(t0))


def stability_experiment(f: PLMap, g: PLMap,
                         F: GradedBarcode) -> ExperimentReport:
    """Push F along f and g and certify an interleaving at the sup distance."""
    t0 = time.perf_counter()
    a = sup_distance(f, g)
    inputs = {"f": f, "g": g, "F": F, "a": a}
    if not is_finite(a):
        return ExperimentReport(inputs, a, None, "inconclusive",
                                _micros(t0))
    return _report(inputs, a, pushforward_shriek(f, F), pushforward_shriek(g, F),
                   t0)


def lipschitz_experiment(f: PLMap, F1: GradedBarcode, F2: GradedBarcode,
                         a) -> ExperimentReport:
    """Given an a-interleaving of (F1, F2), certify a (delta a)-interleaving
    of the pushforwards, where delta is the Lipschitz constant of f.  The
    shift a must be nonnegative: delta may be 0, and then delta a would
    hide its sign."""
    t0 = time.perf_counter()
    a = Fraction(a)
    if a < 0:
        raise ValueError("interleaving shift must be nonnegative")
    delta = lipschitz_constant(f)
    inputs = {"f": f, "F1": F1, "F2": F2, "a": a, "delta": delta}
    return _report(inputs, delta * a, pushforward_shriek(f, F1),
                   pushforward_shriek(f, F2), t0)


def _micros(t0) -> int:
    return int((time.perf_counter() - t0) * 1_000_000)
