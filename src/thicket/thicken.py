"""Bi-thickening of graded barcodes on the real line.

For a >= 0 the thickening convolves with the closed ball of radius a; for
a < 0 it is the open-ball convolution twisted by the shift [1].  Both are
realized by closed-form per-bar rules, whose one home is ``rule_row``:
``bar_rule`` runs it on one bar, and ``thicken`` on the rows of a whole
barcode in one integer frame.  The tests certify the rules against
a stalk oracle (compactly supported sections of ball/bar intersections,
kept with the tests) and against the independent Minkowski-fiber
convolution route below (``convolution_ball``), which the CLI
``convolution`` suite also runs.
"""

from __future__ import annotations

from fractions import Fraction

from .barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval, bar_frame,
                      intersect, rgamma_c_interval, rows_barcode)
from .scalars import NEG_INF, POS_INF, is_finite


def rule_row(left, lkind, right, rkind, d, a) -> tuple:
    """The bar rule: the row (left, lkind, right, rkind, degree) of one bar
    thickened by the signed amount ``a``.  The finite ends and ``a`` are
    Fractions, or ints of one integer frame (``barcode.bar_frame``,
    ``barcode.FramedInterval``), and the output row is in the same frame."""
    # the shape is read off finiteness, as in the Interval predicates
    if not is_finite(left):
        if not is_finite(right):               # the full line
            return left, lkind, right, rkind, d
        if rkind is CLOSED:                    # left rays
            return NEG_INF, OPEN, right + a, CLOSED, d
        return NEG_INF, OPEN, right - a, OPEN, d
    if not is_finite(right):                   # right rays
        if lkind is CLOSED:
            return left - a, CLOSED, POS_INF, OPEN, d
        return left + a, OPEN, POS_INF, OPEN, d
    # bounded from here on
    if lkind is CLOSED and rkind is OPEN:
        return left - a, CLOSED, right - a, OPEN, d
    if lkind is OPEN and rkind is CLOSED:
        return left + a, OPEN, right + a, CLOSED, d
    if lkind is CLOSED:                        # closed, including points
        lo, hi = left - a, right + a
        # lo <= hi is 2a >= -length: the bar grows, or shrinks at most to a
        # point; past that it turns into the open gap one degree down
        if lo <= hi:
            return lo, CLOSED, hi, CLOSED, d
        return hi, OPEN, lo, OPEN, d - 1
    # open bounded
    lo, hi = left + a, right - a
    # lo < hi is 2a < length: the bar stays open; from there on it is the
    # closed overlap one degree up
    if lo < hi:
        return lo, OPEN, hi, OPEN, d
    return hi, CLOSED, lo, CLOSED, d + 1


def bar_rule(b: Bar, a: Fraction) -> Bar:
    """Thicken one bar by the signed amount ``a`` (``rule_row``): a
    Fraction, or an int for a bar in an integer frame
    (``barcode.FramedInterval``), which thickens into another there."""
    iv = b.iv
    left, lkind, right, rkind, d = rule_row(iv.left, iv.lkind, iv.right,
                                            iv.rkind, b.degree, a)
    return Bar(type(iv)(left, lkind, right, rkind), d)


# ---------------------------------------------------------------------------
# Interleaving costs of single bars on the line, case by case as in
# ``bar_rule``.  By the derived isometry theorem (Berkouk-Ginot, A derived
# isometry theorem for sheaves, arXiv:1907.09759) the convolution distance
# on R is the graded bottleneck distance over these costs: the cost of a
# pair (f, g) is min(direct_cost, max(kill_cost(f), kill_cost(g))), the
# second term being both bars sent to zero.

def kill_cost(b: Bar):
    """The least a at which the canonical restriction T_2a b -> b vanishes
    (``halfopen_translation_kills`` at 2a): half the length of a bounded
    half-open bar, +inf for every other bar.  In an integer frame the length
    is an int, made even by the frame's factor 4 (``interleave._framed``),
    so ``//`` halves it exactly and no float enters the frame."""
    iv = b.iv
    if iv.is_bounded and iv.lkind is not iv.rkind:
        length = iv.length
        return length // 2 if type(length) is int else length / 2
    return POS_INF


def cost_form(b: Bar):
    """(class, ends) of a bar: two bars are a-interleaved for some finite a
    as a pair exactly when their classes agree, and the least such a is the
    largest difference of their ends.  An open bar (l, r) in degree d is the
    closed bar that ``bar_rule`` turns it into past half its length, read
    backwards: (r, l) in degree d + 1, in the class of the closed bars."""
    iv, d = b.iv, b.degree
    if not is_finite(iv.left):
        if not is_finite(iv.right):
            return ("line", d), ()
        return ("left ray", iv.rkind, d), (iv.right,)
    if not is_finite(iv.right):
        return ("right ray", iv.lkind, d), (iv.left,)
    if iv.lkind is not iv.rkind:
        return ("half-open", iv.lkind, d), (iv.left, iv.right)
    if iv.lkind is CLOSED:
        return ("bounded", d), (iv.left, iv.right)
    return ("bounded", d + 1), (iv.right, iv.left)


def direct_cost(form_f, form_g):
    """The least a at which two bars, given by their ``cost_form``s, are
    a-interleaved as a matched pair: +inf when their classes differ, and 0
    for two full lines."""
    (kf, ef), (kg, eg) = form_f, form_g
    if kf != kg:
        return POS_INF
    return max((abs(x - y) for x, y in zip(ef, eg)), default=0)


def deck_cost(form_f, form_g, C):
    """The least ``direct_cost`` of ``form_f`` against the deck copies
    g + nC of ``form_g``, for two lifts on the circle R/CZ.  The max of the
    |x - y - nC| is convex in n, so its least value is at some n between
    the floors and the ceilings of the (x - y)/C, read with ``//`` on
    Fractions and in an integer frame alike.  That this is the circle's pair
    cost is a conjecture (no circle isometry theorem is cited here):
    ``interleave`` reads it to choose the circle matching's candidate pairs
    and the place to start its search, and certifies or refutes every answer
    without it."""
    kg, eg = form_g
    diffs = [x - y for x, y in zip(form_f[1], eg)]
    ns = range(min((d // C for d in diffs), default=0),
               -min((-d // C for d in diffs), default=0) + 1)
    return min(direct_cost(form_f, (kg, tuple(y + n * C for y in eg)))
               for n in ns)


def thicken(F: GradedBarcode, a) -> GradedBarcode:
    """Thicken every bar by the signed rational ``a``, in one frame of F's
    ends and ``a`` (``barcode.bar_frame``): ``rule_row`` runs on the frame
    values of each bar, and ``barcode.rows_barcode`` orders the rows on
    those values and reads each output end back.  The rule builds valid
    intervals, so none is checked again."""
    values, back = bar_frame(F.bars, Fraction(a))
    a = values.pop()
    rows = [rule_row(left, b.iv.lkind, right, b.iv.rkind, b.degree, a)
            for b, left, right in zip(F.bars, values[::2], values[1::2])]
    return rows_barcode(rows, back, F.char)


# ---------------------------------------------------------------------------
# Independent convolution route: convolve with the closed ball [-a, a] by
# Minkowski-fiber analysis and reassemble the output bars from exact samples.

def _ball(t: Fraction, a: Fraction, kind) -> Interval:
    return Interval(t - a, kind, t + a, kind)


def _fiber_dims(iv: Interval, a: Fraction, t: Fraction) -> dict[int, int]:
    inter = intersect(_ball(t, a, CLOSED), iv)
    if inter is None:
        return {}
    return rgamma_c_interval(inter)


def _support_from_samples(samples, offset: int):
    """Samples: ordered list of (tag, t_or_None, dims).  Reconstructs the
    interval where the given degree offset is populated."""
    flags = [dims.get(offset, 0) for _, _, dims in samples]
    if not any(flags):
        return None
    first = flags.index(1)
    last = len(flags) - 1 - flags[::-1].index(1)
    if 0 in flags[first:last + 1]:
        raise AssertionError("fiber support not contiguous")
    tag_f, t_f, _ = samples[first]
    tag_l, t_l, _ = samples[last]
    if tag_f == "low":
        left, lkind = NEG_INF, OPEN
    elif tag_f == "cand":
        left, lkind = t_f, CLOSED
    else:                                   # midpoint: opens at previous candidate
        left, lkind = samples[first - 1][1], OPEN
    if tag_l == "high":
        right, rkind = POS_INF, OPEN
    elif tag_l == "cand":
        right, rkind = t_l, CLOSED
    else:
        right, rkind = samples[last + 1][1], OPEN
    return Interval(left, lkind, right, rkind)


def convolution_ball(F: GradedBarcode, a) -> GradedBarcode:
    """Convolution with the closed ball of radius a >= 0, reconstructed from
    exact fiber samples; independent of the rule table."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("convolution_ball requires a >= 0")
    out = []
    for b in F.bars:
        cands = sorted({e + s * a for e in (b.iv.left, b.iv.right) if is_finite(e)
                        for s in (Fraction(-1), Fraction(1))})
        samples = []
        if cands:
            samples.append(("low", None, _fiber_dims(b.iv, a, cands[0] - 1)))
            for i, c in enumerate(cands):
                samples.append(("cand", c, _fiber_dims(b.iv, a, c)))
                if i + 1 < len(cands):
                    mid = (c + cands[i + 1]) / 2
                    samples.append(("mid", mid, _fiber_dims(b.iv, a, mid)))
            samples.append(("high", None, _fiber_dims(b.iv, a, cands[-1] + 1)))
        else:
            samples.append(("low", None, _fiber_dims(b.iv, a, Fraction(0))))
            samples.append(("high", None, _fiber_dims(b.iv, a, Fraction(0))))
        for off in (0, 1):
            sup = _support_from_samples(samples, off)
            if sup is not None:
                out.append(Bar(sup, b.degree + off))
    return GradedBarcode(out, F.char)


# ---------------------------------------------------------------------------
# Transition bookkeeping used by the restriction-morphism construction.

def halfopen_translation_kills(iv: Interval, alpha: Fraction, beta: Fraction) -> bool:
    """A half-open bar dies under the canonical restriction when the two
    translates no longer overlap."""
    is_halfopen = iv.is_bounded and iv.lkind is not iv.rkind
    return is_halfopen and (beta - alpha) >= iv.length
