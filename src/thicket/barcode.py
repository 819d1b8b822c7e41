"""Graded barcodes on the real line.

A barcode is a finite multiset of (interval, cohomological degree) pairs over
a prime field; it is the canonical form of a formal direct sum of shifted
interval sheaves.  Intervals carry endpoint kinds (closed/open), infinite
endpoints are always open, and empty intervals are rejected at construction
so that degenerate inputs fail loudly.

The canonical order of bars is ``Bar.sort_key``: degree, then left end, left
end open, right end, right end open.  ``canonical_indices`` gives it as an
index order of bars.  It sorts stably on an order-isomorphic key, the ends
as ints in one frame (``scalars.int_frame``, or ends a caller has already
put in a frame), which compare much faster than Fractions.  Lists of fewer
than ``_KEY_MIN_BARS`` bars and frames past ``_KEY_BITS`` bits sort on
``Bar.sort_key`` itself, or on the ends in the identity frame of
``value_frame``, the Fractions themselves, which is the same key.
``GradedBarcode._sorted`` wraps bars that are already in this order.

The bulk transforms run in that frame and end in one finisher,
``rows_barcode``.  ``thicken.thicken``, ``dualize``,
``plmaps.pushforward_shriek`` and ``docio.parse`` each make rows (lo, lkind,
hi, rkind, degree) of frame values that are valid intervals, by a rule or by
a check on those values; ``rows_barcode`` orders the rows on the values and
reads each end back (``value_frame``'s read-back returns the Fraction a
value came from, or makes it once).  It and ``trusted_interval`` are the
only code that builds an ``Interval`` or a ``Bar`` without the checks of
``Interval.__post_init__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .fieldmath import check_char
from .scalars import (NEG_INF, POS_INF, FrameReader, check_extended,
                      format_extended, int_frame, is_finite)


class InvalidIntervalError(ValueError):
    pass


class CharacteristicMismatchError(ValueError):
    pass


class Kind(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"

    def __repr__(self):
        return self.name


CLOSED = Kind.CLOSED
OPEN = Kind.OPEN


@dataclass(frozen=True, slots=True)
class Interval:
    left: object
    lkind: Kind
    right: object
    rkind: Kind

    def __post_init__(self):
        left, right = self.left, self.right
        if type(left) is Fraction and type(right) is Fraction:
            lfin = rfin = True
        else:
            # ints become Fractions, infinities stay, anything else raises;
            # keyed on the type, since an int is finite to ``is_finite``
            left, right = check_extended(left), check_extended(right)
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)
            lfin, rfin = is_finite(left), is_finite(right)
        if not lfin and self.lkind is not OPEN:
            raise InvalidIntervalError(f"infinite endpoint must be open: {self}")
        if not rfin and self.rkind is not OPEN:
            raise InvalidIntervalError(f"infinite endpoint must be open: {self}")
        if lfin and rfin:
            # Denominators are positive, so left < right is one integer
            # comparison of the cross products.
            lhs = left.numerator * right.denominator
            rhs = right.numerator * left.denominator
            if lhs < rhs:
                return
            if lhs != rhs:
                raise InvalidIntervalError(f"empty interval: {self}")
            if self.lkind is not CLOSED or self.rkind is not CLOSED:
                raise InvalidIntervalError(f"empty degenerate interval: {self}")
        elif ((not lfin and left == POS_INF)
              or (not rfin and right == NEG_INF)):
            raise InvalidIntervalError(f"empty interval: {self}")

    # -- structure -----------------------------------------------------
    # __post_init__ rejects +inf on the left and -inf on the right as empty
    # intervals, so an infinite left end is -inf and an infinite right end
    # is +inf: the shape of an interval is decided by finiteness alone.
    @property
    def is_bounded(self) -> bool:
        return is_finite(self.left) and is_finite(self.right)

    @property
    def is_full_line(self) -> bool:
        return not is_finite(self.left) and not is_finite(self.right)

    @property
    def is_left_ray(self) -> bool:
        return not is_finite(self.left) and is_finite(self.right)

    @property
    def is_right_ray(self) -> bool:
        return is_finite(self.left) and not is_finite(self.right)

    @property
    def length(self):
        if self.is_bounded:
            return self.right - self.left
        return POS_INF

    def contains(self, t: Fraction) -> bool:
        if t < self.left or t > self.right:
            return False
        if t == self.left and self.lkind is OPEN:
            return False
        if t == self.right and self.rkind is OPEN:
            return False
        return True

    def sort_key(self):
        return (self.left, self.lkind is OPEN, self.right, self.rkind is OPEN)

    def __str__(self):
        lb = "[" if self.lkind is CLOSED else "("
        rb = "]" if self.rkind is CLOSED else ")"
        return f"{lb}{format_extended(self.left)}, {format_extended(self.right)}{rb}"


# The slot descriptors of Interval, which write past the frozen __setattr__.
_SET_ENDS = tuple(getattr(Interval, name).__set__
                  for name in ("left", "lkind", "right", "rkind"))


def trusted_interval(left, lkind, right, rkind) -> Interval:
    """The ``Interval`` of ends that are valid by construction, built
    without ``__post_init__``.  The ends must already be Fractions or
    infinities, read back by ``rows_barcode`` from a row of frame values
    that a rule or a check made a valid interval; its docstring says why
    the read-back keeps it valid."""
    iv = object.__new__(Interval)
    set_left, set_lkind, set_right, set_rkind = _SET_ENDS
    set_left(iv, left)
    set_lkind(iv, lkind)
    set_right(iv, right)
    set_rkind(iv, rkind)
    return iv


class FramedInterval(Interval):
    """An interval whose finite ends are ints in an integer frame
    (``scalars.int_frame``): the image of a checked ``Interval`` under
    x -> Mx for the frame's M > 0, which keeps the ends' order and kinds, so
    nothing is converted or checked again.  ``thicken.bar_rule`` maps one to
    another, and a framed interval never equals a checked one."""

    __slots__ = ()

    def __post_init__(self):
        pass


def closed(a, b) -> Interval:
    return Interval(Fraction(a), CLOSED, Fraction(b), CLOSED)


def open_iv(a, b) -> Interval:
    return Interval(Fraction(a), OPEN, Fraction(b), OPEN)


def half_open(a, b) -> Interval:          # [a, b)
    return Interval(Fraction(a), CLOSED, Fraction(b), OPEN)


def half_open_r(a, b) -> Interval:        # (a, b]
    return Interval(Fraction(a), OPEN, Fraction(b), CLOSED)


def singleton(a) -> Interval:
    return Interval(Fraction(a), CLOSED, Fraction(a), CLOSED)


def ray_right(a, kind: Kind = CLOSED) -> Interval:   # [a, +inf) or (a, +inf)
    return Interval(Fraction(a), kind, POS_INF, OPEN)


def ray_left(b, kind: Kind = CLOSED) -> Interval:    # (-inf, b] or (-inf, b)
    return Interval(NEG_INF, OPEN, Fraction(b), kind)


def full_line() -> Interval:
    return Interval(NEG_INF, OPEN, POS_INF, OPEN)


def intersect(a: Interval, b: Interval):
    """Intersection of two intervals, or None when empty."""
    left = max(a.left, b.left)
    right = min(a.right, b.right)
    if left > right:
        return None
    if is_finite(left):
        lkind = CLOSED if (a.contains(left) and b.contains(left)) else OPEN
    else:
        lkind = OPEN
    if is_finite(right):
        rkind = CLOSED if (a.contains(right) and b.contains(right)) else OPEN
    else:
        rkind = OPEN
    if left == right and (lkind is OPEN or rkind is OPEN):
        return None
    return Interval(left, lkind, right, rkind)


@dataclass(frozen=True, slots=True)
class Bar:
    iv: Interval
    degree: int

    def sort_key(self):
        return (self.degree,) + self.iv.sort_key()

    def __str__(self):
        return f"{self.iv} @deg {self.degree}"


# Bit length past which canonical_indices stops scaling ends to integers.
_KEY_BITS = 64
# Shorter lists sort faster on Bar.sort_key: building the integer keys costs
# more than their few Fraction comparisons (measured crossover: 11 bars in
# random order, about 20 already sorted).
_KEY_MIN_BARS = 16


def _as_is(x):
    return x


def value_frame(values, bars: int) -> tuple:
    """(values', back): ``values`` (the ends of ``bars`` bars, and any value
    a caller adds) in one frame that ``rows_barcode`` orders on, and the
    read-back of its values.  The frame is a ``scalars.int_frame``, read
    back by a ``scalars.FrameReader`` that returns each of ``values`` for
    its own frame value and makes any other Fraction once.  For fewer than
    ``_KEY_MIN_BARS`` bars or an M past ``_KEY_BITS`` bits it is the
    identity frame, the values themselves, and the read-back is the
    identity.  The rules on rows run alike in both (``scalars.is_finite``)."""
    frame = (int_frame(values, max_bits=_KEY_BITS)
             if bars >= _KEY_MIN_BARS else None)
    if frame is None:
        return values, _as_is
    m, ints = frame
    return ints, FrameReader(m, zip(ints, values)).__getitem__


def bar_frame(bars, *extra) -> tuple:
    """``value_frame`` of the ends of ``bars`` (left, right, bar by bar),
    then ``extra``."""
    values = [x for b in bars for x in (b.iv.left, b.iv.right)]
    values += extra
    return value_frame(values, len(bars))


def canonical_indices(bars, ends=None) -> list:
    """The stable index order of ``bars``; ``ends``, if given, are their
    ends (left, right, bar by bar) already in one frame (``bar_frame``)."""
    if ends is None and len(bars) >= _KEY_MIN_BARS:
        frame = int_frame([x for b in bars for x in (b.iv.left, b.iv.right)],
                          max_bits=_KEY_BITS)
        if frame is not None:
            ends = frame[1]
    if ends is None:
        keys = [b.sort_key() for b in bars]
    else:
        keys = [(b.degree, lo, b.iv.lkind is OPEN, hi, b.iv.rkind is OPEN)
                for b, lo, hi in zip(bars, ends[::2], ends[1::2])]
    return sorted(range(len(keys)), key=keys.__getitem__)


def canonical_order(bars: list) -> list:
    """The bars sorted by ``Bar.sort_key`` (``canonical_indices``)."""
    return [bars[i] for i in canonical_indices(bars)]


class GradedBarcode:
    """Canonically sorted multiset of bars over F_p (default p = 2)."""

    __slots__ = ("bars", "char")

    def __init__(self, bars=(), char: int = 2):
        check_char(char)
        items = list(bars)
        for b in items:
            if not isinstance(b, Bar):
                raise TypeError(f"not a Bar: {b!r}")
        self.bars, self.char = tuple(canonical_order(items)), char

    @classmethod
    def _sorted(cls, bars, char: int) -> "GradedBarcode":
        """Bars already in canonical order, over a checked F_char."""
        self = object.__new__(cls)
        self.bars, self.char = tuple(bars), char
        return self

    def __len__(self):
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __eq__(self, other):
        return (isinstance(other, GradedBarcode)
                and self.char == other.char and self.bars == other.bars)

    def __hash__(self):
        return hash((self.bars, self.char))

    def __repr__(self):
        inner = " + ".join(str(b) for b in self.bars) or "0"
        return f"<{inner} | F_{self.char}>"

    def direct_sum(self, other: "GradedBarcode") -> "GradedBarcode":
        if self.char != other.char:
            raise CharacteristicMismatchError("direct sum over different fields")
        return GradedBarcode(self.bars + other.bars, self.char)

    def shift(self, k: int) -> "GradedBarcode":
        """Degree shift: F[-k] adds k to every bar degree."""
        return self._sorted([Bar(b.iv, b.degree + k) for b in self.bars], self.char)

    def finite_endpoints(self):
        out = []
        for b in self.bars:
            for x in (b.iv.left, b.iv.right):
                if is_finite(x):
                    out.append(x)
        return out


def canonicalize(bars, char: int = 2) -> GradedBarcode:
    """Sorted canonical form; rejects invalid bars.  Idempotent."""
    return GradedBarcode(bars, char)


def iso_equal(f: GradedBarcode, g: GradedBarcode) -> bool:
    """Isomorphism test: canonical forms coincide."""
    if f.char != g.char:
        raise CharacteristicMismatchError(
            f"cannot compare barcodes over F_{f.char} and F_{g.char}")
    return f.bars == g.bars


# ---------------------------------------------------------------------------
# Derived global sections, degree-wise dimension tables.
#
# Per interval shape, the cohomology of a single interval sheaf k_I sits in
# one degree (or vanishes).  Values below were certified against the cellular
# section-complex oracle in the model module.

def _rgamma_offset(iv: Interval):
    """Degree offset of RGamma(R; k_I), or None when it vanishes."""
    lk, rk = iv.lkind, iv.rkind
    if is_finite(iv.left):
        if is_finite(iv.right):                # bounded: as compact support
            if lk is not rk:
                return None
            return 0 if lk is CLOSED else 1
        return 0 if lk is CLOSED else None     # right rays
    if is_finite(iv.right):                    # left rays
        return 0 if rk is CLOSED else None
    return 0                                   # the full line


def _rgamma_c_offset(iv: Interval):
    """Degree offset of compactly supported sections, or None.  An infinite
    end is open, so the kinds alone decide, rays and the line included."""
    lk = iv.lkind
    if lk is not iv.rkind:
        return None
    return 0 if lk is CLOSED else 1


def _accumulate(table, F: GradedBarcode):
    dims: dict[int, int] = {}
    for b in F.bars:
        off = table(b.iv)
        if off is not None:
            d = b.degree + off
            dims[d] = dims.get(d, 0) + 1
    return {d: n for d, n in sorted(dims.items()) if n}


def global_sections(F: GradedBarcode) -> dict[int, int]:
    """Degree-wise dimensions of derived global sections."""
    return _accumulate(_rgamma_offset, F)


def global_sections_c(F: GradedBarcode) -> dict[int, int]:
    """Degree-wise dimensions of compactly supported global sections."""
    return _accumulate(_rgamma_c_offset, F)


def rgamma_c_interval(iv: Interval) -> dict[int, int]:
    off = _rgamma_c_offset(iv)
    return {} if off is None else {off: 1}


def stalk_dims(F: GradedBarcode, t: Fraction) -> dict[int, int]:
    dims: dict[int, int] = {}
    for b in F.bars:
        if b.iv.contains(t):
            dims[b.degree] = dims.get(b.degree, 0) + 1
    return {d: n for d, n in sorted(dims.items()) if n}


def dims_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for d, n in b.items():
        out[d] = out.get(d, 0) + n
    return {d: n for d, n in sorted(out.items()) if n}


# ---------------------------------------------------------------------------
# Duality.

def dual_row(left, lk, right, rk, d) -> tuple:
    """Dual of a single shifted interval sheaf, as the row (left, lkind,
    right, rkind, degree): the ends stay.

    Finite endpoint kinds flip and the degree negates, except that a point
    bar is self-dual with a one-step degree shift (its dual is the point
    sheaf shifted by one, forced by the stalk computation of sections
    supported at the point).
    """
    # a point is closed at both ends; the kind tests skip most comparisons
    if lk is CLOSED and rk is CLOSED and left == right:
        return left, lk, right, rk, 1 - d
    # the module constants: a read off the Kind class costs about three
    # global reads
    if is_finite(left):
        lk = OPEN if lk is CLOSED else CLOSED
    if is_finite(right):
        rk = OPEN if rk is CLOSED else CLOSED
    return left, lk, right, rk, -d


def dualize_bar(b: Bar) -> Bar:
    """Dual of one bar (``dual_row``)."""
    iv = b.iv
    left, lk, right, rk, d = dual_row(iv.left, iv.lkind, iv.right, iv.rkind,
                                      b.degree)
    return Bar(Interval(left, lk, right, rk), d)


def dualize(F: GradedBarcode) -> GradedBarcode:
    """Dual of every bar (``dual_row``) on the rows of the ends' frame
    (``bar_frame``).  Dualizing keeps every end, so each one reads back to
    the input's own value."""
    values, back = bar_frame(F.bars)
    rows = [dual_row(left, b.iv.lkind, right, b.iv.rkind, b.degree)
            for b, left, right in zip(F.bars, values[::2], values[1::2])]
    return rows_barcode(rows, back, F.char)


# The slot descriptors of Bar, and the kinds by ``is OPEN``.
_SET_BAR = (Bar.iv.__set__, Bar.degree.__set__)
_KINDS = (CLOSED, OPEN)


def rows_barcode(rows, back, char: int) -> GradedBarcode:
    """The barcode over F_char of ``rows`` (lo, lkind, hi, rkind, degree):
    frame values (``value_frame``) that a rule or a check made valid
    intervals.  The rows are sorted on the canonical key of their values,
    which x -> x / M keeps for the M > 0 of an integer frame; equal keys
    are equal rows, so no index is needed to keep the sort stable.  Then
    each end is read back by ``back`` and each bar built without its
    checks: x -> x / M is strictly increasing, so it keeps lo < hi and
    lo == hi, and it fixes the infinities and every kind."""
    keys = sorted([(d, lo, lk is OPEN, hi, rk is OPEN)
                   for lo, lk, hi, rk, d in rows])
    new, (set_iv, set_degree), kinds = object.__new__, _SET_BAR, _KINDS
    bars = []
    for d, lo, lo_open, hi, hi_open in keys:
        b = new(Bar)
        set_iv(b, trusted_interval(back(lo), kinds[lo_open], back(hi),
                                   kinds[hi_open]))
        set_degree(b, d)
        bars.append(b)
    return GradedBarcode._sorted(bars, char)
