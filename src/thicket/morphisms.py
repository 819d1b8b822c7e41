"""Morphisms between graded barcodes.

A morphism is a block matrix keyed by (source index, target index) where
each block is a scalar multiple of the canonical generator of the
corresponding Hom space.  A block's kind is a function of its two bars:
degree preserving is Hom^0 ('h'), degree dropping by one is Ext^1 ('e',
extension classes), and any other degree offset carries no block.  The
kinds are named in this module only.  Every caller asks the two bar-level
questions: ``block_dim``, the dimension of a block, and ``block_scalar``,
the composite scalar of two blocks.  Both read the kind off the degrees
and call the interval-level ``space_dim`` and ``struct_scalar``.

Every Hom computation and every morphism lives in a space, named by one
value: ``LINE``, or ``("circle", C)`` for the circle R/CZ.  The space fixes
how a bar is put into normal form (``normal_form``: the identity on the
line, the lift starting in [0, C) on the circle), so thickening, thickened
morphisms and restrictions read it from ``space`` alone.

One calculus reads Hom and Ext on both spaces, from closed-form rules of
endpoint order and kind, with nothing memoized.  On the circle R/CZ a
spiral is the pushforward p_!(k_I) of a bounded lift along the covering
map p.  Since p_! is left adjoint to p^{-1} and p^{-1} p_! k_J is the sum
of the deck copies k_{J + nC},

    RHom(p_! k_I, p_! k_J) = (+)_n RHom(k_I, k_{J + nC}),

a finite sum of line spaces, and a composite of blocks on copies n and m
lies on copy n + m.  The line is the one-copy case, n = 0.  ``_copies``
reads the copies of a pair from the line rules (``_line_pair``), and
``space_dim``, ``struct_scalar`` and ``hom_dim`` read it.  A block carries
one scalar, so a space is supported only when its dimension summed over
the copies is at most one; beyond that ``UnsupportedHomError`` is raised.

The finite quiver model is the oracle of both spaces, in the tests
(``tests/oracles.py``): it normalizes the Ext generator of a pair once on
the pair's model (``PairData``, here), keeps it as an edge vector and
carries it onto the model of each triple (``build_model``, ``bar_rep``);
on the line its results depend on the order type alone (``shape_key``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fieldmath as fm
from .barcode import CLOSED, OPEN, Bar, GradedBarcode, Interval, canonical_indices
from .model import (CircleModel, LineModel, Rep, RepPair, circle_spiral_rep,
                    connecting_pairing, line_bar_rep)
from .scalars import NEG_INF, POS_INF, int_frame, is_finite
from .thicken import bar_rule, halfopen_translation_kills

LINE = "line"


class UnsupportedHomError(ValueError):
    """Raised when a Hom space falls outside the supported (dim <= 1) regime:
    on the circle, dimension counted over all deck copies."""


# ---------------------------------------------------------------------------
# Models, shape keys and pair data.  Only the quiver oracle of the tests
# runs ``build_model``, ``bar_rep``, ``shape_key``, ``PairData`` and
# ``pair_data``; they stay here while the benchmark's tracer
# (bench/layers.py) wraps or counts them by name.

def _finite_endpoints(ivs):
    out = set()
    for iv in ivs:
        for x in (iv.left, iv.right):
            if is_finite(x):
                out.add(x)
    return out


def build_model(space, ivs):
    pts = _finite_endpoints(ivs)
    if space == LINE:
        return LineModel(pts)
    _, C = space
    return CircleModel(C, pts if pts else [Fraction(0)])


def bar_rep(space, model, iv: Interval, p: int) -> Rep:
    if space == LINE:
        return line_bar_rep(model, iv, p)
    return circle_spiral_rep(model, iv, p)


def shape_key(ivs) -> tuple:
    """Order-type key of an interval tuple: two ints per interval.

    A finite end is ``2 * rank + open``, its rank taken among the distinct
    finite ends of the tuple as ints in one frame (``scalars.int_frame``);
    an infinite left end is -1 and an infinite right end -2.  Two tuples get
    the same key exactly when their ends are in the same order with the
    same kinds, which is all the Hom/Ext dimensions and structure constants
    of the tuple depend on.  The tests run the quiver model once per key."""
    _, vals = int_frame([x for iv in ivs for x in (iv.left, iv.right)])
    ranks = {v: 2 * i for i, v in
             enumerate(sorted({v for v in vals if isinstance(v, int)}))}
    ranks[NEG_INF], ranks[POS_INF] = -2, -3     # infinite ends are open
    kinds = [k is OPEN for iv in ivs for k in (iv.lkind, iv.rkind)]
    return tuple(ranks[v] + o for v, o in zip(vals, kinds))


class PairData:
    """Hom/Ext spaces of an ordered interval pair on its minimal model.

    ``ext_generator`` is the normalized generator of a one-dimensional Ext
    space as an edge vector of ``pair``, or None when Ext is zero;
    the quiver oracle of the tests carries it onto the model of a triple."""

    def __init__(self, space, ivA: Interval, ivB: Interval, p: int):
        self.ivA, self.ivB, self.p = ivA, ivB, p
        model = build_model(space, [ivA, ivB])
        self.pair = RepPair(bar_rep(space, model, ivA, p), bar_rep(space, model, ivB, p))
        _check_supported((self.pair.hom_dim, self.pair.ext_dim), ivA, ivB)
        self.hom_dim = self.pair.hom_dim
        self.ext_dim = self.pair.ext_dim
        self.ext_generator = None
        if self.ext_dim == 1:
            gvec = self.pair.ext_canonical_generator_vector()
            self.ext_generator = self._pairing_normalize(gvec)

    def _pairing_normalize(self, gvec):
        """Scale the Ext generator so its section-complex connecting pairing
        equals one; this makes the coefficient convention coherent under
        composition at every characteristic (not just F_2).  Applies to the
        degeneration patterns (closed source bar over an open target bar);
        other patterns keep the deterministic coset representative."""
        ivA, ivB, p = self.ivA, self.ivB, self.p
        closed_src = (ivA.is_bounded and ivA.lkind.name == "CLOSED"
                      and ivA.rkind.name == "CLOSED")
        open_tgt = (ivB.is_bounded and ivB.lkind.name == "OPEN"
                    and ivB.rkind.name == "OPEN")
        if not (closed_src and open_tgt):
            return gvec
        s = connecting_pairing(self.pair, gvec)
        if not s:
            return gvec
        inv = fm.finv(s, p)
        return [(x * inv) % p for x in gvec]


_PAIR_CACHE: dict = {}
# Nothing fills these two: the Hom calculus keeps no memo.  They stay, empty,
# while the benchmark's tracer reads them by name (ROADMAP item 5(b)).
_DIMS_CACHE: dict = {}
_STRUCT_CACHE: dict = {}


def _exact_key(space, p, ivs):
    return (space, p,
            tuple((iv.left, iv.lkind, iv.right, iv.rkind) for iv in ivs))


def pair_data(space, ivA: Interval, ivB: Interval, p: int) -> PairData:
    key = _exact_key(space, p, (ivA, ivB))
    data = _PAIR_CACHE.get(key)
    if data is None:
        data = PairData(space, ivA, ivB, p)
        _PAIR_CACHE[key] = data
    return data


# ---------------------------------------------------------------------------
# The line Hom calculus in closed form.
#
# K = I meet J has the larger left end and the smaller right end of I and J;
# at an end they share, K is closed only if both are.  Call an end of K good
# when K is closed in I and open in J there: an open end of K is an end of
# I, a closed one an end of J.  Then, over every prime field,
#
#   Hom^0(k_I, k_J) = 1  exactly when K is non-empty and both its ends are
#                        good, and
#   Ext^1(k_I, k_J) = 1  exactly when K's ends are in order (max of the left
#                        ends <= min of the right ends) and both are bad.
#
# A bad end is finite, so an Ext pair has a bounded K.  Ext pairs with an
# empty K are the pairs that touch at a closed end of I and an open end of
# J.  The Ext generator is the quiver model's (``PairData``), and its sign
# against the alternating functional of ``model.connecting_pairing`` is +1
# when K's right end is I's alone, and -1 otherwise; ``PairData`` normalizes
# a closed bounded I over an open bounded J to +1.  A nonzero Hom
# composition scalar is 1, and an Ext one the product of two of these signs
# (``struct_scalar``, where the line is deck copy 0 of the circle's
# covering rules).  The rules restate the Hom/Ext computation for
# interval sheaves on R (Kashiwara and Schapira 2018; Berkouk and Ginot,
# arXiv:1907.09759); the tests check them against the quiver model on every
# order type of pairs and triples.

def _sign(x, y) -> int:
    """Sign of x - y for two finite ends.  Denominators are positive, so
    this is one integer comparison of the cross products."""
    d = x.numerator * y.denominator - y.numerator * x.denominator
    return (d > 0) - (d < 0)


def _cmp(x, y, inf: int) -> int:
    """Sign of x - y for two left ends (``inf`` = -1) or two right ends
    (``inf`` = 1): an infinite left end is -inf and an infinite right end
    +inf, since ``Interval`` rejects the other two."""
    if is_finite(x):
        return _sign(x, y) if is_finite(y) else -inf
    return inf if is_finite(y) else 0


def _good(own: int, ikind, jkind) -> bool:
    """Whether an end of K is good, given whose end it is: I's alone
    (``own`` > 0), J's alone (``own`` < 0) or both (0)."""
    if own > 0:
        return ikind is OPEN
    if own < 0:
        return jkind is CLOSED
    return ikind is OPEN or jkind is CLOSED


def _line_pair(I: Interval, J: Interval):
    """(dim Hom^0(k_I, k_J), 0 or the sign of the Ext^1(k_I, k_J)
    generator) on the line, in one pass over K's two ends.  Hom needs both
    ends good and Ext both bad, so at most one of the two is nonzero."""
    own_l = _cmp(I.left, J.left, -1)
    good = _good(own_l, I.lkind, J.lkind)
    own_r = _cmp(J.right, I.right, 1)
    if _good(own_r, I.rkind, J.rkind) != good:
        return 0, 0
    lo = I.left if own_l >= 0 else J.left
    hi = I.right if own_r >= 0 else J.right
    if good:
        if not (is_finite(lo) and is_finite(hi)):
            return 1, 0
        order = _sign(hi, lo)
        if order:
            return int(order > 0), 0
        return int(I.contains(lo) and J.contains(lo)), 0    # K is {lo} or empty
    if _sign(lo, hi) > 0:       # bad ends are finite
        return 0, 0
    if own_r > 0 or (I.lkind is CLOSED and I.rkind is CLOSED
                     and J.lkind is OPEN and J.rkind is OPEN
                     and is_finite(J.left) and is_finite(J.right)):
        return 0, 1
    return 0, -1


# ---------------------------------------------------------------------------
# One Hom calculus for both spaces, read through the covering map.

def _deck_copy(iv: Interval, n: int, C) -> Interval:
    return type(iv)(iv.left + n * C, iv.lkind, iv.right + n * C, iv.rkind)


# ``_copies`` on the line, by ``_line_pair`` value, made once: no allocation.
_ONE_COPY = {(h, s): (h, abs(s), ((0, h, s),))
             for h, s in ((0, 0), (1, 0), (0, 1), (0, -1))}


def _copies(space, ivA, ivB):
    """(hom, ext, copies) of a pair of lifts: ``copies`` lists (n, hom, Ext
    sign) for each deck copy n whose line pair (A, B + nC) is nonzero (on
    the line, always the one copy n = 0), and hom and ext are their sums.
    Only copies whose closures meet A can be nonzero; their range is read
    with ``//``, on Fractions and in an integer frame alike."""
    if space == LINE:
        return _ONE_COPY[_line_pair(ivA, ivB)]
    C = space[1]
    hom = ext = 0
    copies = []
    for n in range(-((ivB.right - ivA.left) // C),
                   (ivA.right - ivB.left) // C + 1):
        h, sign = _line_pair(ivA, _deck_copy(ivB, n, C))
        if h or sign:
            copies.append((n, h, sign))
            hom += h
            ext += abs(sign)
    return hom, ext, copies


def _at(copies, n):
    """(hom, Ext sign) of deck copy n: zero unless ``copies`` lists it."""
    for k, hom, sign in copies:
        if k == n:
            return hom, sign
    return 0, 0


def _factor(space, ivA, ivB, kind):
    """(n, Ext sign) of the one deck copy n that carries the factor A -> B
    of ``kind``.  Raises ``UnsupportedHomError`` on a Hom factor of total
    dimension other than one or an Ext factor above one, and ``ValueError``
    on a zero Ext factor."""
    hom, ext, copies = _copies(space, ivA, ivB)
    if kind == "h":
        if hom != 1:
            raise UnsupportedHomError(f"hom dim {hom} for {ivA} -> {ivB}")
    else:
        _check_supported((hom, ext), ivA, ivB)
        if not ext:
            raise ValueError("ext space is zero")
    for n, h, sign in copies:
        if h if kind == "h" else sign:
            return n, sign


def _check_supported(dims, ivA, ivB):
    if dims[0] > 1 or dims[1] > 1:
        raise UnsupportedHomError(
            f"hom space dimension exceeds 1 for {ivA} -> {ivB}: "
            f"hom={dims[0]}, ext={dims[1]}")


def space_dim(space, ivA, ivB, kind, p: int) -> int:
    dims = _copies(space, ivA, ivB)
    _check_supported(dims, ivA, ivB)
    return dims[0] if kind == "h" else dims[1]


def struct_scalar(space, p, ivA, ivB, ivC, kind1, kind2):
    """(target_kind, c) with gen2 o gen1 = c * gen(A->C); kinds in {'h','e'}.

    Blocks on deck copies n (A -> B + nC) and m (B -> C + mC) compose onto
    copy n + m of (A, C): a Hom composite is 1 when that copy carries Hom
    (three intervals that meet pairwise meet in a common point), an Ext one
    the product of the Ext signs of the factor's copy and of copy n + m.
    Errors come where the quiver model's do: for Hom after Hom, a factor of
    Hom dimension other than one, then a nonzero composite in a Hom space
    above one; once Ext(A, C) is nonzero, (A, C) above one, then the Ext
    factor (above one, or zero), then the Hom factor."""
    if kind1 == "e" and kind2 == "e":
        return ("e", 0)
    if kind1 == "h" and kind2 == "h":
        n = _factor(space, ivA, ivB, "h")[0]
        m = _factor(space, ivB, ivC, "h")[0]
        dims = _copies(space, ivA, ivC)
        hom = _at(dims[2], n + m)[0]
        if hom and dims[0] != 1:
            raise UnsupportedHomError(
                f"composite lands in a {dims[0]}-dimensional Hom "
                f"space: {ivA} -> {ivC}")
        return ("h", hom)
    dims = _copies(space, ivA, ivC)
    if not dims[1]:
        return ("e", 0)
    _check_supported(dims, ivA, ivC)
    if kind1 == "e":
        n, factor = _factor(space, ivA, ivB, "e")
        m = _factor(space, ivB, ivC, "h")[0]
    else:
        m, factor = _factor(space, ivB, ivC, "e")
        n = _factor(space, ivA, ivB, "h")[0]
    return ("e", factor * _at(dims[2], n + m)[1] % p)


# ---------------------------------------------------------------------------
# Morphisms.

@dataclass(frozen=True)
class HomSpace:
    source: Bar
    target: Bar
    dimension: int
    offset: int


def _block_kind(src: Bar, tgt: Bar):
    """'h' (Hom^0) when the degrees agree, 'e' (Ext^1) when ``src``'s is one
    more, else None: no other offset carries a block."""
    off = src.degree - tgt.degree
    if off == 0:
        return "h"
    if off == 1:
        return "e"
    return None


def block_dim(space, p, src: Bar, tgt: Bar) -> int:
    """Dimension of the block src -> tgt in ``space`` over F_p: 0 at a degree
    offset other than 0 or 1."""
    kind = _block_kind(src, tgt)
    return 0 if kind is None else space_dim(space, src.iv, tgt.iv, kind, p)


def block_scalar(space, p, a: Bar, b: Bar, c: Bar) -> int:
    """The scalar s with (generator of b -> c) after (generator of a -> b)
    = s * (generator of a -> c).  Each factor is a block, so its offset is 0
    or 1 (``AssertionError`` otherwise), and an Ext after an Ext is at
    offset 2, where the scalar is 0."""
    k1, k2 = _block_kind(a, b), _block_kind(b, c)
    if k1 is None or k2 is None:
        raise AssertionError(f"block leaves degree range: {a} -> {b} -> {c}")
    if k1 == k2 == "e":
        return 0
    return struct_scalar(space, p, a.iv, b.iv, c.iv, k1, k2)[1]


class Morphism:
    """Block morphism between canonical graded barcodes: ``blocks`` maps
    (source index, target index) to a nonzero scalar."""

    __slots__ = ("source", "target", "space", "blocks")

    def __init__(self, source, target, blocks, space=LINE, validate: bool = True):
        self.source = source
        self.target = target
        self.space = space
        p = source.char
        clean = {}
        for (i, j), c in blocks.items():
            c %= p
            if c == 0:
                continue
            sb, tb = source.bars[i], target.bars[j]
            if _block_kind(sb, tb) is None:
                raise ValueError(f"no block between degrees {sb.degree} -> "
                                 f"{tb.degree}")
            if validate and block_dim(space, p, sb, tb) == 0:
                raise ValueError(f"block on a zero Hom space: {sb} -> {tb}")
            clean[(i, j)] = c
        self.blocks = clean

    @property
    def char(self):
        return self.source.char

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        return (isinstance(other, Morphism) and self.space == other.space
                and self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.blocks.items()))))

    def __repr__(self):
        bl = ", ".join(f"{i}->{j}:{c}" for (i, j), c in sorted(self.blocks.items()))
        return f"<Morphism {bl or '0'}>"


def identity_morphism(F, space=LINE) -> Morphism:
    return Morphism(F, F, {(i, i): 1 for i in range(len(F.bars))}, space,
                    validate=False)


def zero_morphism(F, G, space=LINE) -> Morphism:
    return Morphism(F, G, {}, space, validate=False)


def compose(m1: Morphism, m2: Morphism) -> Morphism:
    """Diagrammatic composition: apply m1 first, then m2."""
    if m1.target != m2.source or m1.space != m2.space:
        raise ValueError("morphisms not composable")
    p = m1.char
    space = m1.space
    src, mid, tgt = m1.source.bars, m1.target.bars, m2.target.bars
    out: dict = {}
    by_source = {}
    for (j, l), c2 in m2.blocks.items():
        by_source.setdefault(j, []).append((l, c2))
    for (i, j), c1 in m1.blocks.items():
        for l, c2 in by_source.get(j, ()):
            s = block_scalar(space, p, src[i], mid[j], tgt[l])
            if s:
                out[(i, l)] = (out.get((i, l), 0) + c1 * c2 * s) % p
    return Morphism(m1.source, m2.target, out, space, validate=False)


def normal_form(bar: Bar, space) -> Bar:
    """The bar that names ``bar`` in ``space``.  On the line a bar is its own
    normal form.  On the circle R/CZ a bar is a spiral's lift, which must be
    bounded (``ValueError`` otherwise); the lifts of one spiral are the deck
    copies of each other, and the normal one starts in [0, C).  A lift in an
    integer frame, C in it, stays there (``type(iv)``, as in ``bar_rule``)."""
    if space == LINE:
        return bar
    iv, C = bar.iv, space[1]
    if not iv.is_bounded:
        raise ValueError(f"spiral lift must be bounded: {bar}")
    n = iv.left // C
    if n == 0:
        return bar
    shift = n * C
    return Bar(type(iv)(iv.left - shift, iv.lkind, iv.right - shift, iv.rkind),
               bar.degree)


def indexed(bars, char):
    """The ``GradedBarcode`` of ``bars`` over F_char together with the bar
    index map: ``bars[i]`` sits at position ``perm[i]`` (canonical order,
    stable, so equal bars keep their input order)."""
    order = canonical_indices(bars)
    perm = [0] * len(bars)
    for rank, i in enumerate(order):
        perm[i] = rank
    return GradedBarcode._sorted([bars[i] for i in order], char), perm


def thicken_indexed(F, a, space=LINE):
    """Thickened barcode, in normal form for ``space``, together with the
    bar index map (``indexed``)."""
    a = Fraction(a)
    if a == 0 and space == LINE:
        return F, list(range(len(F.bars)))      # T_0 is the identity
    return indexed([normal_form(bar_rule(b, a), space) for b in F.bars],
                   F.char)


def thicken_morphism(m: Morphism, a) -> Morphism:
    """Apply the thickening endofunctor to a morphism in its space.

    The functor is an equivalence, so each canonical-generator block maps to
    the canonical generator of the thickened pair with the same coefficient;
    block kinds can change when a bar crosses its degeneration parameter.
    """
    src, perm_s = thicken_indexed(m.source, a, m.space)
    tgt, perm_t = thicken_indexed(m.target, a, m.space)
    out = {}
    for (i, j), c in m.blocks.items():
        sb, tb = src.bars[perm_s[i]], tgt.bars[perm_t[j]]
        if block_dim(m.space, m.char, sb, tb) == 0:
            raise AssertionError(f"thickening killed a block: {sb} -> {tb}")
        out[(perm_s[i], perm_t[j])] = c
    return Morphism(src, tgt, out, m.space, validate=False)


def restriction(F, a, b, space=LINE) -> Morphism:
    """Canonical restriction morphism thicken(F, b) -> thicken(F, a), a <= b.

    Blockwise on each bar: coefficient one on the canonical generator except
    that half-open bars die once the translation distance reaches their
    length.
    """
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("restriction requires a <= b")
    src, perm_b = thicken_indexed(F, b, space)
    tgt, perm_a = thicken_indexed(F, a, space)
    out = {(perm_b[i], perm_a[i]): 1 for i, bar in enumerate(F.bars)
           if not halfopen_translation_kills(bar.iv, a, b)}
    return Morphism(src, tgt, out, space, validate=False)


# ---------------------------------------------------------------------------
# Hom dimensions.

def hom_dim(b1: Bar, b2: Bar, char: int = 2) -> HomSpace:
    """Dimension of the Hom space between two shifted interval sheaves."""
    fm.check_char(char)
    return HomSpace(b1, b2, block_dim(LINE, char, b1, b2),
                    b1.degree - b2.degree)
