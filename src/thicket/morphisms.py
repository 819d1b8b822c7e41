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

On the line, Hom spaces between shifted interval sheaves are at most
one-dimensional.  Their dimensions and the structure constants that
composition multiplies blocks through are read from closed-form rules of
endpoint order and kind (``_line_pair``, ``_line_struct``):
no model is built and nothing is memoized.  ``hom_dim`` reads the same
rules.  The finite quiver model is their oracle, and it lives in the
tests (``tests/oracles.py``): it normalizes the Ext generator of a pair
once on the pair's model (``PairData``, here), keeps it as an edge vector
and carries it onto the model of each triple; its results depend on the
order type alone, which ``shape_key`` names.

On the circle R/CZ a spiral is the pushforward p_!(k_I) of a bounded lift
along the covering map p.  Since p_! is left adjoint to p^{-1} and
p^{-1} p_! k_J is the sum of the deck copies k_{J + nC},

    RHom(p_! k_I, p_! k_J) = (+)_n RHom(k_I, k_{J + nC}),

a finite sum of line spaces, and a composite of blocks on copies n and m
lies on copy n + m.  Circle dimensions and structure constants are read
from the line rules this way, and memoized per exact circle pair and
triple.  A block carries one scalar, so a circle space is supported only
when its dimension summed over the deck copies is at most one; beyond that
``UnsupportedHomError`` is raised.  The circle quiver model, built by
``build_model`` and ``bar_rep`` with a circle space, is the oracle of the
tests for this too.
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
# (bench/layers.py) wraps or counts them by name.  ``_exact_key`` and the
# circle memos serve the covering-map calculus.

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
# (``_line_struct``).  The rules restate the Hom/Ext computation for
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


def _line_struct(p, ivA, ivB, ivC, kind1, kind2):
    """``struct_scalar`` on the line for (kind1, kind2) other than ('e', 'e').

    A Hom composite is the canonical map A -> C when Hom(A, C) is nonzero:
    the factors make A meet B and B meet C non-empty, Hom(A, C) makes A
    meet C non-empty, and three intervals that meet pairwise meet in a
    common point.  An Ext composite is the product of the Ext signs of its
    factor and of (A, C).  Zero factors raise where the quiver model does:
    a zero Hom factor of a Hom composite, and, once Ext(A, C) is nonzero, a
    zero Ext factor before a zero Hom factor."""
    if kind1 == "h" and kind2 == "h":
        for X, Y in ((ivA, ivB), (ivB, ivC)):
            if not _line_pair(X, Y)[0]:
                raise UnsupportedHomError(f"hom dim 0 for {X} -> {Y}")
        return ("h", _line_pair(ivA, ivC)[0])
    sign = _line_pair(ivA, ivC)[1]
    if not sign:
        return ("e", 0)
    (eX, eY), (hX, hY) = (((ivA, ivB), (ivB, ivC)) if kind1 == "e"
                          else ((ivB, ivC), (ivA, ivB)))
    factor = _line_pair(eX, eY)[1]
    if not factor:
        raise ValueError("ext space is zero")
    if not _line_pair(hX, hY)[0]:
        raise UnsupportedHomError(f"hom dim 0 for {hX} -> {hY}")
    return ("e", factor * sign % p)


# ---------------------------------------------------------------------------
# Circle dimensions and structure constants through the covering map.

def _pair_dims(space, p, ivA, ivB):
    """Memoized (hom, ext, {n: (hom, ext)}) of a circle pair of lifts."""
    key = _exact_key(space, p, (ivA, ivB))
    dims = _DIMS_CACHE.get(key)
    if dims is None:
        dims = _DIMS_CACHE[key] = _covering_pair_dims(space, p, ivA, ivB)
    return dims


def _covering_pair_dims(space, p, ivA, ivB):
    """(hom, ext, {n: (hom, ext)}) of a circle pair of lifts.  RHom(p_!A, p_!B)
    is the sum over deck copies n of the line RHom(A, B + nC), and only the
    copies whose closures meet A contribute.  Each copy is a line pair, read
    from the closed-form line rules.  The range is read with ``//``, on
    Fractions and in an integer frame (C in it) alike."""
    C = space[1]
    copies = {}
    for n in range(-((ivB.right - ivA.left) // C),
                   (ivA.right - ivB.left) // C + 1):
        Bn = _deck_copy(ivB, n, C)
        hom, sign = _line_pair(ivA, Bn)
        if hom or sign:
            copies[n] = (hom, abs(sign))
    return (sum(h for h, _ in copies.values()),
            sum(e for _, e in copies.values()), copies)


def _deck_copy(iv: Interval, n: int, C) -> Interval:
    return type(iv)(iv.left + n * C, iv.lkind, iv.right + n * C, iv.rkind)


def _check_supported(dims, ivA, ivB):
    if dims[0] > 1 or dims[1] > 1:
        raise UnsupportedHomError(
            f"hom space dimension exceeds 1 for {ivA} -> {ivB}: "
            f"hom={dims[0]}, ext={dims[1]}")


def space_dim(space, ivA, ivB, kind, p: int) -> int:
    if space == LINE:
        hom, ext = _line_pair(ivA, ivB)
        return hom if kind == "h" else abs(ext)
    dims = _pair_dims(space, p, ivA, ivB)
    _check_supported(dims, ivA, ivB)
    return dims[0] if kind == "h" else dims[1]


def struct_scalar(space, p, ivA, ivB, ivC, kind1, kind2):
    """(target_kind, c) with gen2 o gen1 = c * gen(A->C); kinds in {'h','e'}."""
    if kind1 == "e" and kind2 == "e":
        return ("e", 0)
    if space == LINE:
        return _line_struct(p, ivA, ivB, ivC, kind1, kind2)
    key = (_exact_key(space, p, (ivA, ivB, ivC)), kind1, kind2)
    hit = _STRUCT_CACHE.get(key)
    if hit is None:
        hit = _STRUCT_CACHE[key] = _covering_struct_scalar(
            space, p, ivA, ivB, ivC, kind1, kind2)
    return hit


def _factor_copy(space, p, ivA, ivB, kind) -> int:
    """Deck index of the one copy carrying the Hom^0 (``kind`` 'h') or Ext^1
    ('e') space of a factor A -> B.  A Hom factor of total dimension other
    than one raises ``UnsupportedHomError``; an Ext factor raises it when
    either total dimension is above one, and ``ValueError`` when its Ext is
    zero."""
    dims = _pair_dims(space, p, ivA, ivB)
    if kind == "h":
        if dims[0] != 1:
            raise UnsupportedHomError(f"hom dim {dims[0]} for {ivA} -> {ivB}")
    else:
        _check_supported(dims, ivA, ivB)
        if dims[1] == 0:
            raise ValueError("ext space is zero")
    return next(n for n, d in dims[2].items() if d[kind == "e"])


def _covering_struct_scalar(space, p, ivA, ivB, ivC, kind1, kind2):
    """Circle structure constant through the covering map.  A block on deck
    copy n (A -> B + nC) followed by one on copy m (B -> C + mC) is the line
    composite A -> B + nC -> C + (n+m)C, so its scalar is the line constant
    of that triple, and zero when copy n + m of (A, C) carries no space of
    the target kind.  Raises ``UnsupportedHomError`` exactly where the
    quiver computation does: a Hom^0 factor of total dimension other than
    one, an Ext factor or an Ext target pair of total dimension above one,
    and a nonzero Hom composite in a space of dimension above one."""
    C = space[1]
    dAC = _pair_dims(space, p, ivA, ivC)
    if (kind1, kind2) == ("h", "h"):
        n = _factor_copy(space, p, ivA, ivB, "h")
        m = _factor_copy(space, p, ivB, ivC, "h")
        if not dAC[2].get(n + m, (0, 0))[0]:
            return ("h", 0)
        out = _line_struct(p, ivA, _deck_copy(ivB, n, C),
                           _deck_copy(ivC, n + m, C), "h", "h")
        if out[1] and dAC[0] != 1:
            raise UnsupportedHomError(
                f"composite lands in a {dAC[0]}-dimensional Hom "
                f"space: {ivA} -> {ivC}")
        return out
    if dAC[1] == 0:
        return ("e", 0)
    _check_supported(dAC, ivA, ivC)
    if kind1 == "e":
        n = _factor_copy(space, p, ivA, ivB, "e")
        m = _factor_copy(space, p, ivB, ivC, "h")
    else:
        m = _factor_copy(space, p, ivB, ivC, "e")
        n = _factor_copy(space, p, ivA, ivB, "h")
    if not dAC[2].get(n + m, (0, 0))[1]:
        return ("e", 0)
    return _line_struct(p, ivA, _deck_copy(ivB, n, C),
                        _deck_copy(ivC, n + m, C), kind1, kind2)


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
    normal form.  On the circle R/CZ the lifts of one spiral are the deck
    copies of each other, and the normal one starts in [0, C).  A lift in an
    integer frame, C in it, stays there (``type(iv)``, as in ``bar_rule``)."""
    if space == LINE:
        return bar
    iv, C = bar.iv, space[1]
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
    return map_blocks(m, *thicken_indexed(m.source, a, m.space),
                      *thicken_indexed(m.target, a, m.space))


def map_blocks(m: Morphism, src, perm_s, tgt, perm_t) -> Morphism:
    """``thicken_morphism`` onto given ``thicken_indexed`` tables."""
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
    return restriction_between(F, a, b, *thicken_indexed(F, b, space),
                               *thicken_indexed(F, a, space), space)


def restriction_between(F, a, b, src, perm_b, tgt, perm_a, space) -> Morphism:
    """``restriction`` between given ``thicken_indexed`` tables at b and a."""
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
