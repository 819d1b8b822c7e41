"""Interleaving certificates and two-sided distance bounds.

An a-certificate is a pair f: T_a F -> G, g: T_a G -> F whose 2a-composites
equal the canonical restrictions; every one returned here is verified.  On
the line, by the derived isometry theorem (Berkouk-Ginot, arXiv:1907.09759),
the distance is the graded bottleneck distance over the closed-form pair
and kill costs of ``thicken.cost_form``: ``distance`` finds the least cost
with a matching, and ``check_interleaving`` matches once at its shift.

On the circle the answer is the least certified value on the critical grid
of endpoint differences and half-differences, exact when the grid value
just below it is refuted.  Since an a-certificate weakens to a
b-certificate for every b >= a, one refutation settles every value below
it.  So ``distance`` makes one walk: from the bottleneck over the
deck-copy costs (``thicken.deck_cost``, a conjecture used as a hint only),
up to the first certified value, then down to the first refuted one.
``_search`` is the one search at a shift, one straight pass: the
block-diagonal matching, then on the circle the row test
(``_row_refuted``: a restriction block that no composite reaches refutes
the shift) and the capped enumeration, each at most once.

The search asks ``morphisms`` bar-level Hom questions only: the dimension
of a block (``block_dim``) and the scalar of a composite of two blocks
(``block_scalar``).  Which blocks are Hom^0 and which Ext^1 is read there,
off the degrees, and never here.  A probe is one table, the ``_lifts``
rows (bar, a-lift, 2a-lift, dies) in input indices, and every strategy
reads it alone.  "T_a of a block, then a block" has one home here,
``_composite`` on three rows, which the matching, the row test, the
enumeration and the certificate check all call.  The enumeration's
equations are one flat list of terms on rows keyed by input bar pairs,
with the kill flags as right-hand side.

One matching routine (``_matching``, public as ``check_matching``) serves
both spaces.  Its candidate pairs are those of cost at most the shift; it
matches once, and only the pairs it matches meet the Hom calculus.  On the
circle one pair the calculus rejects or cannot use ends the matching
without a certificate.  One bottleneck routine (``_least_cost``) and one
augmenting-path matching (``_perfect_matching``) sit under it.

Every search runs in one space, named by the value that ``morphisms`` keys
on: ``LINE`` by default, or ``circle_ops(C)`` = ``("circle", C)`` for
spirals on R/CZ.  The space decides three things only: thickened lifts are
put into its normal form (``morphisms.normal_form``), the finiteness gate
compares the sections that are invariant there, and the critical grid adds
the circle's shifts by multiples of C/2.  Inputs must be over one field and
already in normal form.

Every search, on either space, runs in the pair's integer frame
(``_framed``): each public call scales F's and G's ends, C on the circle
and its shift once over M = 4 * the lcm of their denominators, so the
costs, the kill costs, the bisection, the critical grid and its halves, the
``_lifts`` rows, the Hom rules and the certificate check compare ints.  The
bar rules, the costs, the normal form and the Hom rules have one definition
each, which reads an int end as it reads a Fraction one.  One builder,
``_certificate``, checks every certificate on the frame's rows
(``_verified``), from f- and g-blocks keyed by input bar pairs, and only
then sorts its two a-tables and turns frame values back into values: the
shift, the two a-tables (one ``Fraction(n, M)`` per end) and the space,
so no frame value reaches a caller.  ``verify_certificate`` is the
definition, in public ``morphisms`` calls on the input pair's own
Fractions: it reads no rows, no frame and no search code.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, product

from . import fieldmath as fm
from .barcode import (Bar, CharacteristicMismatchError, FramedInterval,
                      GradedBarcode, global_sections, global_sections_c,
                      iso_equal, rows_barcode)
from .morphisms import (LINE, Morphism, UnsupportedHomError, block_dim,
                        block_scalar, compose, identity_morphism, indexed,
                        normal_form, restriction, thicken_indexed,
                        thicken_morphism)
from .scalars import POS_INF, from_frame, int_frame
from .thicken import bar_rule, cost_form, deck_cost, direct_cost, kill_cost


class CapacityError(RuntimeError):
    """Exhaustive search was requested beyond its cap."""


# Caps of the exhaustive search, read at call time.
MAX_ENUMERATION = 4096          # f-block assignments enumerated
MAX_UNKNOWNS = 24               # unknown f- and g-blocks set up


@dataclass
class InterleavingCertificate:
    a: Fraction
    f: Morphism
    g: Morphism


@dataclass
class DistanceBounds:
    lower: object
    upper: object
    exact: bool
    witness: InterleavingCertificate | None = None
    conclusive: bool = True
    # why exact: 'identity', 'gate' (global sections differ), 'isometry'
    # (the line's matching) or 'refuted' (the grid value below refuted)
    exact_by: str | None = None

    def fields(self):
        return (self.lower, self.upper, self.exact)


# ---------------------------------------------------------------------------

def verify_certificate(F, G, cert: InterleavingCertificate, space=LINE) -> bool:
    """Whether ``cert`` is an a-certificate of F and G in ``space``, by the
    definition, in public ``morphisms`` calls on the input pair's own
    Fractions.  f: T_a F -> G and g: T_a G -> F (``ValueError``
    otherwise), every block on a nonzero Hom space, and the composites
    T_a f then g and T_a g then f equal to the restrictions T_2a F -> F and
    T_2a G -> G: thickening is monoidal, T_a T_a = T_2a.  It reads no
    ``_lifts`` rows, no frame and no search code."""
    a = Fraction(cert.a)
    if a < 0:
        return False
    for name, m, X, Y in (("f", cert.f, F, G), ("g", cert.g, G, F)):
        if m.source != thicken_indexed(X, a, space)[0] or m.target != Y:
            raise ValueError(f"certificate {name} has wrong shape")
    if any(block_dim(m.space, m.char, m.source.bars[i], m.target.bars[j]) == 0
           for m in (cert.f, cert.g) for i, j in m.blocks):
        return False
    return all(compose(thicken_morphism(x, a), y)
               == restriction(X, 0, 2 * a, space)
               for X, x, y in ((F, cert.f, cert.g), (G, cert.g, cert.f)))


def _read_back(X, M):
    """The frame barcode ``X`` in Fractions, ``M`` being its frame's M: its
    rows read back by ``barcode.rows_barcode``, one ``Fraction(n, M)`` per
    end (the tables are too small for a ``scalars.FrameReader`` to pay).
    x -> x/M keeps the ends' order, kinds and degrees."""
    return rows_barcode([(b.iv.left, b.iv.lkind, b.iv.right, b.iv.rkind,
                          b.degree) for b in X.bars],
                        partial(from_frame, M), X.char)


def _verified(lifts, blocks, p, space):
    """Whether the blocks (f, g), f keyed (i, j) and g (j, i) in input
    indices, make an a-certificate, on a probe's ``_lifts`` rows: per side
    X, with x its blocks and y the other side's, the sum over j of x(i, j)
    y(j, k) ``_composite``(i, j, k) on (i, k) must be the restriction T_2a
    X -> X, 1 on (i, i) for a bar that does not die and 0 elsewhere.  This
    is ``verify_certificate`` with T_a T_a X read as T_2a X and no table
    sorted.  The F side comes first, and a failing side ends the check."""
    for xs, ys, x, y in ((*lifts, *blocks), (*lifts[::-1], *blocks[::-1])):
        by_source, out = {}, {}
        for (j, k), d in y.items():
            by_source.setdefault(j, []).append((k, d))
        for (i, j), c in x.items():
            for k, d in by_source.get(j, ()):
                if s := _composite(xs[i], ys[j], xs[k], p, space):
                    out[(i, k)] = (out.get((i, k), 0) + c * d * s) % p
        if ({key: c for key, c in out.items() if c}
                != {(i, i): 1 for i, w in enumerate(xs) if not w[3]}):
            return False
    return True


def identity_certificate(F, space=LINE) -> InterleavingCertificate:
    return InterleavingCertificate(Fraction(0), identity_morphism(F, space),
                                   identity_morphism(F, space))


def weaken_certificate(F, G, cert: InterleavingCertificate, b,
                       space=LINE) -> InterleavingCertificate:
    """Turn an a-certificate into a b-certificate for b >= a by composing
    with the canonical restrictions."""
    a, b = Fraction(cert.a), Fraction(b)
    if b < a:
        raise ValueError("weaken requires b >= a")
    f2 = compose(restriction(F, a, b, space), cert.f)
    g2 = compose(restriction(G, a, b, space), cert.g)
    return InterleavingCertificate(b, f2, g2)


# ---------------------------------------------------------------------------
# Strategy: block-diagonal matching over the pair costs.

def _lifts(F, G, a, space):
    """Per side, per bar b in input order: (b, its a-lift, its 2a-lift,
    whether the restriction T_2a X -> X kills it, that is whether its kill
    cost is at most a), lifts in normal form: in Fractions, or in one
    integer frame (``_framed``) with ``space`` there."""
    a2 = 2 * a
    return [[(b, normal_form(bar_rule(b, a), space),
              normal_form(bar_rule(b, a2), space), kill_cost(b) <= a)
             for b in X.bars]
            for X in (F, G)]


def _unit_blocks(x, y, p, space):
    """Whether the blocks x -> y and y -> x of the pair of ``_lifts`` x and
    y are both nonzero.  A zero block decides the pair even if the calculus
    cannot use the other; else a block it cannot use raises its
    ``UnsupportedHomError``."""
    xbar, tx, _, _ = x
    ybar, ty, _, _ = y
    try:
        if block_dim(space, p, tx, ybar) == 0:
            return False
    except UnsupportedHomError:
        if block_dim(space, p, ty, xbar) == 0:
            return False
        raise
    return block_dim(space, p, ty, xbar) != 0


def _composite(x, y, z, p, space):
    """The scalar of T_a(x -> y) then y -> z on the block x -> z of T_2a X
    -> X, for ``_lifts`` rows x, y, z and unit blocks.  T_a is an
    equivalence, so the lifted x-block, x's 2a-lift to y's a-lift, is a
    block (``block_scalar`` raises ``AssertionError`` otherwise)."""
    return block_scalar(space, p, x[2], y[1], z[0])


def _pair_feasible(f, g, p, space):
    """The g-side scalar of a matched pair, or None; its f-side scalar is 1.

    ``f`` and ``g`` are ``_lifts`` entries.  The pair's two ``_composite``
    scalars, on f's block and on g's, must hit the restriction
    coefficients of both bars exactly; either coefficient may be zero (a
    half-open bar past its length), in which case the corresponding
    composite has to vanish."""
    if not _unit_blocks(f, g, p, space):
        return None
    s1 = _composite(f, g, f, p, space)
    s2 = _composite(g, f, g, p, space)
    f_dies, g_dies = f[3], g[3]
    if f_dies and g_dies:
        return None                 # both sides die: leave the bars unmatched
    if not f_dies:
        if s1 == 0:
            return None
        x = fm.finv(s1, p)
        if (s2 * x) % p != (0 if g_dies else 1):
            return None
        return x
    # f dies, g does not: the f-side composite must vanish identically
    if s2 == 0 or s1 != 0:
        return None
    return fm.finv(s2, p)


def _check_inputs(F, G, space, a=0):
    """The shift ``a`` as a Fraction, once the entry checks of every search
    pass.  They reject a negative shift, a pair over two fields, and bars
    that ``normal_form`` would move: the circle search normalizes every
    thickened lift and compares it with the input lifts, so those must be
    normalized too."""
    if F.char != G.char:
        raise CharacteristicMismatchError(
            f"cannot interleave barcodes over F_{F.char} and F_{G.char}")
    for b in F.bars + G.bars:
        nb = normal_form(b, space)
        if nb != b:
            raise ValueError(f"bar {b} is not normalized (its normal form "
                             f"is {nb})")
    a = Fraction(a)
    if a < 0:
        raise ValueError("interleaving shift must be nonnegative")
    return a


def _framed(F, G, space, *shifts):
    """The pair's frame (M, F', G', space'), and the shifts in it.
    ``scalars.int_frame`` scales every end of F and G, C on the circle and
    every shift once, over M = 4 * the lcm of their denominators.  Every end
    and C are then multiples of 4, so every cost (a difference of ends),
    kill cost (half a length), shift, lift end, critical grid value and its
    half, and C/2 is an int.  F' and G' are the images of F and G under
    x -> Mx: each bar keeps its kinds, degree and place, on a
    ``FramedInterval``.  space' is ``LINE`` or ("circle", MC)."""
    ends = [x for X in (F, G) for b in X.bars for x in (b.iv.left, b.iv.right)]
    circle = [] if space == LINE else [space[1]]
    M, ints = int_frame(ends + circle + list(shifts), factor=4)
    it = iter(ints)
    F, G = (GradedBarcode._sorted(
        [Bar(FramedInterval(next(it), b.iv.lkind, next(it), b.iv.rkind),
             b.degree) for b in X.bars], X.char) for X in (F, G))
    if circle:
        space = ("circle", next(it))
    return (M, F, G, space), list(it)


@contextmanager
def _in_values(a, space):
    """Raise an ``UnsupportedHomError`` of a search again on the shift ``a``
    and the ``space`` its caller gave: under the search the Hom calculus
    reads the pair's frame, and its message would name frame values."""
    try:
        yield
    except UnsupportedHomError:
        where = "the line" if space == LINE else f"R/CZ, C = {space[1]}"
        raise UnsupportedHomError(
            f"the search at {a} on {where} meets a Hom space that the "
            f"calculus cannot use") from None


def _pair_costs(F, G, space):
    """Per F bar, the (direct cost, G index) of every G bar in its
    ``thicken.cost_form`` class, and the kill costs of both sides; every
    other pair is at direct cost +inf.  On the line these are exact by the
    derived isometry theorem, and ints of the pair's frame; on the circle a
    direct cost is the least over the deck copies, by the deck-copy
    conjecture (``thicken.deck_cost``)."""
    cost = direct_cost if space == LINE else partial(deck_cost, C=space[1])
    by_class = {}
    for j, b in enumerate(G.bars):
        form = cost_form(b)
        by_class.setdefault(form[0], []).append((j, form))
    rows = []
    for b in F.bars:
        form = cost_form(b)
        rows.append([(cost(form, fg), j) for j, fg in by_class.get(form[0], ())])
    return rows, [kill_cost(b) for b in F.bars], [kill_cost(b) for b in G.bars]


def _candidates(costs, t):
    """The arguments of ``_perfect_matching`` at threshold ``t``: per F bar
    the G bars at direct cost at most t, and per bar whether its kill cost
    is at most t, so that it may go unmatched."""
    rows, kill_F, kill_G = costs
    return ([[j for c, j in row if c <= t] for row in rows],
            [k <= t for k in kill_F], [k <= t for k in kill_G])


def _perfect_matching(adj, kill_F, kill_G):
    """The matched (i, j) pairs of a block-diagonal matching, or None: F's
    bar i may pair with the G bars ``adj[i]``, and a bar whose ``kill_F``
    or ``kill_G`` entry holds may go unmatched.

    Left: F's bars, then a diagonal slot nF + j per G bar; right: G's bars,
    then a slot nG + i per F bar, joined to its own bar when that bar may
    go unmatched.  A valid matching with k pairs extends to a perfect one
    (the other bars take their own slots, and the k slots left on each
    side pair freely); a perfect one restricts to its pairs."""
    nF, nG = len(kill_F), len(kill_G)
    slots = list(range(nG, nG + nF))
    adj = [adj[i] + ([nG + i] if kill_F[i] else []) for i in range(nF)]
    adj += [[j] + slots if kill_G[j] else slots for j in range(nG)]
    owner, mate = {}, {}              # right -> left partner, left -> right
    for root in range(nF + nG):       # augmenting paths: O((nF + nG)^3)
        prev, queue, free = {}, [root], None
        for u in queue:               # breadth-first; the queue grows as read
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    if v not in owner:
                        free = v
                        break
                    queue.append(owner[v])
            if free is not None:
                break
        if free is None:
            return None
        while free is not None:       # flip the path; u's old partner is next
            u = prev[free]
            owner[free], mate[u], free = u, free, mate.get(u)
    return [(i, mate[i]) for i in range(nF) if mate[i] < nG]


def _least_cost(costs):
    """The least of the sorted distinct finite costs at which a matching
    exists, by bisection (Kerber-Morozov-Nigmetov, JEA 2017), or None."""
    rows, kill_F, kill_G = costs
    values = sorted({c for row in rows for c, _ in row}
                    | {k for k in kill_F + kill_G if k != POS_INF})
    k = bisect_left(range(len(values)), True, key=lambda i: _perfect_matching(
        *_candidates(costs, values[i])) is not None)
    return None if k == len(values) else values[k]


def _certificate(F, G, a, fblocks, gblocks, lifts, frame):
    """The verified a-certificate with the f-blocks ``fblocks`` of T_a F ->
    G and the g-blocks ``gblocks`` of T_a G -> F, keyed by input indices.
    Failing verification is an invariant break.

    ``a`` and the lifts are in the pair's ``frame`` (M, F', G', space'),
    and so is the check, ``_verified`` on the probe's ``_lifts`` rows: x ->
    Mx keeps the order, kinds and degrees that the Hom rules read, and
    scales every length with 2a.  Only once it passes are the two a-columns
    sorted (``indexed``), the only sorting a probe does, and the
    certificate turned back into values: the shift, the two a-tables (the
    permutations unchanged) and the space.  The definition, in Fractions,
    is ``verify_certificate``."""
    M, _, _, space = frame
    if not _verified(lifts, (fblocks, gblocks), F.char, space):
        raise AssertionError(
            f"certificate at {Fraction(a, M)} fails verification")
    (TFa, permF), (TGa, permG) = (indexed([r[1] for r in rows], F.char)
                                  for rows in lifts)
    f = {(permF[i], j): c for (i, j), c in fblocks.items()}
    g = {(permG[j], i): c for (j, i), c in gblocks.items()}
    if space != LINE:
        space = ("circle", Fraction(space[1], M))
    return InterleavingCertificate(
        Fraction(a, M),
        Morphism(_read_back(TFa, M), G, f, space, validate=False),
        Morphism(_read_back(TGa, M), F, g, space, validate=False))


def _matching(F, G, a, frame, costs, lifts):
    """The verified certificate of a block-diagonal matching at ``a`` over
    the ``_pair_costs`` costs and a probe's ``_lifts`` rows, or None; a,
    the costs and the lifts are in the pair's ``frame``.

    The candidate pairs are those of cost at most a, and a bar of kill cost
    at most a may stay unmatched.  ``_perfect_matching`` runs once, and
    only the pairs it proposes meet the Hom calculus, once each: a pair
    whose bars both die takes its two diagonal slots, and every other pair
    must pass ``_pair_feasible``.  On the line the costs are exact, so a
    pair it rejects, or whose Hom it cannot use, is an invariant break
    (``AssertionError``); on the circle they are a conjecture, and None
    leaves the shift to ``_exhaustive``."""
    pairs = _perfect_matching(*_candidates(costs, a))
    if pairs is None:
        return None
    M, _, _, space = frame
    fblocks, gblocks = {}, {}
    for i, j in pairs:
        f, g = lifts[0][i], lifts[1][j]
        if f[3] and g[3]:
            continue
        try:
            x = _pair_feasible(f, g, F.char, space)
        except UnsupportedHomError:
            x = None
        if x is None:
            if space == LINE:
                raise AssertionError(
                    f"the cost formula and the Hom calculus disagree on "
                    f"{F.bars[i]}, {G.bars[j]} at {Fraction(a, M)}")
            return None
        fblocks[(i, j)], gblocks[(j, i)] = 1, x
    return _certificate(F, G, a, fblocks, gblocks, lifts, frame)


def check_matching(F, G, a, space=LINE):
    """``_matching`` at the shift a, after the entry checks of every
    search, in the pair's frame: the verified certificate, or None."""
    frame, (x,) = _framed(F, G, space, _check_inputs(F, G, space, a))
    _, X, Y, S = frame
    return _matching(F, G, x, frame, _pair_costs(X, Y, S), _lifts(X, Y, x, S))


# ---------------------------------------------------------------------------
# Strategy: exhaustive bilinear search.

def _variables(xs, ys, p, space):
    """The unknown blocks (i, j) of T_a X -> Y in input indices, for the
    ``_lifts`` rows ``xs`` of X and ``ys`` of Y: one ``block_dim`` lookup of
    i's a-lift and bar j per pair, lazily, as the caller stops at its cap."""
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if block_dim(space, p, x[1], y[0]):
                yield (i, j)


def check_exhaustive(F, G, a, space=LINE):
    """Complete search over block assignments; None means proven infeasible.
    The row test (``_row_refuted``) runs first, under no cap.  Then the
    unknowns are counted as they are found, and the count stops as soon as
    it passes ``MAX_UNKNOWNS``.  The search runs in the pair's frame."""
    a = _check_inputs(F, G, space, a)
    frame, (x,) = _framed(F, G, space, a)
    _, X, Y, S = frame
    with _in_values(a, space):
        return _exhaustive(F, G, x, frame, _lifts(X, Y, x, S))


def _exhaustive(F, G, a, frame, lifts):
    """``check_exhaustive`` on a probe's ``_lifts``, in the pair's
    ``frame``: the row test, then the capped ``_enumeration`` over the side
    with fewer unknown blocks."""
    p, space = F.char, frame[3]
    if _row_refuted(lifts, p, space):
        return None
    fvars = list(islice(_variables(*lifts, p, space), MAX_UNKNOWNS + 1))
    gvars = list(islice(_variables(*lifts[::-1], p, space),
                        MAX_UNKNOWNS + 1 - len(fvars)))
    if len(fvars) + len(gvars) > MAX_UNKNOWNS:
        raise CapacityError(
            f"{len(fvars)} + {len(gvars)} unknown blocks exceed the cap "
            f"{MAX_UNKNOWNS}")
    # enumerate the smaller side: swapping F and G swaps the two block maps
    step = -1 if len(fvars) > len(gvars) else 1
    blocks = _enumeration(lifts[::step], (fvars, gvars)[::step], p, space)
    if blocks is None:
        return None
    return _certificate(F, G, a, *blocks[::step], lifts, frame)


def _row_refuted(lifts, p, space):
    """Whether some restriction block of T_2a X -> X, for X = F or G, is
    reached by no composite, on a probe's ``_lifts`` rows: its row of the
    composite equations reads 0 = 1 under every assignment of the blocks,
    so the shift is refuted.  The composites that reach bar i's block
    (i, i) pass through one bar j of the other side, so per bar that
    survives to 2a the scan runs over its partners j and stops at the
    first nonzero ``_composite`` on its own block.  A partner whose
    composite the calculus cannot use (``UnsupportedHomError``) leaves only
    its bar undecided, and the scan goes on: the shift is refuted by a bar
    whose partners are all usable and none reaches it, and otherwise an
    undecided bar raises the error again."""
    undecided = None
    for xs, ys in (lifts, lifts[::-1]):
        for x in xs:
            if x[3]:
                continue                # its restriction block is zero
            unusable = None
            for y in ys:
                try:
                    if (_unit_blocks(x, y, p, space)
                            and _composite(x, y, x, p, space)):
                        break
                except UnsupportedHomError as exc:
                    unusable = exc
            else:
                if unusable is None:
                    return True
                undecided = undecided or unusable
    if undecided is not None:
        raise undecided
    return False


def _enumeration(lifts, unknowns, p, space):
    """The x- and y-block maps of the first solution, or None: every
    assignment of the x-blocks, then the y-blocks solved for linearly, on
    the ``_lifts`` rows of X and Y and their ``_variables`` ``unknowns``.
    The equations are one flat list of (row, x-block, y-block, scalar)
    terms, a row being a block (i, k) of Hom(T_2a X, X) or Hom(T_2a Y, Y)
    in input indices: T_a of the block (i, j) then the block (j, k) is the
    ``_composite`` of rows i, j and k.  The restriction is 1 on (i, i)
    unless bar i dies, else 0.  The terms, which can raise
    ``UnsupportedHomError``, are built before the enumeration's cap."""
    rows = {key: r for r, key in enumerate(
        (side, i, i) for side, ws in enumerate(lifts)
        for i, w in enumerate(ws) if not w[3])}
    rhs = [1] * len(rows)
    terms = []
    for side, (us, vs), (uvars, vvars) in ((0, lifts, unknowns),
                                           (1, lifts[::-1], unknowns[::-1])):
        for n, (i, j) in enumerate(uvars):
            for m, (j2, k) in enumerate(vvars):
                if j2 == j and (s := _composite(us[i], vs[j], us[k], p,
                                                space)):
                    row = rows.setdefault((side, i, k), len(rows))
                    terms.append((row, n, m, s) if side == 0
                                 else (row, m, n, s))
    rhs += [0] * (len(rows) - len(rhs))
    xvars, yvars = unknowns
    if p ** len(xvars) > MAX_ENUMERATION:
        raise CapacityError(
            f"enumeration {p}^{len(xvars)} exceeds the cap {MAX_ENUMERATION}")
    for assign in product(range(p), repeat=len(xvars)):
        mat = fm.zeros(len(rows), len(yvars))
        for r, u, v, s in terms:
            if assign[u]:
                mat[r][v] = (mat[r][v] + assign[u] * s) % p
        sol = fm.solve(mat, rhs, p)
        if sol is not None:
            return dict(zip(xvars, assign)), dict(zip(yvars, sol))
    return None


def _search(F, G, a, frame, costs):
    """The one search at a shift, on one probe's ``_lifts``: the
    ``_matching`` certificate, which decides on the line, else on the
    circle ``_exhaustive`` (the row test, then the capped enumeration).  a,
    the costs and the lifts are in the pair's ``frame`` (M, F', G',
    space')."""
    _, X, Y, space = frame
    lifts = _lifts(X, Y, a, space)
    cert = _matching(F, G, a, frame, costs, lifts)
    if cert is not None or space == LINE:
        return cert
    return _exhaustive(F, G, a, frame, lifts)


def check_interleaving(F, G, a, space=LINE):
    """Search for a verified a-certificate in ``space``.  Returns None when
    the shift is refuted; raises ``ValueError`` when a < 0, and on the
    circle ``CapacityError`` or ``UnsupportedHomError`` when the shift stays
    undecided.  T_0 is the identity, so a 0-certificate is an isomorphism,
    and a = 0 is refuted without a search unless ``iso_equal`` holds.

    On the line ``_matching`` over the closed-form costs decides: the
    threshold test of a bottleneck search (Kerber-Morozov-Nigmetov, JEA
    2017), exact by the derived isometry theorem (Berkouk-Ginot,
    arXiv:1907.09759).  Both spaces run one ``_search`` in the pair's
    integer frame (``_framed``), with ``a`` in it."""
    a = _check_inputs(F, G, space, a)
    if a == 0 and not iso_equal(F, G):
        return None
    frame, (x,) = _framed(F, G, space, a)
    with _in_values(a, space):
        return _search(F, G, x, frame, _pair_costs(*frame[1:]))


# ---------------------------------------------------------------------------
# Distance.

def finite_gate(F, G, space=LINE) -> str:
    """'infinite' when global section dimensions differ, else 'pass'.  The
    line compares RGamma and RGamma_c; on the compact circle a spiral has
    the compactly supported sections of its lift, so RGamma_c of the lifts
    is compared."""
    same = global_sections_c(F) == global_sections_c(G)
    if space == LINE:
        same = same and global_sections(F) == global_sections(G)
    return "pass" if same else "infinite"


def critical_grid(F, G, space=LINE):
    """0 and every endpoint difference v, with its half, sorted.  On the
    circle R/CZ each v is first moved to |v + kC/2| for k = -2..2, kept up
    to 2C.  The ``_grid`` of the pair's frame, read back."""
    frame, _ = _framed(F, G, space)
    return [Fraction(v, frame[0]) for v in _grid(frame)]


def _grid(frame):
    """``critical_grid`` in the pair's ``frame`` (M, F', G', space'), where
    every value and every half is an int."""
    _, F, G, space = frame
    ints = F.finite_endpoints() + G.finite_endpoints()
    if space != LINE:
        half = space[1] // 2
    base = {0}
    for i, p in enumerate(ints):
        for q in ints[i + 1:]:
            base.add(abs(p - q))
    if space != LINE:
        base = {w for v in base for k in (-2, -1, 0, 1, 2)
                if (w := abs(v + k * half)) <= 4 * half}
    return sorted(base | {v // 2 for v in base})


def distance(F, G, space=LINE) -> DistanceBounds:
    """The interleaving distance bounds of F and G in ``space``; isomorphic
    inputs are at exact 0, and inputs the finiteness gate separates at
    exact +inf.  ``exact_by`` names the reason of every exact answer.

    On the line the distance is the graded bottleneck distance over the
    closed-form costs (Berkouk-Ginot, A derived isometry theorem for
    sheaves, arXiv:1907.09759): the least sorted cost at which a matching
    exists, found by bisection as in Kerber-Morozov-Nigmetov (Geometry
    helps to compare persistence diagrams, JEA 2017), with the one verified
    certificate of ``_search`` there; no matching at the largest cost is
    an exact +inf.  The pair costs are computed once per call, and every
    matching, on either space, reads them.  The costs, the bisection, the
    grid and every search run in the pair's integer frame (``_framed``),
    and each bound is read back as one Fraction.

    On the circle a probe at a grid value is one ``_search``, which ends
    found, refuted or undecided (a search over its cap, or a Hom the
    calculus cannot use); index 0 is refuted, since
    ``iso_equal`` has failed.  Feasibility is upward closed
    (``weaken_certificate``), so one walk settles the grid.  It starts at
    the first grid value at or above the bottleneck over the deck-copy
    costs (``thicken.deck_cost``; index 1 when no cost has a matching),
    scans up to the first found probe, and then walks down: a found probe
    lowers the upper bound and the first refuted one is the lower bound,
    below which every value is infeasible.  With no certificate the walk
    goes on to 0, so that ``conclusive`` covers every probe on the grid.
    The start is a conjectured hint: from any start the walk gives the same
    answer, since only certificates and refutations decide it, and a wrong
    one costs probes only.  Each grid value is probed at most once per
    call.  ``exact`` means the least certified grid value has its grid
    predecessor refuted; lower is then reported equal to upper.  A search
    over the cap degrades exactness, never soundness.
    """
    _check_inputs(F, G, space)
    if iso_equal(F, G):
        return DistanceBounds(Fraction(0), Fraction(0), True,
                              identity_certificate(F, space),
                              exact_by="identity")
    if finite_gate(F, G, space) == "infinite":
        return DistanceBounds(POS_INF, POS_INF, True, None, exact_by="gate")
    frame, _ = _framed(F, G, space)
    M, costs = frame[0], _pair_costs(*frame[1:])
    v = _least_cost(costs)
    if space == LINE:
        if v is None:
            return DistanceBounds(POS_INF, POS_INF, True, None,
                                  exact_by="isometry")
        w = Fraction(v, M)
        return DistanceBounds(w, w, True, _search(F, G, v, frame, costs),
                              exact_by="isometry")
    grid = _grid(frame)
    n = len(grid)
    probes = {0: ("refuted", None)}

    def probe(i):
        if i not in probes:
            try:
                cert = _search(F, G, grid[i], frame, costs)
                probes[i] = ("refuted" if cert is None else "found", cert)
            except (CapacityError, UnsupportedHomError):
                probes[i] = ("undecided", None)
        return probes[i]

    upper = 1 if v is None else max(1, bisect_left(grid, v))
    while upper < n and probe(upper)[0] != "found":
        upper += 1
    lower, conclusive = None, True
    for i in range(upper - 1, -1, -1):
        outcome = probe(i)[0]
        if outcome == "found":
            upper = i
        elif outcome != "refuted":
            conclusive = False
        elif lower is None:
            lower = i
            if upper < n:
                break
    low = Fraction(grid[lower], M)
    if upper == n:
        return DistanceBounds(low, POS_INF, False, None, conclusive=conclusive)
    up, witness = Fraction(grid[upper], M), probes[upper][1]
    if lower == upper - 1:
        return DistanceBounds(up, up, True, witness, exact_by="refuted")
    return DistanceBounds(low, up, False, witness, conclusive=conclusive)
