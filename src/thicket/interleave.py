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
``_search`` is the one search at a circle shift, one straight pass: the
block-diagonal matching, then the row test (``_row_refuted``: a
restriction block that no composite reaches refutes the shift), then the
capped enumeration, each at most once.

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

The grid is built in exact integers: the ends (and C) are scaled over four
times the lcm of their denominators, so every difference, shift and half is
an int, and one ``Fraction`` is made per distinct grid value.  A search at a
thickens each side once to a and once to 2a (``_thickenings``); the lifts,
the certificate and its check share them, reading T_a T_a as T_2a.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, product

from . import fieldmath as fm
from .barcode import (CharacteristicMismatchError, global_sections,
                      global_sections_c, iso_equal)
from .morphisms import (LINE, Morphism, UnsupportedHomError, _block_kind,
                        compose, identity_morphism, map_blocks, normal_form,
                        restriction, restriction_between, space_dim,
                        struct_scalar, thicken_indexed)
from .scalars import POS_INF
from .thicken import (cost_form, deck_cost, direct_cost,
                      halfopen_translation_kills, kill_cost)


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
    """Exact check of the two 2a-composite identities in ``space``, on the
    four ``_thickenings`` tables (``_verified``)."""
    a = Fraction(cert.a)
    if a < 0:
        return False
    return _verified(F, G, cert, _thickenings(F, G, a, space), space)


def _thickenings(F, G, a, space):
    """Per side X, the ``thicken_indexed`` tables of T_a X and T_2a X."""
    return [(thicken_indexed(X, a, space), thicken_indexed(X, 2 * a, space))
            for X in (F, G)]


def _verified(F, G, cert, sides, space):
    """Whether T_a x then y is the restriction T_2a X -> X, for (x, y) =
    (f, g) and (g, f), on the tables ``sides``.  Thickening is monoidal:
    T_a T_a X = T_2a X, bar pXa[i] going to bar pX2a[i] (``sorted`` is
    stable, and T_a keeps bars apart for a >= 0), so T_a x is x moved there."""
    (Fa, F2a), (Ga, G2a) = sides
    if cert.f.source != Fa[0] or cert.f.target != G:
        raise ValueError("certificate f has wrong shape")
    if cert.g.source != Ga[0] or cert.g.target != F:
        raise ValueError("certificate g has wrong shape")
    return all(
        compose(map_blocks(x, X2a[0], dict(zip(Xa[1], X2a[1])), *Ya), y)
        == _restriction_to(X, 2 * cert.a, X2a, space)
        for X, x, y, Xa, X2a, Ya in ((F, cert.f, cert.g, Fa, F2a, Ga),
                                     (G, cert.g, cert.f, Ga, G2a, Fa)))


def _restriction_to(X, a2, X2a, space):
    """The restriction T_2a X -> X on the 2a table ``X2a``."""
    return restriction_between(X, 0, a2, *X2a, X, range(len(X.bars)), space)


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

def _lifts(F, G, a, sides):
    """Per side, per bar b: (b, its a-lift, its 2a-lift, whether the
    restriction T_2a X -> X kills it), read off the ``_thickenings``
    tables ``sides``."""
    return [[(b, Ta.bars[pa[i]], T2a.bars[p2a[i]],
              halfopen_translation_kills(b.iv, 0, 2 * a))
             for i, b in enumerate(X.bars)]
            for X, ((Ta, pa), (T2a, p2a)) in zip((F, G), sides)]


def _composites(f, g, p, space):
    """The scalars (s1, s2) of the two composites of the pair of ``_lifts``
    f and g with unit blocks f -> g and g -> f: T_a(f-block) then g-block
    on f's restriction block, and the other way round on g's; None when
    either block is zero (degrees out of range or a zero Hom)."""
    fbar, tf, tff, _ = f
    gbar, tg, tgg, _ = g
    k_f = _block_kind(tf, gbar)
    k_g = _block_kind(tg, fbar)
    if k_f is None or k_g is None:
        return None
    if space_dim(space, tf.iv, gbar.iv, k_f, p) == 0:
        return None
    if space_dim(space, tg.iv, fbar.iv, k_g, p) == 0:
        return None
    k_tf = _block_kind(tff, tg)
    k_tg = _block_kind(tgg, tf)
    if k_tf is None or k_tg is None:
        return None
    _, s1 = struct_scalar(space, p, tff.iv, tg.iv, fbar.iv, k_tf, k_g)
    _, s2 = struct_scalar(space, p, tgg.iv, tf.iv, gbar.iv, k_tg, k_f)
    return s1, s2


def _pair_feasible(f, g, p, space):
    """The g-side scalar of a matched pair, or None; its f-side scalar is 1.

    ``f`` and ``g`` are ``_lifts`` entries.  The pair's ``_composites`` must
    hit the restriction coefficients of both bars exactly; either
    coefficient may be zero (a half-open bar past its length), in which
    case the corresponding composite has to vanish."""
    s = _composites(f, g, p, space)
    if s is None:
        return None
    s1, s2 = s
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


def _pair_costs(F, G, space):
    """Per F bar, the (direct cost, G index) of every G bar in its
    ``thicken.cost_form`` class, and the kill costs of both sides; every
    other pair is at direct cost +inf.  On the line these are exact by the
    derived isometry theorem; on the circle a direct cost is the least over
    the deck copies, by the deck-copy conjecture (``thicken.deck_cost``)."""
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
    return None if k == len(values) else Fraction(values[k])


def _certificate(F, G, a, scalars, sides, space):
    """The block-diagonal a-certificate on the tables ``sides``, unverified,
    with f-side scalar 1 and g-side scalar ``scalars[(i, j)]`` on (i, j)."""
    ((TFa, permF), _), ((TGa, permG), _) = sides
    fblocks, gblocks = {}, {}
    for (i, j), x in scalars.items():
        fblocks[(permF[i], j, _block_kind(TFa.bars[permF[i]], G.bars[j]))] = 1
        gblocks[(permG[j], i, _block_kind(TGa.bars[permG[j]], F.bars[i]))] = x
    return InterleavingCertificate(
        a,
        Morphism(TFa, G, fblocks, space, validate=False),
        Morphism(TGa, F, gblocks, space, validate=False))


def _matching(F, G, a, space, costs, sides):
    """The verified certificate of a block-diagonal matching at ``a`` over
    the ``_pair_costs`` costs and the ``_thickenings`` tables, or None.

    The candidate pairs are those of cost at most a, and a bar of kill cost
    at most a may stay unmatched.  ``_perfect_matching`` runs once, and
    only the pairs it proposes meet the Hom calculus, once each: a pair
    whose bars both die takes its two diagonal slots, and every other pair
    must pass ``_pair_feasible``.  On the line the costs are exact, so a
    pair it rejects, or whose Hom it cannot use, is an invariant break
    (``AssertionError``); on the circle they are a conjecture, and None
    leaves the shift to ``_exhaustive``.  A certificate that fails
    verification is an invariant break on both spaces: each (i, i) block
    of its composites is the product that ``_pair_feasible`` checked."""
    pairs = _perfect_matching(*_candidates(costs, a))
    if pairs is None:
        return None
    lifts = _lifts(F, G, a, sides)
    scalars = {}
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
                raise AssertionError(f"the cost formula and the Hom calculus "
                                     f"disagree on {f[0]}, {g[0]} at {a}")
            return None
        scalars[(i, j)] = x
    cert = _certificate(F, G, a, scalars, sides, space)
    if not _verified(F, G, cert, sides, space):
        raise AssertionError(f"matching at {a} fails verification")
    return cert


def check_matching(F, G, a, space=LINE):
    """``_matching`` at the shift a, after the entry checks of every
    search: the verified certificate, or None."""
    a = _check_inputs(F, G, space, a)
    return _matching(F, G, a, space, _pair_costs(F, G, space),
                     _thickenings(F, G, a, space))


# ---------------------------------------------------------------------------
# Strategy: exhaustive bilinear search.

def _variables(X, TXa, permX, Y, p, space):
    """The unknown blocks (i, j, kind) of T_a X -> Y, one ``space_dim``
    lookup per bar pair, lazily: the caller stops at its cap."""
    for i in range(len(X.bars)):
        src = TXa.bars[permX[i]]
        for j in range(len(Y.bars)):
            k = _block_kind(src, Y.bars[j])
            if k is not None and space_dim(space, src.iv, Y.bars[j].iv, k, p):
                yield (i, j, k)


def check_exhaustive(F, G, a, space=LINE):
    """Complete search over block assignments; None means proven infeasible.
    The row test (``_row_refuted``) runs first, under no cap.  Then the
    unknowns are counted as they are found, and the count stops as soon as
    it passes ``MAX_UNKNOWNS``."""
    a = _check_inputs(F, G, space, a)
    return _exhaustive(F, G, a, space, _thickenings(F, G, a, space))


def _exhaustive(F, G, a, space, sides):
    """``check_exhaustive`` on the ``_thickenings`` tables ``sides``: the
    row test, then the capped enumeration."""
    if _row_refuted(F, G, a, space, sides):
        return None
    p = F.char
    (Fa, _), (Ga, _) = sides
    fvars = list(islice(_variables(F, *Fa, G, p, space), MAX_UNKNOWNS + 1))
    gvars = list(islice(_variables(G, *Ga, F, p, space),
                        MAX_UNKNOWNS + 1 - len(fvars)))
    if len(fvars) + len(gvars) > MAX_UNKNOWNS:
        raise CapacityError(
            f"{len(fvars)} + {len(gvars)} unknown blocks exceed the cap "
            f"{MAX_UNKNOWNS}")
    if len(fvars) > len(gvars):
        # enumerate over the smaller side by swapping the roles of F and G
        res = _exhaustive_core(G, F, a, space, sides[::-1], gvars, fvars)
        if res is None:
            return None
        return InterleavingCertificate(a, res.g, res.f)
    return _exhaustive_core(F, G, a, space, sides, fvars, gvars)


def _row_refuted(F, G, a, space, sides):
    """Whether some restriction block of T_2a X -> X, for X = F or G, is
    reached by no composite: its row of the composite equations reads
    0 = 1 under every assignment of the blocks, so the shift is refuted.
    The composites that reach bar i's block (i, i) pass through one bar j
    of the other side, so per bar that survives to 2a the scan runs over
    its partners j and stops at the first nonzero ``_composites`` scalar.
    A partner whose Hom the calculus cannot use (``UnsupportedHomError``)
    leaves only its bar undecided, and the scan goes on: the shift is
    refuted by a bar whose partners are all usable and none reaches it,
    and otherwise an undecided bar raises the error again."""
    fs, gs = _lifts(F, G, a, sides)
    undecided = None
    for side, xs in enumerate((fs, gs)):
        for x in xs:
            if x[3]:
                continue                # its restriction block is zero
            pairs = ((x, g) for g in gs) if side == 0 else ((f, x) for f in fs)
            unusable = None
            for f, g in pairs:
                try:
                    s = _composites(f, g, F.char, space)
                except UnsupportedHomError as exc:
                    unusable = exc
                    continue
                if s and s[side]:
                    break
            else:
                if unusable is None:
                    return True
                undecided = undecided or unusable
    if undecided is not None:
        raise undecided
    return False


def _composite_terms(X, TX2a, permX2a, TYa, permYa, xvars, yvars, p, space):
    """Tensor entries of the composite T_a(x-blocks) then (y-blocks), an
    element of Hom(T_2a X, X): (xvar, yvar) -> [(block key, scalar)], in
    ``xvars`` then ``yvars`` order."""
    out = {}
    for xu in xvars:
        xi, yj, _ = xu
        src2 = TX2a.bars[permX2a[xi]]
        mid = TYa.bars[permYa[yj]]
        kxt = _block_kind(src2, mid)
        if kxt is None:
            continue
        for yv in yvars:
            yj2, xl, ky = yv
            if yj2 != yj:
                continue
            if kxt == "e" and ky == "e":
                continue
            tk, s = struct_scalar(space, p, src2.iv, mid.iv, X.bars[xl].iv, kxt, ky)
            if s:
                out.setdefault((xu, yv), []).append(((permX2a[xi], xl, tk), s))
    return out


def _exhaustive_core(F, G, a, space, sides, fvars, gvars):
    """Enumerate the f-blocks ``fvars`` and solve linearly for the g-blocks
    ``gvars``, on the ``_thickenings`` tables ``sides``; one equation per
    block of the restriction or of a composite term."""
    p = F.char
    (((TFa, permFa), (TF2a, permF2a)),
     ((TGa, permGa), (TG2a, permG2a))) = sides

    # Tensor entries for the two composite equations.
    t1 = _composite_terms(F, TF2a, permF2a, TGa, permGa, fvars, gvars, p, space)
    t2 = _composite_terms(G, TG2a, permG2a, TFa, permFa, gvars, fvars, p, space)
    rho_F = _restriction_to(F, 2 * a, sides[0][1], space).blocks
    rho_G = _restriction_to(G, 2 * a, sides[1][1], space).blocks
    if p ** len(fvars) > MAX_ENUMERATION:
        raise CapacityError(
            f"enumeration {p}^{len(fvars)} exceeds the cap {MAX_ENUMERATION}")

    rows1 = sorted(rho_F.keys() | {rk for v in t1.values() for rk, _ in v})
    rows2 = sorted(rho_G.keys() | {rk for v in t2.values() for rk, _ in v})
    ridx1 = {r: k for k, r in enumerate(rows1)}
    ridx2 = {r: k for k, r in enumerate(rows2)}
    gidx = {v: k for k, v in enumerate(gvars)}
    fidx = {v: k for k, v in enumerate(fvars)}

    for assign in product(range(p), repeat=len(fvars)):
        mat = fm.zeros(len(rows1) + len(rows2), len(gvars))
        rhs = [0] * (len(rows1) + len(rows2))
        for r, key in enumerate(rows1):
            rhs[r] = rho_F.get(key, 0)
        for r, key in enumerate(rows2):
            rhs[len(rows1) + r] = rho_G.get(key, 0)
        for (fu, gv), terms in t1.items():
            c = assign[fidx[fu]]
            if c == 0:
                continue
            for (rk, s) in terms:
                mat[ridx1[rk]][gidx[gv]] = (mat[ridx1[rk]][gidx[gv]] + c * s) % p
        for (gv, fu), terms in t2.items():
            c = assign[fidx[fu]]
            if c == 0:
                continue
            for (rk, s) in terms:
                row = len(rows1) + ridx2[rk]
                mat[row][gidx[gv]] = (mat[row][gidx[gv]] + c * s) % p
        sol = fm.solve(mat, rhs, p)
        if sol is None:
            continue
        fblocks = {}
        for v, c in zip(fvars, assign):
            if c:
                fi, gj, kf = v
                fblocks[(permFa[fi], gj, kf)] = c
        gblocks = {}
        for v, c in zip(gvars, sol):
            if c:
                gj, fi, kg = v
                gblocks[(permGa[gj], fi, kg)] = c
        cert = InterleavingCertificate(
            a,
            Morphism(TFa, G, fblocks, space, validate=False),
            Morphism(TGa, F, gblocks, space, validate=False))
        if _verified(F, G, cert, sides, space):
            return cert
        raise AssertionError("solver produced a certificate that fails verification")
    return None


def _search(F, G, a, space, costs):
    """The one search at a circle shift, on one set of ``_thickenings``: the
    ``_matching`` certificate over the deck-copy costs, else ``_exhaustive``
    (the row test, then the capped enumeration)."""
    sides = _thickenings(F, G, a, space)
    cert = _matching(F, G, a, space, costs, sides)
    return cert if cert is not None else _exhaustive(F, G, a, space, sides)


def check_interleaving(F, G, a, space=LINE):
    """Search for a verified a-certificate in ``space``.  Returns None when
    the shift is refuted; raises ``ValueError`` when a < 0, and on the
    circle ``CapacityError`` or ``UnsupportedHomError`` when the shift stays
    undecided.  At a = 0 no search runs: T_0 is the identity, so a
    0-certificate is an isomorphism, and the shift is refuted unless
    ``iso_equal`` holds.

    On the line ``_matching`` over the closed-form costs decides: the
    threshold test of a bottleneck search (Kerber-Morozov-Nigmetov, JEA
    2017), exact by the derived isometry theorem (Berkouk-Ginot,
    arXiv:1907.09759).  On the circle ``_search`` runs."""
    a = _check_inputs(F, G, space, a)
    if a == 0 and not iso_equal(F, G):
        return None
    costs = _pair_costs(F, G, space)
    if space == LINE:
        return _matching(F, G, a, LINE, costs, _thickenings(F, G, a, LINE))
    return _search(F, G, a, space, costs)


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
    to 2C.  The ends (and C) are scaled to integers over M = 4 * lcm of
    their denominators, so every value and every half is an exact int over
    M."""
    eps = F.finite_endpoints() + G.finite_endpoints()
    dens = [x.denominator for x in eps]
    if space != LINE:
        C = space[1]
        dens.append(C.denominator)
    M = 4 * math.lcm(*dens)
    ints = [x.numerator * (M // x.denominator) for x in eps]
    base = {0}
    for i, p in enumerate(ints):
        for q in ints[i + 1:]:
            base.add(abs(p - q))
    if space != LINE:
        half = C.numerator * (M // C.denominator) // 2
        base = {w for v in base for k in (-2, -1, 0, 1, 2)
                if (w := abs(v + k * half)) <= 4 * half}
    return [Fraction(v, M) for v in sorted(base | {v // 2 for v in base})]


def distance(F, G, space=LINE) -> DistanceBounds:
    """The interleaving distance bounds of F and G in ``space``; isomorphic
    inputs are at exact 0, and inputs the finiteness gate separates at
    exact +inf.  ``exact_by`` names the reason of every exact answer.

    On the line the distance is the graded bottleneck distance over the
    closed-form costs (Berkouk-Ginot, A derived isometry theorem for
    sheaves, arXiv:1907.09759): the least sorted cost at which a matching
    exists, found by bisection as in Kerber-Morozov-Nigmetov (Geometry
    helps to compare persistence diagrams, JEA 2017), with the one verified
    certificate of ``_matching`` there; no matching at the largest cost is
    an exact +inf.  The pair costs are computed once per call, and every
    matching, on either space, reads them.

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
    costs = _pair_costs(F, G, space)
    v = _least_cost(costs)
    if space == LINE:
        if v is None:
            return DistanceBounds(POS_INF, POS_INF, True, None,
                                  exact_by="isometry")
        cert = _matching(F, G, v, LINE, costs, _thickenings(F, G, v, LINE))
        return DistanceBounds(v, v, True, cert, exact_by="isometry")
    grid = critical_grid(F, G, space)
    n = len(grid)
    probes = {0: ("refuted", None)}

    def probe(i):
        if i not in probes:
            try:
                cert = _search(F, G, grid[i], space, costs)
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
    if upper == n:
        return DistanceBounds(grid[lower], POS_INF, False, None,
                              conclusive=conclusive)
    witness = probes[upper][1]
    if lower == upper - 1:
        return DistanceBounds(grid[upper], grid[upper], True, witness,
                              exact_by="refuted")
    return DistanceBounds(grid[lower], grid[upper], False, witness,
                          conclusive=conclusive)
