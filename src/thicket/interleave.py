"""Interleaving certificates and two-sided distance bounds.

An a-certificate is a pair f: T_a F -> G, g: T_a G -> F whose 2a-composites
equal the canonical restrictions.  The distance search works on the critical
grid of endpoint differences and half-differences; the answer is the least
certified grid value, exact when the grid value just below it is refuted.
Since an a-certificate weakens to a b-certificate for every b >= a, one
refutation settles every value below it.  So ``distance`` makes one walk:
from the least grid value where the matching search alone succeeds
(galloping from the bottom, then bisecting), up to the first certified
value, then down to the first refuted one.

``_search`` is the one search at a single shift, used by ``distance`` and
by ``check_interleaving``: the block-diagonal matching, a perfect bipartite
matching with diagonal partners decided in polynomial time, then the
complete exhaustive search.  ``check_matching`` and ``check_exhaustive``
are its two strategies; each returns only verified certificates.

Every search runs in one space, named by the value that ``morphisms`` keys
on: ``LINE`` by default, or ``circle_ops(C)`` = ``("circle", C)`` for
spirals on R/CZ.  The space decides three things only: thickened lifts are
put into its normal form (``morphisms.normal_form``), the finiteness gate
compares the sections that are invariant there, and the critical grid adds
the circle's shifts by multiples of C/2.  Inputs must be over one field and
already in normal form.

The grid is built in exact integers: the ends (and C) are scaled over four
times the lcm of their denominators, so every difference, shift and half is
an int, and one ``Fraction`` is made per distinct grid value.  A matching
probe thickens each bar once to its a-lift and once to its 2a-lift and reads
its restriction coefficient once; every candidate pair reuses these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import fieldmath as fm
from .barcode import (CharacteristicMismatchError, global_sections,
                      global_sections_c, iso_equal)
from .morphisms import (LINE, Morphism, UnsupportedHomError, _block_kind,
                        compose, identity_morphism, normal_form, restriction,
                        space_dim, struct_scalar, thicken_indexed,
                        thicken_morphism)
from .scalars import POS_INF
from .thicken import bar_rule, halfopen_translation_kills


class CapacityError(RuntimeError):
    """Exhaustive search was requested beyond the configured cap."""


# Largest number of f-block assignments the exhaustive search enumerates.
MAX_ENUMERATION = 4096


@dataclass(frozen=True)
class Budget:
    max_unknowns: int = 24


DEFAULT_BUDGET = Budget()


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

    def fields(self):
        return (self.lower, self.upper, self.exact)


# ---------------------------------------------------------------------------

def verify_certificate(F, G, cert: InterleavingCertificate, space=LINE) -> bool:
    """Exact check of the two 2a-composite identities in ``space``."""
    a = Fraction(cert.a)
    if a < 0:
        return False
    TFa, _ = thicken_indexed(F, a, space)
    TGa, _ = thicken_indexed(G, a, space)
    if cert.f.source != TFa or cert.f.target != G:
        raise ValueError("certificate f has wrong shape")
    if cert.g.source != TGa or cert.g.target != F:
        raise ValueError("certificate g has wrong shape")
    lhs_f = compose(thicken_morphism(cert.f, a), cert.g)
    if lhs_f != restriction(F, 0, 2 * a, space):
        return False
    lhs_g = compose(thicken_morphism(cert.g, a), cert.f)
    return lhs_g == restriction(G, 0, 2 * a, space)


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
# Strategy: block-diagonal matching.

def _lifts(bars, a, space):
    """Per bar: (bar, its a-lift, its 2a-lift, whether the canonical
    restriction to 2a kills it), computed once per probe; the lifts are in
    the normal form of ``space``."""
    a2 = 2 * a
    return [(b, normal_form(bar_rule(b, a), space),
             normal_form(bar_rule(b, a2), space),
             halfopen_translation_kills(b.iv, 0, a2)) for b in bars]


def _pair_feasible(f, g, p, space):
    """The g-side scalar of a matched pair, or None; its f-side scalar is 1.

    ``f`` and ``g`` are entries of ``_lifts``.  The pair's composites must
    hit the restriction coefficients of both bars exactly; either
    coefficient may be zero (a half-open bar past its length), in which case
    the corresponding composite has to vanish."""
    fbar, tf, tff, f_dies = f
    gbar, tg, tgg, g_dies = g
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


def _check_inputs(F, G, space):
    """Reject a pair over two fields, and bars that ``normal_form`` would
    move.  The circle search normalizes every thickened lift and compares
    it with the input lifts, so those must be normalized too."""
    if F.char != G.char:
        raise CharacteristicMismatchError(
            f"cannot interleave barcodes over F_{F.char} and F_{G.char}")
    for b in F.bars + G.bars:
        nb = normal_form(b, space)
        if nb != b:
            raise ValueError(f"bar {b} is not normalized (its normal form "
                             f"is {nb})")


def _match_pairs(F, G, a, space):
    """The pair-feasibility table at ``a`` and a block-diagonal matching:
    ``(pairs, feas)``, or None when none exists.  A pair whose Hom the
    calculus cannot use counts as infeasible; the caller checks inputs."""
    p = F.char
    nF, nG = len(F.bars), len(G.bars)
    lifts_F = _lifts(F.bars, a, space)
    lifts_G = _lifts(G.bars, a, space)
    feas = {}
    for i in range(nF):
        for j in range(nG):
            try:
                r = _pair_feasible(lifts_F[i], lifts_G[j], p, space)
            except UnsupportedHomError:
                r = None              # matching may skip unsupported pairs
            if r is not None:
                feas[(i, j)] = r

    # Left: F's bars, then a diagonal slot nF + j per G bar; right: G's
    # bars, then a slot nG + i per F bar, joined to its own bar when the
    # restriction kills that bar.  A valid matching with k pairs extends to
    # a perfect one (the other bars take their own slots, and the k slots
    # left on each side pair freely); a perfect one restricts to its pairs.
    slots = list(range(nG, nG + nF))
    adj = [[j for j in range(nG) if (i, j) in feas]
           + ([nG + i] if lifts_F[i][3] else []) for i in range(nF)]
    adj += [[j] + slots if lifts_G[j][3] else slots for j in range(nG)]
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
    return [(i, mate[i]) for i in range(nF) if mate[i] < nG], feas


def _matching_certificate(F, G, a, match, space):
    """The block-diagonal certificate of a ``_match_pairs`` result, or None
    when it fails verification."""
    pairs, feas = match
    TFa, permF = thicken_indexed(F, a, space)
    TGa, permG = thicken_indexed(G, a, space)
    fblocks, gblocks = {}, {}
    for (i, j) in pairs:
        tf = TFa.bars[permF[i]]
        tg = TGa.bars[permG[j]]
        fblocks[(permF[i], j, _block_kind(tf, G.bars[j]))] = 1
        gblocks[(permG[j], i, _block_kind(tg, F.bars[i]))] = feas[(i, j)]
    cert = InterleavingCertificate(
        a,
        Morphism(TFa, G, fblocks, space, validate=False),
        Morphism(TGa, F, gblocks, space, validate=False))
    if verify_certificate(F, G, cert, space):
        return cert
    return None


def check_matching(F, G, a, space=LINE):
    _check_inputs(F, G, space)
    a = Fraction(a)
    match = _match_pairs(F, G, a, space)
    if match is None:
        return None
    return _matching_certificate(F, G, a, match, space)


# ---------------------------------------------------------------------------
# Strategy: exhaustive bilinear search.

def _variables(X, TXa, permX, Y, p, space):
    out = []
    for i in range(len(X.bars)):
        src = TXa.bars[permX[i]]
        for j in range(len(Y.bars)):
            k = _block_kind(src, Y.bars[j])
            if k is None:
                continue
            if space_dim(space, src.iv, Y.bars[j].iv, k, p):
                out.append((i, j, k))
    return out


def check_exhaustive(F, G, a, space=LINE, budget: Budget = DEFAULT_BUDGET):
    """Complete search over block assignments; None means proven infeasible."""
    _check_inputs(F, G, space)
    a = Fraction(a)
    p = F.char
    TFa, permFa = thicken_indexed(F, a, space)
    TGa, permGa = thicken_indexed(G, a, space)
    fvars = _variables(F, TFa, permFa, G, p, space)
    gvars = _variables(G, TGa, permGa, F, p, space)
    if len(fvars) + len(gvars) > budget.max_unknowns:
        raise CapacityError(
            f"{len(fvars)} + {len(gvars)} unknown blocks exceed the cap "
            f"{budget.max_unknowns}")
    if len(fvars) > len(gvars):
        # enumerate over the smaller side by swapping the roles of F and G
        res = _exhaustive_core(G, F, a, space,
                               TGa, permGa, gvars, TFa, permFa, fvars)
        if res is None:
            return None
        return InterleavingCertificate(a, res.g, res.f)
    return _exhaustive_core(F, G, a, space,
                            TFa, permFa, fvars, TGa, permGa, gvars)


def _composite_terms(X, TX2a, permX2a, TYa, permYa, xvars, yvars, p, space):
    """Tensor entries of the composite T_a(x-blocks) then (y-blocks), an
    element of Hom(T_2a X, X): (xvar, yvar) -> [(row key, scalar)], in
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
                out.setdefault((xu, yv), []).append(((xi, xl, tk), s))
    return out


def _restriction_terms(X, TX2a, permX2a, a2):
    """Blocks of the canonical restriction T_2a X -> X: the right-hand side
    of the composite equation for X."""
    return {(i, i, _block_kind(TX2a.bars[permX2a[i]], b)): 1
            for i, b in enumerate(X.bars)
            if not halfopen_translation_kills(b.iv, 0, a2)}


def _exhaustive_core(F, G, a, space, TFa, permFa, fvars, TGa, permGa, gvars):
    """Enumerate the f-blocks ``fvars`` and solve linearly for the g-blocks
    ``gvars``; the a-thickenings and their index maps come from the caller."""
    p = F.char
    TF2a, permF2a = thicken_indexed(F, 2 * a, space)
    TG2a, permG2a = thicken_indexed(G, 2 * a, space)
    if p ** len(fvars) > MAX_ENUMERATION:
        raise CapacityError(
            f"enumeration {p}^{len(fvars)} exceeds the cap {MAX_ENUMERATION}")

    # Tensor entries for the two composite equations.
    t1 = _composite_terms(F, TF2a, permF2a, TGa, permGa, fvars, gvars, p, space)
    t2 = _composite_terms(G, TG2a, permG2a, TFa, permFa, gvars, fvars, p, space)
    rho_F = _restriction_terms(F, TF2a, permF2a, 2 * a)
    rho_G = _restriction_terms(G, TG2a, permG2a, 2 * a)

    rows1 = sorted(set(list(rho_F) + [rk for v in t1.values() for rk, _ in v]))
    rows2 = sorted(set(list(rho_G) + [rk for v in t2.values() for rk, _ in v]))
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
        if verify_certificate(F, G, cert, space):
            return cert
        raise AssertionError("solver produced a certificate that fails verification")
    return None


def _search(F, G, a, space, budget, match):
    """The one search at a shift: the certificate of ``match`` (a
    ``_match_pairs`` result) if it verifies, else the exhaustive search's
    answer.  A Hom the calculus cannot use counts as no match."""
    if match is not None:
        try:
            cert = _matching_certificate(F, G, a, match, space)
        except UnsupportedHomError:
            cert = None
        if cert is not None:
            return cert
    return check_exhaustive(F, G, a, space, budget)


def check_interleaving(F, G, a, space=LINE, budget: Budget = DEFAULT_BUDGET):
    """Search for a verified a-certificate in ``space``: matching first,
    then the exhaustive search (``_search``).  Returns None when the
    exhaustive search refutes the shift; raises ``CapacityError`` or
    ``UnsupportedHomError`` when the shift stays undecided, and
    ``ValueError`` when a < 0.  At a = 0 no search runs: T_0 is the
    identity, so a 0-certificate is an isomorphism, and the shift is
    refuted unless ``iso_equal`` holds."""
    _check_inputs(F, G, space)
    a = Fraction(a)
    if a < 0:
        raise ValueError("interleaving shift must be nonnegative")
    if a == 0 and not iso_equal(F, G):
        return None
    return _search(F, G, a, space, budget, _match_pairs(F, G, a, space))


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


def _least_match(n, match):
    """The least index m in 1..n-1 with ``match(m)`` not None, assuming the
    hits are upward closed and index 0 misses; None when n - 1 misses.
    Gallops over 1, 2, 4, ... and then bisects between the last miss and
    the first hit, so a candidate near the bottom of the grid costs few
    calls."""
    lo, hi = 0, 1
    while hi < n - 1 and match(hi) is None:
        lo, hi = hi, min(2 * hi, n - 1)
    if hi >= n or match(hi) is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if match(mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def distance(F, G, budget: Budget = DEFAULT_BUDGET, space=LINE) -> DistanceBounds:
    """Find the least certified shift on the critical grid.

    A probe at a grid value is one ``_search``, which ends found, refuted,
    capacity or unsupported; index 0 is refuted, since ``iso_equal`` has
    failed.  Feasibility is upward closed (``weaken_certificate``), so one
    walk settles the grid.  It starts at the least index where the
    matching search alone succeeds (``_least_match``, or index 1 when none
    does), scans up to the first found probe, and then walks down: a found
    probe lowers the upper bound and the first refuted one is the lower
    bound, below which every value is infeasible.  With no certificate the
    walk goes on to 0, so that ``conclusive`` covers every probe on the
    grid.  Each grid value is matched and probed at most once per call.

    The returned ``exact`` flag means the least certified grid value has its
    grid predecessor refuted; in that case lower is reported equal to
    upper.  Budget exhaustion degrades exactness, never soundness.
    """
    _check_inputs(F, G, space)
    if iso_equal(F, G):
        return DistanceBounds(Fraction(0), Fraction(0), True,
                              identity_certificate(F, space))
    if finite_gate(F, G, space) == "infinite":
        return DistanceBounds(POS_INF, POS_INF, True, None)
    grid = critical_grid(F, G, space)
    n = len(grid)
    probes, matches = {0: ("refuted", None)}, {}

    def match(i):
        if i not in matches:
            matches[i] = _match_pairs(F, G, grid[i], space)
        return matches[i]

    def probe(i):
        if i not in probes:
            try:
                cert = _search(F, G, grid[i], space, budget, match(i))
                probes[i] = ("refuted" if cert is None else "found", cert)
            except CapacityError:
                probes[i] = ("capacity", None)
            except UnsupportedHomError:
                probes[i] = ("unsupported", None)
        return probes[i]

    upper = _least_match(n, match)
    if upper is None:
        upper = 1
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
        return DistanceBounds(grid[upper], grid[upper], True, witness)
    return DistanceBounds(grid[lower], grid[upper], False, witness,
                          conclusive=conclusive)
