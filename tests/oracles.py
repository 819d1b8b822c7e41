"""Oracles of the tests: slow, direct computations that the fast paths of
the package are checked against, and that no production path runs.

- ``stalk_oracle`` and ``circle_stalk_oracle``: stalks of a thickening,
  computed fiberwise as the compactly supported cohomology of a ball meet
  each bar (each deck copy of a spiral on the circle).  The per-bar rules
  of ``thicken`` are certified against them.
- ``thicken_per_bar`` and ``dualize_per_bar``: the two bulk transforms one
  checked bar at a time, sorted by the checked ``GradedBarcode``, the
  oracle of the frame-native ``thicken`` and ``dualize``.
- ``quiver_struct_scalar`` and ``poset_oracle_rhom``: structure constants
  and RHom dimensions computed in the finite quiver models of
  ``thicket.model``, the oracle of the closed-form line Hom calculus and of
  the covering-map circle calculus in ``thicket.morphisms``.
"""

from __future__ import annotations

from fractions import Fraction

from thicket import fieldmath as fm
from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, dualize_bar,
                             intersect, rgamma_c_interval)
from thicket.model import RepPair
from thicket.morphisms import (LINE, UnsupportedHomError, _deck_copy,
                               bar_rep, build_model, pair_data)
from thicket.thicken import _ball, bar_rule


# ---------------------------------------------------------------------------
# Stalk oracles: the kernel composition evaluated fiberwise.

def stalk_oracle(F: GradedBarcode, a, t) -> dict[int, int]:
    """Stalk dimensions of the a-thickening of F at t, per bar: the
    compactly supported cohomology of the ball around t meet the bar.  For
    a >= 0 the ball is the closed one of radius a; for a < 0 it is the open
    one of radius -a, and the degrees drop by one (the shift [1])."""
    a, t = Fraction(a), Fraction(t)
    ball, shift = (_ball(t, a, CLOSED), 0) if a >= 0 else (_ball(t, -a, OPEN), -1)
    dims: dict[int, int] = {}
    for b in F.bars:
        inter = intersect(ball, b.iv)
        if inter is None:
            continue
        for off, n in rgamma_c_interval(inter).items():
            d = b.degree + off + shift
            dims[d] = dims.get(d, 0) + n
    return {d: n for d, n in sorted(dims.items()) if n}


def circle_stalk_oracle(F, a, x) -> dict[int, int]:
    """Stalk dimensions of the a-thickening of the circle sheaf F at x: the
    line ``stalk_oracle`` over the deck copies of the spirals near x, plus
    the rank of each band in its degree.  Valid for 0 <= a below the
    half-circumference embedding bound."""
    a, x = Fraction(a), Fraction(x)
    if a < 0:
        raise ValueError("stalk oracle requires a >= 0")
    if 2 * a >= F.C:
        raise ValueError("ball does not embed; chain smaller steps instead")
    copies = []
    for b in F.spirals:
        lo = ((b.iv.left - (x + a)) / F.C).__floor__() - 1
        hi = ((b.iv.right - (x - a)) / F.C).__ceil__() + 1
        copies += [Bar(_deck_copy(b.iv, -n, F.C), b.degree)
                   for n in range(lo, hi + 1)]
    dims = stalk_oracle(GradedBarcode(copies, F.char), a, x)
    for band in F.bands:
        dims[band.degree] = dims.get(band.degree, 0) + band.rank
    return dict(sorted(dims.items()))


# ---------------------------------------------------------------------------
# The bulk transforms one bar at a time: each output bar a checked
# ``Interval``, the whole sorted by the checked ``GradedBarcode``.

def thicken_per_bar(F: GradedBarcode, a) -> GradedBarcode:
    """``thicken`` as ``bar_rule`` on each bar, in Fractions."""
    a = Fraction(a)
    return GradedBarcode([bar_rule(b, a) for b in F.bars], F.char)


def dualize_per_bar(F: GradedBarcode) -> GradedBarcode:
    """``dualize`` as ``dualize_bar`` on each bar."""
    return GradedBarcode([dualize_bar(b) for b in F.bars], F.char)


# ---------------------------------------------------------------------------
# The quiver route: structure constants in the model of a triple.

def transport_ext_class(coarse: RepPair, evec, fine: RepPair):
    """The Ext class ``evec`` of ``coarse``, as an edge vector of ``fine``:
    the same pair of sheaves on a model that refines coarse's.

    A fine edge at a coarse point carries the coarse entries at that point
    and side; one at a new point carries 0, since the extension is glued by
    identities inside a coarse stratum.  Coarse edges are keyed by (point,
    side), which also tells apart the two edges of a one-point circle model.
    """
    cmodel, fmodel = coarse.model, fine.model
    if not set(cmodel.points) <= set(fmodel.points):
        raise ValueError("target model does not refine the source model")
    at = {(cmodel.strata[pt].left, side): ei
          for ei, (pt, _op, side) in enumerate(cmodel.edges)}
    out = []
    for (ei, j, i) in fine.ecoords:
        pt, _op, side = fmodel.edges[ei]
        cei = at.get((fmodel.strata[pt].left, side))
        out.append(0 if cei is None else evec[coarse._eindex[(cei, j, i)]])
    return out


def _hom_gen_matrices(rp: RepPair, ivA, ivB):
    """Vertex matrices of the canonical Hom^0 generator of the pair ``rp``
    of the reps of ``ivA`` and ``ivB``."""
    if rp.hom_dim != 1:
        raise UnsupportedHomError(f"hom dim {rp.hom_dim} for {ivA} -> {ivB}")
    gen = rp.hom_generator()
    lead = [x for x in gen if x % rp.p]
    if any(x != lead[0] for x in lead):
        raise UnsupportedHomError(f"non-indicator hom generator for {ivA} -> {ivB}")
    return rp.vertex_matrices(gen)


def _ext_gen_reduced(space, shared_pair: RepPair, ivA, ivB, p):
    """Image in ``shared_pair`` of the pair-anchored Ext generator."""
    pd = pair_data(space, ivA, ivB, p)
    if pd.ext_generator is None:
        raise ValueError("ext space is zero")
    red = shared_pair.ext_reduce(
        transport_ext_class(pd.pair, pd.ext_generator, shared_pair))
    if not any(red):
        raise AssertionError(f"ext generator transported to zero for {ivA} -> {ivB}")
    return red


def _scalar_on_ext(shared_pair: RepPair, gen_red, vec, p: int) -> int:
    red = shared_pair.ext_reduce(vec)
    if not any(red):
        return 0
    lead = next(i for i, x in enumerate(gen_red) if x % p)
    c = (red[lead] * fm.finv(gen_red[lead], p)) % p
    if red != [(c * x) % p for x in gen_red]:
        raise AssertionError("ext element not proportional to the generator")
    return c


def quiver_struct_scalar(space, p, ivA, ivB, ivC, kind1, kind2):
    """Structure constant computed in the quiver model on the triple's
    endpoints, each interval's rep built once: the oracle of the
    closed-form line rules and of the covering-map circle constants."""
    model = build_model(space, [ivA, ivB, ivC])
    A, B, C = (bar_rep(space, model, iv, p) for iv in (ivA, ivB, ivC))
    rpAC = RepPair(A, C)
    if (kind1, kind2) == ("h", "h"):
        m1 = _hom_gen_matrices(RepPair(A, B), ivA, ivB)
        m2 = _hom_gen_matrices(RepPair(B, C), ivB, ivC)
        # a composite through a zero stalk of B is zero on that stratum
        comp = {s: fm.mat_mul(m2[s], m1[s], p) for s in m1 if m1[s]}
        vec = [comp[s][j][i] if s in comp else 0 for (s, j, i) in rpAC.vcoords]
        if not any(vec):
            return ("h", 0)
        if rpAC.hom_dim != 1:
            raise UnsupportedHomError(
                f"composite lands in a {rpAC.hom_dim}-dimensional Hom "
                f"space: {ivA} -> {ivC}")
        gen = rpAC.hom_generator()
        lead = next(i for i, x in enumerate(gen) if x % p)
        c = (vec[lead] * fm.finv(gen[lead], p)) % p
        if vec != [(c * x) % p for x in gen]:
            raise AssertionError("hom composite not proportional to the generator")
        return ("h", c)
    if rpAC.ext_dim == 0:
        return ("e", 0)
    genAC = _ext_gen_reduced(space, rpAC, ivA, ivC, p)
    if kind1 == "e":                    # ext then hom: push the class forward
        rpAB = RepPair(A, B)
        emats = rpAB.edge_matrices(_ext_gen_reduced(space, rpAB, ivA, ivB, p))
        psi = _hom_gen_matrices(RepPair(B, C), ivB, ivC)
        moved = {ei: fm.mat_mul(psi[model.edges[ei][1]], mat, p)
                 for ei, mat in emats.items()}
    else:                               # hom then ext: pull the class back
        rpBC = RepPair(B, C)
        emats = rpBC.edge_matrices(_ext_gen_reduced(space, rpBC, ivB, ivC, p))
        phi = _hom_gen_matrices(RepPair(A, B), ivA, ivB)
        moved = {ei: fm.mat_mul(mat, phi[model.edges[ei][0]], p)
                 for ei, mat in emats.items()}
    vec = rpAC.evec_from_edge_matrices(moved)
    return ("e", _scalar_on_ext(rpAC, genAC, vec, p))


# ---------------------------------------------------------------------------
# Brute-force RHom.

def poset_oracle_rhom(F: GradedBarcode, G: GradedBarcode, space=LINE) -> dict[int, int]:
    """Degree-wise dimensions of RHom(F, G) computed in the quiver model on
    all of F's and G's endpoints at once, independently of the closed-form
    rules behind ``hom_dim``."""
    if F.char != G.char:
        raise ValueError("characteristic mismatch")
    p = F.char
    dims: dict[int, int] = {}
    model = build_model(space, [b.iv for b in F.bars] + [b.iv for b in G.bars])
    for bf in F.bars:
        repf = bar_rep(space, model, bf.iv, p)
        for bg in G.bars:
            rp = RepPair(repf, bar_rep(space, model, bg.iv, p))
            n0 = bg.degree - bf.degree
            if rp.hom_dim:
                dims[n0] = dims.get(n0, 0) + rp.hom_dim
            if rp.ext_dim:
                dims[n0 + 1] = dims.get(n0 + 1, 0) + rp.ext_dim
    return {d: n for d, n in sorted(dims.items()) if n}
