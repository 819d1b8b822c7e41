"""Constructible sheaves on a circle of rational circumference.

A sheaf is stored as spirals (pushforwards of bounded interval sheaves along
the covering map, lifts normalized to start in [0, C)) plus bands (local
systems given by rank and monodromy up to conjugacy).  Thickening acts on
spirals through the line rules on lifts and fixes bands; the quarter-turn
thickening realizes the Fourier-Sato transform and its inverse.

Distance and certificates on the circle run the search of ``interleave``
in the space ``circle_ops(C)`` = ``("circle", C)``.  That one value names
R/CZ everywhere: ``morphisms`` keys its Hom calculus on it and puts lifts
into normal form by it (``normal_form``: the lift starting in [0, C)), and
``interleave`` builds its critical grid and finiteness gate from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .barcode import (Bar, GradedBarcode, canonical_order, dims_add,
                      global_sections_c)
from .interleave import DistanceBounds, finite_gate
from .interleave import distance as _distance
from .model import (CircleModel, Rep, circle_band_rep, circle_spiral_rep,
                    direct_sum)
from .morphisms import normal_form
from .scalars import POS_INF
from .thicken import bar_rule
from .zigzag import canonical_monodromy, decompose_cyclic_rep
from .fieldmath import check_char, inverse, rank as matrix_rank


class UnsupportedBandContentError(ValueError):
    pass


@dataclass(frozen=True)
class Band:
    rank: int
    monodromy: tuple
    degree: int

    def matrix(self):
        return [list(r) for r in self.monodromy]


def make_band(rank: int, monodromy, degree: int, char: int) -> Band:
    """The band invariant: a positive rank and an invertible rank x rank
    monodromy over F_p, kept in its conjugacy canonical form."""
    if rank < 1:
        raise ValueError("band rank must be positive")
    mat = tuple(tuple(x % char for x in row) for row in monodromy)
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ValueError(f"band monodromy must be a {rank} x {rank} matrix")
    key = (mat, char)
    if key not in _BAND_FORMS:
        rows = [list(r) for r in mat]
        if inverse(rows, char) is None:
            raise ValueError(f"band monodromy is singular over F_{char}")
        canon = tuple(tuple(r) for r in canonical_monodromy(rows, char))
        _BAND_FORMS[key] = canon
        _BAND_FORMS[(canon, char)] = canon     # the form is its own form
    return Band(rank, _BAND_FORMS[key], degree)


# (monodromy rows, p) -> canonical rows.  Every sheaf construction passes
# its bands through make_band, and the brute-force conjugacy search runs
# once per matrix instead; canonical_monodromy bounds p^(rank^2), so the
# table stays small.
_BAND_FORMS: dict = {}


class CircleSheaf:
    """Canonical form: normalized sorted spirals plus canonicalized bands.
    The spirals are sorted once, in canonical order; the barcode of their
    lifts that ``spiral_barcode`` returns is built on its first call and
    kept."""

    __slots__ = ("C", "spirals", "bands", "char", "_lifts")

    def __init__(self, circumference, spirals=(), bands=(), char: int = 2):
        self.C = Fraction(circumference)
        if self.C <= 0:
            raise ValueError("circumference must be positive")
        self.char = check_char(char)
        space = circle_ops(self.C)
        sp = []
        for b in spirals:
            if not b.iv.is_bounded:
                raise ValueError(f"spiral lift must be bounded: {b}")
            sp.append(normal_form(b, space))
        self.spirals = tuple(canonical_order(sp))
        self._lifts = None
        bd = []
        for band in bands:
            if isinstance(band, Band):
                band = make_band(band.rank, band.monodromy, band.degree, char)
            else:
                rank, mono, degree = band
                band = make_band(rank, mono, degree, char)
            bd.append(band)
        bd.sort(key=lambda b: (b.degree, b.rank, b.monodromy))
        self.bands = tuple(bd)

    def __eq__(self, other):
        return (isinstance(other, CircleSheaf) and self.C == other.C
                and self.char == other.char and self.spirals == other.spirals
                and self.bands == other.bands)

    def __hash__(self):
        return hash((self.C, self.spirals, self.bands, self.char))

    def __repr__(self):
        parts = [f"spiral {b}" for b in self.spirals]
        parts += [f"band r={b.rank} T={b.monodromy} @deg {b.degree}" for b in self.bands]
        return f"<circle C={self.C}: {'; '.join(parts) or '0'} | F_{self.char}>"

    def spiral_barcode(self) -> GradedBarcode:
        if self._lifts is None:
            self._lifts = GradedBarcode._sorted(self.spirals, self.char)
        return self._lifts


def seed_bound(C) -> Fraction:
    """Radius of the built-in thickening seed: an eighth of the circumference,
    safely below the quarter-circumference convexity bound."""
    return Fraction(C) / 8


# ---------------------------------------------------------------------------
# Cyclic models.

@dataclass
class CyclicModel:
    """Cyclic stratification with one representation per degree."""
    C: Fraction
    model: CircleModel
    reps: dict  # degree -> Rep
    char: int = 2


def cyclic_model_of(F: CircleSheaf) -> CyclicModel:
    pts = {x % F.C for b in F.spirals for x in (b.iv.left, b.iv.right)}
    model = CircleModel(F.C, pts if pts else [Fraction(0)])
    by_degree: dict[int, list[Rep]] = {}
    for b in F.spirals:
        by_degree.setdefault(b.degree, []).append(
            circle_spiral_rep(model, b.iv, F.char))
    for band in F.bands:
        by_degree.setdefault(band.degree, []).append(
            circle_band_rep(model, band.rank, band.matrix(), F.char))
    reps = {d: direct_sum(rs) for d, rs in by_degree.items()}
    return CyclicModel(F.C, model, reps, F.char)


def decompose_cyclic(model: CyclicModel) -> CircleSheaf:
    """String/band decomposition of a cyclic model into a canonical sheaf."""
    n_strata = len(model.model.strata)
    for d, rep in model.reps.items():
        if len(rep.dims) != n_strata or len(rep.mats) != len(model.model.edges):
            raise ValueError(f"inconsistent cyclic model in degree {d}")
        for ei, (pt, op, _side) in enumerate(model.model.edges):
            mat = rep.mats[ei]
            if len(mat) != rep.dims[op] or \
                    any(len(row) != rep.dims[pt] for row in mat):
                raise ValueError(f"inconsistent generization map in degree {d}")
    spirals = []
    bands = []
    for d, rep in sorted(model.reps.items()):
        try:
            strings, bnds = decompose_cyclic_rep(rep)
        except AssertionError as exc:
            raise ValueError(f"inconsistent cyclic model: {exc}") from None
        spirals.extend(Bar(iv, d) for iv in strings)
        bands.extend((rank, mono, d) for rank, mono in bnds)
    return CircleSheaf(model.C, spirals, bands, model.char)


# ---------------------------------------------------------------------------
# Thickening.

def circle_thicken(F: CircleSheaf, a) -> CircleSheaf:
    """Thicken by the signed rational a: bands are fixed, spirals follow the
    line rules on lifts (the result is already canonical; the tests check it
    against the cyclic decomposition)."""
    a = Fraction(a)
    return CircleSheaf(F.C, [bar_rule(b, a) for b in F.spirals], F.bands, F.char)


def fourier_sato(F: CircleSheaf, direction: str = "forward") -> CircleSheaf:
    """Quarter-circumference thickening; forward and inverse are mutually
    inverse equivalences."""
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    shift = F.C / 4 if direction == "forward" else -F.C / 4
    return circle_thicken(F, shift)


def circle_global_sections(F: CircleSheaf) -> dict[int, int]:
    """Degree-wise dimensions of sections over the compact circle (equal to
    the compactly supported variant).  The circle is compact, so a spiral
    p_!(k_I) has the compactly supported sections of its lift I on the
    line.  A band of rank r and monodromy M has the invariants ker(M - 1)
    in its degree and the coinvariants coker(M - 1) one degree up, both of
    dimension r - rank(M - 1)."""
    dims = global_sections_c(F.spiral_barcode())
    for band in F.bands:
        mat = band.matrix()
        for i in range(band.rank):
            mat[i][i] = (mat[i][i] - 1) % F.char
        fixed = band.rank - matrix_rank(mat, F.char)
        dims = dims_add(dims, {band.degree: fixed, band.degree + 1: fixed})
    return dims


# ---------------------------------------------------------------------------
# Distance on the circle.

def circle_ops(C, char: int = 2):
    """The space value of the circle R/CZ, ``("circle", C)``: pass it as the
    ``space`` argument of ``distance``, ``verify_certificate`` and the other
    ``interleave`` and ``morphisms`` functions.  ``char`` is not used; the
    field is read off the barcodes."""
    C = Fraction(C)
    if C <= 0:
        raise ValueError("circumference must be positive")
    return ("circle", C)


def circle_distance(F: CircleSheaf, G: CircleSheaf) -> DistanceBounds:
    """Interleaving distance bounds between circle sheaves.

    Fully supported for spiral-only content.  Band parts must agree up to
    isomorphism (locally constant summands are rigid under thickening, so a
    mismatch forces infinite distance); a common nonzero band part alongside
    spirals is out of scope, unless the spirals are equal (distance 0) or
    the finiteness gate separates them (+inf).  Equal band parts add equal
    terms to both sides' sections, so the identity test and the gate of
    ``interleave.distance`` on the spiral barcodes decide those cases.
    """
    if F.C != G.C or F.char != G.char:
        raise ValueError("circle sheaves live on different circles")
    if F.bands != G.bands:
        # a finite-distance locally constant summand must appear on both sides
        return DistanceBounds(POS_INF, POS_INF, True, None, exact_by="gate")
    space = circle_ops(F.C)
    Fs, Gs = F.spiral_barcode(), G.spiral_barcode()
    if F.bands and Fs != Gs and finite_gate(Fs, Gs, space) == "pass":
        raise UnsupportedBandContentError(
            "distance with a common nontrivial band part is not supported")
    return _distance(Fs, Gs, space)
