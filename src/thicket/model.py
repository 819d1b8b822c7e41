"""Finite stratification models for constructible sheaves on R and R/CZ.

A model is an alternating stratification (points and open strata).  Objects
become representations of the incidence quiver whose arrows go from each
point stratum to its two neighbouring open strata; morphism and extension
spaces are computed from the exact sequence

    0 -> Hom(M,N) -> (+)_v Hom(M_v,N_v) --delta--> (+)_e Hom(M_pt, N_open)
      -> Ext^1(M,N) -> 0

by plain linear algebra over F_p.  An Ext^1 class is kept as an edge
vector, a representative in the last term: no extension representation is
built and no representation is refined; ``connecting_pairing`` reads its
scalar off the vector.  The line Hom/Ext calculus in ``morphisms`` is
closed-form; the line models are the oracle it is tested against (the
quiver oracle of ``tests/oracles.py``, which also moves an Ext class onto
the finer model of a triple).  The circle models are the oracle of the
covering-map Hom calculus and of the closed-form circle sections; the
cyclic decomposition (``circle.decompose_cyclic``) still runs on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import fieldmath as fm
from .barcode import CLOSED, OPEN, Interval
from .scalars import NEG_INF, POS_INF, is_finite


@dataclass(frozen=True)
class Stratum:
    kind: str              # 'pt' or 'open'
    left: object           # pt: the point; open: left endpoint (or NEG_INF)
    right: object = None   # open only

    def sample(self):
        if self.kind == "pt":
            return self.left
        lo, hi = self.left, self.right
        if is_finite(lo) and is_finite(hi):
            return (lo + hi) / 2
        if is_finite(lo):
            return lo + 1
        if is_finite(hi):
            return hi - 1
        return Fraction(0)


class LineModel:
    """Stratification of R by a finite set of points."""

    def __init__(self, points):
        pts = sorted(set(Fraction(x) for x in points))
        self.points = tuple(pts)
        self.space = "line"
        strata = []
        k = len(pts)
        lows = [NEG_INF] + pts
        highs = pts + [POS_INF]
        for i in range(k + 1):
            strata.append(Stratum("open", lows[i], highs[i]))
            if i < k:
                strata.append(Stratum("pt", pts[i]))
        self.strata = strata
        # stratum indices: open_i = 2i, pt_i = 2i+1
        self.edges = []
        for i in range(k):
            self.edges.append((2 * i + 1, 2 * i, "L"))
            self.edges.append((2 * i + 1, 2 * i + 2, "R"))


class CircleModel:
    """Cyclic stratification of the circle of circumference C.

    Point positions live in [0, C); arc i runs from point i to point i+1
    (cyclically; the last arc wraps through C = 0).  Representations of
    covering-pushforward objects index their stalk bases by deck copies.
    """

    def __init__(self, circumference, points):
        self.C = Fraction(circumference)
        if self.C <= 0:
            raise ValueError("circumference must be positive")
        pts = sorted(set(Fraction(x) % self.C for x in points))
        if not pts:
            pts = [Fraction(0)]
        self.points = tuple(pts)
        self.space = "circle"
        k = len(pts)
        strata = []
        for i in range(k):
            strata.append(Stratum("pt", pts[i]))
            hi = pts[i + 1] if i + 1 < k else pts[0] + self.C
            strata.append(Stratum("open", pts[i], hi))
        self.strata = strata
        # stratum indices: pt_i = 2i, arc_i = 2i+1
        self.edges = []
        for i in range(k):
            left_arc = 2 * ((i - 1) % k) + 1
            self.edges.append((2 * i, left_arc, "L"))
            self.edges.append((2 * i, 2 * i + 1, "R"))


class Rep:
    """Quiver representation on a model: dims per stratum, one matrix per edge."""

    def __init__(self, model, dims, mats, p: int = 2):
        self.model = model
        self.dims = list(dims)
        self.mats = list(mats)
        self.p = p

    def total_dim(self):
        return sum(self.dims)


def line_bar_rep(model: LineModel, iv: Interval, p: int = 2) -> Rep:
    """The interval sheaf on ``iv`` as a rep, placed by the indices i and j
    of its ends in ``model.points`` (i = -1 for -inf, j = len(points) for
    +inf): the open stratum 2m, just below point m, lies inside exactly
    when i < m <= j, and the point stratum 2m + 1 when i < m < j or when
    point m is a closed end."""
    pts = model.points
    ends = []
    for x, inf in ((iv.left, -1), (iv.right, len(pts))):
        if not is_finite(x):
            ends.append(inf)
            continue
        try:
            ends.append(pts.index(x))
        except ValueError:
            raise ValueError(f"model does not refine the endpoint {x} "
                             f"of {iv}") from None
    i, j = ends
    dims = []
    for m in range(len(pts) + 1):
        dims.append(int(i < m <= j))
        if m < len(pts):
            dims.append(int(i < m < j or (m == i and iv.lkind is CLOSED)
                            or (m == j and iv.rkind is CLOSED)))
    mats = [[[1]] if dims[pt] and dims[op] else fm.zeros(dims[op], dims[pt])
            for (pt, op, _side) in model.edges]
    return Rep(model, dims, mats, p)


def _copies_point(q, lift: Interval, C):
    """Deck copies m with q + m*C in the lift, as a run of integers: the
    closed-interval bounds, each stepped inward when its end is open and the
    copy lands exactly on it."""
    n0 = math.ceil((lift.left - q) / C)
    if lift.lkind is OPEN and q + n0 * C == lift.left:
        n0 += 1
    n1 = math.floor((lift.right - q) / C)
    if lift.rkind is OPEN and q + n1 * C == lift.right:
        n1 -= 1
    return range(n0, n1 + 1)


def _copies_arc(lo, hi, lift: Interval, C):
    """Deck copies m whose arc (lo + m*C, hi + m*C) lies in the lift.  Since
    lo < hi, such a copy's midpoint is interior to the lift, so the endpoint
    kinds do not matter."""
    return range(math.ceil((lift.left - lo) / C),
                 math.floor((lift.right - hi) / C) + 1)


def circle_spiral_rep(model: CircleModel, lift: Interval, p: int = 2) -> Rep:
    """Pushforward of an interval sheaf along the covering map, as a rep.

    Stalk basis at a stratum = deck copies landing inside the lift; edge
    maps match copies, with the wrap-around arc shifting the copy index.
    """
    C = model.C
    for x in (lift.left, lift.right):
        if x % C not in model.points:
            raise ValueError(f"model does not refine the endpoint {x} of {lift}")
    labels = []
    dims = []
    for s in model.strata:
        if s.kind == "pt":
            lab = _copies_point(s.left, lift, C)
        else:
            lab = _copies_arc(s.left, s.right, lift, C)
        labels.append(lab)
        dims.append(len(lab))
    mats = []
    for (pt, op, side) in model.edges:
        pt_pos = model.strata[pt].left
        m = fm.zeros(dims[op], dims[pt])
        for ci, n in enumerate(labels[pt]):
            if side == "R":
                target = n
            else:
                # the wrap-around arc ends at pt_pos + C: its copy index shifts
                arc = model.strata[op]
                target = n - 1 if arc.right == pt_pos + C else n
            if target in labels[op]:
                m[labels[op].index(target)][ci] = 1
        mats.append(m)
    return Rep(model, dims, mats, p)


def circle_band_rep(model: CircleModel, rank: int, monodromy, p: int = 2) -> Rep:
    """Local system of the given rank; the monodromy matrix sits on the
    right-hand edge of the first point stratum."""
    dims = [rank] * len(model.strata)
    mats = []
    for (pt, _op, side) in model.edges:
        if pt == 0 and side == "R":
            mats.append([row[:] for row in monodromy])
        else:
            mats.append(fm.identity(rank))
    return Rep(model, dims, mats, p)


def direct_sum(reps) -> Rep:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum needs an explicit model")
    model, p = reps[0].model, reps[0].p
    dims = [sum(r.dims[i] for r in reps) for i in range(len(model.strata))]
    mats = []
    for ei, (pt, op, _s) in enumerate(model.edges):
        rows, cols = dims[op], dims[pt]
        m = fm.zeros(rows, cols)
        ro = co = 0
        for r in reps:
            for i in range(r.dims[op]):
                for j in range(r.dims[pt]):
                    m[ro + i][co + j] = r.mats[ei][i][j]
            ro += r.dims[op]
            co += r.dims[pt]
        mats.append(m)
    return Rep(model, dims, mats, p)


# ---------------------------------------------------------------------------
# Global sections of a representation (cellular section complexes).

def _section_complex(rep: Rep, compact: bool):
    model, p = rep.model, rep.p
    if compact and model.space == "line":
        c0_strata = [i for i, s in enumerate(model.strata) if s.kind == "pt"]
        c1_strata = [i for i, s in enumerate(model.strata) if s.kind == "open"]
        sign_for = {"L": 1, "R": -1}
    else:
        c0_strata = list(range(len(model.strata)))
        c1_strata = None  # one block per edge
        sign_for = None
    off0 = {}
    n0 = 0
    for s in c0_strata:
        off0[s] = n0
        n0 += rep.dims[s]
    if c1_strata is None:
        rows = []
        n1 = 0
        offe = []
        for ei, (pt, op, _s) in enumerate(model.edges):
            offe.append(n1)
            n1 += rep.dims[op]
        d = fm.zeros(n1, n0)
        for ei, (pt, op, _s) in enumerate(model.edges):
            m = rep.mats[ei]
            for i in range(rep.dims[op]):
                for j in range(rep.dims[pt]):
                    d[offe[ei] + i][off0[pt] + j] = (d[offe[ei] + i][off0[pt] + j] + m[i][j]) % p
                d[offe[ei] + i][off0[op] + i] = (d[offe[ei] + i][off0[op] + i] - 1) % p
        return d, n0, n1
    # compactly supported on the line: C^0 points, C^1 open strata
    off1 = {}
    n1 = 0
    for s in c1_strata:
        off1[s] = n1
        n1 += rep.dims[s]
    d = fm.zeros(n1, n0)
    for ei, (pt, op, side) in enumerate(model.edges):
        m = rep.mats[ei]
        sgn = sign_for[side]
        for i in range(rep.dims[op]):
            for j in range(rep.dims[pt]):
                d[off1[op] + i][off0[pt] + j] = (d[off1[op] + i][off0[pt] + j] + sgn * m[i][j]) % p
    return d, n0, n1


def rep_sections(rep: Rep, compact: bool = False):
    """(h0, h1) of the section complex of a representation."""
    d, n0, n1 = _section_complex(rep, compact)
    r = fm.rank(d, rep.p) if (n0 and n1) else 0
    return n0 - r, n1 - r


# ---------------------------------------------------------------------------
# Pair calculus.

class RepPair:
    """Hom and Ext data for an ordered pair of representations."""

    def __init__(self, M: Rep, N: Rep):
        if M.model is not N.model and M.model.strata != N.model.strata:
            raise ValueError("pair must live on one model")
        self.M, self.N = M, N
        self.model = M.model
        self.p = M.p
        p = self.p
        self.vcoords = []
        for s in range(len(self.model.strata)):
            for j in range(N.dims[s]):
                for i in range(M.dims[s]):
                    self.vcoords.append((s, j, i))
        self.ecoords = []
        for ei, (pt, op, _s) in enumerate(self.model.edges):
            for j in range(N.dims[op]):
                for i in range(M.dims[pt]):
                    self.ecoords.append((ei, j, i))
        nv, ne = len(self.vcoords), len(self.ecoords)
        self._vindex = {c: k for k, c in enumerate(self.vcoords)}
        self._eindex = {c: k for k, c in enumerate(self.ecoords)}
        delta = fm.zeros(ne, nv)
        for ek, (ei, j, i) in enumerate(self.ecoords):
            pt, op, _side = self.model.edges[ei]
            Me, Ne = M.mats[ei], N.mats[ei]
            # (phi_open o M_e)_{j,i} = sum_t phi_open[j,t] Me[t,i]
            for t in range(M.dims[op]):
                vk = self._vindex.get((op, j, t))
                if vk is not None:
                    delta[ek][vk] = (delta[ek][vk] + Me[t][i]) % p
            # -(N_e o phi_pt)_{j,i} = -sum_t Ne[j,t] phi_pt[t,i]
            for t in range(N.dims[pt]):
                vk = self._vindex.get((pt, t, i))
                if vk is not None:
                    delta[ek][vk] = (delta[ek][vk] - Ne[j][t]) % p
        self.delta = delta
        self.hom_basis = fm.nullspace(delta, p, cols=nv) if nv else []
        image_vectors = []
        for col in range(nv):
            vec = [delta[r][col] for r in range(ne)]
            if any(vec):
                image_vectors.append(vec)
        self.image = fm.Subspace(ne, image_vectors, p)
        self.ext_dim = ne - self.image.dim

    @property
    def hom_dim(self) -> int:
        return len(self.hom_basis)

    def hom_generator(self):
        """Canonical generator of a one-dimensional Hom space: first nonzero
        coordinate scaled to 1 (for interval pairs this is the indicator map)."""
        if self.hom_dim != 1:
            raise ValueError(f"hom space has dimension {self.hom_dim}")
        v = self.hom_basis[0]
        lead = next(x for x in v if x % self.p)
        inv = fm.finv(lead, self.p)
        return [(x * inv) % self.p for x in v]

    def vertex_matrices(self, vvec):
        mats = {}
        for (s, j, i), x in zip(self.vcoords, vvec):
            if x % self.p:
                mats.setdefault(s, fm.zeros(self.N.dims[s], self.M.dims[s]))
                mats[s][j][i] = x % self.p
        for s in range(len(self.model.strata)):
            if s not in mats:
                mats[s] = fm.zeros(self.N.dims[s], self.M.dims[s])
        return mats

    def ext_reduce(self, evec):
        return self.image.reduce(evec)

    def ext_canonical_generator_vector(self):
        """Deterministic coset representative generating a 1-dim Ext space."""
        if self.ext_dim != 1:
            raise ValueError(f"ext space has dimension {self.ext_dim}")
        ne = len(self.ecoords)
        for k in range(ne):
            e = [0] * ne
            e[k] = 1
            red = self.ext_reduce(e)
            if any(red):
                lead = next(x for x in red if x % self.p)
                inv = fm.finv(lead, self.p)
                return [(x * inv) % self.p for x in red]
        raise AssertionError("ext space reported 1-dimensional but no generator found")

    def edge_matrices(self, evec):
        mats = {}
        for (ei, j, i), x in zip(self.ecoords, evec):
            pt, op, _side = self.model.edges[ei]
            mats.setdefault(ei, fm.zeros(self.N.dims[op], self.M.dims[pt]))
            mats[ei][j][i] = x % self.p
        return mats

    def evec_from_edge_matrices(self, mats):
        out = [0] * len(self.ecoords)
        for k, (ei, j, i) in enumerate(self.ecoords):
            m = mats.get(ei)
            if m is not None:
                out[k] = m[j][i] % self.p
        return out


def connecting_pairing(pair: RepPair, evec):
    """Scalar of the section-complex connecting map classified by ``evec``.

    Defined when M carries the constant section in H^0 (closed bounded bars)
    and N is a single bounded open bar, whose H^1 admits the canonical
    alternating functional (+1 on right-side incidences, -1 on left-side
    ones); both bases are model independent, so the scalar is too.
    Returns None when the pattern does not apply.
    """
    M, model, p = pair.M, pair.model, pair.p
    # the all-ones section of M must be a cocycle (true for closed bars)
    for ei, (pt, op, _side) in enumerate(model.edges):
        for i in range(M.dims[op]):
            if sum(M.mats[ei][i][j] for j in range(M.dims[pt])) % p != 1:
                return None
    # d of the lifted constant section, read off the class on each edge
    signs = [1 if side == "R" else -1 for (_pt, _op, side) in model.edges]
    return sum(signs[ei] * x for (ei, _j, _i), x in zip(pair.ecoords, evec)) % p

