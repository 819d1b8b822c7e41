"""Decomposition of zigzag representations into interval and band summands.

Line models decompose into interval summands whose multiplicities come from
the generalized rank invariant by inclusion-exclusion over one-step walk
extensions (``decompose_line``, public; no production path runs it, and it
is the oracle the tests check the proper pushforward against).  Cyclic
models additionally carry band summands (local systems); their multiset of
string summands is computed the same way on the unrolled cover, and what
remains is a local system whose monodromy is extracted by regularizing the
once-around transfer relation.
"""

from __future__ import annotations

from . import fieldmath as fm
from .barcode import CLOSED, OPEN, Interval
from .model import CircleModel, LineModel, Rep


def _walk_constraints(spaces, edges, p):
    """lim and colim data of a walk diagram.

    spaces: list of dims per step; edges: list of (step_pt, step_open, mat).
    Returns (lim_basis, relation_subspace, offsets, total).
    """
    offs = []
    total = 0
    for d in spaces:
        offs.append(total)
        total += d
    rows = []
    for (tp, to, mat) in edges:
        for i in range(spaces[to]):
            row = [0] * total
            for j in range(spaces[tp]):
                row[offs[tp] + j] = mat[i][j] % p
            row[offs[to] + i] = (row[offs[to] + i] - 1) % p
            rows.append(row)
    lim = fm.nullspace(rows, p, cols=total) if total else []
    rel_vecs = []
    for (tp, to, mat) in edges:
        for j in range(spaces[tp]):
            vec = [0] * total
            for i in range(spaces[to]):
                vec[offs[to] + i] = mat[i][j] % p
            vec[offs[tp] + j] = (vec[offs[tp] + j] - 1) % p
            rel_vecs.append(vec)
    rel = fm.Subspace(total, rel_vecs, p)
    return lim, rel, offs, total


def _walk_rank(spaces, edges, p) -> int:
    """Rank of the canonical map lim -> colim of the walk diagram."""
    if not spaces or spaces[0] == 0:
        return 0
    lim, rel, offs, total = _walk_constraints(spaces, edges, p)
    if not lim:
        return 0
    img_vecs = []
    for v in lim:
        w = [0] * total
        for j in range(spaces[0]):
            w[offs[0] + j] = v[offs[0] + j]
        img_vecs.append(w)
    joined = fm.Subspace(total, img_vecs + rel.basis, p)
    return joined.dim - rel.dim


# ---------------------------------------------------------------------------
# Line decomposition.

def _line_walk(rep: Rep, i: int, j: int):
    model = rep.model
    n = len(model.strata)
    if i < 0 or j >= n:
        return None
    spaces = [rep.dims[s] for s in range(i, j + 1)]
    edges = []
    for ei, (pt, op, _side) in enumerate(model.edges):
        if i <= pt <= j and i <= op <= j:
            edges.append((pt - i, op - i, rep.mats[ei]))
    return spaces, edges


def _line_rank(rep: Rep, i: int, j: int, cache) -> int:
    if i < 0 or j >= len(rep.model.strata) or i > j:
        return 0
    key = (i, j)
    if key not in cache:
        spaces, edges = _line_walk(rep, i, j)
        cache[key] = _walk_rank(spaces, edges, rep.p)
    return cache[key]


def decompose_line(rep: Rep) -> list[Interval]:
    """Interval summands (with multiplicity) of a line-model representation."""
    model = rep.model
    n = len(model.strata)
    cache: dict = {}
    out = []
    counts = [0] * n
    for i in range(n):
        for j in range(i, n):
            if any(rep.dims[s] == 0 for s in range(i, j + 1)):
                continue
            mult = (_line_rank(rep, i, j, cache)
                    - _line_rank(rep, i - 1, j, cache)
                    - _line_rank(rep, i, j + 1, cache)
                    + _line_rank(rep, i - 1, j + 1, cache))
            if mult < 0:
                raise AssertionError("negative interval multiplicity")
            for _ in range(mult):
                out.append(_strata_range_interval(model, i, j))
                for s in range(i, j + 1):
                    counts[s] += 1
    if counts != rep.dims:
        raise AssertionError("interval decomposition does not match stalk dims")
    return out


def _strata_range_interval(model: LineModel, i: int, j: int) -> Interval:
    si, sj = model.strata[i], model.strata[j]
    if si.kind == "pt":
        left, lk = si.left, CLOSED
    else:
        left, lk = si.left, OPEN
    if sj.kind == "pt":
        right, rk = sj.left, CLOSED
    else:
        right, rk = sj.right, OPEN
    return Interval(left, lk, right, rk)


# ---------------------------------------------------------------------------
# Cyclic decomposition.

def _cyclic_adjacent_edge(model: CircleModel, s_from: int, s_to: int):
    """Edge (with matrix index) joining two cyclically consecutive strata."""
    for ei, (pt, op, side) in enumerate(model.edges):
        if (pt, op) == (s_from, s_to) or (pt, op) == (s_to, s_from):
            k = len(model.points)
            # pt_i = 2i, arc_i = 2i+1: walking clockwise pt_i -> arc_i uses
            # side R; arc_i -> pt_(i+1) uses side L of the next point.
            if s_from % 2 == 0 and op == s_to and pt == s_from and side == "R":
                return ei
            if s_from % 2 == 1 and pt == s_to and op == s_from and side == "L":
                return ei
    raise AssertionError("cyclic adjacency without an edge")


def _cyclic_walk(rep: Rep, s: int, length: int):
    model = rep.model
    K = len(model.strata)
    spaces = []
    edges = []
    for t in range(length):
        idx = (s + t) % K
        spaces.append(rep.dims[idx])
        if t > 0:
            prev = (s + t - 1) % K
            ei = _cyclic_adjacent_edge(model, prev, idx)
            if prev % 2 == 0:                # pt -> arc step
                edges.append((t - 1, t, rep.mats[ei]))
            else:                            # arc -> pt step: map runs backwards
                edges.append((t, t - 1, rep.mats[ei]))
    return spaces, edges


def _cyclic_rank(rep: Rep, s: int, length: int, cache) -> int:
    key = (s % len(rep.model.strata), length)
    if key not in cache:
        spaces, edges = _cyclic_walk(rep, key[0], length)
        cache[key] = _walk_rank(spaces, edges, rep.p)
    return cache[key]


def _walk_lift_interval(model: CircleModel, s: int, length: int) -> Interval:
    K = len(model.strata)
    C = model.C

    def lift_stratum(n):
        idx = n % K
        shift = (n // K) * C
        st = model.strata[idx]
        return st, shift

    st0, sh0 = lift_stratum(s)
    if st0.kind == "pt":
        left, lk = st0.left + sh0, CLOSED
    else:
        left, lk = st0.left + sh0, OPEN
    st1, sh1 = lift_stratum(s + length - 1)
    if st1.kind == "pt":
        right, rk = st1.left + sh1, CLOSED
    else:
        right, rk = st1.right + sh1, OPEN
    return Interval(left, lk, right, rk)


def decompose_cyclic_rep(rep: Rep):
    """(string lift intervals with multiplicity, bands as (rank, monodromy))."""
    model = rep.model
    p = rep.p
    K = len(model.strata)
    total = rep.total_dim()
    if total == 0:
        return [], []
    cache: dict = {}
    strings = []
    visits = [0] * K
    for s in range(K):
        for length in range(1, total + 1):
            if any(rep.dims[(s + t) % K] == 0 for t in range(length)):
                continue
            mult = (_cyclic_rank(rep, s, length, cache)
                    - _cyclic_rank(rep, s - 1, length + 1, cache)
                    - _cyclic_rank(rep, s, length + 1, cache)
                    + _cyclic_rank(rep, s - 1, length + 2, cache))
            if mult < 0:
                raise AssertionError("negative string multiplicity")
            for _ in range(mult):
                strings.append(_walk_lift_interval(model, s, length))
                for t in range(length):
                    visits[(s + t) % K] += 1
    band_dims = [rep.dims[s] - visits[s] for s in range(K)]
    if any(d < 0 for d in band_dims):
        raise AssertionError("string visits exceed stalk dimensions")
    bands = []
    if any(band_dims):
        r = band_dims[0]
        if any(d != r for d in band_dims):
            raise AssertionError("band part has non-constant rank")
        mono = _band_monodromy(rep)
        if len(mono) != r:
            raise AssertionError("regularized monodromy rank mismatch")
        bands.append((r, mono))
    return strings, bands


def _transfer_relation(rep: Rep, pt_stratum: int):
    model = rep.model
    k = len(model.points)
    i = pt_stratum // 2
    left_arc = 2 * ((i - 1) % k) + 1
    right_arc = 2 * i + 1
    el = er = None
    for ei, (pt, op, side) in enumerate(model.edges):
        if pt == pt_stratum and side == "L":
            el = ei
        if pt == pt_stratum and side == "R":
            er = ei
    L, R = rep.mats[el], rep.mats[er]
    nu, nv = rep.dims[left_arc], rep.dims[right_arc]
    vecs = []
    for j in range(rep.dims[pt_stratum]):
        u = [L[i2][j] % rep.p for i2 in range(nu)]
        v = [R[i2][j] % rep.p for i2 in range(nv)]
        vecs.append(u + v)
    return fm.LinearRelation(nu, nv, vecs, rep.p)


def _band_monodromy(rep: Rep):
    """Monodromy of the maximal local-system summand, as the regularized
    once-around transfer relation based at the first arc stratum."""
    model = rep.model
    p = rep.p
    k = len(model.points)
    rel = None
    for step in range(1, k + 1):
        pt = 2 * (step % k)
        r = _transfer_relation(rep, pt)
        rel = r if rel is None else rel.compose(r)
    n = rel.nu
    full = fm.full_space(n, p)
    zero = fm.Subspace(n, [], p)

    def stabilize(start, advance):
        cur = start
        while True:
            nxt = advance(cur)
            if nxt.basis == cur.basis:
                return cur
            cur = nxt

    dom = stabilize(full, lambda S: rel.preimage_of(S))
    img = stabilize(full, lambda S: rel.image_of(S))
    kerinf = stabilize(rel.preimage_of(zero),
                       lambda S: fm.Subspace(n, S.basis + rel.preimage_of(S).basis, p))
    indinf = stabilize(rel.image_of(zero),
                       lambda S: fm.Subspace(n, S.basis + rel.image_of(S).basis, p))
    num = dom.intersect(img)
    den = num.intersect(kerinf.sum(indinf))
    # quotient basis
    q_basis = []
    cur = fm.Subspace(n, den.basis, p)
    for v in num.basis:
        if not cur.contains(v):
            q_basis.append(v)
            cur = fm.Subspace(n, cur.basis + [v], p)
    r = len(q_basis)
    if r == 0:
        return []
    # coordinates in the quotient: reduce against den, solve in q_basis
    span_all = fm.Subspace(n, den.basis + q_basis, p)

    def coords(v):
        if not span_all.contains(v):
            raise AssertionError("vector escapes the regular part")
        cols = den.basis + q_basis
        mat = [[cols[c][row] for c in range(len(cols))] for row in range(n)]
        sol = fm.solve(mat, v, p)
        return [sol[len(den.basis) + t] for t in range(r)]

    # image of each quotient basis vector under the relation, inside num
    d1 = rel.space.dim
    mono_cols = []
    for u in q_basis:
        # solve: combination of relation basis with u-part == u and v-part in num
        resid = _membership_operator(num, p)
        rows = []
        rhs = []
        for row in range(n):
            rows.append([rel.space.basis[c][row] for c in range(d1)])
            rhs.append(u[row])
        for rrow in resid:
            rows.append([sum(rrow[t] * rel.space.basis[c][n + t] for t in range(n)) % p
                        for c in range(d1)])
            rhs.append(0)
        sol = fm.solve(rows, rhs, p)
        if sol is None:
            raise AssertionError("no regular transfer for a regular vector")
        v = [sum(sol[c] * rel.space.basis[c][n + t] for c in range(d1)) % p
             for t in range(n)]
        mono_cols.append(coords(v))
    mono = [[mono_cols[j][i] for j in range(r)] for i in range(r)]
    if fm.inverse(mono, p) is None:
        raise AssertionError("regularized monodromy is singular")
    return mono


def _membership_operator(sub: fm.Subspace, p: int):
    """Rows R with x in sub iff R x = 0 (residual of coset reduction)."""
    n = sub.n
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(sub.reduce(e))
    # columns of the reduction operator, transposed into constraint rows
    ops = [[rows[j][i] for j in range(n)] for i in range(n)]
    return [row for row in ops if any(row)]


def canonical_monodromy(mat, p: int):
    """Conjugacy canonical form (minimum lexicographic conjugate); guarded
    brute force, adequate for the small ranks this package works with."""
    n = len(mat)
    if n == 0:
        return []
    if p ** (n * n) > 2 ** 16:
        raise ValueError(f"monodromy canonicalization too large: rank {n} over F_{p}")
    return fm.min_lex_conjugate(mat, p)
