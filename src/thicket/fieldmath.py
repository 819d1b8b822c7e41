"""Exact linear algebra over prime fields F_p.

Matrices are lists of row lists with entries reduced mod p.  Everything is
small (dimensions rarely exceed a few dozen), so plain Gaussian elimination
is used throughout; no floating point anywhere.
"""

from __future__ import annotations

from functools import cache
from itertools import product


# Characteristics are primes below this bound, so the trial division below
# takes at most 256 steps.
CHAR_BOUND = 1 << 16


# Every barcode construction checks its characteristic, and trial division
# of a prime near the bound takes about 20 us, so each prime is divided out
# once per process.  The cache holds at most the 6,542 primes below the
# bound: a refused value raises, and raising caches nothing.
@cache
def check_char(p: int) -> int:
    """p, if it is a prime below ``CHAR_BOUND``; else ``ValueError``."""
    if 2 <= p < CHAR_BOUND:
        d = 2
        while d * d <= p:
            if p % d == 0:
                break
            d += 1
        else:
            return p
    raise ValueError(f"field characteristic must be prime and below "
                     f"{CHAR_BOUND}, got {p}")


def finv(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(x, p - 2, p)


def zeros(n: int, m: int) -> list[list[int]]:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> list[list[int]]:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = 1
    return mat


def mat_mul(a, b, p: int):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t] % p
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] = (oi[j] + c * bt[j]) % p
    return out


def rref(mat, p: int):
    """Row-reduce a copy of ``mat``; returns (rref matrix, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = finv(m[r][c], p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p != 0:
                f = m[i][c] % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat, p: int) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat, p)[1])


def nullspace(mat, p: int, cols: int | None = None):
    """Basis (list of vectors) of the right kernel of ``mat``."""
    if not mat:
        return [] if not cols else [row[:] for row in identity(cols)]
    cols = len(mat[0])
    red, pivots = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(v)
    return basis


def solve(mat, rhs, p: int):
    """One solution of mat·x = rhs, or None if inconsistent."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i][:] + [rhs[i] % p] for i in range(rows)]
    red, pivots = rref(aug, p)
    for r in range(len(pivots) - 1, -1, -1):
        if pivots[r] == cols:
            return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(mat, p: int):
    n = len(mat)
    aug = [mat[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug, p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def reduce_mod_rowspace(vec, basis_rref, pivots, p: int):
    """Canonical coset representative of ``vec`` modulo the row space."""
    v = [x % p for x in vec]
    for row, pc in zip(basis_rref, pivots):
        c = v[pc]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


class Subspace:
    """Subspace of F_p^n kept as an RREF row basis."""

    def __init__(self, n: int, vectors=None, p: int = 2):
        self.n = n
        self.p = p
        mat = [list(v) for v in (vectors or [])]
        if mat:
            red, piv = rref(mat, p)
            self.basis = red[: len(piv)]
            self.pivots = piv
        else:
            self.basis = []
            self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return all(x % self.p == 0
                   for x in reduce_mod_rowspace(vec, self.basis, self.pivots, self.p))

    def reduce(self, vec):
        return reduce_mod_rowspace(vec, self.basis, self.pivots, self.p)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.n, self.basis + other.basis, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: kernel of [A; B] stacked columnwise.
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.n, [], self.p)
        cols = self.dim + other.dim
        mat = zeros(self.n, cols)
        for j, v in enumerate(self.basis):
            for i in range(self.n):
                mat[i][j] = v[i]
        for j, v in enumerate(other.basis):
            for i in range(self.n):
                mat[i][self.dim + j] = (-v[i]) % self.p
        vecs = []
        for ker in nullspace(mat, self.p, cols=cols):
            coef = ker[: self.dim]
            vec = [0] * self.n
            for c, v in zip(coef, self.basis):
                for i in range(self.n):
                    vec[i] = (vec[i] + c * v[i]) % self.p
            vecs.append(vec)
        return Subspace(self.n, vecs, self.p)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.n == other.n and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F_{self.p}^{self.n})"


class LinearRelation:
    """Linear relation U -> V: a subspace of U (+) V, U and V coordinatized."""

    def __init__(self, nu: int, nv: int, vectors=None, p: int = 2):
        self.nu = nu
        self.nv = nv
        self.p = p
        self.space = Subspace(nu + nv, vectors, p)

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """self: U->V composed with other: V->W."""
        if self.nv != other.nu:
            raise ValueError("relation shape mismatch")
        nu, nv, nw = self.nu, self.nv, other.nv
        p = self.p
        # Solve for (u, v, w) with (u,v) in self, (v,w) in other, then drop v.
        d1, d2 = self.space.dim, other.space.dim
        cols = d1 + d2
        mat = zeros(nv, cols)
        for j, vec in enumerate(self.space.basis):
            for i in range(nv):
                mat[i][j] = vec[nu + i]
        for j, vec in enumerate(other.space.basis):
            for i in range(nv):
                mat[i][d1 + j] = (-vec[i]) % p
        out = []
        for ker in nullspace(mat, p, cols=cols):
            u = [0] * nu
            w = [0] * nw
            for c, vec in zip(ker[:d1], self.space.basis):
                for i in range(nu):
                    u[i] = (u[i] + c * vec[i]) % p
            for c, vec in zip(ker[d1:], other.space.basis):
                for i in range(nw):
                    w[i] = (w[i] + c * vec[nv + i]) % p
            out.append(u + w)
        return LinearRelation(nu, nw, out, p)

    def image_of(self, sub: Subspace) -> Subspace:
        """{v : exists u in sub with (u,v) in R}."""
        p = self.p
        d1, d2 = self.space.dim, sub.dim
        mat = zeros(self.nu, d1 + d2)
        for j, vec in enumerate(self.space.basis):
            for i in range(self.nu):
                mat[i][j] = vec[i]
        for j, vec in enumerate(sub.basis):
            for i in range(self.nu):
                mat[i][d1 + j] = (-vec[i]) % p
        out = []
        for ker in nullspace(mat, p, cols=d1 + d2):
            v = [0] * self.nv
            for c, vec in zip(ker[:d1], self.space.basis):
                for i in range(self.nv):
                    v[i] = (v[i] + c * vec[self.nu + i]) % p
            out.append(v)
        return Subspace(self.nv, out, p)

    def preimage_of(self, sub: Subspace) -> Subspace:
        return self.transpose().image_of(sub)

    def transpose(self) -> "LinearRelation":
        vecs = [vec[self.nu:] + vec[: self.nu] for vec in self.space.basis]
        return LinearRelation(self.nv, self.nu, vecs, self.p)


def full_space(n: int, p: int) -> Subspace:
    return Subspace(n, identity(n), p)


def all_vectors(n: int, p: int):
    return product(range(p), repeat=n)


def min_lex_conjugate(mat, p: int):
    """Minimum-lexicographic conjugate S·M·S^-1: canonical form up to conjugacy.

    Brute force over GL_n(F_p); sizes are capped by callers (n <= 3 for p = 2,
    n <= 2 otherwise keeps this instant).
    """
    n = len(mat)
    if n == 0:
        return []
    best = None
    for rows in product(all_vectors(n, p), repeat=n):
        s = [list(r) for r in rows]
        si = inverse(s, p)
        if si is None:
            continue
        cand = mat_mul(mat_mul(s, mat, p), si, p)
        flat = tuple(x for row in cand for x in row)
        if best is None or flat < best[0]:
            best = (flat, cand)
    return best[1]
