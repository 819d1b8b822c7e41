"""Extension of a thickening action from a seed interval to all shifts.

A seed family provides the action, restriction witnesses, and witness
algebra on the parameter interval [0, alpha] (or [-alpha, alpha]).  Queries
at arbitrary shifts are answered through the doubling decomposition
a = n*lambda + r with lambda = alpha/2, applying the half-step n times and
the remainder once; restriction witnesses at extended parameters compose the
seed witnesses per the same decomposition.  The construction is unique up to
unique isomorphism, so an alternate lambda policy must give isomorphic
answers; that independence is checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .barcode import GradedBarcode
from .morphisms import compose, restriction, thicken_morphism
from .scalars import parse_rational
from .thicken import thicken


class SeedInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExtensionPlan:
    lam: Fraction
    n: int
    r: Fraction

    @classmethod
    def for_shift(cls, mag: Fraction, lam: Fraction) -> "ExtensionPlan":
        if lam <= 0:
            raise ValueError(f"extension step must be positive, got {lam}")
        n = int(mag // lam)
        r = mag - n * lam
        if not (0 <= r < lam and mag == n * lam + r):
            raise AssertionError(f"bad extension plan for {mag} in steps of {lam}")
        return cls(lam, n, r)


@dataclass(frozen=True)
class SeedFamily:
    """Action of a thickening seed on objects with restriction witnesses."""
    alpha: Fraction
    mode: str                      # 'nonnegative' | 'two-sided'
    apply_fn: object               # (a, x) -> x, |a| <= alpha
    restrict_fn: object            # (a, b, x) -> witness, 0 <= a <= b <= alpha
    lift_fn: object                # (witness, a) -> witness (functor on maps)
    compose_fn: object             # diagrammatic: first, then
    iso_eq: object                 # (x, y) -> bool
    name: str = "seed"

    def apply(self, a, x):
        a = Fraction(a)
        if abs(a) > self.alpha:
            raise ValueError(f"seed apply outside [{-self.alpha}, {self.alpha}]")
        if a < 0 and self.mode != "two-sided":
            raise ValueError("negative shift on a nonnegative seed")
        return self.apply_fn(a, x)

    def restrict(self, a, b, x):
        a, b = Fraction(a), Fraction(b)
        if not (0 <= a <= b <= self.alpha):
            raise ValueError("seed restriction outside [0, alpha]")
        return self.restrict_fn(a, b, x)


def lambda_for(seed: SeedFamily, policy: str) -> Fraction:
    if policy == "half":
        return seed.alpha / 2
    if policy == "third":
        return seed.alpha / 3
    raise ValueError(f"unknown lambda policy {policy!r}")


def extend_apply(seed: SeedFamily, a, x, policy: str = "half"):
    """Apply the extended action at an arbitrary shift."""
    a = Fraction(a)
    if a < 0 and seed.mode != "two-sided":
        raise ValueError("negative shift on a nonnegative seed")
    if not seed.iso_eq(seed.apply(0, x), x):
        raise SeedInvariantError("seed violates apply(0, x) = x")
    lam = lambda_for(seed, policy)
    sign = 1 if a >= 0 else -1
    plan = ExtensionPlan.for_shift(abs(a), lam)
    y = x
    for _ in range(plan.n):
        y = seed.apply(sign * lam, y)
    if plan.r:
        y = seed.apply(sign * plan.r, y)
    return y


def extend_restrict(seed: SeedFamily, a, b, x):
    """Witness from the b-thickening to the a-thickening of x, 0 <= a <= b,
    composed from seed witnesses per the doubling decomposition."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a <= b:
        raise ValueError("extend_restrict requires 0 <= a <= b")
    lam = lambda_for(seed, "half")
    pa = ExtensionPlan.for_shift(a, lam)
    pb = ExtensionPlan.for_shift(b, lam)
    m, n = pa.n, pb.n
    if m == n:
        w = seed.restrict(pa.r, pb.r, x)
        for _ in range(m):
            w = seed.lift_fn(w, lam)
        return w
    w = seed.restrict(0, pb.r, x)                 # K_{r_b} x -> x
    for _ in range(n):
        w = seed.lift_fn(w, lam)
    total = w
    for j in range(n - 1, m, -1):                 # peel K_lambda factors
        wj = seed.restrict(0, lam, x)
        for _ in range(j):
            wj = seed.lift_fn(wj, lam)
        total = seed.compose_fn(total, wj)
    wm = seed.restrict(pa.r, lam, x)
    for _ in range(m):
        wm = seed.lift_fn(wm, lam)
    return seed.compose_fn(total, wm)


def lambda_independence(seed: SeedFamily, a, x,
                        policies=("half", "third")) -> bool:
    """The two decomposition policies must produce isomorphic objects."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("lambda independence checked on nonnegative shifts")
    results = [extend_apply(seed, a, x, policy) for policy in policies]
    return all(seed.iso_eq(results[0], y) for y in results[1:])


# ---------------------------------------------------------------------------
# Coherence diagrams.

@dataclass
class CoherenceReport:
    passes: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, tag, params, good):
        (self.passes if good else self.failures).append((tag, params))


def coherence_check(seed: SeedFamily, samples, objects) -> CoherenceReport:
    """Exhaustively check the monoidal presheaf diagrams on the sample grid.

    (i) restriction squares against the strict product structure,
    (ii) associativity of iterated application,
    (iii) unit laws.  All checks are exact equalities of objects or of
    composed witnesses.
    """
    report = CoherenceReport()
    samples = sorted(set(Fraction(s) for s in samples))
    if not samples:
        return report
    alpha = seed.alpha
    for x in objects:
        report.record("unit-object", (0,), seed.iso_eq(seed.apply(0, x), x))
        for a in samples:
            if a > alpha:
                continue
            # (iii) unit triangles: applying 0 before or after changes nothing
            lhs = seed.apply(a, seed.apply(0, x))
            rhs = seed.apply(0, seed.apply(a, x))
            mid = seed.apply(a, x)
            report.record("unit", (a,), seed.iso_eq(lhs, mid) and seed.iso_eq(rhs, mid))
        for a in samples:
            for b in samples:
                for c in samples:
                    if max(a + b, b + c, a + b + c) > alpha:
                        continue
                    # (ii) associativity square on objects
                    lhs = seed.apply(a, seed.apply(b, seed.apply(c, x)))
                    rhs = seed.apply(a + b, seed.apply(c, x))
                    rhs2 = seed.apply(a, seed.apply(b + c, x))
                    tgt = seed.apply(a + b + c, x)
                    good = (seed.iso_eq(lhs, tgt) and seed.iso_eq(rhs, tgt)
                            and seed.iso_eq(rhs2, tgt))
                    report.record("assoc", (a, b, c), good)
        for a in samples:
            for ap in samples:
                for b in samples:
                    for bp in samples:
                        if not (a <= ap and b <= bp):
                            continue
                        if max(ap, bp, ap + bp) > alpha:
                            continue
                        # (i) naturality of restrictions against the product
                        inner = seed.restrict(b, bp, x)
                        lifted = seed.lift_fn(inner, ap)
                        outer = seed.restrict(a, ap, seed.apply(b, x))
                        route = seed.compose_fn(lifted, outer)
                        direct = extend_restrict(seed, a + b, ap + bp, x) \
                            if ap + bp > alpha else seed.restrict(a + b, ap + bp, x)
                        report.record("naturality", (a, ap, b, bp), route == direct)
    return report


# ---------------------------------------------------------------------------
# Built-in seeds.

def line_seed(alpha, mode: str = "two-sided") -> SeedFamily:
    alpha = Fraction(alpha)

    def iso_eq(x: GradedBarcode, y: GradedBarcode) -> bool:
        return x == y

    return SeedFamily(
        alpha=alpha,
        mode=mode,
        apply_fn=lambda a, x: thicken(x, a),
        restrict_fn=lambda a, b, x: restriction(x, a, b),
        lift_fn=lambda w, a: thicken_morphism(w, a),
        compose_fn=compose,
        iso_eq=iso_eq,
        name=f"line[alpha={alpha}]",
    )


def circle_seed(C) -> SeedFamily:
    from .circle import CircleSheaf, circle_ops, circle_thicken, seed_bound
    C = Fraction(C)
    alpha = seed_bound(C)
    space = circle_ops(C)

    def apply_fn(a, x: CircleSheaf):
        return circle_thicken(x, a)

    def restrict_fn(a, b, x: CircleSheaf):
        if x.bands:
            raise ValueError("circle seed witnesses are spiral-only")
        return restriction(x.spiral_barcode(), a, b, space)

    return SeedFamily(
        alpha=alpha,
        mode="two-sided",
        apply_fn=apply_fn,
        restrict_fn=restrict_fn,
        lift_fn=lambda w, a: thicken_morphism(w, a),
        compose_fn=compose,
        iso_eq=lambda x, y: x == y,
        name=f"circle[C={C}]",
    )


def load_seed_text(text: str) -> SeedFamily:
    """Parse a synthetic scalar seed from the plain-text data format."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "thicket/1":
        raise ValueError("unrecognized seed file header")
    alpha = Fraction(1)
    mode = "nonnegative"
    default = Fraction(1)
    table, restricts = {}, []
    for line in lines[1:]:
        if ":" not in line:
            raise ValueError(f"malformed seed line {line!r}")
        k, v = (x.strip() for x in line.split(":", 1))
        if k == "alpha":
            alpha = parse_rational(v)
        elif k == "mode":
            if v not in ("nonnegative", "two-sided"):
                raise ValueError(f"unknown seed mode {v!r}: expected "
                                 "'nonnegative' or 'two-sided'")
            mode = v
        elif k == "restrict-default":
            default = parse_rational(v)
        elif k == "restrict":
            values = v.split()
            if len(values) != 3:
                raise ValueError(f"malformed seed line {line!r}: expected "
                                 "'restrict: <a> <b> <value>'")
            a, b, val = map(parse_rational, values)
            restricts.append((line, a, b))
            table[(a, b)] = val
        elif k == "kind":
            if v != "seed":
                raise ValueError(f"not a seed document: kind {v!r}")
    if alpha <= 0:
        raise ValueError(f"seed alpha must be positive, got {alpha}")
    for line, a, b in restricts:          # after the loop: alpha may come late
        if not 0 <= a <= b <= alpha:
            raise ValueError(f"seed line {line!r} needs 0 <= a <= b <= "
                             f"alpha = {alpha}")
    return synthetic_scalar_seed(alpha, table, default, mode)


def synthetic_scalar_seed(alpha, table=None, default=Fraction(1),
                          mode: str = "nonnegative") -> SeedFamily:
    """Trivial action with scalar-valued restriction witnesses; used for
    fault injection (a corrupted entry breaks the coherence diagrams)."""
    alpha = Fraction(alpha)
    table = {tuple(map(Fraction, k)): Fraction(v) for k, v in (table or {}).items()}

    def restrict_fn(a, b, x):
        if a == b:
            return Fraction(1)
        return table.get((Fraction(a), Fraction(b)), default)

    return SeedFamily(
        alpha=alpha,
        mode=mode,
        apply_fn=lambda a, x: x,
        restrict_fn=restrict_fn,
        lift_fn=lambda w, a: w,
        compose_fn=lambda w1, w2: w1 * w2,
        iso_eq=lambda x, y: x == y,
        name=f"synthetic[alpha={alpha}]",
    )
