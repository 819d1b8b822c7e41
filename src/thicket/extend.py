"""Extension of a thickening action from a seed interval to all shifts.

A seed family provides the action, restriction witnesses, and witness
algebra on the parameter interval [0, alpha] (or [-alpha, alpha]), alpha > 0.
Queries at arbitrary shifts are answered through the doubling decomposition
(n, r) = divmod(a, lambda) with lambda = alpha/2, applying the half-step n
times and the remainder once.  The restriction witness from b down to a is
one chain b -> n*lambda -> (n-1)*lambda -> ... -> a of seed witnesses, each
lifted by the half-step as often as its place in the chain says.  The
construction is unique up to unique isomorphism, so an alternate lambda
policy must give equal answers; that independence is checked rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .circle import CircleSheaf, circle_ops, circle_thicken, seed_bound
from .morphisms import compose, restriction, thicken_morphism
from .thicken import thicken


class SeedInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class SeedFamily:
    """Action of a thickening seed on objects with restriction witnesses."""
    alpha: Fraction
    mode: str                      # 'nonnegative' | 'two-sided'
    apply_fn: object               # (a, x) -> x, |a| <= alpha
    restrict_fn: object            # (a, b, x) -> witness, 0 <= a <= b <= alpha
    lift_fn: object                # (witness, a) -> witness (functor on maps)
    compose_fn: object             # diagrammatic: first, then

    def __post_init__(self):
        check_seed(self.alpha, self.mode)

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


def check_seed(alpha, mode: str):
    """Refuse an unknown seed mode and an alpha that is not positive."""
    if mode not in ("nonnegative", "two-sided"):
        raise ValueError(f"unknown seed mode {mode!r}: expected "
                         "'nonnegative' or 'two-sided'")
    if alpha <= 0:
        raise ValueError(f"seed alpha must be positive, got {alpha}")


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
    if seed.apply(0, x) != x:
        raise SeedInvariantError("seed violates apply(0, x) = x")
    lam = lambda_for(seed, policy)
    sign = 1 if a >= 0 else -1
    n, r = divmod(abs(a), lam)
    y = x
    for _ in range(n):
        y = seed.apply(sign * lam, y)
    if r:
        y = seed.apply(sign * r, y)
    return y


def extend_restrict(seed: SeedFamily, a, b, x):
    """Witness from the b-thickening to the a-thickening of x, 0 <= a <= b.

    With (m, r_a) = divmod(a, lambda) and (n, r_b) = divmod(b, lambda), it
    is the chain b -> n*lambda -> ... -> (m+1)*lambda -> a: per k from n
    down to m, the seed witness from k*lambda + hi down to k*lambda + lo,
    i.e. ``restrict(lo, hi, x)`` lifted k times, composed in that order.
    hi is r_b at k = n and lambda below; lo is r_a at k = m and 0 above."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a <= b:
        raise ValueError("extend_restrict requires 0 <= a <= b")
    lam = lambda_for(seed, "half")
    m, r_a = divmod(a, lam)
    n, r_b = divmod(b, lam)
    w = None
    for k in range(n, m - 1, -1):
        step = seed.restrict(r_a if k == m else 0, r_b if k == n else lam, x)
        for _ in range(k):
            step = seed.lift_fn(step, lam)
        w = step if w is None else seed.compose_fn(w, step)
    return w


def lambda_independence(seed: SeedFamily, a, x,
                        policies=("half", "third")) -> bool:
    """The two decomposition policies must produce equal objects."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("lambda independence checked on nonnegative shifts")
    results = [extend_apply(seed, a, x, policy) for policy in policies]
    return all(results[0] == y for y in results[1:])


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
        report.record("unit-object", (0,), seed.apply(0, x) == x)
        for a in samples:
            if a > alpha:
                continue
            # (iii) unit triangles: applying 0 before or after changes nothing
            lhs = seed.apply(a, seed.apply(0, x))
            rhs = seed.apply(0, seed.apply(a, x))
            mid = seed.apply(a, x)
            report.record("unit", (a,), lhs == mid == rhs)
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
                    report.record("assoc", (a, b, c), lhs == rhs == rhs2 == tgt)
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
                        direct = seed.restrict(a + b, ap + bp, x)
                        report.record("naturality", (a, ap, b, bp), route == direct)
    return report


# ---------------------------------------------------------------------------
# Built-in seeds.

def line_seed(alpha, mode: str = "two-sided") -> SeedFamily:
    return SeedFamily(
        alpha=Fraction(alpha),
        mode=mode,
        apply_fn=lambda a, x: thicken(x, a),
        restrict_fn=lambda a, b, x: restriction(x, a, b),
        lift_fn=lambda w, a: thicken_morphism(w, a),
        compose_fn=compose,
    )


def circle_seed(C) -> SeedFamily:
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
    )


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
    )
