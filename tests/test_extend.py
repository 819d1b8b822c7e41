"""Monoid extension engine: doubling decomposition, coherence, independence."""

from fractions import Fraction as Fr

import pytest

from conftest import bar, gb
from thicket.barcode import closed, half_open, open_iv, singleton
from thicket.circle import CircleSheaf, circle_thicken
from thicket.corpus import rand_barcode
from thicket.docio import parse
from thicket.extend import (SeedFamily, SeedInvariantError, circle_seed,
                            coherence_check, extend_apply, extend_restrict,
                            lambda_independence, line_seed,
                            synthetic_scalar_seed)
from thicket.morphisms import compose, restriction
from thicket.thicken import thicken
from thicket.barcode import Bar


def _recording_seed(alpha=1):
    """A seed whose objects record the shifts applied to them and whose
    witnesses record their chain: a witness is a tuple of steps
    (lifts, lo, hi), one per seed restriction, in composition order."""
    return SeedFamily(
        alpha=Fr(alpha),
        mode="two-sided",
        apply_fn=lambda a, x: x + (a,) if a else x,
        restrict_fn=lambda a, b, x: ((0, a, b),),
        lift_fn=lambda w, a: tuple((k + 1, lo, hi) for k, lo, hi in w),
        compose_fn=lambda first, then: first + then,
    )


class TestPlan:
    def test_doubling_decomposition(self):
        seed = _recording_seed()
        assert extend_apply(seed, Fr(5, 2), ()) == (Fr(1, 2),) * 5
        assert extend_apply(seed, Fr(3, 4), ()) == (Fr(1, 2), Fr(1, 4))
        assert extend_apply(seed, Fr(-3, 4), ()) == (Fr(-1, 2), Fr(-1, 4))

    @pytest.mark.parametrize("alpha", [Fr(0), Fr(-1, 2)], ids=["zero", "negative"])
    def test_nonpositive_step_rejected(self, alpha):
        """The half-step alpha/2 is positive because a seed with alpha <= 0
        cannot be built."""
        for make in (line_seed, synthetic_scalar_seed, _recording_seed):
            with pytest.raises(ValueError, match="alpha must be positive"):
                make(alpha)


# (a, b) with lambda = 1/2 -> the chain's steps (lifts k, lo, hi), from b down
CHAINS = {
    "m=n, b off the grid": (Fr(9, 8), Fr(11, 8), [(2, Fr(1, 8), Fr(3, 8))]),
    "m=n, b on the grid": (Fr(1), Fr(1), [(2, 0, 0)]),
    "m+1=n, b off the grid": (Fr(1, 8), Fr(7, 8),
                              [(1, 0, Fr(3, 8)), (0, Fr(1, 8), Fr(1, 2))]),
    "m+1=n, b on the grid": (Fr(1, 8), Fr(1, 2),
                             [(1, 0, 0), (0, Fr(1, 8), Fr(1, 2))]),
    "m+1<n, b off the grid": (Fr(1, 8), Fr(15, 8),
                              [(3, 0, Fr(3, 8)), (2, 0, Fr(1, 2)),
                               (1, 0, Fr(1, 2)), (0, Fr(1, 8), Fr(1, 2))]),
    "m+1<n, b on the grid": (Fr(5, 8), Fr(2),
                             [(4, 0, 0), (3, 0, Fr(1, 2)), (2, 0, Fr(1, 2)),
                              (1, Fr(1, 8), Fr(1, 2))]),
}


class TestRestrictionChain:
    @pytest.mark.parametrize("case", CHAINS, ids=list(CHAINS))
    def test_steps_and_order(self, case):
        a, b, steps = CHAINS[case]
        assert extend_restrict(_recording_seed(), a, b, "X") == tuple(steps)

    @pytest.mark.parametrize("case", CHAINS, ids=list(CHAINS))
    def test_synthetic_seed_entries(self, case):
        """A distinct prime per ``restrict:`` entry: the witness is the
        product of the chain's entries, so it names each step and how
        often it is taken (the empty step b = b is 1)."""
        a, b, steps = CHAINS[case]
        primes = iter((2, 3, 5, 7, 11))
        table = {(lo, hi): next(primes) for lo in (Fr(0), Fr(1, 8))
                 for hi in (Fr(1, 8), Fr(3, 8), Fr(1, 2)) if lo < hi}
        text = "thicket/1\nkind: seed\nalpha: 1\n" + "".join(
            f"restrict: {lo} {hi} {v}\n" for (lo, hi), v in table.items())
        expected = 1
        for _, lo, hi in steps:
            expected *= table.get((lo, hi), 1)
        assert extend_restrict(parse(text).payload, a, b, "X") == expected


class TestExtendApply:
    def test_agrees_with_thicken(self, rng):
        seed = line_seed(1)
        for _ in range(40):
            F = rand_barcode(rng, max_bars=3)
            for a in (Fr(0), Fr(3, 4), Fr(5, 2), Fr(-5, 2)):
                assert extend_apply(seed, a, F) == thicken(F, a)

    def test_zero_is_unit(self, rng):
        seed = line_seed(1)
        F = rand_barcode(rng)
        assert extend_apply(seed, 0, F) == F

    def test_negative_needs_two_sided(self):
        seed = line_seed(1, mode="nonnegative")
        with pytest.raises(ValueError):
            extend_apply(seed, -1, gb(bar(closed(0, 1))))


class TestExtendRestrict:
    def test_identity_witness(self):
        seed = line_seed(1)
        F = gb(bar(closed(0, 2)))
        from thicket.morphisms import identity_morphism
        assert extend_restrict(seed, Fr(1, 2), Fr(1, 2), F) == \
            identity_morphism(thicken(F, Fr(1, 2)))

    def test_agrees_with_direct_restriction(self, rng):
        seed = line_seed(1)
        for _ in range(15):
            F = rand_barcode(rng, max_bars=2)
            for (a, b) in ((Fr(0), Fr(2)), (Fr(1, 4), Fr(3, 2)), (Fr(1), Fr(5, 2))):
                assert extend_restrict(seed, a, b, F) == restriction(F, a, b)

    def test_skyscraper_double_alpha(self):
        seed = line_seed(1)
        S = gb(bar(singleton(0)))
        w = extend_restrict(seed, 0, 2, S)
        assert w.source == gb(bar(closed(-2, 2)))
        assert w.target == S
        assert not w.is_zero()

    def test_transitivity(self, rng):
        seed = line_seed(1)
        F = gb(bar(open_iv(0, 4)), bar(half_open(1, 2), 1))
        triples = [(Fr(0), Fr(3, 4), Fr(5, 2)), (Fr(1, 4), Fr(1), Fr(2))]
        for a, b, c in triples:
            assert compose(extend_restrict(seed, b, c, F),
                           extend_restrict(seed, a, b, F)) == \
                extend_restrict(seed, a, c, F)


class TestCoherence:
    def test_line_seed_all_diagrams_pass(self):
        seed = line_seed(1)
        objs = [gb(bar(closed(0, 1))), gb(bar(singleton(0)), bar(open_iv(0, 2), 1))]
        rep = coherence_check(seed, [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1)], objs)
        assert rep.ok and rep.passes

    def test_fault_injection(self):
        bad = synthetic_scalar_seed(1, table={(Fr(0), Fr(1, 2)): 0})
        rep = coherence_check(bad, [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1)], ["X"])
        assert not rep.ok
        assert any(tag == "naturality" for tag, _ in rep.failures)

    def test_empty_sample_set(self):
        seed = synthetic_scalar_seed(1)
        rep = coherence_check(seed, [], ["X"])
        assert rep.ok and not rep.passes


class TestLambdaIndependence:
    def test_line_cases(self, rng):
        seed = line_seed(1)
        for _ in range(25):
            F = rand_barcode(rng, max_bars=3)
            a = abs(rng.choice([Fr(0), Fr(3, 2), Fr(5, 4), Fr(3)]))
            assert lambda_independence(seed, a, F)

    def test_circle_case(self):
        cs = circle_seed(4)
        arc = CircleSheaf(4, [Bar(closed(0, 1), 0)])
        assert lambda_independence(cs, Fr(2), arc)
        assert lambda_independence(cs, Fr(0), arc)


class TestCircleSeed:
    def test_matches_circle_thicken(self):
        cs = circle_seed(4)
        F = CircleSheaf(4, [Bar(closed(0, 1), 0), Bar(open_iv(2, 3), 1)],
                        [(1, [[1]], 0)])
        for a in (Fr(5, 2), Fr(-5, 2), Fr(1, 8)):
            assert extend_apply(cs, a, F) == circle_thicken(F, a)


class TestExtendedSemigroupLaw:
    def test_two_sided_sampled(self, rng):
        seed = line_seed(1)
        for _ in range(20):
            F = rand_barcode(rng, max_bars=3)
            pts = [Fr(0), Fr(1, 4), Fr(3, 2), Fr(-5, 4), Fr(3)]
            a = pts[rng.randrange(len(pts))]
            b = pts[rng.randrange(len(pts))]
            assert extend_apply(seed, a, extend_apply(seed, b, F)) == \
                extend_apply(seed, a + b, F)
