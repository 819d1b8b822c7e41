"""Monoid extension engine: doubling decomposition, coherence, independence."""

from fractions import Fraction as Fr

import pytest

from conftest import bar, gb
from thicket.barcode import closed, half_open, open_iv, singleton
from thicket.circle import CircleSheaf, circle_thicken
from thicket.corpus import rand_barcode
from thicket.extend import (ExtensionPlan, SeedInvariantError, circle_seed,
                            coherence_check, extend_apply, extend_restrict,
                            lambda_independence, line_seed,
                            synthetic_scalar_seed)
from thicket.morphisms import compose, restriction
from thicket.thicken import thicken
from thicket.barcode import Bar


class TestPlan:
    def test_doubling_decomposition(self):
        p = ExtensionPlan.for_shift(Fr(5, 2), Fr(1, 2))
        assert (p.n, p.r) == (5, 0)
        p2 = ExtensionPlan.for_shift(Fr(3, 4), Fr(1, 2))
        assert (p2.n, p2.r) == (1, Fr(1, 4))

    @pytest.mark.parametrize("lam", [Fr(0), Fr(-1, 2)], ids=["zero", "negative"])
    def test_nonpositive_step_rejected(self, lam):
        with pytest.raises(ValueError, match="step must be positive"):
            ExtensionPlan.for_shift(Fr(1), lam)


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
