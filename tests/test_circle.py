"""Circle sheaves: thickening, quarter-turn transform, oracle, distance."""

from fractions import Fraction as Fr

import pytest

from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                             closed, half_open, open_iv, singleton)
from thicket.circle import (Band, CircleSheaf, UnsupportedBandContentError,
                            circle_distance, circle_global_sections, circle_ops,
                            circle_stalk_oracle, circle_thicken,
                            cyclic_model_of, decompose_cyclic, fourier_sato,
                            iso_equal_circle, seed_bound)
from thicket.corpus import rand_circle_sheaf, rand_fraction
from thicket.interleave import (check_exhaustive, check_interleaving,
                                check_matching, distance, verify_certificate)
from thicket.scalars import POS_INF


C = Fr(4)


def sheaf(*spirals, bands=(), C=C):
    return CircleSheaf(C, list(spirals), bands)


class TestCanonicalForm:
    def test_lift_normalization(self):
        assert sheaf(Bar(closed(5, 6), 0)) == sheaf(Bar(closed(1, 2), 0))

    def test_band_conjugacy_canonicalization(self):
        from thicket.fieldmath import inverse, mat_mul
        T = [[0, 1], [1, 0]]
        S = [[1, 1], [0, 1]]
        T2 = mat_mul(mat_mul(S, T, 2), inverse(S, 2), 2)
        assert sheaf(bands=[(2, T, 0)]) == sheaf(bands=[(2, T2, 0)])

    def test_band_forms_memoized(self, monkeypatch):
        import thicket.circle as circle
        calls = []
        real = circle.canonical_monodromy
        monkeypatch.setattr(circle, "canonical_monodromy",
                            lambda mat, p: calls.append(p) or real(mat, p))
        monkeypatch.setattr(circle, "_BAND_FORMS", {})
        T = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
        first = sheaf(Bar(closed(0, 1), 0), bands=[(3, T, 0)])
        assert len(calls) == 1
        second = sheaf(Bar(closed(0, 1), 0), bands=[(3, T, 0)])
        thick = circle_thicken(first, Fr(1, 2))
        assert len(calls) == 1
        assert second == first and thick.bands == first.bands
        assert first.bands[0].monodromy == tuple(
            tuple(r) for r in real([list(r) for r in first.bands[0].monodromy], 2))

    def test_unbounded_spiral_rejected(self):
        from thicket.barcode import ray_right
        with pytest.raises(ValueError):
            sheaf(Bar(ray_right(0), 0))


class TestThicken:
    def test_closed_arc_grows(self):
        got = circle_thicken(sheaf(Bar(closed(0, 1), 0)), Fr(1, 2))
        assert got == sheaf(Bar(closed(Fr(7, 2), Fr(11, 2)), 0))

    def test_bands_fixed(self):
        F = sheaf(bands=[(2, [[0, 1], [1, 0]], 1)])
        for a in (Fr(1, 2), Fr(3), Fr(-5, 4)):
            assert circle_thicken(F, a) == F

    def test_halfopen_rigid_rotation(self):
        F = sheaf(Bar(half_open(1, 2), 0))
        got = circle_thicken(F, Fr(1, 2))
        assert got == sheaf(Bar(half_open(Fr(1, 2), Fr(3, 2)), 0))
        back = circle_thicken(got, Fr(-1, 2))
        assert back == F

    def test_semigroup_with_wrap(self):
        F = sheaf(Bar(closed(0, 3), 0), Bar(open_iv(1, 2), 1))
        for a in (Fr(1), Fr(5, 2)):
            for b in (Fr(-1, 2), Fr(2)):
                assert circle_thicken(circle_thicken(F, a), b) == \
                    circle_thicken(F, a + b)

    def test_rgamma_invariance(self):
        F = sheaf(Bar(closed(0, 1), 0), Bar(open_iv(2, 3), 1),
                  bands=[(1, [[1]], 0)])
        for a in (Fr(1, 2), Fr(2), Fr(13, 4)):
            assert circle_global_sections(circle_thicken(F, a)) == \
                circle_global_sections(F)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_thickened_spirals_redecompose(self, rng, p):
        # the cyclic decomposition is the oracle for the closed-form spiral
        # rules; shifts up to 5/2 on C = 4 carry lifts once around and past
        wrapped = 0
        for _ in range(25):
            F = rand_circle_sheaf(rng, max_spirals=2, with_bands=True, char=p)
            a = rand_fraction(rng, Fr(-5, 2), Fr(5, 2), denoms=(1, 2, 4, 8))
            S = CircleSheaf(C, circle_thicken(F, a).spirals, (), p)
            assert decompose_cyclic(cyclic_model_of(S)) == S, (F, a)
            wrapped += any(b.iv.right - b.iv.left > C for b in S.spirals)
        assert wrapped

    def test_thicken_matches_stalk_oracle(self):
        F = sheaf(Bar(closed(0, 1), 0), Bar(open_iv(2, 3), 1))
        a = Fr(1, 4)
        T = circle_thicken(F, a)
        for x in (Fr(0), Fr(1, 2), Fr(9, 8), Fr(5, 2), Fr(15, 4)):
            got = {}
            for b in T.spirals:
                lo = ((b.iv.left - x) / C).__floor__() - 1
                hi = ((b.iv.right - x) / C).__ceil__() + 1
                for n in range(lo, hi + 1):
                    if b.iv.contains(x + n * C):
                        got[b.degree] = got.get(b.degree, 0) + 1
            got = {d: n for d, n in sorted(got.items()) if n}
            assert got == circle_stalk_oracle(F, a, x), x


class TestFourierSato:
    def test_quasi_inverse(self):
        F = sheaf(Bar(closed(0, 1), 0), Bar(half_open(2, Fr(5, 2)), 1),
                  bands=[(1, [[1]], 0)])
        assert fourier_sato(fourier_sato(F), "inverse") == F
        assert fourier_sato(fourier_sato(F, "inverse")) == F

    def test_constant_sheaf_fixed(self):
        kS = sheaf(bands=[(1, [[1]], 0)])
        assert fourier_sato(kS) == kS

    def test_arc_grows_to_three_quarters(self):
        F = sheaf(Bar(closed(0, 1), 0))
        got = fourier_sato(F)
        assert got == sheaf(Bar(closed(-1, 2), 0))
        mid = (Fr(0) + Fr(1)) / 2
        out_bar = got.spirals[0]
        assert (out_bar.iv.left + out_bar.iv.right) / 2 % C == mid % C

    def test_roundtrip_seeded(self, rng):
        for _ in range(25):
            F = rand_circle_sheaf(rng, with_bands=True)
            assert fourier_sato(fourier_sato(F), "inverse") == F


class TestStalkOracle:
    def test_examples(self):
        arc = sheaf(Bar(closed(0, 1), 0))
        assert circle_stalk_oracle(arc, Fr(1, 4), Fr(1, 2)) == {0: 1}
        band = sheaf(bands=[(2, [[0, 1], [1, 0]], 1)])
        assert circle_stalk_oracle(band, Fr(1, 2), Fr(3)) == {1: 2}
        assert circle_stalk_oracle(sheaf(), Fr(1, 2), Fr(0)) == {}

    def test_embedding_bound(self):
        with pytest.raises(ValueError):
            circle_stalk_oracle(sheaf(), Fr(2), Fr(0))


class TestDecomposeCyclic:
    def test_single_arc_roundtrip(self):
        F = sheaf(Bar(closed(1, 2), 0))
        assert decompose_cyclic(cyclic_model_of(F)) == F

    def test_winding_pushforward(self):
        F = sheaf(Bar(closed(0, C + 1), 0))
        model = cyclic_model_of(F)
        rep = model.reps[0]
        assert max(rep.dims) == 2
        assert decompose_cyclic(model) == F

    def test_trivial_band_roundtrip(self):
        F = sheaf(bands=[(1, [[1]], 0)])
        assert decompose_cyclic(cyclic_model_of(F)) == F

    def test_mixed_content(self, rng):
        for _ in range(10):
            F = rand_circle_sheaf(rng, with_bands=True)
            assert decompose_cyclic(cyclic_model_of(F)) == F


class TestCircleDistance:
    def test_reflexive(self):
        F = sheaf(Bar(closed(0, 1), 0), bands=[(1, [[1]], 0)])
        assert circle_distance(F, F).fields() == (0, 0, True)

    def test_arc_vs_midpoint_skyscraper(self):
        arc = sheaf(Bar(closed(0, 1), 0))
        sky = sheaf(Bar(singleton(Fr(1, 2)), 0))
        assert circle_distance(arc, sky).fields() == (Fr(1, 2), Fr(1, 2), True)

    def test_constant_vs_zero_infinite(self):
        kS = sheaf(bands=[(1, [[1]], 0)])
        assert circle_distance(kS, sheaf()).fields() == (POS_INF, POS_INF, True)

    def test_band_mismatch_infinite(self):
        F = sheaf(Bar(closed(0, 1), 0), bands=[(1, [[1]], 0)])
        G = sheaf(Bar(closed(0, 1), 0))
        assert circle_distance(F, G).upper == POS_INF

    def test_common_band_unsupported(self):
        F = sheaf(Bar(closed(0, 1), 0), bands=[(1, [[1]], 0)])
        G = sheaf(Bar(closed(0, 2), 0), bands=[(1, [[1]], 0)])
        with pytest.raises(UnsupportedBandContentError):
            circle_distance(F, G)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composite_through_zero_stalk(self, p):
        # the 2a-composites pass through strata where the middle spiral has
        # no stalk; that block of the composite is zero, not an index error
        F = CircleSheaf(C, [Bar(Interval(Fr(7, 2), CLOSED, Fr(25, 4), OPEN), 0)],
                        (), p)
        G = CircleSheaf(C, [Bar(Interval(Fr(3), CLOSED, Fr(13, 2), OPEN), 0)],
                        (), p)
        d = circle_distance(F, G)
        assert d.fields() == (Fr(1, 2), Fr(1, 2), True)
        assert verify_certificate(F.spiral_barcode(), G.spiral_barcode(),
                                  d.witness, circle_ops(C, p))

    def test_symmetry(self, rng):
        for _ in range(10):
            F = rand_circle_sheaf(rng, max_spirals=2)
            G = rand_circle_sheaf(rng, max_spirals=2)
            assert circle_distance(F, G).fields() == circle_distance(G, F).fields()


@pytest.mark.parametrize("p", [2, 3, 5])
class TestUnnormalizedLifts:
    # G's first lift starts at -1/2, outside [0, C)
    F = [Bar(open_iv(0, Fr(1, 4)), 0), Bar(closed(Fr(1, 4), 1), 0)]
    G = [Bar(open_iv(Fr(-1, 2), Fr(1, 2)), 0), Bar(closed(Fr(3, 4), Fr(3, 2)), 0)]

    def test_entry_points_reject(self, p):
        F, G = GradedBarcode(self.F, p), GradedBarcode(self.G, p)
        ops = circle_ops(C, p)
        calls = [lambda: check_matching(F, G, Fr(1, 2), ops),
                 lambda: check_exhaustive(F, G, Fr(1, 2), ops),
                 lambda: check_interleaving(F, G, Fr(1, 2), "matching", ops),
                 lambda: check_interleaving(F, G, Fr(1, 2), "exhaustive", ops),
                 lambda: distance(F, G, ops=ops),
                 lambda: distance(G, F, ops=ops),
                 lambda: distance(G, G, ops=ops)]
        for call in calls:
            with pytest.raises(ValueError, match=r"bar \(-1/2, 1/2\) @deg 0 "
                                                 r"is not normalized"):
                call()

    def test_normalized_pair_is_searched(self, p):
        F = CircleSheaf(C, self.F, (), p)
        G = CircleSheaf(C, self.G, (), p)
        d = circle_distance(F, G)
        if d.witness is not None:
            assert verify_certificate(F.spiral_barcode(), G.spiral_barcode(),
                                      d.witness, circle_ops(C, p))
        for strategy in ("matching", "exhaustive"):
            cert = check_interleaving(F.spiral_barcode(), G.spiral_barcode(),
                                      Fr(1, 2), strategy, circle_ops(C, p))
            if cert is not None:
                assert verify_certificate(F.spiral_barcode(),
                                          G.spiral_barcode(), cert,
                                          circle_ops(C, p))


class TestIsometry:
    def test_forward_transform_is_isometric(self, rng):
        for _ in range(12):
            F = rand_circle_sheaf(rng, max_spirals=2)
            G = rand_circle_sheaf(rng, max_spirals=2)
            d1 = circle_distance(F, G)
            d2 = circle_distance(fourier_sato(F), fourier_sato(G))
            assert d1.fields() == d2.fields()


class TestSlices:
    def test_open_after_closed_slices(self):
        # negative-after-positive thickening composes subtractively
        F = sheaf(Bar(closed(0, 1), 0), Bar(open_iv(1, 3), 1))
        for a in (Fr(1, 4), Fr(1, 2), Fr(1)):
            for b in (Fr(1, 2), Fr(1)):
                if 0 < a <= b <= C / 4:
                    lhs = circle_thicken(circle_thicken(F, b), -a)
                    assert lhs == circle_thicken(F, b - a)


class TestModelValidation:
    def test_inconsistent_model_rejected(self):
        from thicket.circle import CyclicModel
        from thicket.model import CircleModel, Rep
        cm = CircleModel(4, [0, 1])
        bad = Rep(cm, [1, 1, 1, 1], [[[1]], [[1]], [[1, 1]], [[1]]], 2)
        with pytest.raises(ValueError):
            from thicket.circle import decompose_cyclic
            decompose_cyclic(CyclicModel(Fr(4), cm, {0: bad}, 2))


class TestUnsupportedRegimeDegradation:
    def test_antipodal_skyscrapers_degrade_gracefully(self):
        # deciding the half-circumference shift needs two-dimensional Hom
        # spaces; the scanner reports sound inconclusive bounds instead of
        # failing
        F = sheaf(Bar(singleton(0), 0))
        G = sheaf(Bar(singleton(2), 0))
        d = circle_distance(F, G)
        assert d.lower == 1 and d.upper == POS_INF
        assert not d.exact and not d.conclusive

    def test_long_arcs_stay_sound(self):
        # arcs up to half the circumference exercise composite Hom targets
        # beyond dimension one; bounds must stay sound rather than crash
        F = sheaf(Bar(closed(0, 2), 0), Bar(singleton(3), 1))
        G = sheaf(Bar(closed(Fr(1, 2), Fr(5, 2)), 0), Bar(singleton(Fr(7, 2)), 1))
        d = circle_distance(F, G)
        assert d.lower <= d.upper
        d2 = circle_distance(fourier_sato(F), fourier_sato(G))
        assert d.fields() == d2.fields()


def _copies_point_loop(q, lift, C):
    """Oracle: scan a window of deck copies for points inside the lift."""
    n0 = ((lift.left - q) / C).__floor__() - 1
    n1 = ((lift.right - q) / C).__ceil__() + 1
    return [m for m in range(n0, n1 + 1) if lift.contains(q + m * C)]


def _copies_arc_loop(lo, hi, lift, C):
    """Oracle: scan a window of deck copies for arcs inside the lift."""
    n0 = ((lift.left - hi) / C).__floor__() - 1
    n1 = ((lift.right - lo) / C).__ceil__() + 1
    return [m for m in range(n0, n1 + 1)
            if lift.left <= lo + m * C and hi + m * C <= lift.right
            and lift.contains((lo + hi) / 2 + m * C)]


class TestDeckCopies:
    @pytest.mark.parametrize("C", [Fr(4), Fr(3, 2), Fr(5, 3)])
    def test_closed_form_matches_loops(self, rng, C):
        from thicket.model import _copies_arc, _copies_point
        kinds = (CLOSED, OPEN)
        step = C / 12
        for _ in range(2000):
            left = step * rng.randint(-30, 30)
            length = step * rng.randint(0, 40)          # up to 10C/3
            lk, rk = rng.choice(kinds), rng.choice(kinds)
            if length == 0:
                lk = rk = CLOSED
            lift = Interval(left, lk, left + length, rk)
            # copies landing on an endpoint come from points at the
            # endpoints' positions on the circle
            q = rng.choice((lift.left % C, lift.right % C,
                            step * rng.randint(0, 11)))
            assert list(_copies_point(q, lift, C)) == \
                _copies_point_loop(q, lift, C), (q, lift)
            lo = rng.choice((lift.left % C, lift.right % C,
                             step * rng.randint(0, 11)))
            hi = lo + step * rng.randint(1, 12)
            assert list(_copies_arc(lo, hi, lift, C)) == \
                _copies_arc_loop(lo, hi, lift, C), (lo, hi, lift)
