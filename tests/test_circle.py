"""Circle sheaves: thickening, quarter-turn transform, oracle, distance."""

import importlib
import pkgutil
import random
from fractions import Fraction as Fr

import pytest

from oracles import circle_stalk_oracle, poset_oracle_rhom, quiver_struct_scalar
from thicket.barcode import (CLOSED, OPEN, Bar, FramedInterval, GradedBarcode,
                             Interval, closed, half_open, open_iv, ray_left,
                             ray_right, singleton)
from thicket.circle import (Band, CircleSheaf, UnsupportedBandContentError,
                            circle_distance, circle_global_sections, circle_ops,
                            circle_thicken, cyclic_model_of, decompose_cyclic,
                            fourier_sato, seed_bound)
from thicket.corpus import rand_barcode, rand_circle_sheaf, rand_fraction
from thicket.interleave import (DistanceBounds, check_exhaustive,
                                check_interleaving, check_matching, distance,
                                identity_certificate, verify_certificate)
from thicket.scalars import POS_INF
from thicket.thicken import thicken
import thicket
import thicket.circle as circle_mod
import thicket.model as model_mod
import thicket.morphisms as morphisms
from thicket.model import RepPair, rep_sections
from thicket.morphisms import UnsupportedHomError, space_dim, struct_scalar


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


def _sheaf_rules_distance(F, G):
    """The circle rules of ``circle_distance`` applied to the whole sheaves,
    one after another: the circle and field must match, equal sheaves are
    at 0, sheaves whose sections or band parts differ are at +inf, a
    shared nonzero band part is unsupported, and otherwise the spirals'
    distance decides."""
    if F.C != G.C or F.char != G.char:
        raise ValueError("circle sheaves live on different circles")
    space = circle_ops(F.C)
    if F == G:
        return DistanceBounds(Fr(0), Fr(0), True,
                              identity_certificate(F.spiral_barcode(), space),
                              exact_by="identity")
    if (circle_global_sections(F) != circle_global_sections(G)
            or F.bands != G.bands):
        return DistanceBounds(POS_INF, POS_INF, True, None, exact_by="gate")
    if F.bands:
        raise UnsupportedBandContentError(
            "distance with a common nontrivial band part is not supported")
    return distance(F.spiral_barcode(), G.spiral_barcode(), space)


def _distance_outcome(fn, F, G):
    """Every field of ``fn(F, G)``, the witness included, or the type and
    message of the ``ValueError`` it raised."""
    try:
        d = fn(F, G)
    except ValueError as exc:
        return type(exc), str(exc)
    return (d.lower, d.upper, d.exact, d.conclusive, d.exact_by,
            d.witness and (d.witness.a, d.witness.f, d.witness.g))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_circle_distance_follows_the_sheaf_rules(rng, p):
    """``circle_distance`` leaves the identity test and the sections gate
    to ``interleave.distance`` on the spirals, since equal band parts add
    equal terms to both sides' sections; its fields and errors are those
    of the rules applied to the whole sheaves, on the cases of
    ``TestCircleDistance``, on mismatched circles and fields, and on seeded
    sheaves with and without bands."""
    band = [(1, [[1]], 0)]
    arc = Bar(closed(0, 1), 0)
    cases = [(CircleSheaf(C, [arc], band, p),) * 2,
             (CircleSheaf(C, [arc], (), p),
              CircleSheaf(C, [Bar(singleton(Fr(1, 2)), 0)], (), p)),
             (CircleSheaf(C, [], band, p), CircleSheaf(C, [], (), p)),
             (CircleSheaf(C, [arc], band, p), CircleSheaf(C, [arc], (), p)),
             (CircleSheaf(C, [arc], band, p),
              CircleSheaf(C, [Bar(closed(0, 2), 0)], band, p)),
             (CircleSheaf(C, [arc], (), p), CircleSheaf(2 * C, [arc], (), p)),
             (CircleSheaf(C, [arc], (), p), CircleSheaf(C, [arc], (), 7))]
    for _ in range(40):
        F = rand_circle_sheaf(rng, max_spirals=2, with_bands=True, char=p)
        G = rand_circle_sheaf(rng, max_spirals=2, with_bands=True, char=p)
        nudged = [_nudged(rng, b) for b in F.spirals]
        cases += [(F, G), (F, CircleSheaf(C, nudged, F.bands, p)),
                  (F, CircleSheaf(C, G.spirals, F.bands, p)),
                  (F, CircleSheaf(C, F.spirals, G.bands, p))]
    seen = set()
    for F, G in cases:
        want = _distance_outcome(_sheaf_rules_distance, F, G)
        assert _distance_outcome(circle_distance, F, G) == want, (F, G)
        seen.add(want[0] if isinstance(want[0], type) else
                 (want[4], bool(F.bands)))
    assert {ValueError, UnsupportedBandContentError, ("identity", True),
            ("gate", True), ("gate", False), ("refuted", False)} <= seen, seen


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
                 lambda: check_interleaving(F, G, Fr(1, 2), ops),
                 lambda: distance(F, G, space=ops),
                 lambda: distance(G, F, space=ops),
                 lambda: distance(G, G, space=ops)]
        for call in calls:
            with pytest.raises(ValueError, match=r"bar \(-1/2, 1/2\) @deg 0 "
                                                 r"is not normalized"):
                call()

    def test_unbounded_lifts_rejected(self, p):
        # both rays, on both calls and in either argument, raise the one
        # error that CircleSheaf raises, not a TypeError or an exact +inf
        G = GradedBarcode([Bar(closed(0, 1), 0)], p)
        ops = circle_ops(C, p)
        for ray in (ray_left(1, CLOSED), ray_right(1, CLOSED)):
            F = GradedBarcode([Bar(ray, 0)], p)
            for call in (lambda: distance(F, G, ops),
                         lambda: distance(G, F, ops),
                         lambda: check_interleaving(F, G, 1, ops),
                         lambda: check_interleaving(G, F, 1, ops)):
                with pytest.raises(ValueError,
                                   match="spiral lift must be bounded"):
                    call()

    def test_normalized_pair_is_searched(self, p):
        F = CircleSheaf(C, self.F, (), p)
        G = CircleSheaf(C, self.G, (), p)
        d = circle_distance(F, G)
        if d.witness is not None:
            assert verify_certificate(F.spiral_barcode(), G.spiral_barcode(),
                                      d.witness, circle_ops(C, p))
        for check in (check_matching, check_exhaustive):
            cert = check(F.spiral_barcode(), G.spiral_barcode(), Fr(1, 2),
                         circle_ops(C, p))
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


def _model_sections(F):
    """Oracle: sections of the cyclic quiver model, degree by degree."""
    dims = {}
    for d, rep in cyclic_model_of(F).reps.items():
        h0, h1 = rep_sections(rep)
        dims[d] = dims.get(d, 0) + h0
        dims[d + 1] = dims.get(d + 1, 0) + h1
    return {d: n for d, n in sorted(dims.items()) if n}


def _rand_lift(rng, C, longest):
    """A lift starting in [0, C) on a grid of C/8, of length up to
    ``longest`` eighths of C, with either kind at each end."""
    left = C * Fr(rng.randrange(8), 8)
    length = C * Fr(rng.randint(0, longest), 8)
    if length == 0:
        return Interval(left, CLOSED, left, CLOSED)
    return Interval(left, rng.choice((CLOSED, OPEN)), left + length,
                    rng.choice((CLOSED, OPEN)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sections_match_cyclic_model(rng, p):
    # closed form (spiral lifts' compact sections plus band invariants and
    # coinvariants) against the cyclic model, with lifts up to 3C and bands
    # of rank up to 3 at p = 2 (the canonical form search is slow for rank 3
    # at p = 3 and refuses it at p = 5)
    from thicket.corpus import _rand_invertible
    for _ in range(60):
        C = rng.choice((Fr(4), Fr(3, 2)))
        spirals = [Bar(_rand_lift(rng, C, 24), rng.randint(-1, 1))
                   for _ in range(rng.randint(0, 4))]
        bands = []
        for _ in range(rng.randint(0, 2)):
            r = rng.randint(1, 3 if p == 2 else 2)
            bands.append((r, _rand_invertible(rng, r, p), rng.randint(-1, 1)))
        F = CircleSheaf(C, spirals, bands, p)
        assert circle_global_sections(F) == _model_sections(F), F


def _nudged(rng, b):
    iv = b.iv
    left = iv.left + C * Fr(rng.randint(-2, 2), 16)
    right = max(left, iv.right + C * Fr(rng.randint(-2, 2), 16))
    if left == right:
        return Bar(singleton(left), b.degree)
    return Bar(Interval(left, iv.lkind, right, iv.rkind), b.degree)


def _grid_lifts(C):
    """Points and lifts of length C/2, C and 2C, with all four endpoint
    kinds, starting at 0 and at 3C/4."""
    out = []
    for left in (Fr(0), 3 * C / 4):
        out.append(singleton(left))
        for length in (C / 2, C, 2 * C):
            for lk in (CLOSED, OPEN):
                for rk in (CLOSED, OPEN):
                    out.append(Interval(left, lk, left + length, rk))
    return out


def _use_quiver_path(monkeypatch):
    """Route circle dimensions and structure constants through the circle
    quiver model, with a cold pair cache; the line keeps its rules."""
    line_dim, line_struct = morphisms.space_dim, morphisms.struct_scalar

    def quiver_dim(space, ivA, ivB, kind, p):
        if space == morphisms.LINE:
            return line_dim(space, ivA, ivB, kind, p)
        model = morphisms.build_model(space, [ivA, ivB])
        rp = RepPair(morphisms.bar_rep(space, model, ivA, p),
                     morphisms.bar_rep(space, model, ivB, p))
        morphisms._check_supported((rp.hom_dim, rp.ext_dim), ivA, ivB)
        return rp.hom_dim if kind == "h" else rp.ext_dim

    def quiver_struct(space, p, ivA, ivB, ivC, kind1, kind2):
        if space == morphisms.LINE or kind1 == kind2 == "e":
            return line_struct(space, p, ivA, ivB, ivC, kind1, kind2)
        return quiver_struct_scalar(space, p, ivA, ivB, ivC, kind1, kind2)

    monkeypatch.setattr(morphisms, "space_dim", quiver_dim)
    monkeypatch.setattr(morphisms, "struct_scalar", quiver_struct)
    monkeypatch.setattr(morphisms, "_PAIR_CACHE", {})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedHomError:
        return "unsupported"
    except ValueError as exc:
        return f"error: {exc}"


class TestCoveringCalculus:
    @pytest.mark.parametrize("C", [Fr(4), Fr(3, 2)])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_space_dim_matches_oracle(self, C, p):
        # every ordered pair of grid lifts; a pair whose Hom or Ext summed
        # over the deck copies exceeds one must raise
        space = ("circle", C)
        raised = 0
        for ivA in _grid_lifts(C):
            for ivB in _grid_lifts(C):
                rhom = poset_oracle_rhom(GradedBarcode([Bar(ivA, 0)], p),
                                         GradedBarcode([Bar(ivB, 0)], p),
                                         space=space)
                hom, ext = rhom.get(0, 0), rhom.get(1, 0)
                for kind, want in (("h", hom), ("e", ext)):
                    if hom > 1 or ext > 1:
                        raised += 1
                        with pytest.raises(UnsupportedHomError):
                            space_dim(space, ivA, ivB, kind, p)
                    else:
                        assert space_dim(space, ivA, ivB, kind, p) == want, \
                            (ivA, ivB, kind, rhom)
        assert raised

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_struct_scalar_matches_quiver(self, rng, p):
        # equal at p = 2; at odd p the Ext generator of a circle pair is the
        # pushforward of its deck copy's line generator, which may differ
        # from the quiver's by a unit, so only zero versus nonzero must agree
        seen = set()
        for C in (Fr(4), Fr(3, 2)):
            space = ("circle", C)
            done = 0
            while done < 150:
                A, B, D = (_rand_lift(rng, C, 12) for _ in range(3))
                k1, k2 = rng.choice((("h", "h"), ("h", "e"), ("e", "h")))
                if not (_outcome(space_dim, space, A, B, k1, p)
                        and _outcome(space_dim, space, B, D, k2, p)):
                    continue
                done += 1
                new = _outcome(struct_scalar, space, p, A, B, D, k1, k2)
                old = _outcome(quiver_struct_scalar, space, p, A, B, D, k1, k2)
                if isinstance(new, str) or isinstance(old, str) or p == 2:
                    assert new == old, (A, B, D, k1, k2)
                    seen.add(new if isinstance(new, str) else bool(new[1]))
                else:
                    assert new[0] == old[0] and bool(new[1]) == bool(old[1]), \
                        (A, B, D, k1, k2, new, old)
                    seen.add(bool(new[1]))
        assert {"unsupported", True, False} <= seen

    @pytest.mark.parametrize("framed", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_line_is_the_one_copy_case(self, p, framed):
        # lifts in [0, 2] on R/8Z meet only deck copy 0 of each other, so
        # every circle dimension and structure constant, Ext signs and
        # errors included, is its line value; in Fractions and in the frame
        # x -> 4x with C = 32 alike
        ends = [Fr(k, 2) for k in range(5)]
        grid = [singleton(x) for x in ends] + [
            Interval(x, lk, y, rk) for x in ends for y in ends if x < y
            for lk in (CLOSED, OPEN) for rk in (CLOSED, OPEN)]
        space = ("circle", Fr(8))
        if framed:
            grid = [FramedInterval(int(4 * iv.left), iv.lkind,
                                   int(4 * iv.right), iv.rkind) for iv in grid]
            space = ("circle", 32)
        seen = set()
        for A in grid:
            for B in grid:
                for kind in ("h", "e"):
                    assert (space_dim(space, A, B, kind, p)
                            == space_dim(morphisms.LINE, A, B, kind, p)), (A, B)
        rng = random.Random(40 + p)
        for _ in range(1500):
            A, B, D = (rng.choice(grid) for _ in range(3))
            kinds = rng.choice((("h", "h"), ("h", "e"), ("e", "h")))
            got = _outcome(struct_scalar, space, p, A, B, D, *kinds)
            want = _outcome(struct_scalar, morphisms.LINE, p, A, B, D, *kinds)
            assert got == want, (A, B, D, kinds)
            seen.add(got)
        assert {("h", 1), ("e", 1), ("e", p - 1), ("h", 0), ("e", 0),
                "unsupported", "error: ext space is zero"} <= seen, seen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_distance_matches_quiver_path(self, rng, monkeypatch, p):
        # G moves each lift of F by up to C/8 at each end, keeping its kinds,
        # so most pairs pass the sections gate and are searched
        pairs = []
        for _ in range(30):
            F = CircleSheaf(C, [Bar(_rand_lift(rng, C, 10), rng.randint(0, 1))
                                for _ in range(rng.randint(1, 3))], (), p)
            pairs.append((F, CircleSheaf(C, [_nudged(rng, b) for b in F.spirals],
                                         (), p)))

        def fields(d):
            return (d.lower, d.upper, d.exact, d.conclusive,
                    None if d.witness is None else d.witness.a)

        new = []
        for F, G in pairs:
            d = circle_distance(F, G)
            if d.witness is not None:
                assert verify_certificate(F.spiral_barcode(), G.spiral_barcode(),
                                          d.witness, circle_ops(C, p))
            new.append(fields(d))
        assert sum(d[1] < POS_INF for d in new) >= 10
        _use_quiver_path(monkeypatch)
        assert [fields(circle_distance(F, G)) for F, G in pairs] == new

    def test_distance_never_builds_circle_models(self, rng, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the circle quiver model was reached")

        for mod in (model_mod, morphisms, circle_mod):
            for name in ("CircleModel", "circle_spiral_rep", "cyclic_model_of"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, reached)
        monkeypatch.setattr(morphisms, "_PAIR_CACHE", {})
        band = [(1, [[1]], 0)]
        searched = 0
        for _ in range(6):
            F = CircleSheaf(C, [Bar(_rand_lift(rng, C, 12), rng.randint(0, 1))
                                for _ in range(rng.randint(1, 3))], (), 3)
            G = CircleSheaf(C, [_nudged(rng, b) for b in F.spirals], (), 3)
            d = circle_distance(F, G)
            assert d.lower <= d.upper
            searched += 0 < d.upper < POS_INF
            Fb = CircleSheaf(C, F.spirals, band, 3)
            assert circle_distance(Fb, Fb).fields() == (0, 0, True)
            assert circle_distance(Fb, G).upper == POS_INF
        assert searched >= 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_distance_never_reaches_the_line_quiver(self, p, monkeypatch):
        """Line and circle distances read every Hom dimension and structure
        constant from the closed-form line rules: no quiver model is built."""
        def reached(*args, **kwargs):
            raise AssertionError("the line quiver model was reached")

        for mod in (model_mod, morphisms):
            for name in ("PairData", "RepPair", "line_bar_rep", "shape_key"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, reached)
        monkeypatch.setattr(morphisms, "_PAIR_CACHE", {})
        struct = morphisms.struct_scalar
        kinds = set()

        def counted(*args):
            kinds.add(args[-2:])
            return struct(*args)

        monkeypatch.setattr(morphisms, "struct_scalar", counted)
        rng = random.Random(300 + p)
        certified = searched = 0
        for _ in range(12):
            F = rand_barcode(rng, max_bars=4, char=p, degrees=(0, 1))
            d = distance(F, thicken(F, Fr(rng.randint(1, 4), 4)))
            certified += d.witness is not None and 0 < d.upper < POS_INF
        for _ in range(6):
            F = CircleSheaf(C, [Bar(_rand_lift(rng, C, 12), rng.randint(0, 1))
                                for _ in range(rng.randint(1, 3))], (), p)
            G = CircleSheaf(C, [_nudged(rng, b) for b in F.spirals], (), p)
            d = circle_distance(F, G)
            assert d.lower <= d.upper
            searched += 0 < d.upper < POS_INF
        assert certified >= 6 and searched >= 3, (certified, searched)
        assert {("h", "h"), ("h", "e"), ("e", "h")} <= kinds


def test_no_package_module_holds_a_test_oracle():
    """The stalk, quiver and RHom oracles live in ``tests/oracles.py``: no
    ``thicket`` module defines or exports them."""
    moved = ("stalk_oracle", "stalk_oracle_negative", "stalk_of",
             "circle_stalk_oracle", "quiver_struct_scalar", "_hom_gen_matrices",
             "_ext_gen_reduced", "_scalar_on_ext", "transport_ext_class",
             "poset_oracle_rhom")
    modules = [thicket] + [importlib.import_module(m.name) for m in
                           pkgutil.iter_modules(thicket.__path__, "thicket.")]
    assert "thicket.morphisms" in {m.__name__ for m in modules}
    for mod in modules:
        held = [name for name in moved if hasattr(mod, name)]
        assert not held, (mod.__name__, held)
