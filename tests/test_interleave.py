"""Interleaving certificates, strategies, and distance bounds."""

import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as Fr
from itertools import product

import pytest

from conftest import bar, gb, mixed_bar, pooled_interval
from thicket.barcode import (CLOSED, OPEN, Bar, CharacteristicMismatchError,
                             GradedBarcode, Interval, closed, full_line,
                             half_open, iso_equal, open_iv, ray_left,
                             ray_right, singleton)
from thicket.circle import CircleSheaf, circle_distance, circle_ops
from thicket.corpus import (rand_bounded_barcode, rand_barcode,
                            rand_circle_sheaf, rand_fraction)
from thicket import interleave
from thicket.interleave import (CapacityError, DistanceBounds,
                                InterleavingCertificate, check_exhaustive, check_interleaving,
                                check_matching, critical_grid, distance,
                                _pair_feasible, finite_gate,
                                identity_certificate, verify_certificate,
                                weaken_certificate)
from thicket import fieldmath as fm
from thicket.morphisms import (LINE, Morphism, UnsupportedHomError, compose,
                               normal_form, restriction, thicken_indexed,
                               thicken_morphism)
from thicket import morphisms
from thicket.plmaps import abs_map, lipschitz_experiment
from thicket.scalars import POS_INF
from thicket.thicken import (bar_rule, cost_form, deck_cost, direct_cost,
                             halfopen_translation_kills, kill_cost, thicken)


class TestVerify:
    def test_identity_certificate(self):
        F = gb(bar(closed(0, 2)), bar(open_iv(0, 1), 1))
        assert verify_certificate(F, F, identity_certificate(F))

    def test_skyscraper_certificate(self):
        F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
        f = Morphism(thicken(F, 1), G, {(0, 0): 1})
        g = Morphism(thicken(G, 1), F, {(0, 0): 1})
        assert verify_certificate(F, G, InterleavingCertificate(Fr(1), f, g))

    def test_zero_maps_fail_against_nonzero_restriction(self):
        F, Z = gb(bar(closed(0, 2))), gb()
        for a in (Fr(1), Fr(5)):
            f = Morphism(thicken(F, a), Z, {})
            g = Morphism(thicken(Z, a), F, {})
            assert not verify_certificate(F, Z, InterleavingCertificate(a, f, g))

    def test_block_on_a_zero_hom_space_fails(self):
        """A witness with a block on a zero Hom space is not a certificate:
        the check says False, and blames no thickening for it."""
        F, G = gb(bar(closed(0, 2))), gb(bar(closed(10, 12)))
        f = Morphism(thicken(F, 1), G, {(0, 0): 1}, validate=False)
        g = Morphism(thicken(G, 1), F, {(0, 0): 1}, validate=False)
        assert verify_certificate(F, G, InterleavingCertificate(Fr(1), f, g)) \
            is False

    def test_shape_mismatch_raises(self):
        F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
        f = Morphism(thicken(F, 1), G, {(0, 0): 1})
        g = Morphism(thicken(G, 1), F, {(0, 0): 1})
        with pytest.raises(ValueError):
            verify_certificate(F, G, InterleavingCertificate(Fr(2), f, g))


class TestCheckInterleaving:
    def test_identity_at_zero(self):
        F = gb(bar(closed(0, 2)), bar(half_open(1, 3), 1))
        cert = check_interleaving(F, F, 0)
        assert cert is not None and cert.a == 0

    def test_degenerate_open_vs_shifted_point(self):
        F = gb(bar(open_iv(0, 4)))
        G = gb(bar(singleton(2), 1))
        for check in (check_matching, check_exhaustive, check_interleaving):
            assert check(F, G, 2) is not None

    def test_no_certificate_against_zero(self):
        F = gb(bar(closed(0, 2)))
        for check in (check_exhaustive, check_interleaving):
            assert check(F, gb(), 10) is None

    def test_capacity_error(self, monkeypatch):
        """The cap fires where a certificate exists, so that every row is
        reached; below the distance the row test refutes before any cap."""
        F = rand_bounded_barcode(__import__("random").Random(5), max_bars=4)
        G = thicken(F, Fr(1, 4))
        monkeypatch.setattr(interleave, "MAX_UNKNOWNS", 1)
        for a in (Fr(1, 4), Fr(1, 2)):
            with pytest.raises(CapacityError, match="exceed the cap 1"):
                check_exhaustive(F, G, a)
        assert check_exhaustive(F, G, Fr(1, 8)) is None
        # on the line the matching decides without the exhaustive search:
        # it certifies 1/4 and refutes 1/8 whatever the cap; 0 is refuted
        # by the isomorphism test
        assert check_interleaving(F, G, Fr(1, 4)) is not None
        assert check_interleaving(F, G, Fr(1, 8)) is None
        assert check_interleaving(F, G, 0) is None

    @pytest.mark.parametrize("space", [LINE, circle_ops(4)],
                             ids=["line", "circle"])
    def test_negative_shift_rejected(self, space):
        """Every public search refuses a negative shift with one message,
        the empty pair included: it is no refutation, and no certificate
        is searched for."""
        F = gb(bar(closed(0, 2)), bar(half_open(1, 3), 1))
        G = gb(bar(closed(0, 1)))
        for X, Y in ((F, G), (gb(), gb())):
            for check in (check_matching, check_exhaustive,
                          check_interleaving):
                for a in (-1, Fr(-1, 8)):
                    with pytest.raises(ValueError, match="interleaving shift "
                                                         "must be nonnegative"):
                        check(X, Y, a, space)

    def test_matching_certificates_verify(self, rng):
        for _ in range(30):
            F = rand_bounded_barcode(rng, max_bars=3)
            a = abs(rand_fraction(rng, 0, 2))
            G = thicken(F, a)
            cert = check_matching(F, G, a)
            if cert is not None:
                assert verify_certificate(F, G, cert)


class TestGateAndGrid:
    def test_gate_infinite(self):
        assert finite_gate(gb(bar(closed(0, 2))), gb()) == "infinite"

    def test_gate_pass(self):
        assert finite_gate(gb(bar(closed(0, 2))), gb(bar(singleton(1)))) == "pass"

    def test_gate_reflexive(self, rng):
        F = rand_barcode(rng)
        assert finite_gate(F, F) == "pass"

    def test_grid_examples(self):
        F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
        assert critical_grid(F, G) == [Fr(0), Fr(1, 2), Fr(1), Fr(2)]
        assert critical_grid(gb(bar(open_iv(0, 4))), gb()) == [Fr(0), Fr(2), Fr(4)]

    def test_grid_contains_zero(self, rng):
        F = rand_barcode(rng)
        assert Fr(0) in critical_grid(F, F)


class TestDistance:
    def test_reflexive_exact_zero(self, rng):
        F = rand_barcode(rng)
        assert distance(F, F).fields() == (0, 0, True)

    def test_skyscraper_exact(self):
        d = distance(gb(bar(closed(0, 2))), gb(bar(singleton(1))))
        assert d.fields() == (1, 1, True)
        assert d.witness is not None

    def test_infinite_gate(self):
        d = distance(gb(bar(closed(0, 2))), gb())
        assert d.fields() == (POS_INF, POS_INF, True)
        assert d.witness is None

    def test_halfopen_to_zero(self):
        assert distance(gb(bar(half_open(0, 1))), gb()).fields() == \
            (Fr(1, 2), Fr(1, 2), True)

    def test_translate_skyscrapers(self):
        d = distance(gb(bar(singleton(0))), gb(bar(singleton(3))))
        assert d.fields() == (3, 3, True)

    def test_symmetry(self, rng):
        for _ in range(25):
            F = rand_bounded_barcode(rng, max_bars=2)
            G = rand_bounded_barcode(rng, max_bars=2)
            assert distance(F, G).fields() == distance(G, F).fields()

    def test_witness_always_verifies(self, rng):
        for _ in range(15):
            F = rand_bounded_barcode(rng, max_bars=2)
            G = rand_bounded_barcode(rng, max_bars=2)
            d = distance(F, G)
            if d.witness is not None:
                assert verify_certificate(F, G, d.witness)

    def test_opposite_rays_infinite_but_gate_passes(self):
        F = gb(bar(ray_right(0)))
        G = gb(bar(ray_left(0)))
        assert finite_gate(F, G) == "pass"
        assert distance(F, G).fields() == (POS_INF, POS_INF, True)

    @pytest.mark.parametrize("left_kind", [CLOSED, OPEN],
                             ids=["closed", "open"])
    @pytest.mark.parametrize("right_kind", [CLOSED, OPEN],
                             ids=["closed", "open"])
    def test_unmatched_rays_are_exactly_infinite(self, left_kind, right_kind):
        """No matching at the top grid value is an exact +inf on the line:
        every pair and kill cost is a grid value or +inf.  Rays of mixed
        kinds already fail the gate."""
        F = gb(bar(ray_left(0, left_kind)), bar(closed(1, 2)))
        G = gb(bar(ray_right(0, right_kind)), bar(closed(1, 3)))
        d = distance(F, G)
        if left_kind is not right_kind:
            assert finite_gate(F, G) == "infinite"
        assert d.fields() == (POS_INF, POS_INF, True) and d.witness is None
        assert distance(G, F).fields() == d.fields()


class TestMonotonicity:
    def test_weakened_certificates_verify(self, rng):
        F = gb(bar(closed(0, 2)))
        G = gb(bar(singleton(1)))
        cert = distance(F, G).witness
        grid = critical_grid(F, G)
        for b in [v for v in grid if v > cert.a]:
            weak = weaken_certificate(F, G, cert, b)
            assert verify_certificate(F, G, weak)


class TestLocallyConstantRigidity:
    def test_full_line_rigidity(self, rng):
        kR = gb(bar(full_line(), 0))
        hits = 0
        for i in range(40):
            if rng.random() < 0.5:
                G = kR.direct_sum(rand_bounded_barcode(rng, max_bars=1))
            else:
                G = rand_barcode(rng, max_bars=2)
            d = distance(kR, G)
            if d.upper != POS_INF:
                hits += 1
                assert any(b.iv.is_full_line and b.degree == 0 for b in G.bars)
        assert hits > 0


class TestCompactDichotomy:
    def test_split_families(self, rng):
        # bars inside a common window; gate pass must coincide with a finite
        # upper bound found on the grid
        for _ in range(25):
            F = rand_bounded_barcode(rng, max_bars=2, lo=-2, hi=2)
            G = rand_bounded_barcode(rng, max_bars=2, lo=-2, hi=2)
            gate = finite_gate(F, G)
            d = distance(F, G)
            if gate == "pass":
                assert d.upper != POS_INF, (F, G)
            else:
                assert d.upper == POS_INF

    def test_split_triangle_cones(self, rng):
        # cone of the zero morphism: F3 = F2 (+) F1[1]; finite distance on two
        # legs forces finite distance on the cones
        for _ in range(10):
            F1 = rand_bounded_barcode(rng, max_bars=1, lo=-2, hi=2)
            F2 = rand_bounded_barcode(rng, max_bars=1, lo=-2, hi=2)
            G1 = thicken(F1, Fr(1, 2))
            G2 = thicken(F2, Fr(1, 4))
            F3 = F2.direct_sum(F1.shift(1))
            G3 = G2.direct_sum(G1.shift(1))
            assert distance(F1, G1).upper != POS_INF
            assert distance(F2, G2).upper != POS_INF
            assert distance(F3, G3).upper != POS_INF


class TestBoundsInvariants:
    def test_structural_invariants(self, rng):
        for _ in range(20):
            F = rand_bounded_barcode(rng, max_bars=2)
            G = rand_bounded_barcode(rng, max_bars=2)
            d = distance(F, G)
            assert d.lower <= d.upper
            if d.exact:
                assert d.lower == d.upper
            if d.upper != POS_INF:
                assert d.witness is not None
                assert verify_certificate(F, G, d.witness)


class TestBudgetBounds:
    """The exhaustive search's budget of ``MAX_UNKNOWNS`` unknown blocks is
    reached on the circle only; on the line the matching decides."""
    F = rand_bounded_barcode(__import__("random").Random(11), max_bars=4)
    G = thicken(F, Fr(1, 4))
    # two points on the circle R/4Z against the two moved by 1/2 and 1/4
    C = Fr(4)
    CF = CircleSheaf(C, [bar(singleton(2)),
                         bar(singleton(3))]).spiral_barcode()
    CG = CircleSheaf(C, [bar(singleton(Fr(3, 2))),
                         bar(singleton(Fr(13, 4)))]).spiral_barcode()

    def test_default_budget_is_exact(self, monkeypatch):
        ops = circle_ops(self.C)
        assert distance(self.CF, self.CG, ops).fields() == \
            (Fr(1, 2), Fr(1, 2), True)
        for cap in (24, 1, 0):
            monkeypatch.setattr(interleave, "MAX_UNKNOWNS", cap)
            assert distance(self.F, self.G).fields() == \
                (Fr(1, 4), Fr(1, 4), True)

    @classmethod
    def block_matching_at_distance(cls, monkeypatch):
        """Cap the exhaustive search at one unknown, and let the matching
        find nothing at the distance 1/2 (read back from the pair's frame),
        where every row is reached: the probe there is over the cap, and
        the next grid value, 5/8, is matched."""
        monkeypatch.setattr(interleave, "MAX_UNKNOWNS", 1)
        matching = interleave._matching
        monkeypatch.setattr(
            interleave, "_matching", lambda F, G, a, frame, *rest:
            None if Fr(a, frame[0]) == Fr(1, 2)
            else matching(F, G, a, frame, *rest))

    def test_capacity_leaves_bounds_inconclusive(self, monkeypatch):
        self.block_matching_at_distance(monkeypatch)
        ops = circle_ops(self.C)
        d = distance(self.CF, self.CG, ops)
        assert (d.lower, d.upper, d.exact, d.conclusive) == \
            (Fr(3, 8), Fr(5, 8), False, False)
        assert verify_certificate(self.CF, self.CG, d.witness, ops)


# ---------------------------------------------------------------------------
# The candidate search against the linear scan that defines the answer.

def _lift(b, a, space):
    """Oracle of the lifts a matching reads off its tables, bar by bar:
    (b, its a-lift, its 2a-lift, whether the restriction to 2a kills it)."""
    return (b, normal_form(bar_rule(b, a), space),
            normal_form(bar_rule(b, 2 * a), space),
            halfopen_translation_kills(b.iv, 0, 2 * a))


def _match_pairs(F, G, a, space):
    """Oracle of the matching: the full pair-feasibility table at ``a``
    from the Hom calculus, with no pair cost read, and a block-diagonal
    matching over it: ``(pairs, feas)``, or None when none exists.  A pair
    whose Hom the calculus cannot use counts as infeasible."""
    lifts_F = [_lift(b, a, space) for b in F.bars]
    lifts_G = [_lift(b, a, space) for b in G.bars]
    feas = {}
    for (i, f), (j, g) in product(enumerate(lifts_F), enumerate(lifts_G)):
        try:
            r = _pair_feasible(f, g, F.char, space)
        except UnsupportedHomError:
            r = None
        if r is not None:
            feas[(i, j)] = r
    pairs = interleave._perfect_matching(
        [[j for j in range(len(G.bars)) if (i, j) in feas]
         for i in range(len(F.bars))],
        [f[3] for f in lifts_F], [g[3] for g in lifts_G])
    return None if pairs is None else (pairs, feas)


def _table_certificate(F, G, a, space):
    """The verified certificate of the ``_match_pairs`` matching at ``a``,
    built on the unit frame (Fractions), else None (a Hom the calculus
    cannot use included)."""
    match = _match_pairs(F, G, Fr(a), space)
    if match is None:
        return None
    pairs, feas = match
    try:
        return interleave._certificate(
            F, G, Fr(a), {(i, j): 1 for i, j in pairs},
            {(j, i): feas[(i, j)] for i, j in pairs},
            interleave._lifts(F, G, Fr(a), space), (1, F, G, space))
    except UnsupportedHomError:
        return None


def _outcome(F, G, a, ops):
    """'found', 'refuted', 'capacity' or 'unsupported' at the shift a, by
    the route that does not rest on the isometry theorem or on any pair
    cost: the isomorphism test at 0, else the full-table matching and then
    the exhaustive search."""
    if a == 0 and not iso_equal(F, G):
        return "refuted"
    if _table_certificate(F, G, a, ops) is not None:
        return "found"
    try:
        cert = check_exhaustive(F, G, a, ops)
    except CapacityError:
        return "capacity"
    except UnsupportedHomError:
        return "unsupported"
    return "refuted" if cert is None else "found"


def _linear_scan(F, G, ops):
    """Oracle: scan the whole critical grid upward from 0 and stop at the
    first certificate, the definition of the answer ``distance`` walks to."""
    if F == G:
        return DistanceBounds(Fr(0), Fr(0), True, identity_certificate(F, ops))
    if finite_gate(F, G, ops) == "infinite":
        return DistanceBounds(POS_INF, POS_INF, True, None)
    return _linear_definition(critical_grid(F, G, ops),
                              lambda a: _outcome(F, G, a, ops))


def _agrees(d, oracle, space):
    """``d`` has the oracle's bounds wherever the oracle is exact, and on
    the circle always.  Elsewhere on the line, where the oracle's
    exhaustive search is over its cap, ``d`` is exact and lies within the
    oracle's bounds."""
    if space != LINE or oracle.exact:
        return _sides(d) == _sides(oracle)
    return d.exact and oracle.lower <= d.upper <= oracle.upper


def _linear_definition(grid, outcome):
    """The bounds a scan of ``grid`` upward from 0 defines, where
    ``outcome(a)`` is 'found', 'refuted', 'capacity' or 'unsupported'."""
    refuted, unknown = [], []
    for a in grid:
        outcome_a = outcome(a)
        if outcome_a == "found":
            below = [v for v in grid if v < a]
            if not below or below[-1] in refuted:
                return DistanceBounds(a, a, True, InterleavingCertificate(a, None, None))
            return DistanceBounds(max(refuted, default=Fr(0)), a, False,
                                  InterleavingCertificate(a, None, None),
                                  conclusive=not unknown)
        (refuted if outcome_a == "refuted" else unknown).append(a)
    return DistanceBounds(max(refuted, default=Fr(0)), POS_INF, False, None,
                          conclusive=not unknown)


def _nudged(rng, F):
    """F with every endpoint moved by at most 1/2 on the 1/4 grid, keeping
    kinds, degrees and positive lengths."""
    bars = []
    for b in F.bars:
        while True:
            left = b.iv.left + Fr(rng.randint(-2, 2), 4)
            right = b.iv.right + Fr(rng.randint(-2, 2), 4)
            if right > left or (right == left and b.iv.lkind is b.iv.rkind is CLOSED):
                break
        bars.append(Bar(Interval(left, b.iv.lkind, right, b.iv.rkind), b.degree))
    return GradedBarcode(bars, F.char)


def _line_pairs(rng, p, count):
    """Pairs at finite distance: F against a nudged copy or a thickening."""
    for _ in range(count):
        F = rand_bounded_barcode(rng, max_bars=4, char=p)
        if rng.random() < 0.6:
            yield F, _nudged(rng, F)
        else:
            yield F, thicken(F, Fr(rng.randint(1, 4), 4))


def _circle_pairs(rng, p, count):
    C = Fr(4)
    for _ in range(count):
        F = rand_circle_sheaf(rng, C, max_spirals=3, char=p)
        G = CircleSheaf(C, _nudged(rng, F.spiral_barcode()).bars, (), p)
        yield F.spiral_barcode(), G.spiral_barcode(), circle_ops(C, p)


def _sides(d):
    return (d.lower, d.upper, d.exact, d.conclusive,
            None if d.witness is None else d.witness.a)


@pytest.mark.parametrize("p", [2, 3, 5])
class TestBisection:
    """``distance`` against the linear scan: on the circle its walk from
    the bottleneck over the deck-copy costs; on the line its bottleneck
    search over the closed-form costs."""

    def test_feasibility_upward_closed(self, rng, p):
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 6)]
        pairs += list(_circle_pairs(rng, p, 4))
        for F, G, ops in pairs:
            outcomes = [_outcome(F, G, a, ops)
                        for a in critical_grid(F, G, ops)]
            if "found" in outcomes:
                assert "refuted" not in outcomes[outcomes.index("found"):], (F, G)

    def test_zero_shift_agrees_with_exhaustive(self, rng, p):
        """At a = 0 the isomorphism test answers; wherever the exhaustive
        search decides 0 within its cap, it agrees."""
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        pairs += [(F, F, space) for F, _, space in pairs[::3]]
        decided = 0
        for F, G, space in pairs:
            cert = check_interleaving(F, G, 0, space)
            assert (cert is None) == (F.bars != G.bars), (F, G)
            try:
                e = check_exhaustive(F, G, 0, space)
            except (CapacityError, UnsupportedHomError):
                continue
            assert (e is None) == (cert is None), (F, G)
            decided += 1
        assert decided >= 10

    @pytest.mark.parametrize("cap", [24, 1, 2],
                             ids=["default", "unknowns-1", "unknowns-2"])
    def test_distance_matches_linear_scan(self, rng, p, cap, monkeypatch):
        monkeypatch.setattr(interleave, "MAX_UNKNOWNS", cap)
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        for F, G, ops in pairs:
            d = distance(F, G, ops)
            assert _agrees(d, _linear_scan(F, G, ops), ops), (F, G)
            if d.witness is not None:
                assert verify_certificate(F, G, d.witness, ops)

    def test_one_exhaustive_call_per_exact_result(self, rng, p, monkeypatch):
        calls = []

        exhaustive = interleave._exhaustive

        def counted(*args):
            calls.append(args[2])
            return exhaustive(*args)

        monkeypatch.setattr(interleave, "_exhaustive", counted)
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        exact = 0
        for F, G, space in pairs:
            calls.clear()
            d = distance(F, G, space=space)
            if space == LINE:
                assert calls == [], (F, G, calls)
            elif d.exact:
                assert len(calls) <= 1, (F, G, calls)
            exact += d.exact and d.upper != POS_INF
        assert exact >= 10

    @pytest.mark.parametrize("late", [False, True], ids=["never", "late"])
    def test_fallback_matches_linear_scan(self, rng, p, monkeypatch, late):
        """A start index too early (index 1, as when no cost has a
        matching) or too late (two grid values past the least certificate,
        or past the top of the grid when there is none) leaves the walk to
        find the least certificate above or below it, with the bounds of
        the linear scan.  Only the circle walks."""
        for F, G, space in _circle_pairs(rng, p, 4):
            oracle = _linear_scan(F, G, space)
            grid = critical_grid(F, G, space)
            start = None
            if late:
                k = len(grid) if oracle.upper == POS_INF else \
                    grid.index(oracle.upper) + 2
                start = grid[k] if k < len(grid) else grid[-1] + 1
            monkeypatch.setattr(interleave, "_least_cost", lambda costs: start)
            d = distance(F, G, space=space)
            assert _agrees(d, oracle, space), (F, G)
            if d.witness is not None:
                assert verify_certificate(F, G, d.witness, space)


def _walk_scripts(max_len):
    """Every outcome script of 1..max_len grid indices with index 0 refuted
    and no refuted index above a found one."""
    kinds = ("found", "refuted", "capacity", "unsupported")
    for n in range(1, max_len + 1):
        for rest in product(kinds, repeat=n - 1):
            script = ("refuted",) + rest
            if "found" in script and "refuted" in script[script.index("found"):]:
                continue
            yield script


class TestScriptedWalk:
    """The circle walk of ``distance`` against the linear definition, on
    grids whose probe outcomes are scripted."""

    def test_walk_matches_linear_definition(self, monkeypatch):
        """From every start: none, below the grid, on each grid value,
        between two, and past the top.  The grid is scripted in the pair's
        frame, whose M is 4, so grid index i reads back as i/4."""
        F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
        state = {}

        def search(F, G, a, frame, costs):
            assert 0 < a and a not in state["searched"], a
            state["searched"].add(a)
            outcome = state["script"][a]
            if outcome == "capacity":
                raise CapacityError("scripted")
            if outcome == "unsupported":
                raise UnsupportedHomError("scripted")
            return InterleavingCertificate(Fr(a, frame[0]), None, None) \
                if outcome == "found" else None

        monkeypatch.setattr(interleave, "_grid", lambda frame: state["grid"])
        monkeypatch.setattr(interleave, "_least_cost",
                            lambda costs: state["start"])
        monkeypatch.setattr(interleave, "_search", search)
        space = circle_ops(4)
        seen = set()
        for script in _walk_scripts(6):
            grid = list(range(len(script)))
            expected = _linear_definition([Fr(i, 4) for i in grid],
                                          lambda a: script[int(4 * a)])
            starts = [Fr(k, 2) for k in range(-1, 2 * len(grid) + 1)]
            for start in [None] + starts:
                state.update(grid=grid, script=script, start=start,
                             searched=set())
                d = distance(F, G, space)
                assert _sides(d) == _sides(expected), (script, start)
                seen.add((d.upper == POS_INF, d.exact, d.conclusive))
        # a certificate, exact or not, or none, with every probe decided or
        # not (an undecided probe below the largest refuted one included)
        assert seen == {(False, True, True), (False, False, False),
                        (True, False, True), (True, False, False)}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_each_grid_index_matched_once(self, rng, p, monkeypatch):
        """Every pair that reaches the walk runs at least one matching,
        and no grid value gets two."""
        calls = []
        matching = interleave._matching

        def counted(F, G, a, *rest):
            calls.append(a)
            return matching(F, G, a, *rest)

        monkeypatch.setattr(interleave, "_matching", counted)
        walked = 0
        for F, G, space in _circle_pairs(rng, p, 10):
            calls.clear()
            d = distance(F, G, space=space)
            assert len(calls) == len(set(calls)), (F, G, calls)
            if d.exact_by not in ("identity", "gate"):
                assert calls, (F, G)
                walked += 1
        assert walked >= 5, walked


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_pair_at_infinite_distance_skips_the_walk(p, monkeypatch):
    """Up to twelve bars a side plus (-inf, 0] against [0, +inf): the gate
    passes, no pair of the two rays has a finite cost, and the bisection
    over the costs finds no matching at the largest one: an exact +inf,
    with no grid, no certificate and no Hom calculus."""
    calls = []
    for name in ("_matching", "_search", "critical_grid", "_pair_feasible"):
        def counted(*args, _name=name, _f=getattr(interleave, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(interleave, name, counted)
    rng = __import__("random").Random(p)
    F0 = rand_bounded_barcode(rng, max_bars=12, char=p)
    F = F0.direct_sum(gb(bar(ray_left(0)), char=p))
    G = _nudged(rng, F0).direct_sum(gb(bar(ray_right(0)), char=p))
    assert finite_gate(F, G) == "pass"
    d = distance(F, G)
    assert (d.lower, d.upper, d.exact, d.witness) == (POS_INF, POS_INF, True, None)
    assert d.exact_by == "isometry" and calls == []


# ---------------------------------------------------------------------------
# The line in closed form: costs against the Hom calculus, and the value
# against the searches that do not rest on the isometry theorem.

def _every_shape(x, y):
    """One interval of each shape class, with ends x < y."""
    return [closed(x, y), singleton(x), open_iv(x, y), half_open(x, y),
            Interval(x, OPEN, y, CLOSED), ray_left(y, CLOSED),
            ray_left(y, OPEN), ray_right(x, CLOSED), ray_right(x, OPEN),
            full_line()]


def _grid_scan_cost(f, g, p):
    """Oracle: the first value on the pair's critical grid where
    ``_pair_feasible`` gives scalars or both bars die; +inf when none."""
    for a in critical_grid(gb(f, char=p), gb(g, char=p)):
        lf, lg = _lift(f, a, LINE), _lift(g, a, LINE)
        if _pair_feasible(lf, lg, p, LINE) is not None or (lf[3] and lg[3]):
            return a
    return POS_INF


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_form_cost_equals_grid_scan(rng, p):
    """min(direct cost, larger kill cost) is the oracle's first grid value
    on every (shape class, shape class, degree gap) with gaps up to 3 either
    way, g's ends within 3/4 of f's."""
    x, y = sorted(rng.sample(range(-8, 9), 2))
    while True:
        u, v = x + rng.randint(-3, 3), y + rng.randint(-3, 3)
        if u < v:
            break
    finite = 0
    for fiv in _every_shape(Fr(x, 4), Fr(y, 4)):
        for giv in _every_shape(Fr(u, 4), Fr(v, 4)):
            for gap in range(-3, 4):
                f, g = Bar(fiv, 0), Bar(giv, gap)
                cost = min(direct_cost(cost_form(f), cost_form(g)),
                           max(kill_cost(f), kill_cost(g)))
                assert cost == _grid_scan_cost(f, g, p), (f, g)
                finite += cost != POS_INF
    assert finite >= 40


def _mixed_line_pairs(rng, p, count, max_bars):
    """Line pairs with every shape, rays and full lines included: F against
    a nudged copy, a thickening or an independent draw, in turn."""
    for k in range(count):
        F = rand_barcode(rng, max_bars=max_bars, char=p)
        if k % 3 == 0:
            G = _nudged(rng, F)
        elif k % 3 == 1:
            G = thicken(F, Fr(rng.randint(1, 4), 4))
        else:
            G = rand_barcode(rng, max_bars=max_bars, char=p)
        yield F, G


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_value_certified_there_and_refuted_below(rng, p):
    """The full-table matching, which reads no pair cost, certifies the
    line distance v and refutes its grid predecessor; at +inf it refutes
    the top grid value."""
    seen = {"isometry": 0, POS_INF: 0}
    rays = (gb(bar(ray_left(0)), bar(closed(1, 2)), char=p),
            gb(bar(ray_right(0)), bar(closed(1, 3)), char=p))
    for F, G in [rays] + list(_mixed_line_pairs(rng, p, 30, 5)):
        d = distance(F, G)
        assert d.exact, (F, G)
        if d.exact_by != "isometry":
            continue
        grid = critical_grid(F, G)
        if d.upper == POS_INF:
            assert _table_certificate(F, G, grid[-1], LINE) is None, (F, G)
            seen[POS_INF] += 1
            continue
        k = grid.index(d.upper)
        assert _table_certificate(F, G, d.upper, LINE) is not None, (F, G)
        assert _table_certificate(F, G, grid[k - 1], LINE) is None, (F, G)
        seen["isometry"] += 1
    assert seen["isometry"] >= 10 and seen[POS_INF] >= 1, seen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_distance_equals_linear_scan_up_to_three_bars(rng, p):
    """On up to three bars a side the value is the linear scan's; where
    the scan's exhaustive search is over its cap, within its bounds."""
    exact = 0
    for F, G in _mixed_line_pairs(rng, p, 45, 3):
        d, oracle = distance(F, G), _linear_scan(F, G, LINE)
        assert _agrees(d, oracle, LINE) and d.upper == oracle.upper, (F, G)
        exact += oracle.exact and oracle.upper != POS_INF
    assert exact >= 25, exact


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_distance_makes_no_grid_probe(rng, p, monkeypatch):
    """A line ``distance`` runs no grid and no exhaustive search: its one
    ``_search`` runs one ``_matching`` at the value, which calls
    ``_pair_feasible`` once per matched pair whose bars do not both die,
    each of which gives one block of the witness."""
    calls, asked = [], []
    for name in ("_exhaustive", "check_exhaustive", "critical_grid",
                 "_matching"):
        def counted(*args, _name=name, _f=getattr(interleave, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(interleave, name, counted)
    pair_feasible = interleave._pair_feasible

    def asked_once(f, g, p, space):
        asked.append((f[0], g[0]))
        return pair_feasible(f, g, p, space)

    monkeypatch.setattr(interleave, "_pair_feasible", asked_once)
    pairs = list(_line_pairs(rng, p, 10)) + list(_mixed_line_pairs(rng, p, 9, 5))
    matched = 0
    for F, G in pairs:
        calls.clear()
        asked.clear()
        d = distance(F, G)
        assert d.exact, (F, G)
        if d.exact_by == "isometry" and d.upper != POS_INF:
            assert calls == ["_matching"], (F, G, calls)
            assert len(asked) == len(d.witness.f.blocks), (F, G, asked)
            matched += bool(asked)
        else:
            assert calls == [] and asked == [], (F, G, calls)
    assert matched >= 10, matched


def test_cost_formula_against_hom_calculus_is_an_invariant(monkeypatch):
    """A matched pair that the Hom calculus finds infeasible, while neither
    bar dies, is an invariant break (exit 70 in the CLI), not a refutation."""
    monkeypatch.setattr(interleave, "direct_cost", lambda ff, fg: Fr(0))
    F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
    for call in (lambda: distance(F, G),
                 lambda: check_interleaving(F, G, Fr(1, 4))):
        with pytest.raises(AssertionError, match="disagree"):
            call()


def test_certificate_failing_verification_is_an_invariant(monkeypatch):
    """Every certificate, of the matching or of the enumeration, is built
    and verified by ``_certificate``: one that fails verification is an
    invariant break, not a refutation.  The check runs in the pair's frame,
    here M = 4, and the error names the shift as a value, not as 4."""
    monkeypatch.setattr(interleave, "_verified", lambda *args: False)
    F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
    assert interleave._framed(F, G, LINE)[0][0] == 4
    for check in (check_matching, check_exhaustive, check_interleaving):
        with pytest.raises(AssertionError,
                           match=r"^certificate at 1 fails verification$"):
            check(F, G, Fr(1))


class TestExactBy:
    """``DistanceBounds.exact_by`` names why each exact answer is exact."""

    def test_identity(self):
        F = gb(bar(closed(0, 2)))
        assert distance(F, F).exact_by == "identity"
        C = CircleSheaf(Fr(4), [bar(closed(0, 1))])
        assert circle_distance(C, C).exact_by == "identity"

    def test_gate(self):
        d = distance(gb(bar(closed(0, 2))), gb())
        assert (d.upper, d.exact, d.exact_by) == (POS_INF, True, "gate")
        C = Fr(4)
        d = circle_distance(CircleSheaf(C, [bar(closed(0, 1))]),
                            CircleSheaf(C, []))
        assert (d.upper, d.exact, d.exact_by) == (POS_INF, True, "gate")

    def test_isometry(self):
        d = distance(gb(bar(closed(0, 2))), gb(bar(singleton(1))))
        assert (d.upper, d.exact, d.exact_by) == (1, True, "isometry")
        d = distance(gb(bar(ray_right(0))), gb(bar(ray_left(0))))
        assert (d.upper, d.exact, d.exact_by) == (POS_INF, True, "isometry")

    def test_refuted(self):
        CF, CG = TestBudgetBounds.CF, TestBudgetBounds.CG
        d = distance(CF, CG, circle_ops(TestBudgetBounds.C))
        assert (d.upper, d.exact, d.exact_by) == (Fr(1, 2), True, "refuted")

    def test_inexact_has_none(self, monkeypatch):
        TestBudgetBounds.block_matching_at_distance(monkeypatch)
        d = distance(TestBudgetBounds.CF, TestBudgetBounds.CG,
                     circle_ops(TestBudgetBounds.C))
        assert (d.exact, d.exact_by) == (False, None)

    def test_fields_unchanged(self):
        d = distance(gb(bar(closed(0, 2))), gb(bar(singleton(1))))
        assert d.fields() == (1, 1, True)


def _least_match(n, match):
    """Oracle of the circle walk's start: the least index m in 1..n-1 with
    ``match(m)`` not None, assuming the hits are upward closed and index 0
    misses; None when n - 1 misses.  Gallops over 1, 2, 4, ... and then
    bisects between the last miss and the first hit."""
    lo, hi = 0, 1
    while hi < n - 1 and match(hi) is None:
        lo, hi = hi, min(2 * hi, n - 1)
    if hi >= n or match(hi) is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if match(mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def test_least_match_finds_every_threshold():
    """On hits upward closed from index t, the galloping search returns t
    for every 1 <= t < n, and None when nothing past index 0 hits, in a
    logarithmic number of distinct calls."""
    for n in range(41):
        for t in range(1, n + 2):
            seen = set()

            def match(i):
                assert 0 < i < n
                seen.add(i)
                return "hit" if i >= t else None

            assert _least_match(n, match) == (t if t < n else None)
            assert len(seen) <= 2 * max(n, 1).bit_length()


# ---------------------------------------------------------------------------
# The circle in closed form: deck-copy costs as the walk's start, and the
# exhaustive search's row test against its enumeration.

@pytest.mark.parametrize("C", [Fr(1), Fr(3, 2), Fr(5, 4)])
def test_deck_cost_equals_least_direct_cost_over_copies(rng, C):
    """On every (shape class, shape class, degree gap), ends within 2 of 0
    so that the best copy is among n = -4..4."""
    finite = 0
    for _ in range(3):
        x, y = sorted(rng.sample(range(-8, 9), 2))
        u, v = sorted(rng.sample(range(-8, 9), 2))
        for fiv in _every_shape(Fr(x, 4), Fr(y, 4)):
            for giv in _every_shape(Fr(u, 4), Fr(v, 4)):
                for gap in range(-3, 4):
                    ff = cost_form(Bar(fiv, 0))
                    kg, eg = cost_form(Bar(giv, gap))
                    copies = [direct_cost(ff, (kg, tuple(e + n * C for e in eg)))
                              for n in range(-4, 5)]
                    assert deck_cost(ff, (kg, eg), C) == min(copies), \
                        (fiv, giv, gap)
                    finite += min(copies) != POS_INF
    assert finite >= 40


@pytest.mark.parametrize("p", [2, 3, 5])
def test_feasible_circle_pair_has_deck_cost_within_shift(rng, p):
    """The direction of the hint that the circle matching rests on: a pair
    that ``_pair_feasible`` accepts at a shift a has ``deck_cost`` at most
    a, so keeping only the pairs of cost at most a drops none that the Hom
    calculus would take.  Lifts go up to 2C; g is a nudged copy of f or an
    independent draw; the shifts are the pair's circle grid."""
    C, accepted = 4, 0
    space = circle_ops(C, p)
    for _ in range(40):
        f, g = _long_spirals(rng, C, 2)
        if rng.random() < 0.5:
            g = normal_form(_nudged(rng, gb(f, char=p)).bars[0], space)
        for a in critical_grid(gb(f, char=p), gb(g, char=p), space):
            try:
                x = _pair_feasible(_lift(f, a, space), _lift(g, a, space), p,
                                   space)
            except UnsupportedHomError:
                continue
            if x is not None:
                accepted += 1
                assert deck_cost(cost_form(f), cost_form(g), C) <= a, (f, g, a)
    assert accepted >= 50, accepted


@pytest.mark.parametrize("p", [2, 3, 5])
def test_long_pair_whose_bars_both_die_is_certified(p, monkeypatch):
    """[1, 8) against [5/2, 10) in degree 1 on R/4Z at 15/4.  The pair is
    the one candidate (deck cost 2), and its Hom is beyond one scalar
    (``_pair_feasible`` raises), but both bars die there (kill costs 7/2
    and 15/4).  So the matching certifies with both bars on their diagonal
    slots and no block, without asking the Hom calculus; a routine that
    stopped at the unusable pair would lose this certificate.
    ``distance`` still reports [0, 15/4], inconclusive."""
    space = circle_ops(4, p)
    F = CircleSheaf(4, [Bar(half_open(1, 8), 1)], (), p).spiral_barcode()
    G = CircleSheaf(4, [Bar(half_open(Fr(5, 2), 10), 1)], (),
                    p).spiral_barcode()
    a = Fr(15, 4)
    assert interleave._pair_costs(F, G, space) == \
        ([[(Fr(2), 0)]], [Fr(7, 2)], [Fr(15, 4)])
    with pytest.raises(UnsupportedHomError):
        _pair_feasible(_lift(F.bars[0], a, space),
                       _lift(G.bars[0], a, space), p, space)
    asked = []
    monkeypatch.setattr(interleave, "_pair_feasible",
                        lambda *args: asked.append(args))
    cert = check_matching(F, G, a, space)
    assert cert is not None and asked == []
    assert cert.f.blocks == cert.g.blocks == {}
    monkeypatch.undo()
    assert verify_certificate(F, G, cert, space)
    d = distance(F, G, space)
    assert (d.lower, d.upper, d.exact, d.conclusive) == (0, a, False, False)


def _long_spirals(rng, C, n):
    """n spiral lifts starting on the 1/4 grid in [0, C), of every shape,
    with lengths on the 1/2 grid up to 2C."""
    out = []
    for _ in range(n):
        left = Fr(rng.randrange(4 * C), 4)
        length = Fr(rng.randint(0, 4 * C), 2)
        lkind, rkind = (CLOSED, CLOSED) if length == 0 else \
            rng.choice(((CLOSED, CLOSED), (OPEN, OPEN),
                        (CLOSED, OPEN), (OPEN, CLOSED)))
        out.append(Bar(Interval(left, lkind, left + length, rkind),
                       rng.choice((0, 1))))
    return out


def _long_circle_pairs(rng, p, count):
    """Circle pairs of 1-3 spirals with lifts up to 2C, so that a
    thickened lift can meet two deck copies of a bar: F against a nudged
    copy or an independent draw, in turn."""
    C = 4
    for k in range(count):
        spirals = _long_spirals(rng, C, rng.randint(1, 3))
        other = [_nudged(rng, gb(b)).bars[0] for b in spirals] if k % 2 == 0 \
            else _long_spirals(rng, C, len(spirals))
        F = CircleSheaf(C, spirals, (), p).spiral_barcode()
        G = CircleSheaf(C, other, (), p).spiral_barcode()
        if F != G:
            yield F, G, circle_ops(C)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_deck_cost_start_equals_galloping_start(rng, p):
    """The walk's start from the bottleneck over the deck-copy costs is
    the galloping oracle's least matched index (or 1), on pairs whose lifts
    go up to 2C.  A pair where they differ is no failure, as the start is
    a hint: the walk from there must still give the linear scan's bounds.
    The matching counts a pair whose Hom meets two deck copies as
    infeasible, so the two starts can differ where no probe decides."""
    same = differ = long_lifts = 0
    for F, G, space in _long_circle_pairs(rng, p, 20):
        long_lifts += any(b.iv.length > space[1] for b in F.bars + G.bars)
        grid = critical_grid(F, G, space)
        v = interleave._least_cost(interleave._pair_costs(F, G, space))
        start = 1 if v is None else max(1, bisect_left(grid, v))
        oracle = _least_match(len(grid), lambda i: _match_pairs(
            F, G, grid[i], space)) or 1
        if start == oracle:
            same += 1
            continue
        differ += 1
        d = distance(F, G, space)
        assert _agrees(d, _linear_scan(F, G, space), space), (F, G)
    assert same >= 12 and long_lifts >= 10, (same, differ, long_lifts)


def _units(X, Y, space):
    """Per nonzero block (s, j) of a morphism X -> Y, in the order of X's
    bars, the morphism with that block alone, at scalar 1."""
    return {(s, j): Morphism(X, Y, {(s, j): 1}, space)
            for s, j in product(range(len(X.bars)), range(len(Y.bars)))
            if morphisms.block_dim(space, X.char, X.bars[s], Y.bars[j])}


def _enumeration_only(F, G, a, space):
    """Oracle of the exhaustive search on the public Hom calculus: every
    assignment of the f-blocks of T_a F -> G, with no row test, and the
    g-blocks of T_a G -> F solved for linearly, as ``check_exhaustive``
    ran it before its row test.  Both composites are bilinear in (f, g),
    so their equations are summed from those of unit blocks, thickened by
    ``thicken_morphism`` and composed by ``compose``, and the right-hand
    side is ``restriction``.  Returns a solving assignment, None when no
    assignment solves, and "capacity" when either cap is passed (the
    oracle has nothing to say there)."""
    p, a = F.char, Fr(a)
    fs = _units(thicken_indexed(F, a, space)[0], G, space)
    gs = _units(thicken_indexed(G, a, space)[0], F, space)
    if len(fs) + len(gs) > interleave.MAX_UNKNOWNS or \
            p ** len(fs) > interleave.MAX_ENUMERATION:
        return "capacity"
    Tf = {u: thicken_morphism(m, a) for u, m in fs.items()}
    Tg = {v: thicken_morphism(m, a) for v, m in gs.items()}
    terms = [((side, key), u, k, c)       # (row, f-block, g column, scalar)
             for u, (k, v) in product(fs, enumerate(gs))
             for side, m in enumerate((compose(Tf[u], gs[v]),
                                       compose(Tg[v], fs[u])))
             for key, c in m.blocks.items()]
    rho = {(side, key): c for side, X in enumerate((F, G))
           for key, c in restriction(X, 0, 2 * a, space).blocks.items()}
    rows = {row: r for r, row in
            enumerate(sorted(rho.keys() | {t[0] for t in terms}))}
    for assign in product(range(p), repeat=len(fs)):
        values = dict(zip(fs, assign))
        mat = [[0] * len(gs) for _ in rows]
        for row, u, k, c in terms:
            mat[rows[row]][k] = (mat[rows[row]][k] + values[u] * c) % p
        if fm.solve(mat, [rho.get(row, 0) for row in rows], p) is not None:
            return assign
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_test_agrees_with_enumeration(rng, p):
    """``check_exhaustive``, whose row test refutes before enumerating, is
    None exactly where the enumeration finds no assignment, and otherwise
    returns a verified certificate, on line and circle pairs of up to 4
    bars at every grid value."""
    pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 4)]
    pairs += list(_circle_pairs(rng, p, 4))
    seen = {"refuted": 0, "found": 0}
    for F, G, space in pairs:
        for a in critical_grid(F, G, space)[1:]:
            try:
                oracle = _enumeration_only(F, G, a, space)
                if oracle == "capacity":
                    continue
                cert = check_exhaustive(F, G, a, space)
            except UnsupportedHomError:
                continue
            assert (cert is None) == (oracle is None), (F, G, a)
            if cert is not None:
                assert verify_certificate(F, G, cert, space)
            seen["refuted" if cert is None else "found"] += 1
    assert min(seen.values()) >= 10, seen


def _full_row_test(F, G, a, space):
    """Oracle of ``_row_refuted`` on the public Hom calculus.  For every
    bar i of X and bar j of Y (X, Y = F, G and G, F) it asks whether T_a of
    the unit block from i's a-lift to j, then the unit block from j's
    a-lift to i, is nonzero: that composite can only land on i's block of
    the restriction T_2a X -> X (``block_dim``, ``thicken_morphism``,
    ``compose`` and ``restriction``).  A zero unit block decides the pair
    even where the calculus cannot use the other one.  Where it cannot use
    a nonzero unit block or the composite (``UnsupportedHomError``), the
    pair is unusable on that side, and an unreached restriction block of
    its bar is undecided.  Returns (outcome, whether some pair is unusable
    on some side); the outcome is True when some restriction block is
    reached by no pair and not undecided, else "unsupported" when some
    block is undecided, else False."""
    p, a = F.char, Fr(a)
    tables = [thicken_indexed(X, a, space) for X in (F, G)]
    status = {}             # (side, i, j) -> reached, or None if unusable
    for side, (X, Y) in enumerate(((F, G), (G, F))):
        (TXa, pX), (TYa, pY) = tables[side], tables[1 - side]
        for i, j in product(range(len(X.bars)), range(len(Y.bars))):
            dims = []
            for S, s, T, t in ((TXa, pX[i], Y, j), (TYa, pY[j], X, i)):
                try:
                    dims.append(morphisms.block_dim(space, p, S.bars[s],
                                                    T.bars[t]))
                except UnsupportedHomError:
                    dims.append(None)
            if 0 in dims or None in dims:
                status[side, i, j] = False if 0 in dims else None
                continue
            f = Morphism(TXa, Y, {(pX[i], j): 1}, space)
            g = Morphism(TYa, X, {(pY[j], i): 1}, space)
            try:
                status[side, i, j] = not compose(thicken_morphism(f, a),
                                                 g).is_zero()
            except UnsupportedHomError:
                status[side, i, j] = None
    some_unusable = None in status.values()
    outcome = False
    for side, (X, Y) in enumerate(((F, G), (G, F))):
        for _, i in restriction(X, 0, 2 * a, space).blocks:
            reached = {status[side, i, j] for j in range(len(Y.bars))}
            if True in reached:
                continue
            if None not in reached:
                return True, some_unusable
            outcome = "unsupported"
    return outcome, some_unusable


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_test_agrees_with_full_row_check(rng, p):
    """``_row_refuted``, which scans each bar's partners up to the first
    composite that reaches its restriction block, agrees with the full
    check over every unknown and composite term, on line and circle pairs
    (lifts up to 2C included) at every grid value.  Probes with pairs the
    calculus cannot use are compared too: such a pair leaves its bar
    undecided, and the probe is still refuted, or cleared, by the rest."""
    pairs = [(F, G, LINE) for F, G in _mixed_line_pairs(rng, p, 6, 5)]
    pairs += list(_circle_pairs(rng, p, 6))
    pairs += list(_long_circle_pairs(rng, p, 6))
    seen = Counter()
    for F, G, space in pairs:
        for a in critical_grid(F, G, space)[1:]:
            oracle, some_unusable = _full_row_test(F, G, a, space)
            try:
                got = interleave._row_refuted(
                    interleave._lifts(F, G, a, space), p, space)
            except UnsupportedHomError:
                got = "unsupported"
            assert got == oracle, (F, G, a)
            seen[got, some_unusable] += 1
    assert min(seen[True, False], seen[False, False]) >= 20, seen
    assert min(seen[True, True], seen["unsupported", True]) >= 5, seen


def test_unknowns_cap_no_longer_hides_a_refutation(monkeypatch):
    """Eight spirals a side on R/4Z, as the benchmark's circle pairs draw
    them (G moves every end of F by at most 1/2).  At 1/4 and 3/8 the
    unknown blocks (14 + 11) pass the cap of 24, but the row test refutes
    both shifts before any cap, so the distance 1/2 is exact."""
    def ends(left, lkind, right, rkind, degree):
        return Bar(Interval(Fr(left), lkind, Fr(right), rkind), degree)

    o, c = OPEN, CLOSED
    C = Fr(4)
    F = CircleSheaf(C, [ends(0, o, "1/4", o, 0), ends("3/2", o, "7/4", c, 0),
                        ends("7/4", o, "9/4", o, 0), ends("15/4", o, 4, o, 0),
                        ends("1/4", c, "1/2", c, 1), ends("1/2", c, "3/4", c, 1),
                        ends("3/2", c, "9/4", o, 1), ends("13/4", c, 4, c, 1)])
    G = CircleSheaf(C, [ends(0, o, "1/4", o, 0), ends("3/2", o, "9/4", c, 0),
                        ends("9/4", o, "5/2", o, 0), ends("13/4", o, "17/4", o, 0),
                        ends(0, c, "3/4", c, 1), ends("1/4", c, 1, c, 1),
                        ends(1, c, "5/2", o, 1), ends("13/4", c, "17/4", c, 1)])
    d = circle_distance(F, G)
    assert d.fields() == (Fr(1, 2), Fr(1, 2), True) and d.exact_by == "refuted"
    FB, GB, space = F.spiral_barcode(), G.spiral_barcode(), circle_ops(C)
    assert verify_certificate(FB, GB, d.witness, space)
    for a in (Fr(1, 4), Fr(3, 8)):
        assert check_exhaustive(FB, GB, a, space) is None
    monkeypatch.setattr(interleave, "_row_refuted", lambda *args: False)
    with pytest.raises(CapacityError, match=r"14 \+ 11 unknown blocks"):
        check_exhaustive(FB, GB, Fr(3, 8), space)


def test_the_enumeration_decides_a_short_lift_pair(monkeypatch):
    """Three spirals a side on R/4Z over F_2, all in degree 1, as
    ``_circle_pairs`` draws them.  At 3/8 the matching finds no
    certificate and every restriction row is reached by some composite,
    so only the enumeration refutes the shift; that refutation is what
    makes the distance 1/2 exact.  At 1/4 the enumeration refutes too.
    Without it the answer is [1/8, 1/2], inexact."""
    def ends(left, lkind, right, rkind):
        return Bar(Interval(Fr(left), lkind, Fr(right), rkind), 1)

    o, c = OPEN, CLOSED
    C = Fr(4)
    F = CircleSheaf(C, [ends(3, o, "7/2", o), ends("7/2", o, "9/2", c),
                        ends("15/4", o, "17/4", c)])
    G = CircleSheaf(C, [ends(3, o, "15/4", o), ends("13/4", o, "19/4", c),
                        ends("7/2", o, "19/4", c)])
    d = circle_distance(F, G)
    assert d.fields() == (Fr(1, 2), Fr(1, 2), True) and d.exact_by == "refuted"
    FB, GB, space = F.spiral_barcode(), G.spiral_barcode(), circle_ops(C)
    assert verify_certificate(FB, GB, d.witness, space)
    for a in (Fr(1, 4), Fr(3, 8)):
        assert check_matching(FB, GB, a, space) is None
        assert not interleave._row_refuted(
            interleave._lifts(FB, GB, a, space), FB.char, space)
        assert check_exhaustive(FB, GB, a, space) is None

    def no_enumeration(*args):
        raise CapacityError("enumeration patched out")

    monkeypatch.setattr(interleave, "_enumeration", no_enumeration)
    d = circle_distance(F, G)
    assert d.fields() == (Fr(1, 8), Fr(1, 2), False)


def test_an_unusable_composite_comes_before_the_enumeration_cap(monkeypatch):
    """Three spirals a side on R/4Z over F_5, as ``_circle_pairs`` draws
    them.  From 5/4 to 15/8 no row is refuted, at least 6 f-blocks are
    unknown and 5^6 passes the cap on the enumeration, and some composite
    term is beyond the calculus.  The terms are built before the cap is
    checked, so every such probe is undecided by ``UnsupportedHomError``;
    with every term zero the same probes pass the cap."""
    def ends(left, lkind, right, rkind, degree):
        return Bar(Interval(Fr(left), lkind, Fr(right), rkind), degree)

    o, c = OPEN, CLOSED
    C = Fr(4)
    F = CircleSheaf(C, [ends("3/2", o, 2, o, 0), ends("1/2", c, "1/2", c, 1),
                        ends(2, c, "5/2", c, 1)], (), 5).spiral_barcode()
    G = CircleSheaf(C, [ends("5/4", o, "7/4", o, 0), ends("1/4", c, "1/2", c, 1),
                        ends(2, c, "5/2", c, 1)], (), 5).spiral_barcode()
    space = circle_ops(C)
    shifts = [a for a in critical_grid(F, G, space) if Fr(5, 4) <= a <= Fr(15, 8)]
    assert len(shifts) == 6
    for a in shifts:
        with pytest.raises(UnsupportedHomError):
            check_exhaustive(F, G, a, space)
    monkeypatch.setattr(interleave, "_row_refuted", lambda *args: False)
    monkeypatch.setattr(interleave, "block_scalar", lambda *args: 0)
    for a in shifts:
        with pytest.raises(CapacityError, match="enumeration 5"):
            check_exhaustive(F, G, a, space)


def test_an_unusable_pair_leaves_only_its_bar_undecided():
    """Four spirals a side on R/4Z with lifts up to 2C, drawn as the
    long-lift benchmark pairs are.  At 1/8, 1/4 and 3/8 a thickened lift
    of F has a 2-dimensional Ext into G's (9/4, 7), which the calculus
    cannot use; that leaves only its own bar undecided, another bar is
    reached by no composite, and so the three shifts are refuted and the
    distance 1/2 is exact."""
    def ends(left, lkind, right, rkind):
        return Bar(Interval(Fr(left), lkind, Fr(right), rkind), 1)

    o, c = OPEN, CLOSED
    C = Fr(4)
    F = CircleSheaf(C, [ends("5/4", c, "15/4", c), ends("5/2", o, "29/4", o),
                        ends("11/4", c, "9/2", c), ends("11/4", o, "11/2", c)])
    G = CircleSheaf(C, [ends("7/4", c, "15/4", c), ends("9/4", o, 7, o),
                        ends(3, c, "19/4", c), ends("13/4", o, "11/2", c)])
    d = circle_distance(F, G)
    assert d.fields() == (Fr(1, 2), Fr(1, 2), True) and d.exact_by == "refuted"
    FB, GB, space = F.spiral_barcode(), G.spiral_barcode(), circle_ops(C)
    assert verify_certificate(FB, GB, d.witness, space)
    for a in (Fr(1, 8), Fr(1, 4), Fr(3, 8)):
        assert _full_row_test(FB, GB, a, space) == (True, True)
        assert check_exhaustive(FB, GB, a, space) is None


def test_a_composite_the_other_side_cannot_use_does_not_hide_a_refutation():
    """Four spirals a side on R/4Z with lifts up to 2C, drawn as the
    long-lift benchmark pairs are.  At 1/8, 1/4 and 3/8 a bar's composite
    with each partner is known and zero, while one partner's composite on
    its own bar is beyond the calculus.  The row test reads each side's
    composite alone, so that bar is reached by no composite and the three
    shifts are refuted; computing both composites of every pair left them
    undecided and the distance at [0, +inf]."""
    def ends(left, lkind, right, rkind, degree):
        return Bar(Interval(Fr(left), lkind, Fr(right), rkind), degree)

    o, c = OPEN, CLOSED
    C = Fr(4)
    F = CircleSheaf(C, [ends(2, o, "39/4", o, 0), ends("7/2", c, "21/2", o, 0),
                        ends("1/4", o, "11/2", c, 1), ends("11/4", o, 6, c, 1)])
    G = CircleSheaf(C, [ends(2, o, "37/4", o, 0), ends(3, c, "21/2", o, 0),
                        ends("9/4", o, "11/2", c, 1), ends("15/4", o, 9, c, 1)])
    FB, GB, space = F.spiral_barcode(), G.spiral_barcode(), circle_ops(C)
    for a in (Fr(1, 8), Fr(1, 4), Fr(3, 8)):
        assert _full_row_test(FB, GB, a, space) == (True, True)
        assert interleave._row_refuted(
            interleave._lifts(FB, GB, a, space), FB.char, space)
    d = circle_distance(F, G)
    assert (d.lower, d.upper, d.exact) == (Fr(3, 8), POS_INF, False)


def _large_pairs(rng, count):
    """``count`` pairs of 24 closed or open degree-0 bars a side, each bar
    starting on the 1/4 grid in [0, 5] with length 1/4 to 3, F and G
    sharing their kinds, drawn until F != G and the gate passes."""
    def draw(kinds):
        bars = []
        for kind in kinds:
            left = Fr(rng.randint(0, 20), 4)
            right = left + Fr(rng.randint(1, 12), 4)
            bars.append(Bar(Interval(left, kind, right, kind), 0))
        return GradedBarcode(bars)

    while count:
        kinds = [rng.choice((CLOSED, OPEN)) for _ in range(24)]
        F, G = draw(kinds), draw(kinds)
        if F != G and finite_gate(F, G) == "pass":
            count -= 1
            yield F, G


def test_large_line_pairs_exact():
    """24 bars a side: the matching decides every shift on the line, where
    the exhaustive search is over its cap below the answer."""
    pairs = list(_large_pairs(__import__("random").Random(3), 3))
    start = time.perf_counter()
    answers = [distance(F, G) for F, G in pairs]
    elapsed = time.perf_counter() - start
    assert [d.fields() for d in answers] == \
        [(v, v, True) for v in (Fr(11, 4), Fr(5, 2), Fr(2))]
    assert all(verify_certificate(F, G, d.witness)
               for (F, G), d in zip(pairs, answers))
    F, G = pairs[0]
    grid = critical_grid(F, G)
    with pytest.raises(CapacityError):
        check_exhaustive(F, G, grid[grid.index(Fr(11, 4)) - 1])
    assert elapsed < 1, elapsed


# ---------------------------------------------------------------------------
# Integer critical grids against the Fraction loops they replace.

def _fraction_line_grid(F, G):
    """Oracle: 0 and every endpoint difference and half-difference."""
    eps = F.finite_endpoints() + G.finite_endpoints()
    vals = {Fr(0)}
    for i, p in enumerate(eps):
        for q in eps[i:]:
            d = abs(p - q)
            vals.add(d)
            vals.add(d / 2)
    return sorted(vals)


def _fraction_circle_grid(F, G, C):
    """Oracle: endpoint differences v and 0, the values |v + kC/2| for
    k = -2..2 up to 2C, and their halves."""
    eps = F.finite_endpoints() + G.finite_endpoints()
    base = {Fr(0)}
    for i, p in enumerate(eps):
        for q in eps[i:]:
            base.add(abs(p - q))
    vals = set()
    for v in base:
        for k in (-2, -1, 0, 1, 2):
            w = abs(v + k * C / 2)
            if w <= 2 * C:
                vals.add(w)
                vals.add(w / 2)
    return sorted(vals)


def _mixed_barcode(rng, max_bars):
    return GradedBarcode([mixed_bar(rng, (1, 3, 7, 12))
                          for _ in range(rng.randint(0, max_bars))], 2)


class TestIntegerGrids:
    def test_line_grid_equals_fraction_oracle(self, rng):
        for _ in range(150):
            F, G = _mixed_barcode(rng, 5), _mixed_barcode(rng, 5)
            grid = critical_grid(F, G)
            assert grid == _fraction_line_grid(F, G)
            assert all(type(v) is Fr for v in grid)

    @pytest.mark.parametrize("C", [Fr(4), Fr(3, 2), Fr(5, 3)])
    def test_circle_grid_equals_fraction_oracle(self, rng, C):
        ops = circle_ops(C)
        for _ in range(80):
            F, G = _mixed_barcode(rng, 4), _mixed_barcode(rng, 4)
            grid = critical_grid(F, G, ops)
            assert grid == _fraction_circle_grid(F, G, C)
            assert all(type(v) is Fr for v in grid)


# ---------------------------------------------------------------------------
# One matched pair: feasibility is upward closed on the pair's grid.

QUARTERS = [Fr(k, 4) for k in range(-8, 9)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pair_feasibility_upward_closed(rng, p):
    """'``_pair_feasible`` gives scalars, or both bars are killable' holds
    from its first grid value on, for single bar pairs."""
    settled = changed = 0
    for _ in range(400):
        fbar = Bar(pooled_interval(rng, QUARTERS), rng.randint(0, 1))
        if rng.random() < 0.5:
            gbar = Bar(pooled_interval(rng, QUARTERS), rng.randint(0, 1))
        else:                       # a near copy, likely feasible somewhere
            gbar = _nudged(rng, gb(fbar, char=p)).bars[0]
        holds = []
        for a in critical_grid(gb(fbar, char=p), gb(gbar, char=p)):
            f, g = _lift(fbar, a, LINE), _lift(gbar, a, LINE)
            holds.append(_pair_feasible(f, g, p, LINE) is not None
                         or (f[3] and g[3]))
        if True in holds:
            first = holds.index(True)
            assert all(holds[first:]), (fbar, gbar, holds)
            settled += 1
            changed += first > 0
    assert settled > 150 and changed > 100


# ---------------------------------------------------------------------------
# The matching search against brute force, on random feasibility tables.

def _valid_matchings(nF, nG, feasible, kill_F, kill_G):
    """Every valid partial matching, by enumeration: each F bar takes a
    feasible G bar or, when killable, none; no G bar is taken twice, and
    every G bar left over is killable."""
    choices = [[j for j in range(nG) if (i, j) in feasible]
               + ([None] if kill_F[i] else []) for i in range(nF)]
    for js in product(*choices):
        used = [j for j in js if j is not None]
        if len(used) == len(set(used)) and \
                all(kill_G[j] or j in used for j in range(nG)):
            yield js


def _killable_or_not(rng, n):
    """n bars with distinct left ends: a half-open bar of length 1/2 dies
    under the restriction to 2a for a = 1, a closed bar never does."""
    return [Bar(half_open(k, k + Fr(1, 2)) if rng.random() < 0.5
                else closed(k, k + 1), 0) for k in range(n)]


def _every_pair_a_candidate(F, G):
    """Pair costs under which every pair is a candidate at every shift."""
    return _candidate_costs(F, G, lambda i, j: True)


def _candidate_costs(F, G, candidate):
    """Pair costs under which (i, j) is a candidate at every shift exactly
    when ``candidate(i, j)``, with the bars' own kill costs."""
    return ([[(Fr(0), j) for j in range(len(G.bars)) if candidate(i, j)]
             for i in range(len(F.bars))],
            [kill_cost(b) for b in F.bars], [kill_cost(b) for b in G.bars])


def _scripted(monkeypatch, feasible):
    """Script ``_pair_feasible`` by ``feasible(fbar, gbar)``, which returns
    a scalar, None or "unsupported", and pass every certificate.  Returns
    the list of asked bar pairs and the list of certified f-block maps,
    keyed by the matched (i, j) pairs."""
    asked, built = [], []

    def pair_feasible(f, g, p, space):
        asked.append((f[0], g[0]))
        r = feasible(f[0], g[0])
        if r == "unsupported":
            raise UnsupportedHomError("scripted")
        return r

    def certificate(F, G, a, fblocks, gblocks, lifts, frame):
        built.append(fblocks)
        return InterleavingCertificate(a, None, None)

    monkeypatch.setattr(interleave, "_pair_feasible", pair_feasible)
    monkeypatch.setattr(interleave, "_certificate", certificate)
    return asked, built


def test_matching_agrees_with_brute_force(rng, monkeypatch):
    """``_matching`` on the circle, on a random table of candidate pairs.
    When every candidate is usable, it certifies exactly when a valid
    matching exists.  When some are rejected or unsupported, it matches
    once and gives up at the first unusable pair it proposes, so a
    certificate still implies a valid matching of usable pairs, with
    blocks on usable pairs only.  No pair is asked twice."""
    table = {}
    asked, built = _scripted(monkeypatch, lambda f, g: table[(f, g)])
    a, space = Fr(1), circle_ops(8)
    outcomes = {(usable, found): 0 for usable in (True, False)
                for found in (True, False)}
    killable = set()
    for _ in range(600):
        F = gb(*_killable_or_not(rng, rng.randint(0, 5)))
        G = gb(*_killable_or_not(rng, rng.randint(0, 5)))
        nF, nG = len(F.bars), len(G.bars)
        density = rng.choice((0.3, 0.6, 0.9))
        values = (1,) if rng.random() < 0.5 else (1, 1, None, "unsupported")
        table.clear()
        for i, j in product(range(nF), range(nG)):
            if rng.random() < density:
                table[(F.bars[i], G.bars[j])] = rng.choice(values)
        feasible = {(i, j): 1 for i, j in product(range(nF), range(nG))
                    if table.get((F.bars[i], G.bars[j])) == 1}
        usable = len(feasible) == len(table)
        kill_F = [halfopen_translation_kills(b.iv, 0, 2 * a) for b in F.bars]
        kill_G = [halfopen_translation_kills(b.iv, 0, 2 * a) for b in G.bars]
        killable.update(kill_F + kill_G)
        asked.clear()
        built.clear()
        cert = interleave._matching(
            F, G, a, (1, F, G, space),
            _candidate_costs(F, G, lambda i, j: (F.bars[i], G.bars[j]) in table),
            interleave._lifts(F, G, a, space))
        exists = next(_valid_matchings(nF, nG, feasible, kill_F, kill_G),
                      None) is not None
        if usable:
            assert (cert is not None) == exists, (F, G, table)
        else:
            assert cert is None or exists, (F, G, table)
        assert len(asked) == len(set(asked)), (F, G, asked)
        outcomes[(usable, cert is not None)] += 1
        if cert is None:
            assert built == []
            continue
        (pairs,) = built
        assert all(pair in feasible for pair in pairs)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) \
            == len(pairs)
        assert all(kill_F[i] for i in set(range(nF)) - {i for i, _ in pairs})
        assert all(kill_G[j] for j in set(range(nG)) - {j for _, j in pairs})
    assert killable == {True, False}
    assert outcomes[(True, True)] > 100 and outcomes[(True, False)] > 100 \
        and outcomes[(False, True)] > 10 and outcomes[(False, False)] > 50, \
        outcomes


def test_matching_refutes_hall_violation_fast(monkeypatch):
    """12 against 12 closed bars, none killable, every pair a candidate,
    where G's first bar has no feasible partner: the one matching pairs it
    with some F bar, and that rejected pair ends the search at once, with
    G's first bar asked about once and no pair asked twice (an exhaustive
    backtracker grows tenfold per bar on this shape)."""
    F = gb(*[bar(closed(k, k + 1)) for k in range(12)])
    G = gb(*[bar(closed(k, k + 2)) for k in range(12)])
    g0 = G.bars[0]
    asked, built = _scripted(monkeypatch,
                             lambda f, g: None if g == g0 else 1)
    start = time.perf_counter()
    space = circle_ops(16)
    assert interleave._matching(F, G, Fr(1), (1, F, G, space),
                                _every_pair_a_candidate(F, G),
                                interleave._lifts(F, G, Fr(1), space)) \
        is None
    assert time.perf_counter() - start < 0.5
    assert len(asked) == len(set(asked)) and built == []
    assert sum(g == g0 for _, g in asked) == 1


# ---------------------------------------------------------------------------
# Weakening: an a-certificate composed with the restrictions is a
# b-certificate in the same space.

@pytest.mark.parametrize("p", [2, 3, 5])
def test_weaken_certificate_verifies(rng, p):
    pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 6)]
    pairs += list(_circle_pairs(rng, p, 6))
    weakened = {LINE: 0, "circle": 0}
    for F, G, space in pairs:
        d = distance(F, G, space=space)
        if d.witness is None:
            continue
        a = d.witness.a
        side = LINE if space == LINE else "circle"
        for b in (v for v in critical_grid(F, G, space) if v > a):
            try:
                cert = weaken_certificate(F, G, d.witness, b, space)
                ok = verify_certificate(F, G, cert, space)
            except UnsupportedHomError:
                # a long lift winds past the one-scalar range on the circle
                assert side == "circle"
                continue
            assert ok and cert.a == b and type(cert.a) is Fr, (F, G, a, b)
            weakened[side] += 1
        if a > 0:
            with pytest.raises(ValueError, match="weaken requires b >= a"):
                weaken_certificate(F, G, d.witness, a / 2, space)
    assert weakened[LINE] > 20 and weakened["circle"] > 20, weakened


# ---------------------------------------------------------------------------
# One field per search.

def _two_field_pairs():
    line = (gb(bar(closed(0, 2)), char=2), gb(bar(closed(0, 2)), char=3), LINE)
    C = Fr(4)
    circle = (CircleSheaf(C, [Bar(closed(0, 1), 0)], (), 2).spiral_barcode(),
              CircleSheaf(C, [Bar(closed(0, 1), 0)], (), 3).spiral_barcode(),
              circle_ops(C))
    return [line, circle]


@pytest.mark.parametrize("F, G, space", _two_field_pairs(), ids=["line", "circle"])
def test_search_across_two_fields_rejected(F, G, space):
    calls = [lambda: check_matching(F, G, 1, space),
             lambda: check_exhaustive(F, G, 1, space),
             lambda: check_interleaving(F, G, 1, space),
             lambda: distance(F, G, space=space),
             lambda: distance(G, F, space=space)]
    for call in calls:
        with pytest.raises(CharacteristicMismatchError,
                           match="over F_[23] and F_[23]"):
            call()
    assert issubclass(CharacteristicMismatchError, ValueError)


def test_lipschitz_experiment_across_two_fields_rejected():
    F, G, _ = _two_field_pairs()[0]
    with pytest.raises(CharacteristicMismatchError):
        lipschitz_experiment(abs_map(), F, G, 1)


# ---------------------------------------------------------------------------
# The row check of the search against the definition, which thickens.

def _row_check(F, G, a, cert, space):
    """The check that ``_certificate`` runs (``interleave._verified``) on
    the blocks of ``cert``, moved from table positions to input indices, on
    the ``_lifts`` rows of F and G at a in ``space``: values or a frame."""
    lifts = interleave._lifts(F, G, a, space)
    blocks = []
    for rows, m in zip(lifts, (cert.f, cert.g)):
        perm = morphisms.indexed([r[1] for r in rows], F.char)[1]
        index = {k: i for i, k in enumerate(perm)}
        blocks.append({(index[s], t): c for (s, t), c in m.blocks.items()})
    return interleave._verified(lifts, blocks, F.char, space)


def _outcome_of(check, *args):
    try:
        return check(*args)
    except UnsupportedHomError:
        return "unsupported"


def _corrupted(rng, F, G, cert, space):
    """The certificate with one f- or g-block's scalar moved by one (at p
    = 2 the block drops), with one block dropped, and with one block added
    on a nonzero Hom space that the certificate leaves empty."""
    p = F.char
    for side in ("f", "g"):
        m = getattr(cert, side)
        X, Y = (F, G) if side == "f" else (G, F)
        TXa, perm = thicken_indexed(X, cert.a, space)
        blocks, variants = dict(m.blocks), []
        if blocks:
            key = rng.choice(sorted(blocks))
            variants.append({**blocks, key: (blocks[key] + 1) % p})
            variants.append({k: c for k, c in blocks.items() if k != key})
        free = [(perm[i], j) for i, j in
                product(range(len(X.bars)), range(len(Y.bars)))
                if morphisms.block_dim(space, p, TXa.bars[perm[i]], Y.bars[j])
                and (perm[i], j) not in blocks]
        if free:
            variants.append({**blocks, rng.choice(free): 1})
        for new in variants:
            moved = Morphism(m.source, m.target, new, space, validate=False)
            yield InterleavingCertificate(
                cert.a, *((moved, cert.g) if side == "f" else (cert.f, moved)))


def _certificates(rng, p):
    """Certificates of ``check_matching`` and ``check_exhaustive`` on line
    and circle pairs at every grid value where they find one."""
    pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 6)]
    pairs += list(_circle_pairs(rng, p, 6))
    for F, G, space in pairs:
        for a in critical_grid(F, G, space)[1:8]:
            for search in (check_matching, check_exhaustive):
                try:
                    cert = search(F, G, a, space)
                except (CapacityError, UnsupportedHomError):
                    continue
                if cert is not None:
                    yield F, G, space, cert


@pytest.mark.parametrize("p", [2, 3, 5])
def test_check_on_tables_agrees_with_thickening_route(rng, p):
    """The row check of the search (``_verified``), which reads T_a T_a X
    as T_2a X off the ``_lifts`` rows, gives the answer of the definition
    (``verify_certificate``, which thickens f and g) on every certificate
    the two searches find, line and circle, and on three corruptions of
    each; here on the rows in values."""
    seen = {LINE: 0, "circle": 0}
    results = {}
    for F, G, space, cert in _certificates(rng, p):
        assert verify_certificate(F, G, cert, space), (F, G, cert)
        assert _row_check(F, G, Fr(cert.a), cert, space), (F, G, cert)
        seen[LINE if space == LINE else "circle"] += 1
        for bad in _corrupted(rng, F, G, cert, space):
            got = _outcome_of(_row_check, F, G, Fr(bad.a), bad, space)
            assert got == _outcome_of(verify_certificate, F, G, bad, space), \
                (F, G, bad.f, bad.g)
            results[got] = results.get(got, 0) + 1
    assert seen[LINE] >= 10 and seen["circle"] >= 10, seen
    assert results.get(False, 0) >= 20, results


# ---------------------------------------------------------------------------
# Only a certificate sorts: T_a of each side, two sorted tables, and none
# for a probe that finds no certificate.

def _count_sorts(monkeypatch):
    """The list of the barcodes that ``morphisms.indexed`` sorts, one per
    call, from either module."""
    calls = []
    original = morphisms.indexed

    def counted(bars, p):
        table = original(bars, p)
        calls.append(table[0])
        return table

    monkeypatch.setattr(interleave, "indexed", counted)
    monkeypatch.setattr(morphisms, "indexed", counted)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_distance_sorts_each_side_once(rng, p, monkeypatch):
    """A line ``distance`` that reaches the matching sorts one table a side,
    once its certificate is checked on the rows: exactly two, T_w of F' and
    of G' at w = Mv in the pair's integer frame (``_framed``), and no T_2w.
    One that does not reach it sorts none."""
    calls = _count_sorts(monkeypatch)
    matched = 0
    for F, G in list(_line_pairs(rng, p, 10)) + list(
            _mixed_line_pairs(rng, p, 10, 5)):
        calls.clear()
        d = distance(F, G)
        if d.exact_by == "isometry" and d.upper != POS_INF:
            (_, X, Y, _), (w,) = interleave._framed(F, G, LINE, d.upper)
            assert Counter(calls) == Counter(
                GradedBarcode([bar_rule(b, w) for b in Z.bars], p)
                for Z in (X, Y)), calls
            matched += 1
        else:
            assert calls == [], (F, G, calls)
    assert matched >= 10, matched


@pytest.mark.parametrize("p", [2, 3, 5])
def test_circle_probe_sorts_at_most_two_tables(rng, p, monkeypatch):
    """A circle grid probe (one ``_search``) sorts at most two thickened
    tables: exactly two, T_a of each side, when it finds a certificate, and
    none when it is refuted or undecided (lifts up to 2C included)."""
    calls = _count_sorts(monkeypatch)
    search, probes = interleave._search, Counter()

    def counted(*args):
        before, outcome = len(calls), "undecided"
        try:
            cert = search(*args)
            outcome = "refuted" if cert is None else "found"
            return cert
        finally:
            probes[outcome, len(calls) - before] += 1

    monkeypatch.setattr(interleave, "_search", counted)
    for F, G, space in list(_circle_pairs(rng, p, 10)) + list(
            _long_circle_pairs(rng, p, 10)):
        distance(F, G, space)
    assert set(probes) <= {("found", 2), ("refuted", 0), ("undecided", 0)}, \
        probes
    assert min(probes["found", 2], probes["refuted", 0],
               probes["undecided", 0]) >= 3, probes


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_probe_reads_its_lifts_once(rng, p, monkeypatch):
    """Every strategy of a circle probe (the matching, the row test and the
    enumeration) reads one ``_lifts`` table, made once per ``_search``,
    also where the matching proposes a pair the calculus rejects and the
    row test runs next (lifts up to 2C); a line ``distance`` makes one, for
    its one matching, at its value in the pair's integer frame."""
    lifts, calls = interleave._lifts, []

    def counted(*args):
        calls.append(args[2])
        return lifts(*args)

    monkeypatch.setattr(interleave, "_lifts", counted)
    search, probes = interleave._search, []

    def probe(*args):
        before = len(calls)
        try:
            return search(*args)
        finally:
            probes.append(len(calls) - before)

    monkeypatch.setattr(interleave, "_search", probe)
    for F, G, space in list(_circle_pairs(rng, p, 10)) + list(
            _long_circle_pairs(rng, p, 10)):
        distance(F, G, space)
    assert len(probes) >= 10 and set(probes) == {1}, probes
    assert len(calls) == len(probes)
    for F, G in _line_pairs(rng, p, 10):
        calls.clear()
        d = distance(F, G)
        M = interleave._framed(F, G, LINE)[0][0]
        assert all(type(a) is int for a in calls), calls
        assert [Fr(a, M) for a in calls] == (
            [d.upper] if d.exact_by == "isometry"
            and d.upper != POS_INF else []), (F, G, calls)


# ---------------------------------------------------------------------------
# The line search in the pair's integer frame, against the bottleneck in
# Fractions, and the types of what it returns.

# Coprime denominators, two of them primes near 2^32: a pair that uses
# both is in a frame past 2^64.
FRAME_DENOMS = (1, 2, 3, 5, 7, 4294967291, 4294967311)
# Denominators of the shifts off the cost grid: a enters the frame.
SHIFT_DENOMS = (11, 13, 4294967279)


def _bottleneck(F, G):
    """Oracle: the graded bottleneck distance over ``thicken.direct_cost``
    and ``kill_cost`` on the Fraction ends, the least over every partial
    matching of its largest cost, a bar left out at its kill cost."""
    kill_F = [kill_cost(b) for b in F.bars]
    kill_G = [kill_cost(b) for b in G.bars]
    cost = [[direct_cost(cost_form(f), cost_form(g)) for g in G.bars]
            for f in F.bars]
    best = POS_INF

    def walk(i, used, worst):
        nonlocal best
        if worst >= best:
            return
        if i == len(F.bars):
            rest = [k for j, k in enumerate(kill_G) if j not in used]
            best = min(best, max([worst] + rest))
            return
        walk(i + 1, used, max(worst, kill_F[i]))
        for j, c in enumerate(cost[i]):
            if j not in used:
                walk(i + 1, used | {j}, max(worst, c))

    walk(0, frozenset(), Fr(0))
    return best


def _redrawn(rng, b, pool):
    """A bar of b's kinds and degree with its finite ends drawn anew from
    ``pool``: in b's cost class, unless a point turns closed or back."""
    iv = b.iv
    while True:
        lo = rng.choice(pool) if iv.left != -POS_INF else iv.left
        hi = rng.choice(pool) if iv.right != POS_INF else iv.right
        if lo < hi or (lo == hi and iv.lkind is iv.rkind is CLOSED):
            return Bar(Interval(lo, iv.lkind, hi, iv.rkind), b.degree)


def _frame_pairs(rng, p, count):
    """Line pairs of every shape (the full line, rays both ways, points,
    and the four bounded kinds) in degrees 0-2, ends from a pool of six
    over ``FRAME_DENOMS``.  G redraws F's bars, and each side may carry an
    extra half-open bar, which can go unmatched, so that the answer is
    mostly finite; every fourth G is drawn on its own."""
    for k in range(count):
        pool = set()
        while len(pool) < 6:
            pool.add(Fr(rng.randint(-12, 12), rng.choice(FRAME_DENOMS)))
        pool = sorted(pool)

        def drawn():
            return Bar(pooled_interval(rng, pool), rng.randint(0, 2))

        def extra():
            lo, hi = rng.sample(pool, 2)
            kinds = rng.choice(((CLOSED, OPEN), (OPEN, CLOSED)))
            return [Bar(Interval(min(lo, hi), kinds[0], max(lo, hi), kinds[1]),
                        rng.randint(0, 2))][:rng.randint(0, 1)]

        F = [drawn() for _ in range(rng.randint(0, 3))]
        G = [_redrawn(rng, b, pool) for b in F] if k % 4 else \
            [drawn() for _ in range(rng.randint(0, 3))]
        yield GradedBarcode(F + extra(), p), GradedBarcode(G + extra(), p)


def _value(x):
    """Whether x is a value outside any frame: a Fraction or an infinity."""
    return type(x) is Fr or x in (POS_INF, -POS_INF)


def _assert_frame_free(result, p, space=LINE):
    """No frame value in a ``DistanceBounds`` or a certificate: every
    bound, shift and bar end a Fraction or an infinity, every interval a
    checked ``Interval``, the only ints the blocks' scalars mod p, and the
    space the one given, its circumference a Fraction."""
    if isinstance(result, DistanceBounds):
        for field in ("lower", "upper"):
            assert _value(getattr(result, field)), (field, result)
        assert type(result.exact) is bool and type(result.conclusive) is bool
        result = result.witness
    if result is None:
        return
    assert type(result.a) is Fr, result.a
    for m in (result.f, result.g):
        assert m.space == space, m.space
        assert space == LINE or type(m.space[1]) is Fr, m.space
        for X in (m.source, m.target):
            for b in X.bars:
                assert type(b.iv) is Interval, b
                assert _value(b.iv.left) and _value(b.iv.right), b
        assert all(type(c) is int and 0 < c < p for c in m.blocks.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frame_route_equals_fraction_bottleneck(rng, p):
    """``distance`` on the line, which runs in the pair's integer frame,
    equals the bottleneck over the costs in Fractions, and its witness
    verifies.  ``check_interleaving`` and ``check_matching`` certify
    exactly at the shifts at or above it, on the cost grid and off it
    (a rational shift of a new denominator, which enters the frame)."""
    seen = {"finite": 0, "inf": 0, "past 2^64": 0, "off grid": 0}
    for F, G in _frame_pairs(rng, p, 60):
        v = _bottleneck(F, G)
        d = distance(F, G)
        assert (d.lower, d.upper, d.exact) == (v, v, True), (F, G, v)
        _assert_frame_free(d, p)
        if d.witness is not None:
            assert verify_certificate(F, G, d.witness), (F, G)
        seen["finite" if v != POS_INF else "inf"] += 1
        seen["past 2^64"] += interleave._framed(F, G, LINE)[0][0].bit_length() > 64
        costs = {c for f in F.bars for g in G.bars
                 if (c := direct_cost(cost_form(f), cost_form(g))) != POS_INF}
        costs |= {k for b in F.bars + G.bars if (k := kill_cost(b)) != POS_INF}
        shifts = sorted(costs)[:4] + [Fr(rng.randint(1, 60),
                                         rng.choice(SHIFT_DENOMS))]
        for a in shifts:
            seen["off grid"] += a not in costs
            for check in (check_interleaving, check_matching):
                cert = check(F, G, a)
                assert (cert is not None) == (a >= v), (check, F, G, a, v)
                _assert_frame_free(cert, p)
                if cert is not None:
                    assert cert.a == a and verify_certificate(F, G, cert)
    assert min(seen.values()) >= 3, seen


class TestFrameFactor:
    """The frame's factor makes every kill cost an int: a frame without
    it, or one that halves with ``/``, fails here."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_half_an_odd_length(self, p):
        """[0, 1/3) against nothing is at its kill cost 1/6: half of 1/3,
        whose numerator is odd over the lcm of the denominators."""
        F, E = gb(bar(half_open(0, Fr(1, 3))), char=p), gb(char=p)
        for X, Y in ((F, E), (E, F)):
            d = distance(X, Y)
            assert d.fields() == (Fr(1, 6), Fr(1, 6), True)
            assert type(d.upper) is Fr and verify_certificate(X, Y, d.witness)
            assert check_interleaving(X, Y, Fr(1, 6)) is not None
            assert check_matching(X, Y, Fr(1, 7)) is None

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_2v_restriction_needs_the_factor(self, p):
        """[0, 1/3) against [1/7, 10/21) is at the direct cost 1/7, just
        below the kill cost 1/6: the restriction of T_2v to the bar, at
        2v = 2/7 < 1/3, is nonzero, so the witness has one nonzero block
        each way.  Over the lcm 21 alone the length 7 would halve to 3 = v
        and the bar would die at 2v."""
        F = gb(bar(half_open(0, Fr(1, 3))), char=p)
        G = gb(bar(half_open(Fr(1, 7), Fr(10, 21))), char=p)
        d = distance(F, G)
        assert d.fields() == (Fr(1, 7), Fr(1, 7), True)
        assert len(d.witness.f.blocks) == len(d.witness.g.blocks) == 1
        assert verify_certificate(F, G, d.witness)
        cert = check_matching(F, G, Fr(1, 7))
        assert cert is not None and len(cert.f.blocks) == 1
        assert check_interleaving(F, G, Fr(1, 8)) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_no_frame_value_reaches_a_caller(rng, p):
    """Over random line pairs of every shape, and circle pairs in frames
    past 2^64 among them, every ``DistanceBounds`` field and every witness
    bar end is a Fraction or an infinity, the only ints are the witness's
    scalars, and a circle witness lives on ("circle", Fraction(C)); so for
    the certificates of ``check_interleaving`` and ``check_matching`` at a
    rational shift, where they decide."""
    pairs = [(F, G, LINE) for F, G in list(_mixed_line_pairs(rng, p, 30, 4))
             + list(_frame_pairs(rng, p, 20))]
    pairs += list(_frame_circle_pairs(rng, p, 12))
    witnesses = Counter()
    for F, G, space in pairs:
        d = distance(F, G, space)
        _assert_frame_free(d, p, space)
        witnesses[space == LINE] += d.witness is not None
        a = Fr(rng.randint(1, 30), rng.choice(SHIFT_DENOMS))
        for check in (check_interleaving, check_matching):
            try:
                _assert_frame_free(check(F, G, a, space), p, space)
            except (CapacityError, UnsupportedHomError):
                assert space != LINE
    assert min(witnesses[True], witnesses[False]) >= 3, witnesses


# Circumferences of the circle pairs in a frame: C enters the frame.
FRAME_CS = (Fr(4), Fr(3, 2), Fr(5, 3), Fr(7, 2))


def _frame_circle_pairs(rng, p, count):
    """Circle pairs of one or two spirals a side on each C of ``FRAME_CS``
    in turn, bounded lifts of every kind in degrees 0-1 with ends in [0, 2]
    from a pool of six over the small ``FRAME_DENOMS``.  In every third
    pair F's first lift has an end over one prime near 2^32 and G's first
    lift an end over the other, so that the frame passes 2^64.  G redraws
    F's lifts from the pool, keeping their kinds and degrees; every fourth
    G is drawn on its own."""
    small, primes = FRAME_DENOMS[:5], FRAME_DENOMS[5:]
    for k in range(count):
        C = FRAME_CS[k % len(FRAME_CS)]
        pool = set()
        while len(pool) < 6:
            q = rng.choice(small)
            pool.add(Fr(rng.randint(0, 2 * q), q))
        pool = sorted(pool)
        big = [Fr(rng.randint(1, 2 * q - 1), q) for q in primes] \
            if k % 3 == 0 else [None, None]

        def drawn(kinds=None, degree=None, end=None):
            x, y = sorted(rng.sample(pool, 2) if end is None
                          else (end, rng.choice(pool)))
            kinds = kinds or rng.choice(((CLOSED, CLOSED), (OPEN, OPEN),
                                         (CLOSED, OPEN), (OPEN, CLOSED)))
            if rng.random() < 0.15 and kinds == (CLOSED, CLOSED):
                y = x                                       # a point
            return Bar(Interval(x, kinds[0], y, kinds[1]),
                       rng.randint(0, 1) if degree is None else degree)

        F = [drawn(end=big[0])] + [drawn() for _ in range(rng.randint(0, 1))]
        G = [drawn((b.iv.lkind, b.iv.rkind), b.degree, e)
             for b, e in zip(F, big[1:] + [None])] if k % 4 else \
            [drawn(end=big[1])] + [drawn() for _ in range(rng.randint(0, 1))]
        yield (CircleSheaf(C, F, (), p).spiral_barcode(),
               CircleSheaf(C, G, (), p).spiral_barcode(), circle_ops(C))


def _fraction_outcome(F, G, a, space):
    """'found' or 'refuted' at the shift a by a route in Fractions alone,
    which reads no pair cost: the full-table matching on the unit frame
    (``_table_certificate``), then ``_enumeration_only`` on the public Hom
    calculus; None where that route is over its cap or meets a Hom the
    calculus cannot use."""
    if _table_certificate(F, G, a, space) is not None:
        return "found"
    try:
        out = _enumeration_only(F, G, a, space)
    except UnsupportedHomError:
        return None
    return None if out == "capacity" else "refuted" if out is None else "found"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_framed_circle_search_equals_fraction_oracle(rng, p):
    """On circle pairs whose frame holds C and, in every third pair, two
    primes near 2^32, ``check_interleaving``, which searches in the pair's
    integer frame, agrees at every grid value with the route in Fractions
    wherever both decide, and every certificate it or ``distance`` returns
    verifies, with no frame value in it."""
    seen = Counter()
    for F, G, space in _frame_circle_pairs(rng, p, 12):
        seen["past 2^64"] += \
            interleave._framed(F, G, space)[0][0].bit_length() > 64
        d = distance(F, G, space)
        _assert_frame_free(d, p, space)
        if d.witness is not None:
            assert verify_certificate(F, G, d.witness, space), (F, G)
        for a in critical_grid(F, G, space):
            try:
                cert = check_interleaving(F, G, a, space)
            except (CapacityError, UnsupportedHomError):
                seen["undecided"] += 1
                continue
            oracle = _fraction_outcome(F, G, a, space)
            if oracle is not None:
                assert (cert is not None) == (oracle == "found"), (F, G, a)
                seen[oracle] += 1
            if cert is not None:
                assert cert.a == a and verify_certificate(F, G, cert, space)
                _assert_frame_free(cert, p, space)
    assert min(seen["found"], seen["refuted"], seen["past 2^64"]) >= 2, seen


def test_unusable_hom_error_names_values_not_frame_values():
    """[0, 1/3] against [0, 4/3] on R/Z over F_2 at the shift 1: a
    thickened lift meets a 4-dimensional Hom over the deck copies, which
    the calculus cannot use.  The search runs in the pair's frame, M = 12,
    where [0, 10/3] is [0, 40]; the error that leaves ``check_interleaving``
    and ``check_exhaustive`` names the shift and the circumference as given,
    and chains no frame-valued error."""
    F, G = gb(bar(closed(0, Fr(1, 3)))), gb(bar(closed(0, Fr(4, 3))))
    space = circle_ops(1)
    assert interleave._framed(F, G, space)[0][0] == 12
    for check in (check_interleaving, check_exhaustive):
        with pytest.raises(UnsupportedHomError) as info:
            check(F, G, 1, space)
        assert str(info.value) == ("the search at 1 on R/CZ, C = 1 meets a "
                                   "Hom space that the calculus cannot use")
        assert info.value.__suppress_context__


@pytest.mark.parametrize("C", [0, -4])
def test_nonpositive_circumference_rejected(C):
    """``circle_ops`` refuses C <= 0, as ``CircleSheaf`` does, before any
    search: C = 0 would divide by zero, and C = -4 would refute a shift
    that a certificate exists for."""
    F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
    calls = [lambda: distance(F, G, circle_ops(C)),
             lambda: check_interleaving(F, G, 1, circle_ops(C)),
             lambda: verify_certificate(F, F, identity_certificate(F),
                                        circle_ops(C))]
    for call in calls:
        with pytest.raises(ValueError, match="circumference must be positive"):
            call()


# ---------------------------------------------------------------------------
# The production check runs in the pair's frame; ``verify_certificate``, the
# definition, in the input pair's own Fractions.

def _frame_check(F, G, cert, space):
    """The row check that ``_certificate`` runs, on the blocks of ``cert``,
    in the pair's frame (M, F', G', space'), with a', F', G' and space' in
    place of the values."""
    (_, X, Y, S), (a,) = interleave._framed(F, G, space, cert.a)
    return _row_check(X, Y, a, cert, S)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frame_checked_witnesses_pass_the_fraction_check(rng, p):
    """Every witness of ``distance``, ``check_interleaving`` and
    ``check_matching``, each checked in the pair's integer frame, passes
    ``verify_certificate`` in Fractions: on line pairs of every shape, on
    line pairs and circle pairs in frames past 2^64, at grid shifts and at
    a rational shift off the grid.  The two checks also agree on three
    corruptions of each ``distance`` witness."""
    pairs = [("mixed", F, G, LINE) for F, G in _mixed_line_pairs(rng, p, 24, 4)]
    pairs += [("frame", F, G, LINE) for F, G in _frame_pairs(rng, p, 24)]
    pairs += [("circle", *t) for t in _frame_circle_pairs(rng, p, 18)]
    seen, agreed = Counter(), Counter()
    for kind, F, G, space in pairs:
        big = interleave._framed(F, G, space)[0][0].bit_length() > 64
        certs = [distance(F, G, space).witness]
        try:
            corrupted = [] if certs[0] is None else \
                list(_corrupted(rng, F, G, certs[0], space))
        except UnsupportedHomError:         # a free block it cannot size
            assert space != LINE
            corrupted = []
        for bad in corrupted:
            got = _outcome_of(verify_certificate, F, G, bad, space)
            assert got == _outcome_of(_frame_check, F, G, bad, space), \
                (F, G, bad.f, bad.g)
            agreed[got] += 1
        grid = critical_grid(F, G, space)
        for a in grid[1:4] + [Fr(rng.randint(1, 30), rng.choice(SHIFT_DENOMS))]:
            for check in (check_interleaving, check_matching):
                try:
                    certs.append(check(F, G, a, space))
                except (CapacityError, UnsupportedHomError):
                    assert space != LINE
        for cert in certs:
            if cert is not None:
                assert verify_certificate(F, G, cert, space), (F, G, cert.a)
                seen[kind, big] += 1
    # mixed pairs stay in small frames; the other two reach past 2^64
    assert min(seen.values()) >= 3 and len(seen) == 5, seen
    assert agreed[False] >= 20, agreed
