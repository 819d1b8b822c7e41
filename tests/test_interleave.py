"""Interleaving certificates, strategies, and distance bounds."""

import time
from fractions import Fraction as Fr
from itertools import product

import pytest

from conftest import bar, gb, mixed_bar, pooled_interval
from thicket.barcode import (CLOSED, Bar, CharacteristicMismatchError,
                             GradedBarcode, Interval, closed, full_line,
                             half_open, open_iv, singleton)
from thicket.circle import CircleSheaf, circle_ops
from thicket.corpus import (rand_bounded_barcode, rand_barcode,
                            rand_circle_sheaf, rand_fraction)
from thicket import interleave
from thicket.interleave import (Budget, CapacityError,
                                DistanceBounds, InterleavingCertificate,
                                check_exhaustive, check_interleaving,
                                check_matching, critical_grid, distance,
                                _lifts, _pair_feasible, finite_gate,
                                identity_certificate, verify_certificate,
                                weaken_certificate)
from thicket.morphisms import LINE, Morphism, UnsupportedHomError
from thicket.plmaps import abs_map, lipschitz_experiment
from thicket.scalars import POS_INF
from thicket.thicken import halfopen_translation_kills, thicken


class TestVerify:
    def test_identity_certificate(self):
        F = gb(bar(closed(0, 2)), bar(open_iv(0, 1), 1))
        assert verify_certificate(F, F, identity_certificate(F))

    def test_skyscraper_certificate(self):
        F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
        f = Morphism(thicken(F, 1), G, {(0, 0, "h"): 1})
        g = Morphism(thicken(G, 1), F, {(0, 0, "h"): 1})
        assert verify_certificate(F, G, InterleavingCertificate(Fr(1), f, g))

    def test_zero_maps_fail_against_nonzero_restriction(self):
        F, Z = gb(bar(closed(0, 2))), gb()
        for a in (Fr(1), Fr(5)):
            f = Morphism(thicken(F, a), Z, {})
            g = Morphism(thicken(Z, a), F, {})
            assert not verify_certificate(F, Z, InterleavingCertificate(a, f, g))

    def test_shape_mismatch_raises(self):
        F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
        f = Morphism(thicken(F, 1), G, {(0, 0, "h"): 1})
        g = Morphism(thicken(G, 1), F, {(0, 0, "h"): 1})
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

    def test_capacity_error(self):
        F = rand_bounded_barcode(__import__("random").Random(5), max_bars=4)
        G = thicken(F, Fr(1, 4))
        tiny = Budget(max_unknowns=1)
        with pytest.raises(CapacityError):
            check_exhaustive(F, G, Fr(1, 4), budget=tiny)
        # matching certifies 1/4 before the budget matters; nothing
        # certifies 1/8, and the exhaustive search cannot refute it in
        # budget; 0 is refuted by the isomorphism test without a search
        assert check_interleaving(F, G, Fr(1, 4), budget=tiny) is not None
        with pytest.raises(CapacityError):
            check_interleaving(F, G, Fr(1, 8), budget=tiny)
        assert check_interleaving(F, G, 0, budget=tiny) is None

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
        from thicket.barcode import ray_left, ray_right
        F = gb(bar(ray_right(0)))
        G = gb(bar(ray_left(0)))
        assert finite_gate(F, G) == "pass"
        d = distance(F, G)
        assert d.upper == POS_INF and not d.exact


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
    F = rand_bounded_barcode(__import__("random").Random(11), max_bars=4)
    G = thicken(F, Fr(1, 4))

    def test_default_budget_is_exact(self):
        assert distance(self.F, self.G).fields() == (Fr(1, 4), Fr(1, 4), True)

    def test_capacity_leaves_bounds_inconclusive(self):
        d = distance(self.F, self.G, Budget(max_unknowns=1))
        assert (d.exact, d.conclusive) == (False, False)
        assert verify_certificate(self.F, self.G, d.witness)


# ---------------------------------------------------------------------------
# The candidate search against the linear scan that defines the answer.

def _outcome(F, G, a, ops, budget):
    """'found', 'refuted', 'capacity' or 'unsupported' at the shift a."""
    try:
        cert = check_interleaving(F, G, a, ops, budget)
    except CapacityError:
        return "capacity"
    except UnsupportedHomError:
        return "unsupported"
    return "refuted" if cert is None else "found"


def _linear_scan(F, G, budget, ops):
    """Oracle: scan the whole critical grid upward from 0 and stop at the
    first certificate, the definition of the answer ``distance`` walks to."""
    if F == G:
        return DistanceBounds(Fr(0), Fr(0), True, identity_certificate(F, ops))
    if finite_gate(F, G, ops) == "infinite":
        return DistanceBounds(POS_INF, POS_INF, True, None)
    return _linear_definition(critical_grid(F, G, ops),
                              lambda a: _outcome(F, G, a, ops, budget))


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
    """The candidate search of ``distance``, which gallops and then bisects
    over the matching search alone, against the linear scan."""

    def test_feasibility_upward_closed(self, rng, p):
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 6)]
        pairs += list(_circle_pairs(rng, p, 4))
        for F, G, ops in pairs:
            outcomes = [_outcome(F, G, a, ops, Budget())
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

    @pytest.mark.parametrize("budget", [Budget(), Budget(max_unknowns=1),
                                        Budget(max_unknowns=2)],
                             ids=["default", "unknowns-1", "unknowns-2"])
    def test_distance_matches_linear_scan(self, rng, p, budget):
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        for F, G, ops in pairs:
            d = distance(F, G, budget, ops)
            assert _sides(d) == _sides(_linear_scan(F, G, budget, ops)), (F, G)
            if d.witness is not None:
                assert verify_certificate(F, G, d.witness, ops)

    def test_one_exhaustive_call_per_exact_result(self, rng, p, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return check_exhaustive(*args, **kwargs)

        monkeypatch.setattr(interleave, "check_exhaustive", counted)
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        exact = 0
        for F, G, space in pairs:
            calls.clear()
            d = distance(F, G, space=space)
            if d.exact:
                assert len(calls) <= 1, (F, G, calls)
                exact += d.upper != POS_INF
        assert exact >= 10

    @pytest.mark.parametrize("late", [False, True], ids=["never", "late"])
    def test_fallback_matches_linear_scan(self, rng, p, monkeypatch, late):
        """A candidate search that misses, or that skips the least match so
        that the predecessor of its candidate is certified, leaves the walk
        to find the least certificate below or above it, with the bounds of
        the linear scan."""
        least_match = interleave._least_match

        def missing(n, match):
            m = least_match(n, match) if late else None
            if m is None:
                return None
            return least_match(n, lambda i: None if i <= m else match(i))

        monkeypatch.setattr(interleave, "_least_match", missing)
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 8)]
        pairs += list(_circle_pairs(rng, p, 4))
        for F, G, space in pairs:
            d = distance(F, G, space=space)
            assert _sides(d) == _sides(_linear_scan(F, G, Budget(), space)), (F, G)
            if d.witness is not None:
                assert verify_certificate(F, G, d.witness, space)


def _walk_scripts(max_len):
    """Every outcome script of 1..max_len grid indices with index 0 refuted
    and no refuted index above a found one, each with every set of found
    indices that the matching search hits."""
    kinds = ("found", "refuted", "capacity", "unsupported")
    for n in range(1, max_len + 1):
        for rest in product(kinds, repeat=n - 1):
            script = ("refuted",) + rest
            if "found" in script and "refuted" in script[script.index("found"):]:
                continue
            found = [i for i, o in enumerate(script) if o == "found"]
            for picks in product((False, True), repeat=len(found)):
                yield script, {i for i, pick in zip(found, picks) if pick}


class TestScriptedWalk:
    """The walk of ``distance`` against the linear definition, on grids
    whose probe outcomes are scripted."""

    def test_walk_matches_linear_definition(self, monkeypatch):
        F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
        state = {}

        def match_pairs(F, G, a, space):
            assert a not in state["matched"], a
            state["matched"].add(a)
            return "hit" if a in state["hits"] else None

        def search(F, G, a, space, budget, match):
            assert 0 < a and a not in state["searched"], a
            state["searched"].add(a)
            outcome = state["script"][int(a)]
            if outcome == "capacity":
                raise CapacityError("scripted")
            if outcome == "unsupported":
                raise UnsupportedHomError("scripted")
            return InterleavingCertificate(a, None, None) if outcome == "found" else None

        monkeypatch.setattr(interleave, "critical_grid",
                            lambda F, G, space: state["grid"])
        monkeypatch.setattr(interleave, "_match_pairs", match_pairs)
        monkeypatch.setattr(interleave, "_search", search)
        seen = set()
        for script, hits in _walk_scripts(6):
            grid = [Fr(i) for i in range(len(script))]
            state.update(grid=grid, hits=set(hits), script=script,
                         matched=set(), searched=set())
            d = distance(F, G)
            expected = _linear_definition(grid, lambda a: script[int(a)])
            assert _sides(d) == _sides(expected), (script, hits)
            seen.add((d.upper == POS_INF, d.exact, d.conclusive))
        # a certificate, exact or not; none, with every probe decided or not
        # (an undecided probe below the largest refuted one included)
        assert seen == {(False, True, True), (False, False, False),
                        (True, False, True), (True, False, False)}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_each_grid_index_matched_once(self, rng, p, monkeypatch):
        calls = []
        match_pairs = interleave._match_pairs

        def counted(F, G, a, space):
            calls.append(a)
            return match_pairs(F, G, a, space)

        monkeypatch.setattr(interleave, "_match_pairs", counted)
        pairs = [(F, G, LINE) for F, G in _line_pairs(rng, p, 10)]
        pairs += list(_circle_pairs(rng, p, 5))
        matched = 0
        for F, G, space in pairs:
            calls.clear()
            distance(F, G, space=space)
            assert len(calls) == len(set(calls)), (F, G, calls)
            matched += len(calls)
        assert matched >= len(pairs)


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

            assert interleave._least_match(n, match) == (t if t < n else None)
            assert len(seen) <= 2 * max(n, 1).bit_length()


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
            (f,), (g,) = _lifts([fbar], a, LINE), _lifts([gbar], a, LINE)
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


def test_matching_agrees_with_brute_force(rng, monkeypatch):
    """``_match_pairs`` on a random table of feasible and unsupported pairs
    finds a valid matching exactly when one exists."""
    table = {}

    def pair_feasible(f, g, p, space):
        r = table.get((f[0], g[0]))
        if r == "unsupported":
            raise UnsupportedHomError("scripted")
        return r

    monkeypatch.setattr(interleave, "_pair_feasible", pair_feasible)
    a = Fr(1)
    outcomes = {True: 0, False: 0}
    killable = set()
    for _ in range(600):
        F = gb(*_killable_or_not(rng, rng.randint(0, 5)))
        G = gb(*_killable_or_not(rng, rng.randint(0, 5)))
        nF, nG = len(F.bars), len(G.bars)
        density = rng.choice((0.3, 0.6, 0.9))
        table.clear()
        for i, j in product(range(nF), range(nG)):
            if rng.random() < density:       # one in four unsupported
                table[(F.bars[i], G.bars[j])] = rng.choice((1, 1, 1,
                                                            "unsupported"))
        feasible = {(i, j): 1 for i, j in product(range(nF), range(nG))
                    if table.get((F.bars[i], G.bars[j])) == 1}
        kill_F = [halfopen_translation_kills(b.iv, 0, 2 * a) for b in F.bars]
        kill_G = [halfopen_translation_kills(b.iv, 0, 2 * a) for b in G.bars]
        killable.update(kill_F + kill_G)
        match = interleave._match_pairs(F, G, a, LINE)
        exists = next(_valid_matchings(nF, nG, feasible, kill_F, kill_G),
                      None) is not None
        assert (match is not None) == exists, (F, G, table)
        outcomes[exists] += 1
        if match is None:
            continue
        pairs, feas = match
        assert feas == feasible
        assert all(pair in feasible for pair in pairs)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) \
            == len(pairs)
        assert all(kill_F[i] for i in set(range(nF)) - {i for i, _ in pairs})
        assert all(kill_G[j] for j in set(range(nG)) - {j for _, j in pairs})
    assert killable == {True, False}
    assert outcomes[True] > 150 and outcomes[False] > 150, outcomes


def test_matching_refutes_hall_violation_fast(monkeypatch):
    """12 against 12 closed bars, none killable, where G's first bar has no
    feasible partner: no matching exists, and the search says so at once
    (an exhaustive backtracker grows tenfold per bar on this shape)."""
    F = gb(*[bar(closed(k, k + 1)) for k in range(12)])
    G = gb(*[bar(closed(k, k + 2)) for k in range(12)])
    g0 = G.bars[0]
    monkeypatch.setattr(interleave, "_pair_feasible",
                        lambda f, g, p, space: None if g[0] == g0 else 1)
    start = time.perf_counter()
    assert interleave._match_pairs(F, G, Fr(1), LINE) is None
    assert time.perf_counter() - start < 0.5


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
