"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line.  All checks are
exact rational-arithmetic equalities (tolerance zero); randomized corpora are
seeded and deterministic.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction as Fr

import pytest

from conftest import bar, gb
from thicket.barcode import (CLOSED, Bar, GradedBarcode, Interval, closed,
                             dualize, full_line, global_sections,
                             global_sections_c, open_iv, singleton)
from thicket.circle import (CircleSheaf, circle_distance, circle_thicken,
                            cyclic_model_of, decompose_cyclic, fourier_sato)
from thicket.corpus import (grid_bar_pool, rand_bar, rand_barcode,
                            rand_bounded_barcode, rand_circle_sheaf,
                            rand_fraction, rand_plmap, rand_shift,
                            sample_grid_barcode)
from thicket.extend import (coherence_check, extend_apply, lambda_independence,
                            line_seed)
from thicket.fieldmath import identity
from thicket.interleave import (CapacityError, check_exhaustive,
                                check_matching, critical_grid, distance,
                                finite_gate, verify_certificate)
from thicket.plmaps import (abs_map, lipschitz_experiment, offset_map,
                            pushforward_shriek, scale_map,
                            stability_experiment, sup_distance)
from thicket.scalars import POS_INF
from thicket.thicken import convolution_ball, stalk_of, thicken
from thicket.barcode import stalk_dims, ray_left, ray_right, half_open, \
    half_open_r
from thicket.scalars import is_finite

SEED = 0x7C1C


def report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_semigroup():
    rng = random.Random(SEED + 1)
    ok = True
    for _ in range(500):
        F = rand_barcode(rng, max_bars=6)
        a = rand_fraction(rng, -4, 4)
        b = rand_fraction(rng, -4, 4)
        ok = ok and thicken(thicken(F, a), b) == thicken(F, a + b)
    report(1, ok, "semigroup law on 500 seeded (F, a, b), exact")


def test_criterion_02_rgamma_invariance():
    rng = random.Random(SEED + 2)
    ok = True
    for _ in range(500):
        F = rand_barcode(rng, max_bars=6)
        a = rand_shift(rng, 0, 4)
        T = thicken(F, a)
        ok = ok and global_sections(T) == global_sections(F)
        ok = ok and global_sections_c(T) == global_sections_c(F)
    report(2, ok, "derived-section invariance on 500 seeded cases, exact")


def test_criterion_03_duality_square():
    rng = random.Random(SEED + 3)
    ok = True
    for _ in range(500):
        F = rand_barcode(rng, max_bars=6)
        a = rand_fraction(rng, -4, 4)
        ok = ok and dualize(thicken(F, a)) == thicken(dualize(F), -a)
    report(3, ok, "duality square on 500 seeded cases, exact")


def test_criterion_04_convolution_equivalence():
    rng = random.Random(SEED + 4)
    ok = True
    for _ in range(200):
        F = rand_barcode(rng, max_bars=6)
        a = rand_shift(rng, 0, 4)
        ok = ok and convolution_ball(F, a) == thicken(F, a)
    report(4, ok, "ball convolution equals thickening on 200 seeded cases")


def test_criterion_05_rule_table_certification():
    from thicket.barcode import CLOSED, OPEN
    shapes = [closed(0, 2), open_iv(0, 2), half_open(0, 2), half_open_r(0, 2),
              singleton(1), ray_right(0, CLOSED), ray_right(0, OPEN),
              ray_left(0, CLOSED), ray_left(0, OPEN), full_line()]
    eps = Fr(1, 16)
    checked = 0
    ok = True
    for iv in shapes:
        for a in (Fr(1, 4), Fr(1), Fr(3, 2), Fr(3), Fr(-1, 4), Fr(-1),
                  Fr(-3, 2), Fr(-3), Fr(0)):
            F = gb(bar(iv, 0))
            out = thicken(F, a)
            points = set()
            for interval in [iv] + [b.iv for b in out.bars]:
                ends = [e for e in (interval.left, interval.right)
                        if is_finite(e)]
                for e in ends:
                    points.update((e - eps, e, e + eps))
                if len(ends) == 2:
                    points.add((ends[0] + ends[1]) / 2)
                elif len(ends) == 1:
                    points.update((ends[0] - 1, ends[0] + 1))
                else:
                    points.add(Fr(0))
            for t in sorted(points):
                ok = ok and stalk_dims(out, t) == stalk_of(F, a, t)
                checked += 1
    report(5, ok, f"rule rows certified against the stalk oracle "
                  f"({checked} exact stalk comparisons, both signs)")


def test_criterion_06_skyscraper_exact():
    F, G = gb(bar(closed(0, 2))), gb(bar(singleton(1)))
    d = distance(F, G)
    ok = d.fields() == (1, 1, True) and d.witness is not None
    ok = ok and verify_certificate(F, G, d.witness)
    # exhaustive refutation below the bound
    ok = ok and check_exhaustive(F, G, Fr(1, 2)) is None
    report(6, ok, "distance([0,2] bar, point bar at 1) = (1, 1, exact) "
                  "with verified witness and refuted predecessor")


def test_criterion_07_infinite_gate():
    rng = random.Random(SEED + 7)
    ok = True
    produced = 0
    while produced < 200:
        F = rand_barcode(rng, max_bars=4)
        G = rand_barcode(rng, max_bars=4)
        if (global_sections(F) == global_sections(G)
                and global_sections_c(F) == global_sections_c(G)):
            continue
        produced += 1
        d = distance(F, G)
        ok = ok and d.fields() == (POS_INF, POS_INF, True)
    # cross-check on small pairs: the full grid admits no certificate at all
    cross = 0
    rng2 = random.Random(SEED + 70)
    while cross < 30:
        F = rand_bounded_barcode(rng2, max_bars=1)
        G = rand_bounded_barcode(rng2, max_bars=1)
        if finite_gate(F, G) == "pass":
            continue
        cross += 1
        for a in critical_grid(F, G):
            ok = ok and check_exhaustive(F, G, a) is None
    report(7, ok, "200 gate-infinite pairs exact, 30 refuted over the full grid")


def test_criterion_08_matching_vs_exhaustive():
    rng = random.Random(SEED + 8)
    pool = grid_bar_pool()
    contradictions = 0
    verified = True
    compared = 0
    for _ in range(80):
        F = sample_grid_barcode(rng, pool, max_bars=3)
        G = sample_grid_barcode(rng, pool, max_bars=3)
        for a in critical_grid(F, G):
            m = check_matching(F, G, a)
            if m is not None:
                verified = verified and verify_certificate(F, G, m)
            try:
                e = check_exhaustive(F, G, a)
            except CapacityError:
                continue
            compared += 1
            if m is None and e is not None:
                contradictions += 1
    ok = contradictions == 0 and verified and compared > 100
    report(8, ok, f"matching vs exhaustive agree on {compared} grid decisions "
                  f"(sampled from the <=3-bar endpoint-grid class); "
                  f"{contradictions} contradictions")


def test_criterion_09_extension_engine():
    rng = random.Random(SEED + 9)
    seed = line_seed(1)
    ok = True
    for _ in range(100):
        F = rand_barcode(rng, max_bars=4)
        for a in (Fr(0), Fr(3, 4), Fr(5, 2), Fr(-5, 2)):
            ok = ok and extend_apply(seed, a, F) == thicken(F, a)
    objs = [gb(bar(closed(0, 1))), gb(bar(singleton(0)), bar(open_iv(0, 2), 1))]
    rep = coherence_check(seed, [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1)], objs)
    ok = ok and rep.ok
    for _ in range(100):
        F = rand_barcode(rng, max_bars=3)
        a = abs(rand_fraction(rng, 0, 3))
        ok = ok and lambda_independence(seed, a, F)
    report(9, ok, "extension engine: 400 agreement cases, coherence diagrams, "
                  "100 lambda-independence queries")


def test_criterion_10_fourier_sato():
    rng = random.Random(SEED + 10)
    ok = True
    for _ in range(200):
        F = rand_circle_sheaf(rng, with_bands=True)
        T = fourier_sato(F)
        ok = ok and fourier_sato(T, "inverse") == F
        # the cyclic decomposition re-derives the transformed spirals
        S = CircleSheaf(T.C, T.spirals, (), T.char)
        ok = ok and decompose_cyclic(cyclic_model_of(S)) == S
    pairs = 0
    rng2 = random.Random(SEED + 100)
    while pairs < 50:
        F = rand_circle_sheaf(rng2, max_spirals=2)
        G = rand_circle_sheaf(rng2, max_spirals=2)
        pairs += 1
        d1 = circle_distance(F, G)
        d2 = circle_distance(fourier_sato(F), fourier_sato(G))
        ok = ok and d1.fields() == d2.fields()
    rng3 = random.Random(SEED + 1000)
    for _ in range(100):
        a = Fr(rng3.randint(1, 16), 16)
        b = Fr(rng3.randint(1, 16), 16)
        a, b = min(a, b), max(a, b)
        F = rand_circle_sheaf(rng3, max_spirals=3)
        lhs = circle_thicken(circle_thicken(F, b), -a)
        ok = ok and lhs == circle_thicken(F, b - a)
    report(10, ok, "quarter-turn transform: 200 roundtrips with cyclic "
                   "re-decomposition, 50-pair isometry "
                   "corpus exact per field, 100 slice identities")


def test_criterion_11_locally_constant():
    rng = random.Random(SEED + 11)
    ok = True
    for _ in range(100):
        F = rand_circle_sheaf(rng, max_spirals=0, with_bands=True)
        if not F.bands:
            if rng.random() < 0.5:
                rank = rng.randint(1, 2)
                F = CircleSheaf(4, [], [(rank, identity(rank), 0)])
            else:
                F = CircleSheaf(4, [], [(1, [[1]], rng.choice((0, 1)))])
        a = rand_fraction(rng, -4, 4)
        ok = ok and circle_thicken(F, a) == F
    kR = gb(bar(full_line(), 0))
    finite_seen = 0
    for i in range(200):
        if rng.random() < 0.5:
            G = kR.direct_sum(rand_bounded_barcode(rng, max_bars=1))
        else:
            G = rand_barcode(rng, max_bars=2)
        d = distance(kR, G)
        if d.upper != POS_INF:
            finite_seen += 1
            ok = ok and any(b.iv.is_full_line and b.degree == 0 for b in G.bars)
    ok = ok and finite_seen >= 20
    report(11, ok, f"bands fixed by thickening (100 cases); line rigidity on "
                   f"200 seeded comparisons ({finite_seen} finite)")


def test_criterion_12_stability():
    rng = random.Random(SEED + 12)
    conclusive = inconclusive = 0
    ok = True
    produced = 0
    while produced < 99:
        f = rand_plmap(rng)
        g = rand_plmap(rng, match_tails_with=f)
        F = rand_bounded_barcode(rng, max_bars=2)
        a = sup_distance(f, g)
        if not is_finite(a) or a > 2:
            continue
        produced += 1
        rep = stability_experiment(f, g, F)
        if rep.verdict == "inconclusive":
            inconclusive += 1
        else:
            conclusive += 1
            ok = ok and rep.passed
    fixed = stability_experiment(abs_map(), offset_map(abs_map(), Fr(1, 8)),
                                 gb(bar(closed(-1, 1), 0)))
    ok = ok and fixed.passed and fixed.bound == Fr(1, 8)
    total = conclusive + inconclusive + 1
    ok = ok and inconclusive / total < 0.05
    report(12, ok, f"stability: {conclusive + 1}/{total} conclusive passes "
                   f"(inconclusive rate {inconclusive}/{total}), "
                   f"fixed instance at 1/8")


def test_criterion_13_lipschitz():
    rng = random.Random(SEED + 13)
    conclusive = inconclusive = 0
    ok = True
    for _ in range(99):
        f = rand_plmap(rng)
        F1 = rand_bounded_barcode(rng, max_bars=1)
        a = Fr(rng.randint(0, 8), 8)
        F2 = thicken(F1, a)            # an a-certificate exists by construction
        rep = lipschitz_experiment(f, F1, F2, a)
        if rep.verdict == "inconclusive":
            inconclusive += 1
        else:
            conclusive += 1
            ok = ok and rep.passed
    fixed = lipschitz_experiment(scale_map(Fr(1, 2)), gb(bar(closed(0, 2))),
                                 gb(bar(singleton(1))), 1)
    ok = ok and fixed.passed and fixed.bound == Fr(1, 2)
    total = conclusive + inconclusive + 1
    ok = ok and inconclusive / total < 0.05
    report(13, ok, f"Lipschitz: {conclusive + 1}/{total} conclusive passes "
                   f"(inconclusive rate {inconclusive}/{total}), "
                   f"fixed instance at 1/2")


def _nudge14(rng, F):
    """F with every finite end moved by at most 1/2 on the 1/4 grid,
    keeping kinds, degrees and positive lengths: a finite distance away."""
    bars = []
    for b in F.bars:
        while True:
            left = b.iv.left + Fr(rng.randint(-2, 2), 4)
            right = b.iv.right + Fr(rng.randint(-2, 2), 4)
            if right > left or (right == left and b.iv.lkind is b.iv.rkind
                                is CLOSED):
                break
        bars.append(Bar(Interval(left, b.iv.lkind, right, b.iv.rkind),
                        b.degree))
    return GradedBarcode(bars, F.char)


def test_criterion_14_pseudo_distance_axioms():
    rng = random.Random(SEED + 14)
    ok = True
    for _ in range(200):
        F = rand_bounded_barcode(rng, max_bars=2)
        G = rand_bounded_barcode(rng, max_bars=2)
        ok = ok and distance(F, G).fields() == distance(G, F).fields()
    # triples of 6-12 bars of every shape, rays and full lines included:
    # three nudged copies of one draw, one of them thickened
    triples = inexact = 0
    rng2 = random.Random(SEED + 140)
    for _ in range(60):
        base = GradedBarcode([rand_bar(rng2)
                              for _ in range(rng2.randint(6, 12))])
        F, G = _nudge14(rng2, base), _nudge14(rng2, base)
        H = thicken(_nudge14(rng2, base), Fr(rng2.randint(-2, 2), 4))
        ds = [distance(X, Y) for X, Y in ((F, G), (F, H), (H, G))]
        inexact += sum(not d.exact for d in ds)
        dFG, dFH, dHG = (d.upper for d in ds)
        if POS_INF in (dFG, dFH, dHG):
            continue
        triples += 1
        ok = ok and dFG <= dFH + dHG and dFH <= dFG + dHG \
            and dHG <= dFG + dFH
    ok = ok and inexact == 0 and triples >= 50
    report(14, ok, f"symmetry exact on 200 pairs; every line distance exact "
                   f"and the triangle inequality on {triples} triples of "
                   f"6-12 bars")


def test_criterion_15_pushforward():
    from thicket.barcode import CLOSED, OPEN
    got = pushforward_shriek(abs_map(), gb(bar(full_line(), 0)))
    ok = got == gb(Bar(ray_right(0, CLOSED), 0), Bar(ray_right(0, OPEN), 0))
    rng = random.Random(SEED + 15)
    for _ in range(200):
        F = rand_bounded_barcode(rng, max_bars=3)
        f = rand_plmap(rng)
        ok = ok and global_sections_c(pushforward_shriek(f, F)) == \
            global_sections_c(F)
    report(15, ok, "absolute-value pushforward exact; compact-support "
                   "cohomology preserved on 200 seeded pushforwards")
