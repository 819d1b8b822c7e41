"""Thickening rules, the stalk oracle, and the convolution route."""

import math
import random
import time
from fractions import Fraction as Fr

import pytest

from conftest import SHAPE_REPRESENTATIVES, bar, gb, mixed_bar
from oracles import dualize_per_bar, stalk_oracle, thicken_per_bar
from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                             closed, full_line, half_open, half_open_r,
                             open_iv, ray_left, ray_right, singleton,
                             stalk_dims, dualize, global_sections,
                             global_sections_c)
from thicket.circle import circle_ops
from thicket.corpus import rand_barcode, rand_fraction, rand_shift
from thicket.morphisms import LINE, normal_form, thicken_indexed
from thicket.scalars import NEG_INF, POS_INF, is_finite
from thicket.thicken import bar_rule, convolution_ball, thicken


class TestRuleExamples:
    def test_closed_grows(self):
        assert thicken(gb(bar(closed(0, 2))), 1) == gb(bar(closed(-1, 3)))

    def test_open_collapse_to_point(self):
        assert thicken(gb(bar(open_iv(0, 4))), 2) == gb(bar(singleton(2), 1))

    def test_open_collapse_past_boundary(self):
        assert thicken(gb(bar(open_iv(0, 4))), 3) == gb(bar(closed(1, 3), 1))

    def test_zero_is_identity(self, rng):
        for _ in range(20):
            F = rand_barcode(rng)
            assert thicken(F, 0) == F

    def test_closed_negative_collapse(self):
        assert thicken(gb(bar(closed(0, 1))), -1) == gb(bar(open_iv(0, 1), -1))

    def test_closed_negative_boundary_is_midpoint(self):
        assert thicken(gb(bar(closed(0, 1))), Fr(-1, 2)) == \
            gb(bar(singleton(Fr(1, 2)), 0))

    def test_half_open_translates(self):
        assert thicken(gb(bar(half_open(0, 2))), 1) == gb(bar(half_open(-1, 1)))
        assert thicken(gb(bar(half_open_r(0, 2))), 1) == gb(bar(half_open_r(1, 3)))

    def test_rays_translate_by_kind(self):
        assert thicken(gb(bar(ray_right(0, CLOSED))), 1) == gb(bar(ray_right(-1, CLOSED)))
        assert thicken(gb(bar(ray_right(0, OPEN))), 1) == gb(bar(ray_right(1, OPEN)))
        assert thicken(gb(bar(ray_left(0, CLOSED))), 1) == gb(bar(ray_left(1, CLOSED)))
        assert thicken(gb(bar(ray_left(0, OPEN))), 1) == gb(bar(ray_left(-1, OPEN)))

    def test_full_line_fixed(self):
        assert thicken(gb(bar(full_line(), 2)), Fr(7, 3)) == gb(bar(full_line(), 2))


class TestStalkOracle:
    def test_examples(self):
        G = gb(bar(open_iv(0, 4)))
        assert stalk_oracle(G, 1, 2) == {0: 1}
        assert stalk_oracle(G, 2, 2) == {1: 1}
        assert stalk_oracle(gb(bar(closed(0, 1))), 1, 5) == {}

    def test_negative_shift_takes_the_open_ball_one_degree_down(self):
        # (-1/2, 3/2) meets [0, 1] in all of it, and (-1, 1) meets it in
        # [0, 1), which has no compactly supported cohomology
        F = gb(bar(closed(0, 1)))
        assert stalk_oracle(F, -1, Fr(1, 2)) == {-1: 1}
        assert stalk_oracle(F, -1, 0) == {}

    def test_zero_shift_recovers_stalks(self, rng):
        for _ in range(20):
            F = rand_barcode(rng)
            t = rand_fraction(rng)
            assert stalk_oracle(F, 0, t) == stalk_dims(F, t)


def _certify_rule_row(iv, a):
    """Oracle certification of one rule row at endpoints +-1/16 and midpoints."""
    F = gb(bar(iv, 0))
    out = thicken(F, a)
    eps = Fr(1, 16)
    points = set()
    for interval in [iv] + [b.iv for b in out.bars]:
        ends = [e for e in (interval.left, interval.right) if is_finite(e)]
        for e in ends:
            points.update((e - eps, e, e + eps))
        if len(ends) == 2:
            points.add((ends[0] + ends[1]) / 2)
        elif len(ends) == 1:
            points.update((ends[0] - 1, ends[0] + 1))
        else:
            points.add(Fr(0))
    for t in sorted(points):
        got = stalk_dims(out, t)
        want = stalk_oracle(F, a, t)
        assert got == want, (iv, a, t, got, want)


class TestRuleCertification:
    @pytest.mark.parametrize("iv", SHAPE_REPRESENTATIVES,
                             ids=lambda iv: str(iv))
    @pytest.mark.parametrize("a", [Fr(0), Fr(1, 2), Fr(1), Fr(3), Fr(-1, 2),
                                   Fr(-1), Fr(-3)])
    def test_row_against_oracle(self, iv, a):
        _certify_rule_row(iv, a)

    def test_boundary_collapse_rows(self):
        _certify_rule_row(open_iv(0, 4), Fr(2))
        _certify_rule_row(closed(0, 4), Fr(-2))
        _certify_rule_row(singleton(1), Fr(-1))

    @pytest.mark.parametrize("left, right", [(Fr(1, 3), Fr(11, 5)),
                                             (Fr(-5, 7), Fr(3, 11)),
                                             (Fr(-9, 5), Fr(-1, 3))])
    def test_collapse_thresholds_odd_denominators(self, left, right):
        # closed bars collapse past 2a = -length, open bars at 2a = length
        half = (right - left) / 2
        past = Fr(1, 7)
        closed_bar, open_bar = closed(left, right), open_iv(left, right)
        mid = singleton((left + right) / 2)
        for a in (-half, -half - past):
            _certify_rule_row(closed_bar, a)
        for a in (half, half + past):
            _certify_rule_row(open_bar, a)
        assert bar_rule(bar(closed_bar, 0), -half) == bar(mid, 0)
        assert bar_rule(bar(closed_bar, 0), -half - past) == \
            bar(open_iv(right - half - past, left + half + past), -1)
        assert bar_rule(bar(open_bar, 0), half) == bar(mid, 1)
        assert bar_rule(bar(open_bar, 0), half + past) == \
            bar(closed(right - half - past, left + half + past), 1)


class TestSemigroup:
    def test_exact_law_seeded(self, rng):
        for _ in range(120):
            F = rand_barcode(rng)
            a, b = rand_fraction(rng), rand_fraction(rng)
            assert thicken(thicken(F, a), b) == thicken(F, a + b)

    def test_law_across_collapses(self):
        F = gb(bar(open_iv(0, 4)), bar(closed(0, 1), 1), bar(singleton(2), -1))
        for a in (Fr(2), Fr(5, 2), Fr(-1), Fr(-1, 2)):
            for b in (Fr(-2), Fr(1), Fr(-1, 4)):
                assert thicken(thicken(F, a), b) == thicken(F, a + b)


def _repeated_bars(rng, shapes, space, count):
    """Barcodes of 1-6 bars of the given shapes, each shape moved by a
    random multiple of 1/4 and put into the normal form of ``space``, with
    one bar repeated in every other barcode."""
    for k in range(count):
        bars = []
        for _ in range(rng.randint(1, 6)):
            iv, t = rng.choice(shapes), Fr(rng.randint(-8, 8), 4)
            bars.append(normal_form(Bar(Interval(
                iv.left + t, iv.lkind, iv.right + t, iv.rkind),
                rng.randint(-1, 1)), space))
        if k % 2:
            bars += [rng.choice(bars)] * rng.randint(1, 2)
        yield GradedBarcode(bars, rng.choice((2, 3, 5)))


SHIFTS = [Fr(0), Fr(1, 4), Fr(1, 2), Fr(3, 4), Fr(1), Fr(3, 2), Fr(5, 2)]


@pytest.mark.parametrize("space", [LINE, circle_ops(4)], ids=["line", "circle"])
def test_thicken_indexed_is_monoidal(rng, space):
    """T_b T_a F = T_(a+b) F for a, b >= 0, barcode and index map: bar i
    goes to bar pa[i] of T_a F and on to bar pb[pa[i]] of T_b T_a F, which
    is bar pab[i] of T_(a+b) F.  Every bar shape (the bounded ones on the
    circle, whose lifts are bounded) and repeated bars; the shifts pass the
    length of every open and half-open bar, so kinds and degrees change on
    the way.  The certificate check reads T_a T_a as T_2a on this."""
    shapes = [iv for iv in SHAPE_REPRESENTATIVES
              if space == LINE or iv.is_bounded]
    seen, repeated = set(), 0
    for F in _repeated_bars(rng, shapes, space, 60):
        repeated += len(set(F.bars)) < len(F.bars)
        seen.update((b.iv.lkind, b.iv.rkind, is_finite(b.iv.left),
                     is_finite(b.iv.right), b.iv.left == b.iv.right)
                    for b in F.bars)
        for a in SHIFTS:
            TFa, pa = thicken_indexed(F, a, space)
            for b in SHIFTS:
                TFab, pb = thicken_indexed(TFa, b, space)
                T, pab = thicken_indexed(F, a + b, space)
                assert TFab == T, (F, a, b)
                assert [pb[pa[i]] for i in range(len(F.bars))] == pab, (F, a, b)
                assert all(T.bars[pab[i]] == normal_form(bar_rule(x, a + b), space)
                           for i, x in enumerate(F.bars)), (F, a, b)
    assert len(seen) == len(shapes) and repeated >= 25, (seen, repeated)


class TestInvariants:
    def test_rgamma_invariance(self, rng):
        for _ in range(60):
            F = rand_barcode(rng)
            a = rand_shift(rng)
            T = thicken(F, a)
            assert global_sections(T) == global_sections(F)
            assert global_sections_c(T) == global_sections_c(F)

    def test_duality_square(self, rng):
        for _ in range(60):
            F = rand_barcode(rng)
            a = rand_fraction(rng)
            assert dualize(thicken(F, a)) == thicken(dualize(F), -a)

    def test_support_growth(self, rng):
        for _ in range(40):
            F = rand_barcode(rng, max_bars=4)
            a = rand_shift(rng)
            T = thicken(F, a)
            for tb in T.bars:
                ok = False
                for ob in F.bars:
                    lo = ob.iv.left - a if is_finite(ob.iv.left) else ob.iv.left
                    hi = ob.iv.right + a if is_finite(ob.iv.right) else ob.iv.right
                    if lo <= tb.iv.left and tb.iv.right <= hi:
                        ok = True
                assert ok, (F, a, tb)

    def test_locally_constant_absorption(self, rng):
        kR = gb(bar(full_line(), 0))
        for _ in range(30):
            F = rand_barcode(rng, max_bars=4)
            a = rand_shift(rng)
            assert thicken(kR.direct_sum(F), a) == kR.direct_sum(thicken(F, a))


class TestConvolution:
    def test_examples(self):
        assert convolution_ball(gb(bar(closed(0, 2))), 1) == gb(bar(closed(-1, 3)))
        assert convolution_ball(gb(bar(open_iv(0, 4))), 2) == gb(bar(singleton(2), 1))

    def test_zero(self, rng):
        for _ in range(20):
            F = rand_barcode(rng)
            assert convolution_ball(F, 0) == F

    def test_agreement_with_rules(self, rng):
        for _ in range(80):
            F = rand_barcode(rng)
            a = rand_shift(rng)
            assert convolution_ball(F, a) == thicken(F, a)


# ---------------------------------------------------------------------------
# The frame-native bulk transforms against the per-bar oracles.

def _primes(start, count):
    """The first ``count`` primes past ``start``: a sieve of Eratosthenes
    up to a bound that doubles until it holds them."""
    hi = start + 16 * count + 100
    while True:
        sieve = bytearray([1]) * (hi + 1)
        for q in range(2, int(hi ** 0.5) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, hi + 1, q)))
        out = [n for n in range(max(start + 1, 2), hi + 1) if sieve[n]]
        if len(out) >= count:
            return out[:count]
        hi *= 2


def _coprime_barcode(rng, n, primes, char):
    """n random bars of every shape whose finite ends have pairwise coprime
    denominators, one prime each, so that a few ends put the frame past
    2^64 when the primes are large."""
    dens = iter(primes)
    bars = []
    for _ in range(n):
        b = mixed_bar(rng, (1,))
        iv = b.iv
        lo, hi = (x if x in (NEG_INF, POS_INF) else x + Fr(1, next(dens))
                  for x in (iv.left, iv.right))
        if iv.left == iv.right:
            hi = lo
        bars.append(Bar(Interval(lo, iv.lkind, hi, iv.rkind), b.degree))
    return GradedBarcode(bars, char)


def _frame_barcodes(rng, p):
    """Barcodes on both sides of the 16 bars at which ``bar_frame`` leaves
    the identity frame: every shape, moved along the line and repeated;
    random bars of every shape over small denominators, ties included; and
    bars with pairwise coprime denominators, one frame past 2^64."""
    shapes = [Bar(Interval(iv.left + k, iv.lkind, iv.right + k, iv.rkind), d)
              for k in (0, 3) for d in (0, 1) for iv in SHAPE_REPRESENTATIVES]
    yield GradedBarcode(shapes, p)
    yield GradedBarcode(shapes[:10], p)
    for n in (0, 1, 2, 15, 16, 17, 60):
        yield GradedBarcode([mixed_bar(rng, (1, 2, 3, 8)) for _ in range(n)], p)
    big = _coprime_barcode(rng, 40, _primes(10 ** 6, 80), p)
    assert math.lcm(*(x.denominator for x in big.finite_endpoints())) > 2 ** 64
    yield big
    yield _coprime_barcode(rng, 12, _primes(100, 24), p)


# 0, shifts both ways past the lengths of many bars (a closed bar shorter
# than 14 turns into an open gap at -7), and odd denominators
FRAME_SHIFTS = [Fr(0), Fr(1, 2), Fr(3), Fr(-1, 3), Fr(-5, 2), Fr(-7), Fr(9, 7)]


def _assert_checked(G):
    """Every interval of G is a plain ``Interval`` of Fractions and
    infinities that the checked constructor rebuilds equal."""
    for b in G.bars:
        iv = b.iv
        assert type(iv) is Interval, b
        assert all(type(x) is Fr or x in (NEG_INF, POS_INF)
                   for x in (iv.left, iv.right)), b
        assert Interval(iv.left, iv.lkind, iv.right, iv.rkind) == iv, b


@pytest.mark.parametrize("p", [2, 3, 5])
class TestFrameNative:
    """``thicken`` and ``dualize`` run their rules on the rows of one frame
    and read the ends back unchecked; the per-bar oracles build every
    interval checked and sort with the checked constructor."""

    def test_thicken_matches_the_per_bar_oracle(self, p):
        rng = random.Random(50 + p)
        for F in _frame_barcodes(rng, p):
            for a in FRAME_SHIFTS:
                got = thicken(F, a)
                assert got == thicken_per_bar(F, a), (F, a)
                assert got.char == p
                _assert_checked(got)

    def test_dualize_matches_the_per_bar_oracle(self, p):
        rng = random.Random(60 + p)
        for F in _frame_barcodes(rng, p):
            got = dualize(F)
            assert got == dualize_per_bar(F), F
            _assert_checked(got)
            assert dualize(got) == F

    def test_laws_hold_in_the_frame(self, p):
        rng = random.Random(70 + p)
        collapsed = 0
        for F in _frame_barcodes(rng, p):
            for a in FRAME_SHIFTS:
                T = thicken(F, a)
                assert dualize(T) == thicken(dualize(F), -a), (F, a)
                # a closed bar turned into an open gap comes back
                assert thicken(T, -a) == F, (F, a)
                collapsed += sum(iv.is_bounded and iv.lkind is CLOSED
                                 and iv.rkind is CLOSED and iv.length < -2 * a
                                 for iv in (b.iv for b in F.bars))
                for b in (Fr(1, 4), Fr(-3)):
                    assert thicken(T, b) == thicken(F, a + b), (F, a, b)
        assert collapsed > 0


def test_a_huge_frame_thickens_in_oracle_time():
    """1,000 bars with pairwise coprime denominators: their frame has over
    20,000 bits, so ``thicken`` stays in the identity frame, on the
    Fractions, and takes about as long as the per-bar oracle (best of
    three, with room for noise).  Scaled into that frame and read back
    through a big-int gcd per end, it takes over twice as long."""
    F = _coprime_barcode(random.Random(9), 1000, _primes(10 ** 5, 2000), 3)
    assert math.lcm(*(x.denominator for x in F.finite_endpoints())
                    ).bit_length() > 20000
    a = Fr(1, 3)

    def best(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            out = fn(F, a)
            times.append(time.perf_counter() - start)
        return min(times), out

    fast, got = best(thicken)
    slow, want = best(thicken_per_bar)
    assert got == want
    assert fast < 1.5 * slow, (fast, slow)
