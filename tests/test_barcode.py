"""Barcode core: canonical forms, global sections, duality."""

import copy
import dataclasses
import math
import pickle
import random
import re
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPE_REPRESENTATIVES, bar, gb, mixed_bar
from thicket.barcode import (CLOSED, OPEN, Bar, CharacteristicMismatchError,
                             GradedBarcode, Interval, InvalidIntervalError,
                             bar_frame, canonical_indices, canonical_order,
                             canonicalize, closed,
                             dims_add, dualize,
                             dualize_bar, full_line, global_sections,
                             global_sections_c, half_open, half_open_r,
                             intersect, iso_equal, open_iv, ray_left,
                             ray_right, singleton, stalk_dims,
                             trusted_interval)
from thicket.circle import CircleSheaf
from thicket.corpus import rand_interval
from thicket.fieldmath import check_char
from thicket.model import LineModel, line_bar_rep, rep_sections
from thicket.morphisms import hom_dim
from thicket.scalars import NEG_INF, POS_INF, FrameReader, int_frame


class TestCanonicalize:
    def test_identity_case(self):
        F = canonicalize([bar(closed(0, 1))])
        assert F.bars == (bar(closed(0, 1)),)

    def test_multiset_multiplicity_retained(self):
        F = canonicalize([bar(closed(0, 1)), bar(closed(0, 1))])
        assert len(F) == 2

    def test_empty_open_singleton_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(Fr(1), OPEN, Fr(1), OPEN)

    def test_half_closed_singleton_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(Fr(1), CLOSED, Fr(1), OPEN)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(Fr(2), CLOSED, Fr(1), CLOSED)

    def test_closed_infinite_endpoint_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(float("-inf"), CLOSED, Fr(0), CLOSED)

    def test_idempotent(self):
        bars = [bar(open_iv(0, 3), 1), bar(singleton(2)), bar(ray_right(1))]
        once = canonicalize(bars)
        assert canonicalize(once.bars) == once

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            GradedBarcode([], char=4)

    @pytest.mark.parametrize("char", [0, 1, 4, 65535, 65537, 10**16 + 61])
    def test_one_characteristic_check(self, char):
        """Barcodes, circle sheaves and Hom dimensions refuse a
        characteristic with one message: it must be a prime below 2^16."""
        message = (f"field characteristic must be prime and below 65536, "
                   f"got {char}")
        for build in (lambda: GradedBarcode([], char),
                      lambda: CircleSheaf(4, (), (), char),
                      lambda: hom_dim(bar(closed(0, 1)), bar(closed(0, 1)),
                                      char)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
        assert check_char(65521) == 65521

    def test_each_characteristic_is_divided_out_once(self):
        """A second barcode over F_65521 reads the checked prime from the
        cache and runs no trial division."""
        GradedBarcode([bar(closed(0, 1))], 65521)
        before = check_char.cache_info()
        GradedBarcode([bar(closed(0, 1))], 65521)
        after = check_char.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1


class TestValueTypes:
    """Interval and Bar are slotted frozen dataclasses: no per-instance
    dict, and otherwise the value semantics of the unslotted ones."""

    @pytest.mark.parametrize("value, other", [
        (closed(0, 1), open_iv(0, 1)), (ray_left(Fr(1, 2), OPEN), full_line()),
        (bar(open_iv(Fr(-1, 3), 2), 3), bar(open_iv(Fr(-1, 3), 2), 2)),
        (bar(ray_right(0), -1), bar(ray_right(0, OPEN), -1))])
    def test_frozen_hashable_picklable(self, value, other):
        assert not hasattr(value, "__dict__")
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        assert value != other
        twin = dataclasses.replace(value)
        assert twin == value and twin is not value
        assert hash(twin) == hash(value) and len({twin, value, other}) == 2
        for copied in (pickle.loads(pickle.dumps(value)),
                       copy.deepcopy(value), copy.copy(value)):
            assert copied == value and hash(copied) == hash(value)
            assert type(copied) is type(value)


class TestTrustedInterval:
    """``trusted_interval`` builds, without the checks, the same value the
    checked constructor builds."""

    @pytest.mark.parametrize("iv", SHAPE_REPRESENTATIVES, ids=str)
    def test_equals_the_checked_interval(self, iv):
        got = trusted_interval(iv.left, iv.lkind, iv.right, iv.rkind)
        assert type(got) is Interval and got == iv and hash(got) == hash(iv)
        assert str(got) == str(iv) and got.sort_key() == iv.sort_key()
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.left = iv.left
        assert pickle.loads(pickle.dumps(got)) == iv

    def test_it_is_the_one_unchecked_constructor(self):
        """No other package function creates an ``Interval`` past its
        ``__init__`` (``object.__new__`` on it, or a write through its slot
        descriptors), and the one subclass that replaces its checks is
        ``FramedInterval``, whose int ends never equal a checked
        interval's."""
        import ast
        import pathlib
        import thicket

        def enclosing(tree):
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                    for node in ast.walk(fn):
                        yield fn.name, node

        unchecked, no_checks = set(), set()
        for path in pathlib.Path(thicket.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for name, node in enclosing(tree):
                if isinstance(node, ast.Attribute) and node.attr == "__set__" \
                        or isinstance(node, ast.Name) and node.id == "_SET_ENDS" \
                        or isinstance(node, ast.Call) and any(
                            isinstance(a, ast.Name) and a.id == "Interval"
                            for a in node.args) and "new" in ast.unparse(node.func):
                    unchecked.add((path.stem, name))
                if isinstance(node, ast.ClassDef) and any(
                        isinstance(b, ast.Name) and b.id == "Interval"
                        for b in node.bases) and any(
                        isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                        for f in node.body):
                    no_checks.add((path.stem, node.name))
        assert unchecked == {("barcode", "trusted_interval")}
        assert no_checks == {("barcode", "FramedInterval")}


class TestIsoEqual:
    def test_reflexive(self):
        F = gb(bar(closed(0, 1)), bar(open_iv(0, 2), 1))
        assert iso_equal(F, F)

    def test_distinct_canonical_forms(self):
        assert not iso_equal(gb(bar(closed(0, 1))), gb(bar(open_iv(0, 1))))

    def test_direct_sum_commutes(self):
        F = gb(bar(closed(0, 1)))
        G = gb(bar(open_iv(2, 3), 1))
        assert iso_equal(F.direct_sum(G), G.direct_sum(F))

    def test_characteristic_mismatch(self):
        with pytest.raises(CharacteristicMismatchError):
            iso_equal(gb(char=2), gb(char=3))


# Frozen from the section-complex oracle below: degree-offset of RGamma and
# RGamma_c per shape class.
RGAMMA_TABLE = {
    "closed": {0: 1}, "open": {1: 1}, "ho": {}, "oh": {},
    "point": {0: 1}, "rayr_c": {0: 1}, "rayr_o": {}, "rayl_c": {0: 1},
    "rayl_o": {}, "line": {0: 1},
}
RGAMMA_C_TABLE = {
    "closed": {0: 1}, "open": {1: 1}, "ho": {}, "oh": {},
    "point": {0: 1}, "rayr_c": {}, "rayr_o": {1: 1}, "rayl_c": {},
    "rayl_o": {1: 1}, "line": {1: 1},
}
SHAPES = {
    "closed": closed(0, 2), "open": open_iv(0, 2), "ho": half_open(0, 2),
    "oh": half_open_r(0, 2), "point": singleton(1),
    "rayr_c": ray_right(0, CLOSED), "rayr_o": ray_right(0, OPEN),
    "rayl_c": ray_left(0, CLOSED), "rayl_o": ray_left(0, OPEN),
    "line": full_line(),
}


class TestGlobalSections:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_table_certified_by_section_complex(self, name):
        iv = SHAPES[name]
        model = LineModel([x for x in (iv.left, iv.right)
                           if isinstance(x, Fr)] or [0])
        rep = line_bar_rep(model, iv)
        h0, h1 = rep_sections(rep, compact=False)
        expected = {d: n for d, n in ((0, h0), (1, h1)) if n}
        assert global_sections(gb(bar(iv))) == expected == RGAMMA_TABLE[name]
        h0c, h1c = rep_sections(rep, compact=True)
        expected_c = {d: n for d, n in ((0, h0c), (1, h1c)) if n}
        assert global_sections_c(gb(bar(iv))) == expected_c == RGAMMA_C_TABLE[name]

    def test_closed_interval(self):
        assert global_sections(gb(bar(closed(0, 1)))) == {0: 1}

    def test_open_interval(self):
        assert global_sections(gb(bar(open_iv(0, 1)))) == {1: 1}

    def test_empty_barcode(self):
        assert global_sections(gb()) == {}
        assert global_sections_c(gb()) == {}

    def test_compact_examples(self):
        assert global_sections_c(gb(bar(closed(0, 1)))) == {0: 1}
        assert global_sections_c(gb(bar(ray_right(0)))) == {}
        assert global_sections_c(gb(bar(full_line()))) == {1: 1}

    def test_additive(self, rng):
        from thicket.corpus import rand_barcode
        for _ in range(40):
            F = rand_barcode(rng)
            G = rand_barcode(rng)
            s = F.direct_sum(G)
            assert global_sections(s) == dims_add(global_sections(F),
                                                  global_sections(G))
            assert global_sections_c(s) == dims_add(global_sections_c(F),
                                                    global_sections_c(G))

    def test_bounded_bars_agree(self):
        for iv in (closed(0, 2), open_iv(0, 2), half_open(0, 2),
                   half_open_r(0, 2), singleton(1)):
            F = gb(bar(iv, 3))
            assert global_sections(F) == global_sections_c(F)


class TestDualize:
    def test_closed_to_open(self):
        assert dualize(gb(bar(closed(0, 1)))) == gb(bar(open_iv(0, 1)))

    def test_half_open_flip(self):
        assert dualize(gb(bar(half_open(0, 1)))) == gb(bar(half_open_r(0, 1)))

    def test_point_degree_shift(self):
        # the dual of a point sheaf is the point sheaf shifted by one
        assert dualize_bar(bar(singleton(2), 0)) == bar(singleton(2), 1)
        assert dualize_bar(bar(singleton(2), 1)) == bar(singleton(2), 0)

    def test_involution_examples(self):
        F = gb(bar(closed(0, 1), 2), bar(half_open(0, 1), -1),
               bar(singleton(3), 1), bar(ray_right(0, OPEN), 0),
               bar(full_line(), 1))
        assert dualize(dualize(F)) == F

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-2, 3), st.integers(0, len(SHAPE_REPRESENTATIVES) - 1))
    def test_involution_property(self, degree, shape_idx):
        F = gb(bar(SHAPE_REPRESENTATIVES[shape_idx], degree))
        assert dualize(dualize(F)) == F

    def test_ray_flip(self):
        assert dualize_bar(bar(ray_right(0, CLOSED), 0)) == bar(ray_right(0, OPEN), 0)


class TestIntervalOps:
    def test_intersect_kinds(self):
        got = intersect(closed(0, 2), open_iv(1, 3))
        assert got == Interval(Fr(1), OPEN, Fr(2), CLOSED)

    def test_intersect_empty(self):
        assert intersect(closed(0, 1), closed(2, 3)) is None
        assert intersect(open_iv(0, 1), singleton(1)) is None

    def test_stalk_dims(self):
        F = gb(bar(closed(0, 2)), bar(open_iv(0, 2), 1))
        assert stalk_dims(F, Fr(0)) == {0: 1}
        assert stalk_dims(F, Fr(1)) == {0: 1, 1: 1}


class TestEquivalenceRelation:
    def test_iso_equal_equivalence(self, rng):
        from thicket.corpus import rand_barcode
        pool = [rand_barcode(rng, max_bars=3) for _ in range(12)]
        pool += [GradedBarcode(F.bars, F.char) for F in pool[:4]]
        for F in pool:
            assert iso_equal(F, F)
            for G in pool:
                assert iso_equal(F, G) == iso_equal(G, F)
                for H in pool:
                    if iso_equal(F, G) and iso_equal(G, H):
                        assert iso_equal(F, H)


# ---------------------------------------------------------------------------
# Interval validation, shape predicates and the canonical order.

def _rejection(left, lkind, right, rkind):
    """The error class and message of a rejected interval, or None."""
    try:
        Interval(left, lkind, right, rkind)
    except InvalidIntervalError as exc:
        return type(exc), str(exc)
    return None


class TestIntervalValidation:
    @pytest.mark.parametrize("args, message", [
        ((Fr(2), CLOSED, Fr(1), CLOSED), "empty interval: [2, 1]"),
        ((Fr(2), CLOSED, Fr(-1, 3), OPEN), "empty interval: [2, -1/3)"),
        ((Fr(1), OPEN, Fr(1), OPEN), "empty degenerate interval: (1, 1)"),
        ((Fr(1), CLOSED, Fr(1), OPEN), "empty degenerate interval: [1, 1)"),
        ((Fr(1), OPEN, Fr(1), CLOSED), "empty degenerate interval: (1, 1]"),
        ((NEG_INF, CLOSED, Fr(0), CLOSED),
         "infinite endpoint must be open: [-inf, 0]"),
        ((Fr(0), OPEN, POS_INF, CLOSED),
         "infinite endpoint must be open: (0, +inf]"),
        ((POS_INF, CLOSED, Fr(1), OPEN),
         "infinite endpoint must be open: [+inf, 1)"),
        ((POS_INF, OPEN, Fr(0), CLOSED), "empty interval: (+inf, 0]"),
        ((Fr(0), CLOSED, NEG_INF, OPEN), "empty interval: [0, -inf)"),
        ((POS_INF, OPEN, POS_INF, OPEN), "empty interval: (+inf, +inf)"),
        ((NEG_INF, OPEN, NEG_INF, OPEN), "empty interval: (-inf, -inf)"),
        ((POS_INF, OPEN, NEG_INF, OPEN), "empty interval: (+inf, -inf)"),
        ((2, CLOSED, 1, OPEN), "empty interval: [2, 1)"),
    ])
    def test_rejection_class_and_message(self, args, message):
        with pytest.raises(InvalidIntervalError, match=f"^{re.escape(message)}$"):
            Interval(*args)

    def test_int_endpoints_accepted(self):
        iv = Interval(0, CLOSED, 1, OPEN)
        assert iv == half_open(0, 1)
        assert type(iv.left) is Fr and type(iv.right) is Fr
        assert Interval(3, CLOSED, 3, CLOSED) == singleton(3)
        assert Interval(NEG_INF, OPEN, -2, CLOSED) == ray_left(-2)

    def test_agrees_with_direct_comparisons(self):
        # the comparison-based definition the cross-multiplied test replaces
        def reference(left, lkind, right, rkind):
            iv = f"{'[' if lkind is CLOSED else '('}{left}, {right}" \
                 f"{']' if rkind is CLOSED else ')'}"
            if (not isinstance(left, Fr) and lkind is not OPEN) or \
                    (not isinstance(right, Fr) and rkind is not OPEN):
                return "infinite endpoint must be open"
            if left > right or (left == right and not isinstance(left, Fr)):
                return "empty interval"
            if left == right and (lkind is not CLOSED or rkind is not CLOSED):
                return "empty degenerate interval"
            return None

        rng = random.Random(5)
        values = [NEG_INF, POS_INF] + [Fr(n, d) for n in range(-7, 8)
                                       for d in (1, 3, 7, 12)]
        for _ in range(3000):
            args = (rng.choice(values), rng.choice((CLOSED, OPEN)),
                    rng.choice(values), rng.choice((CLOSED, OPEN)))
            got = _rejection(*args)
            want = reference(*args)
            if want is None:
                assert got is None, args
            else:
                assert got is not None and got[0] is InvalidIntervalError, args
                assert got[1].startswith(want + ": "), (args, got)


class TestShapePredicates:
    def test_match_infinity_comparisons(self):
        rng = random.Random(11)
        for _ in range(500):
            iv = rand_interval(rng)
            assert iv.is_full_line == (iv.left == NEG_INF and iv.right == POS_INF)
            assert iv.is_left_ray == (iv.left == NEG_INF and iv.right != POS_INF)
            assert iv.is_right_ray == (iv.left != NEG_INF and iv.right == POS_INF)
            assert iv.is_bounded == (iv.left != NEG_INF and iv.right != POS_INF)


class TestCanonicalOrder:
    @staticmethod
    def _same(bars):
        got = canonical_order(bars)
        want = sorted(bars, key=Bar.sort_key)
        # identical objects, in the same order: equal bars keep their order
        assert len(got) == len(want)
        assert all(x is y for x, y in zip(got, want))

    def test_matches_sort_key_on_random_lists(self):
        rng = random.Random(3)
        for n in (0, 1, 2, 5, 40, 400):
            for _ in range(10):
                bars = [mixed_bar(rng, (1, 3, 7, 12)) for _ in range(n)]
                # equal bars built separately test the stability
                bars += [Bar(Interval(b.iv.left, b.iv.lkind, b.iv.right,
                                      b.iv.rkind), b.degree)
                         for b in bars[:n // 4]]
                rng.shuffle(bars)
                self._same(bars)

    def test_mixed_denominators_close_together(self):
        vals = [Fr(1, 3), Fr(1, 7), Fr(5, 12), Fr(-1, 3), Fr(-5, 12), Fr(0)]
        bars = [Bar(Interval(x, k1, y, k2), 0)
                for x in vals for y in vals if x < y
                for k1 in (CLOSED, OPEN) for k2 in (CLOSED, OPEN)]
        bars += [Bar(singleton(x), 0) for x in vals]
        random.Random(1).shuffle(bars)
        self._same(bars)

    def test_large_lcm_takes_the_fallback(self, monkeypatch):
        primes = [1000003, 1000033, 1000037, 1000039]
        assert math.lcm(*primes).bit_length() > 64
        bars = [Bar(closed(Fr(k, q), Fr(k + 1, 2)), 0)
                for k, q in enumerate(primes, start=1)]
        bars += [Bar(ray_right(Fr(1, q)), 1) for q in primes]
        bars += [Bar(singleton(k), 0) for k in range(12)]
        bars.append(Bar(full_line(), 1))
        random.Random(2).shuffle(bars)
        calls = []
        original = Bar.sort_key
        monkeypatch.setattr(Bar, "sort_key",
                            lambda b: calls.append(b) or original(b))
        got = canonical_order(bars)
        assert len(calls) == len(bars)
        monkeypatch.undo()
        assert got == sorted(bars, key=Bar.sort_key)

    def test_integer_keys_on_long_lists(self, monkeypatch):
        bars = [Bar(closed(Fr(k, 3), Fr(k, 3) + Fr(5, 12)), 0)
                for k in range(20, 0, -1)]
        monkeypatch.setattr(Bar, "sort_key", None)
        assert canonical_order(bars) == bars[::-1]


def _random_bar_list(rng, n, denoms):
    """n random bars of every shape, infinite ends included, plus a quarter
    of them again as equal bars built separately, shuffled."""
    bars = [mixed_bar(rng, denoms) for _ in range(n)]
    bars += [Bar(Interval(b.iv.left, b.iv.lkind, b.iv.right, b.iv.rkind),
                 b.degree) for b in bars[:n // 4]]
    rng.shuffle(bars)
    return bars


@pytest.mark.parametrize("p", [2, 3, 5])
class TestCanonicalIndices:
    """``canonical_indices`` is the one home of the order: with and without
    ends given, against the stable sort on ``Bar.sort_key``."""

    @staticmethod
    def _want(bars):
        return sorted(range(len(bars)), key=lambda i: bars[i].sort_key())

    @staticmethod
    def _ends(bars):
        return int_frame([x for b in bars for x in (b.iv.left, b.iv.right)])

    @pytest.mark.parametrize("denoms", [(1, 3, 7, 12),
                                        (1000003, 1000033, 1000037, 1000039)])
    def test_matches_the_sort_key_order(self, p, denoms):
        rng = random.Random(100 * p + len(str(denoms[-1])))
        wide = 0
        for n in (0, 1, 2, 5, 8, 15, 16, 17, 40, 400):
            for _ in range(4):
                bars = _random_bar_list(rng, n, denoms)
                want = self._want(bars)
                assert canonical_indices(bars) == want
                m, ends = self._ends(bars)
                wide += m.bit_length() > 64
                assert canonical_indices(bars, ends) == want
                # the trusted constructor over the sorted bars is the
                # checked one over the bars
                assert (GradedBarcode._sorted(canonical_order(bars), p)
                        == GradedBarcode(bars, p))
        # the second pool's frames pass 2^64 once a list has a few ends
        assert (wide > 0) == (denoms[-1] > 1000)

    def test_ends_in_any_frame(self, p):
        # ends scaled by a further factor are in a frame too
        rng = random.Random(p)
        for _ in range(20):
            bars = _random_bar_list(rng, rng.randrange(30), (1, 2, 5))
            m, ends = int_frame([x for b in bars
                                 for x in (b.iv.left, b.iv.right)], factor=p)
            assert canonical_indices(bars, ends) == self._want(bars)

    def test_shift_keeps_the_order(self, p):
        rng = random.Random(7 * p)
        F = GradedBarcode(_random_bar_list(rng, 30, (1, 3)), p)
        for k in (-2, 0, 3):
            want = GradedBarcode([Bar(b.iv, b.degree + k) for b in F.bars], p)
            assert F.shift(k) == want and F.shift(k).bars == want.bars


class TestIntFrame:
    def test_empty_list_gives_the_factor(self):
        assert int_frame([]) == (1, [])
        assert int_frame([], factor=4) == (4, [])

    def test_infinities_pass_through(self):
        m, ints = int_frame([NEG_INF, Fr(1, 2), POS_INF, Fr(-2, 3)])
        assert m == 6 and ints == [NEG_INF, 3, POS_INF, -4]
        assert ints[0] is NEG_INF and ints[2] is POS_INF
        assert all(type(v) is int for v in ints[1::2])
        assert int_frame([NEG_INF, POS_INF]) == (1, [NEG_INF, POS_INF])

    def test_factor_multiplies_the_lcm(self):
        rng = random.Random(4)
        for _ in range(200):
            values = [Fr(rng.randint(-50, 50), rng.randint(1, 30))
                      for _ in range(rng.randrange(1, 8))]
            values.insert(rng.randrange(len(values) + 1), POS_INF)
            lcm = math.lcm(*(x.denominator for x in values if x != POS_INF))
            for factor in (1, 2, 4):
                m, ints = int_frame(values, factor)
                assert m == factor * lcm
                assert [x if x == POS_INF else Fr(v, m)
                        for x, v in zip(values, ints)] == values
                assert all(type(v) is int for x, v in zip(values, ints)
                           if x != POS_INF)


class TestFrames:
    def test_int_frame_past_max_bits_is_not_built(self):
        values = [Fr(1, 2 ** 40), Fr(1, 3 ** 20), POS_INF]
        assert int_frame(values, max_bits=71) is None
        m, ints = int_frame(values, max_bits=72)
        assert m == 2 ** 40 * 3 ** 20 and m.bit_length() == 72
        assert ints == [3 ** 20, 2 ** 40, POS_INF]
        assert int_frame([], max_bits=0) is None
        assert int_frame([NEG_INF], max_bits=1) == (1, [NEG_INF])

    def test_frame_reader_reads_each_value_once(self):
        back = FrameReader(12, [(6, Fr(1, 2))])
        assert back[6] == Fr(1, 2) and back[-8] == Fr(-2, 3)
        assert back[-8] is back[-8] and type(back[-8]) is Fr
        assert back[NEG_INF] is NEG_INF and back[POS_INF] is POS_INF
        assert len(back) == 4

    def test_bar_frame_leaves_the_identity_frame_at_sixteen_bars(self):
        rng = random.Random(5)
        for n in (0, 1, 15, 16, 17, 40):
            bars = [mixed_bar(rng, (1, 2, 3)) for _ in range(n)]
            ends = [x for b in bars for x in (b.iv.left, b.iv.right)]
            values, back = bar_frame(bars, Fr(1, 5))
            assert [back(v) for v in values] == ends + [Fr(1, 5)]
            if n < 16:
                assert values == ends + [Fr(1, 5)] and back(Fr(1, 7)) == Fr(1, 7)
            else:
                assert all(type(v) is int or v in (NEG_INF, POS_INF)
                           for v in values)
                assert values == int_frame(ends + [Fr(1, 5)])[1]

    def test_bar_frame_past_the_key_bits_is_the_identity(self):
        primes = [1000003, 1000033, 1000037, 1000039]
        bars = [Bar(closed(Fr(1, q), 2), 0) for q in primes] * 4
        values, back = bar_frame(bars)
        assert values == [x for b in bars for x in (b.iv.left, b.iv.right)]
        assert all(back(v) is v for v in values)


def test_only_scalars_scales_over_a_common_denominator():
    """``scalars.int_frame`` is the one place where rationals are scaled
    over the lcm of their denominators: no other package module takes an
    lcm of denominators or divides a frame by a denominator."""
    import ast
    import pathlib
    import thicket

    def scales(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) \
                    and isinstance(node.right, ast.Attribute) \
                    and node.right.attr == "denominator":
                yield "// denominator"
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", getattr(node.func, "attr", "")) == "lcm" \
                    and any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                            for a in node.args for n in ast.walk(a)):
                yield "lcm of denominators"

    found = {}
    for path in pathlib.Path(thicket.__file__).parent.glob("*.py"):
        hits = list(scales(ast.parse(path.read_text())))
        if hits:
            found[path.stem] = sorted(set(hits))
    assert found == {"scalars": ["// denominator", "lcm of denominators"]}
