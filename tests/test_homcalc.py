"""Hom calculus: dimensions, composition, functoriality, the quiver oracle."""

import random
from fractions import Fraction as Fr

import pytest

from conftest import bar, gb, pooled_interval
from oracles import poset_oracle_rhom, quiver_struct_scalar
from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                             closed, dualize_bar, full_line, half_open,
                             half_open_r, intersect, open_iv, ray_left,
                             ray_right, singleton)
from thicket.corpus import rand_barcode
from thicket.model import RepPair
from thicket.morphisms import (LINE, Morphism, UnsupportedHomError, bar_rep,
                               block_dim, build_model, compose, hom_dim,
                               identity_morphism, indexed, restriction,
                               shape_key,
                               space_dim, struct_scalar, thicken_indexed,
                               thicken_morphism, zero_morphism)
from thicket.scalars import is_finite
from thicket.thicken import bar_rule, thicken


def _grid_intervals(vals=(0, 1, 2, 3)):
    out = [full_line()]
    for v in vals:
        out += [singleton(v), ray_right(v, CLOSED), ray_right(v, OPEN),
                ray_left(v, CLOSED), ray_left(v, OPEN)]
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            out += [closed(x, y), open_iv(x, y), half_open(x, y),
                    half_open_r(x, y)]
    return out


GRID_INTERVALS = _grid_intervals()


class TestHomDim:
    def test_identity_block(self):
        b = bar(closed(0, 1))
        assert hom_dim(b, b).dimension == 1

    def test_disjoint_supports(self):
        assert hom_dim(bar(closed(0, 1)), bar(closed(2, 3))).dimension == 0

    def test_nested_closed_restriction(self):
        assert hom_dim(bar(closed(0, 4)), bar(closed(1, 3))).dimension == 1
        assert hom_dim(bar(closed(1, 3)), bar(closed(0, 4))).dimension == 0

    def test_shifted_closed_vanishes(self):
        # sheaf maps between shifted closed intervals vanish; the nonzero
        # overlap map lives on the half-open translates instead
        assert hom_dim(bar(closed(0, 2)), bar(closed(1, 3))).dimension == 0
        assert hom_dim(bar(half_open(0, 2)), bar(half_open(1, 3))).dimension == 1

    def test_open_inclusion(self):
        assert hom_dim(bar(open_iv(1, 2)), bar(open_iv(0, 3))).dimension == 1
        assert hom_dim(bar(open_iv(0, 3)), bar(open_iv(1, 2))).dimension == 0

    def test_evaluation_at_interior_point(self):
        assert hom_dim(bar(closed(0, 2)), bar(singleton(1))).dimension == 1
        assert hom_dim(bar(singleton(1)), bar(closed(0, 2))).dimension == 0

    def test_ext_blocks(self):
        assert hom_dim(bar(singleton(2), 1), bar(open_iv(0, 4), 0)).dimension == 1
        assert hom_dim(bar(closed(0, 4), 1), bar(open_iv(0, 4), 0)).dimension == 1
        assert hom_dim(bar(singleton(2), 0), bar(open_iv(0, 4), 0),).offset == 0

    def test_off_range_offsets_vanish(self):
        assert hom_dim(bar(closed(0, 1), 0), bar(closed(0, 1), 2)).dimension == 0
        assert hom_dim(bar(closed(0, 1), 0), bar(closed(0, 1), -1)).dimension == 0

    @pytest.mark.parametrize("char", [4, 1, 0, -3])
    def test_characteristic_must_be_prime(self, char):
        with pytest.raises(ValueError, match="must be prime"):
            hom_dim(bar(closed(0, 2)), bar(singleton(1)), char)


def _closed_form_hom0(I, J):
    """The closed-form Hom^0 rule for interval sheaves in one degree:
    Hom(k_I, k_J) is one-dimensional exactly when K = I meet J is not
    empty, K is closed in I (each open end of K is the same end of I) and
    K is open in J (each closed end of K is the same end of J); else 0.
    An infinite end is open, and the same end of both intervals."""
    K = intersect(I, J)
    if K is None:
        return 0
    for end in ((K.left, K.lkind, I.left, I.lkind, J.left, J.lkind),
                (K.right, K.rkind, I.right, I.rkind, J.right, J.rkind)):
        k, kind, i, ikind, j, jkind = end
        if (k, kind) != ((i, ikind) if kind is OPEN else (j, jkind)):
            return 0
    return 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom0_closed_form_on_the_interval_grid(p):
    """The closed-form Hom^0 rule, written here from ``intersect``, against
    the quiver model (``poset_oracle_rhom``) and against ``hom_dim`` on all
    2,025 ordered pairs of the 45 intervals with ends in {-inf, 0, 1, 2, 3,
    +inf}."""
    assert len(GRID_INTERVALS) == 45
    ones = 0
    for I in GRID_INTERVALS:
        for J in GRID_INTERVALS:
            want = _closed_form_hom0(I, J)
            rhom = poset_oracle_rhom(gb(bar(I), char=p), gb(bar(J), char=p))
            assert rhom.get(0, 0) == want, (I, J, rhom)
            assert hom_dim(bar(I), bar(J), char=p).dimension == want, (I, J)
            ones += want
    assert 0 < ones < 2025, ones


# ---------------------------------------------------------------------------
# The closed-form line rules against the quiver model, on every order type.

# The 91 intervals with ends in {-inf, 0, ..., 5, +inf}: a pair has at most
# four finite ends and a triple six, so this grid holds every order type of
# a pair and of a triple, with every kind at every end.
GRID_91 = _grid_intervals(range(6))


def _quiver_dims(p, I, J):
    """(dim Hom^0, dim Ext^1) of k_I -> k_J in the quiver model of the pair."""
    model = build_model(LINE, [I, J])
    rp = RepPair(bar_rep(LINE, model, I, p), bar_rep(LINE, model, J, p))
    return rp.hom_dim, rp.ext_dim


def _outcome(fn, *args):
    """The result of a structure-constant call, or the error it raised:
    ``unsupported``, or the text of another ``ValueError``."""
    try:
        return fn(*args)
    except UnsupportedHomError:
        return "unsupported"
    except ValueError as exc:
        return f"error: {exc}"


class TestLineRulesAgainstQuiver:
    """``space_dim`` and ``struct_scalar`` on the line read closed-form rules
    of endpoint order; the quiver model is their oracle.  The quiver depends
    on the order type of its intervals alone, so it runs once per
    ``shape_key`` class, and the rules run on every member of the class."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pair_dims_on_every_order_type(self, p):
        assert len(GRID_91) == 91
        oracle = {}
        for I in GRID_91:
            for J in GRID_91:
                key = shape_key((I, J))
                if key not in oracle:
                    oracle[key] = _quiver_dims(p, I, J)
                got = (space_dim(LINE, I, J, "h", p),
                       space_dim(LINE, I, J, "e", p))
                assert got == oracle[key], (I, J)
        assert len(oracle) == 502
        assert {dims for dims in oracle.values()} == {(0, 0), (1, 0), (0, 1)}

    @pytest.mark.parametrize("grid, p, triples, types", [
        (GRID_91, 3, 117376, 9232),
        (GRID_INTERVALS, 2, 15889, 6144),
        (GRID_INTERVALS, 5, 15889, 6144)])
    def test_triples_with_nonzero_factors(self, grid, p, triples, types):
        # every (A, B, C) and kinds hh, he, eh whose two factor spaces are
        # nonzero; the factor tables are the rules, checked on pairs above
        n = len(grid)
        table = {k: [[space_dim(LINE, I, J, k, p) for J in grid] for I in grid]
                 for k in "he"}
        oracle, seen, count = {}, set(), 0
        for kinds in ("hh", "he", "eh"):
            first, second = table[kinds[0]], table[kinds[1]]
            for a in range(n):
                for b in range(n):
                    if not first[a][b]:
                        continue
                    for c in range(n):
                        if not second[b][c]:
                            continue
                        count += 1
                        A, B, C = grid[a], grid[b], grid[c]
                        key = (kinds, shape_key((A, B, C)))
                        if key not in oracle:
                            oracle[key] = _outcome(quiver_struct_scalar, LINE,
                                                   p, A, B, C, *kinds)
                        got = _outcome(struct_scalar, LINE, p, A, B, C, *kinds)
                        assert got == oracle[key], (kinds, A, B, C)
                        seen.add(got)
        assert (count, len(oracle)) == (triples, types)
        assert seen == {("h", 0), ("h", 1), ("e", 0), ("e", 1), ("e", p - 1)}

    def test_zero_factor_triples_raise_like_the_quiver(self):
        # a seeded sample of triples with a zero factor space, at p = 2, 3, 5
        rng = random.Random(25)
        oracle, seen, count = {}, set(), 0
        while count < 5000:
            p, kinds = rng.choice((2, 3, 5)), rng.choice(("hh", "he", "eh"))
            A, B, C = (rng.choice(GRID_91) for _ in range(3))
            if (space_dim(LINE, A, B, kinds[0], p)
                    and space_dim(LINE, B, C, kinds[1], p)):
                continue
            count += 1
            key = (p, kinds, shape_key((A, B, C)))
            if key not in oracle:
                oracle[key] = _outcome(quiver_struct_scalar, LINE, p, A, B, C,
                                       *kinds)
            got = _outcome(struct_scalar, LINE, p, A, B, C, *kinds)
            assert got == oracle[key], (p, kinds, A, B, C)
            seen.add(got)
        assert seen == {"unsupported", "error: ext space is zero", ("e", 0)}


class TestPosetOracle:
    def test_endomorphisms_of_interval(self):
        F = gb(bar(closed(0, 1)))
        assert poset_oracle_rhom(F, F) == {0: 1}

    def test_open_to_interior_point(self):
        assert poset_oracle_rhom(gb(bar(open_iv(0, 1))),
                                 gb(bar(singleton(Fr(1, 2))))) == {0: 1}

    def test_zero_source(self):
        assert poset_oracle_rhom(gb(), gb(bar(closed(0, 1)))) == {}

    def test_shifted_summands(self):
        F = gb(bar(singleton(2), 1))
        G = gb(bar(open_iv(0, 4), 0))
        assert poset_oracle_rhom(F, G) == {0: 1}   # Ext^1 lands in degree 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hom_dim_exhaustive_on_shape_grid(self, p):
        # every ordered pair of the 45 intervals with endpoints in
        # {0, 1, 2, 3} (all kinds, rays, the full line), at both degree
        # offsets; hom_dim reads the closed-form rules, the oracle computes
        # each pair in the quiver model, and its degree `off` holds Hom^0
        # for offset 0 and Ext^1 for offset 1
        assert len(GRID_INTERVALS) == 45
        for ivA in GRID_INTERVALS:
            for ivB in GRID_INTERVALS:
                rhom = poset_oracle_rhom(gb(bar(ivA), char=p),
                                         gb(bar(ivB), char=p))
                for off in (0, 1):
                    hs = hom_dim(bar(ivA, off), bar(ivB), char=p)
                    assert (hs.offset, hs.dimension) == (off, rhom.get(off, 0)), \
                        (ivA, ivB, off, rhom)

    def test_agreement_on_grid(self, rng):
        # hom_dim vs live oracle on random grid bar pairs;
        # a block of offset k contributes to RHom in degree (tgt - src) + k
        from thicket.corpus import grid_bar_pool
        pool = grid_bar_pool()
        for _ in range(120):
            b1, b2 = rng.choice(pool), rng.choice(pool)
            hs = hom_dim(b1, b2)
            if hs.offset not in (0, 1):
                continue
            d = poset_oracle_rhom(gb(b1), gb(b2))
            n = (b2.degree - b1.degree) + hs.offset
            assert hs.dimension == d.get(n, 0), (b1, b2, d)


class TestCompose:
    def test_identity_unital(self, rng):
        F = gb(bar(closed(0, 4)))
        G = gb(bar(closed(1, 3)))
        m = Morphism(F, G, {(0, 0): 1})
        assert compose(identity_morphism(F), m) == m
        assert compose(m, identity_morphism(G)) == m

    def test_zero_middle(self):
        F = gb(bar(closed(0, 4)))
        G = gb(bar(closed(1, 3)))
        Z = gb()
        assert compose(zero_morphism(F, Z), zero_morphism(Z, G)).is_zero()

    def test_restriction_transitivity(self, rng):
        for _ in range(25):
            F = rand_barcode(rng, max_bars=3)
            vals = sorted(abs(x) for x in (Fr(1, 4), Fr(3, 4), Fr(7, 4)))
            a, b, c = vals
            assert compose(restriction(F, b, c), restriction(F, a, b)) == \
                restriction(F, a, c)

    def test_associative_on_restrictions(self):
        F = gb(bar(open_iv(0, 4)), bar(closed(0, 2), 1))
        m1 = restriction(F, 2, 3)
        m2 = restriction(F, 1, 2)
        m3 = restriction(F, 0, 1)
        assert compose(m1, compose(m2, m3)) == compose(compose(m1, m2), m3)


class TestThickenMorphism:
    def test_preserves_identity(self):
        F = gb(bar(closed(0, 2)), bar(open_iv(1, 5), 1))
        assert thicken_morphism(identity_morphism(F), Fr(3, 2)) == \
            identity_morphism(thicken(F, Fr(3, 2)))

    def test_canonical_map_transport(self):
        m = Morphism(gb(bar(half_open(0, 3))), gb(bar(half_open(1, 4))),
                     {(0, 0): 1})
        tm = thicken_morphism(m, 1)
        assert tm.source == gb(bar(half_open(-1, 2)))
        assert tm.target == gb(bar(half_open(0, 3)))
        assert tm.blocks == {(0, 0): 1}

    def test_functor_semigroup_on_morphisms(self):
        m = Morphism(gb(bar(open_iv(1, 3))), gb(bar(open_iv(0, 4))),
                     {(0, 0): 1})
        assert thicken_morphism(thicken_morphism(m, 1), Fr(1, 2)) == \
            thicken_morphism(m, Fr(3, 2))

    def test_functoriality_under_composition(self):
        F = gb(bar(open_iv(1, 3)))
        G = gb(bar(open_iv(0, 4)))
        H = gb(bar(singleton(2)))
        m1 = Morphism(F, G, {(0, 0): 1})
        m2 = Morphism(G, H, {(0, 0): 1})
        for a in (Fr(1, 2), Fr(3, 2)):
            assert thicken_morphism(compose(m1, m2), a) == \
                compose(thicken_morphism(m1, a), thicken_morphism(m2, a))

    def test_naturality_of_restriction(self):
        cases = [
            (gb(bar(open_iv(1, 3))), gb(bar(open_iv(0, 4))), {(0, 0): 1}),
            (gb(bar(closed(0, 2))), gb(bar(singleton(1))), {(0, 0): 1}),
            (gb(bar(singleton(2), 1)), gb(bar(open_iv(1, 3), 0)), {(0, 0): 1}),
        ]
        for F, G, blocks in cases:
            m = Morphism(F, G, blocks)
            for a in (Fr(1, 2), Fr(1), Fr(2)):
                lhs = compose(thicken_morphism(m, a), restriction(G, 0, a))
                rhs = compose(restriction(F, 0, a), m)
                assert lhs == rhs, (F, G, a)


class TestDualityContravariance:
    def test_nonzero_map_dualizes_nonzero(self):
        # one-dimensional echo of kernel duality: dual bars admit the
        # reversed canonical map with matching dimension
        pairs = [(bar(closed(0, 4)), bar(closed(1, 3))),
                 (bar(open_iv(1, 2)), bar(open_iv(0, 3))),
                 (bar(closed(0, 2)), bar(singleton(1)))]
        for src, tgt in pairs:
            assert hom_dim(src, tgt).dimension == 1
            dsrc, dtgt = dualize_bar(src), dualize_bar(tgt)
            assert hom_dim(dtgt, dsrc).dimension == 1


class TestMorphismValidation:
    def test_block_on_zero_space_rejected(self):
        with pytest.raises(ValueError):
            Morphism(gb(bar(closed(0, 1))), gb(bar(closed(2, 3))),
                     {(0, 0): 1})

    def test_kind_degree_consistency(self):
        with pytest.raises(ValueError):
            Morphism(gb(bar(closed(0, 1), 0)), gb(bar(closed(0, 1), 1)),
                     {(0, 0): 1})

    def test_shape_mismatch_on_compose(self):
        F, G = gb(bar(closed(0, 1))), gb(bar(closed(0, 2)))
        with pytest.raises(ValueError):
            compose(identity_morphism(F), identity_morphism(G))


class TestRestrictionVanishing:
    def test_vanishing_iff_hom_space_dies(self):
        # the only vanishing restriction blocks are half-open translations
        # past their length, and there the whole Hom space vanishes
        from fractions import Fraction as Fr
        from thicket.barcode import (closed, full_line, half_open, half_open_r,
                                     open_iv, ray_left, ray_right, singleton)
        from thicket.thicken import bar_rule, halfopen_translation_kills
        shapes = [closed(0, 2), open_iv(0, 2), half_open(0, 2),
                  half_open_r(0, 2), singleton(1), ray_right(0), ray_left(0),
                  full_line()]
        grid = [Fr(0), Fr(1, 2), Fr(1), Fr(5, 2)]
        for iv in shapes:
            for i, a in enumerate(grid):
                for b in grid[i:]:
                    src = bar_rule(bar(iv, 0), b)
                    tgt = bar_rule(bar(iv, 0), a)
                    killed = halfopen_translation_kills(iv, a, b)
                    dim = hom_dim(src, tgt).dimension
                    if killed:
                        assert dim == 0, (iv, a, b)
                    else:
                        assert dim == 1, (iv, a, b)
                        m = restriction(gb(bar(iv, 0)), a, b)
                        assert not m.is_zero()


class TestOddCharacteristic:
    """The block calculus must stay coherent away from F_2, where unit
    normalization is no longer automatic."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_restriction_transitivity(self, p):
        from thicket.barcode import GradedBarcode, open_iv, closed, half_open
        GB = lambda *b: GradedBarcode(list(b), char=p)
        G4 = GB(bar(open_iv(0, 4)))
        assert compose(restriction(G4, 2, 3), restriction(G4, 1, 2)) == \
            restriction(G4, 1, 3)
        assert compose(restriction(G4, 2, 4), restriction(G4, 0, 2)) == \
            restriction(G4, 0, 4)
        F2 = GB(bar(closed(0, 2)))
        assert compose(restriction(F2, -1, 1), restriction(F2, -2, -1)) == \
            restriction(F2, -2, 1)
        mixed = GB(bar(open_iv(0, 4)), bar(closed(0, 1), 1),
                   bar(half_open(2, 3)))
        from fractions import Fraction as Fr
        for (a, b, c) in [(Fr(0), Fr(1), Fr(5, 2)), (Fr(-1), Fr(0), Fr(2))]:
            assert compose(restriction(mixed, b, c),
                           restriction(mixed, a, b)) == restriction(mixed, a, c)

    @pytest.mark.parametrize("p", [3, 5])
    def test_distance_and_certificates(self, p):
        from fractions import Fraction as Fr
        from thicket.barcode import GradedBarcode, closed, singleton, open_iv
        from thicket.interleave import (check_exhaustive, distance,
                                        verify_certificate)
        GB = lambda *b: GradedBarcode(list(b), char=p)
        F, G = GB(bar(closed(0, 2))), GB(bar(singleton(1)))
        d = distance(F, G)
        assert d.fields() == (1, 1, True)
        assert verify_certificate(F, G, d.witness)
        assert check_exhaustive(GB(bar(open_iv(0, 4))),
                                GB(bar(singleton(2), 1)), 2) is not None


CIRCLE_4 = ("circle", Fr(4))


def _random_lift(rng, C):
    """A lift starting in [0, C) on a grid of C/8, of length up to 3C/2."""
    left = C * Fr(rng.randrange(8), 8)
    length = C * Fr(rng.randint(0, 12), 8)
    if length == 0:
        return singleton(left)
    return Interval(left, rng.choice((CLOSED, OPEN)), left + length,
                    rng.choice((CLOSED, OPEN)))


class TestAssociativityAcrossModels:
    """Composition uses structure constants computed per endpoint triple
    (from the closed-form rules on the line, through the covering map on
    the circle); associativity couples different triples, so it certifies
    that the Ext generator signs agree across triples.  The same chains
    check the identity laws and that ``thicken_morphism`` is a functor."""

    @pytest.mark.parametrize("space, p", [
        (space, p) for space in (LINE, CIRCLE_4) for p in (2, 3, 5)],
        ids=[f"{name}{p}" for name in ("", "circle-") for p in (2, 3, 5)])
    def test_random_chains(self, space, p):
        from thicket.corpus import grid_bar_pool
        rng = random.Random((900 if space == LINE else 950) + p)
        pool = grid_bar_pool()

        def usable(X, Y):
            """The blocks of X -> Y the calculus can use, and their
            dimensions."""
            out = {}
            for i, bx in enumerate(X.bars):
                for j, by in enumerate(Y.bars):
                    try:
                        out[(i, j)] = block_dim(space, p, bx, by)
                    except UnsupportedHomError:
                        pass
            return out

        def rand_bar():
            """A pool bar on the line; on the circle a ``_random_lift`` in
            degree 0 or 1 whose identity the calculus can use."""
            if space == LINE:
                return rng.choice(pool)
            while True:
                b = Bar(_random_lift(rng, space[1]), rng.randint(0, 1))
                if usable(gb(b), gb(b)):
                    return b

        def rand_morphism(X, Y):
            """Random scalars on about 60 % of the usable nonzero blocks."""
            return Morphism(X, Y, {key: rng.randrange(1, p) for key, dim in
                                   usable(X, Y).items()
                                   if dim and rng.random() < 0.6},
                            space, validate=False)

        def has_ext(m):
            return any(m.source.bars[i].degree != m.target.bars[j].degree
                       for i, j in m.blocks)

        checked = thickened = 0
        for _ in range(40 if space == LINE else 60):
            X, Y, Z, W = (GradedBarcode([rand_bar() for _ in
                                         range(rng.randint(1, 2))], p)
                          for _ in range(4))
            m1, m2, m3 = rand_morphism(X, Y), rand_morphism(Y, Z), rand_morphism(Z, W)
            try:
                assert compose(compose(m1, m2), m3) == \
                    compose(m1, compose(m2, m3))
            except UnsupportedHomError:
                continue        # a composite the calculus cannot use
            checked += 1
            for m in (m1, m2, m3):
                assert compose(identity_morphism(m.source, space), m) == m
                assert compose(m, identity_morphism(m.target, space)) == m
            for a in (Fr(1, 2), Fr(1)):
                TX = thicken_indexed(X, a, space)[0]
                assert thicken_morphism(identity_morphism(X, space), a) == \
                    identity_morphism(TX, space)
                if p > 2 and (has_ext(m1) or has_ext(m2)):
                    continue    # see test_thickening_flips_an_ext_composite
                try:
                    assert thicken_morphism(compose(m1, m2), a) == \
                        compose(thicken_morphism(m1, a), thicken_morphism(m2, a))
                except UnsupportedHomError:
                    continue    # a thickened pair the calculus cannot use
                thickened += 1
        assert checked >= 30 and thickened >= 40, (checked, thickened)


@pytest.mark.xfail(strict=True, reason="thicken_morphism sends each Ext "
                   "generator to the thickened pair's generator with sign +1, "
                   "and the Ext sign convention is not invariant under "
                   "thickening, so at odd p a composite through an Ext block "
                   "can change sign")
def test_thickening_flips_an_ext_composite():
    """Over F_5, an Ext block [3/2, 3] -> (2, 7/2) then the Hom block
    (2, 7/2) -> [1/2, 7/2) composes to the Ext generator with scalar 1;
    after thickening by 1/2 the same blocks compose to scalar -1, so
    T_a(g f) and T_a(g) T_a(f) differ by a sign.  At p = 2 signs vanish."""
    X = gb(bar(closed(Fr(3, 2), 3), 1), char=5)
    Y = gb(bar(open_iv(2, Fr(7, 2)), 0), char=5)
    Z = gb(bar(half_open(Fr(1, 2), Fr(7, 2)), 0), char=5)
    m1, m2 = Morphism(X, Y, {(0, 0): 1}), Morphism(Y, Z, {(0, 0): 1})
    assert compose(m1, m2) == Morphism(X, Z, {(0, 0): 1})
    a = Fr(1, 2)
    assert thicken_morphism(compose(m1, m2), a) == \
        compose(thicken_morphism(m1, a), thicken_morphism(m2, a))


def test_only_morphisms_holds_the_block_kind():
    """A block's kind ('h' or 'e') is read off its bars' degrees in
    ``morphisms`` alone; every other module asks the bar-level lookups
    ``block_dim`` and ``block_scalar``."""
    import importlib
    import pkgutil
    import thicket
    modules = [thicket] + [importlib.import_module(m.name) for m in
                           pkgutil.iter_modules(thicket.__path__, "thicket.")]
    holders = {mod.__name__ for mod in modules if hasattr(mod, "_block_kind")}
    assert holders == {"thicket.morphisms"}


# ---------------------------------------------------------------------------
# The structure-constant convention, pinned.

def _factor_nonzero(space, ivA, ivB, kind, p):
    try:
        return space_dim(space, ivA, ivB, kind, p) > 0
    except UnsupportedHomError:
        return False


def _convention_row(space, p, kinds, count, seed, scalar=quiver_struct_scalar):
    """Outcomes of ``scalar`` (the quiver model unless named) on ``count``
    seeded triples whose two factor spaces are nonzero, one character each:
    the scalar, or ``u`` for ``UnsupportedHomError``, ``v`` for another
    ``ValueError`` and ``a`` for an ``AssertionError``."""
    rng = random.Random(seed)
    target = "h" if kinds == "hh" else "e"
    out = []
    while len(out) < count:
        if space == LINE:
            A, B, C = (rng.choice(GRID_INTERVALS) for _ in range(3))
        else:
            A, B, C = (_random_lift(rng, space[1]) for _ in range(3))
        if not (_factor_nonzero(space, A, B, kinds[0], p)
                and _factor_nonzero(space, B, C, kinds[1], p)):
            continue
        try:
            kind, c = scalar(space, p, A, B, C, *kinds)
        except UnsupportedHomError:
            out.append("u")
        except ValueError:
            out.append("v")
        except AssertionError:
            out.append("a")
        else:
            assert kind == target, (A, B, C, kinds)
            out.append(str(c))
    return "".join(out)


# (space, p, kinds) -> outcomes, recorded from the quiver model: 60 line
# triples of the 45-interval grid and 20 circle lift triples on C = 4 per
# row, seeded by the row's position in this table.
EXT_CONVENTION = {
    ("line", 2, "hh"):
        "011101111111101111110110111111111101001111001111010110010111",
    ("line", 2, "he"):
        "001000000100000101000100001110001001000000010001001000000000",
    ("line", 2, "eh"):
        "000001010000000100111000100001000010101000010001000001001001",
    ("line", 3, "hh"):
        "111101101111111111110010110111110111111110111110100111011110",
    ("line", 3, "he"):
        "000000010200000000020020000011000000000011000001010101200110",
    ("line", 3, "eh"):
        "010000100001000000000010010001001000000101100012010000000000",
    ("line", 5, "hh"):
        "010111111101111101101101111011110110111111101111110011110111",
    ("line", 5, "he"):
        "000010010010010000040100000140000040100000010100000000000014",
    ("line", 5, "eh"):
        "000010001000010000100100110440011100000010010000000010101101",
    ("circle", 2, "hh"):
        "00000010110100010010",
    ("circle", 2, "he"):
        "1u0011u0100010000000",
    ("circle", 2, "eh"):
        "u1001000000000000101",
    ("circle", 3, "hh"):
        "0100u0u10111u01u1uu0",
    ("circle", 3, "he"):
        "12000u00001000000100",
    ("circle", 3, "eh"):
        "00u00100100110010011",
    ("circle", 5, "hh"):
        "00u000u000011u01001u",
    ("circle", 5, "he"):
        "0000410011000u001000",
    ("circle", 5, "eh"):
        "00000100010000000u00",
}


class TestExtConvention:
    """The structure constants of the quiver model set the coefficient
    convention that composition, certificates and every distance rest on.
    The coherence tests pass under any coherent convention; this table
    fails when a sign or a normalization changes."""

    def test_outcomes_match_the_recorded_table(self):
        assert len(EXT_CONVENTION) == 18
        for seed, ((space, p, kinds), want) in enumerate(EXT_CONVENTION.items()):
            space = LINE if space == "line" else CIRCLE_4
            got = _convention_row(space, p, kinds, len(want), seed)
            assert got == want, (space, p, kinds)

    def test_line_rules_reproduce_the_line_rows(self):
        # production ``struct_scalar`` reads the closed-form line rules
        for seed, ((space, p, kinds), want) in enumerate(EXT_CONVENTION.items()):
            if space == "line":
                got = _convention_row(LINE, p, kinds, len(want), seed,
                                      struct_scalar)
                assert got == want, (p, kinds)

    def test_table_holds_minus_one(self):
        # at odd p the Ext generators are normalized so that -1 occurs
        for p in (3, 5):
            for kinds in ("he", "eh"):
                assert str(p - 1) in EXT_CONVENTION[("line", p, kinds)]


# ---------------------------------------------------------------------------
# Integer order-type keys and T_0 against their oracles.

def _string_shape_key(ivs):
    """Oracle: the order type of an interval tuple written out as a string,
    each finite end as its rank among the tuple's distinct finite ends
    (compared as Fractions) and its kind, each infinite end as its sign."""
    vals = sorted({x for iv in ivs for x in (iv.left, iv.right) if is_finite(x)})
    ranks = {v: i for i, v in enumerate(vals)}

    def tok(x, kind):
        if not is_finite(x):
            return "-" if x < 0 else "+"
        return f"{ranks[x]}{'c' if kind is CLOSED else 'o'}"
    return "|".join(tok(iv.left, iv.lkind) + tok(iv.right, iv.rkind)
                    for iv in ivs)


class TestShapeKey:
    def test_integer_key_classes_equal_string_key_classes(self, rng):
        # pairs and triples of intervals whose ends come from small pools of
        # negative and positive rationals over denominators 1, 3, 7 and 12
        by_string, by_int = {}, {}
        for _ in range(3000):
            pool = [Fr(rng.randint(-24, 24), rng.choice((1, 3, 7, 12)))
                    for _ in range(rng.randint(1, 4))]
            ivs = tuple(pooled_interval(rng, pool)
                        for _ in range(rng.choice((2, 3))))
            skey, ikey = _string_shape_key(ivs), shape_key(ivs)
            assert type(ikey) is tuple and all(type(k) is int for k in ikey)
            by_string.setdefault(skey, set()).add(ikey)
            by_int.setdefault(ikey, set()).add(skey)
        assert all(len(keys) == 1 for keys in by_string.values())
        assert all(len(keys) == 1 for keys in by_int.values())
        assert len(by_int) > 300           # many classes, most hit repeatedly

    def test_order_preserving_maps_keep_the_key(self, rng):
        for _ in range(300):
            pool = [Fr(rng.randint(-24, 24), rng.choice((1, 3, 7, 12)))
                    for _ in range(4)]
            ivs = tuple(pooled_interval(rng, pool) for _ in range(3))
            c, d = Fr(rng.randint(1, 9), rng.choice((1, 3, 7))), Fr(rng.randint(-9, 9), 12)
            moved = tuple(Interval(iv.left * c + d if is_finite(iv.left) else iv.left,
                                   iv.lkind,
                                   iv.right * c + d if is_finite(iv.right) else iv.right,
                                   iv.rkind) for iv in ivs)
            assert shape_key(moved) == shape_key(ivs)


class TestThickenIndexedAtZero:
    def test_identity_equals_the_bar_rule_path(self, rng):
        # oracle: thicken every bar by 0 through bar_rule, sort, index
        for _ in range(60):
            F = rand_barcode(rng, max_bars=6, char=rng.choice((2, 3, 5)))
            rules = [bar_rule(b, Fr(0)) for b in F.bars]
            order = sorted(range(len(rules)), key=lambda i: rules[i].sort_key())
            perm = [0] * len(rules)
            for rank, i in enumerate(order):
                perm[i] = rank
            TF, got = thicken_indexed(F, 0)
            assert TF == GradedBarcode(rules, F.char) and got == perm


@pytest.mark.parametrize("p", [2, 3, 5])
class TestIndexedSortsOnce:
    """``indexed`` takes its order and the barcode's from one
    ``canonical_indices`` call, and the barcode is not sorted again."""

    def test_one_order_and_no_sort_key_on_long_lists(self, p, monkeypatch):
        from thicket import barcode, morphisms
        rng = random.Random(p)
        for n in (16, 17, 40):
            bars = [Bar(closed(Fr(rng.randint(-30, 30), 4),
                               Fr(rng.randint(31, 60), 3)), rng.randint(0, 2))
                    for _ in range(n)]
            bars += bars[:3]
            want = sorted(range(len(bars)), key=lambda i: bars[i].sort_key())
            calls = []
            real = barcode.canonical_indices
            counted = lambda *a, **k: calls.append(a) or real(*a, **k)
            monkeypatch.setattr(morphisms, "canonical_indices", counted)
            monkeypatch.setattr(barcode, "canonical_indices", counted)
            monkeypatch.setattr(Bar, "sort_key", None)
            F, perm = morphisms.indexed(bars, p)
            monkeypatch.undo()
            assert len(calls) == 1
            assert F == GradedBarcode(bars, p) and F.char == p
            assert [F.bars[perm[i]] for i in range(len(bars))] == bars
            assert sorted(range(len(bars)), key=perm.__getitem__) == want

    def test_short_lists_match_the_checked_constructor(self, p, rng):
        for _ in range(100):
            bars = list(rand_barcode(rng, max_bars=12, char=p).bars)
            rng.shuffle(bars)
            F, perm = indexed(bars, p)
            assert F == GradedBarcode(bars, p)
            assert [F.bars[perm[i]] for i in range(len(bars))] == bars
