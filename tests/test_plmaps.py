"""PL maps, pushforward, and the experiment harness."""

import ast
import inspect
from collections import Counter
from fractions import Fraction
from fractions import Fraction as Fr

import pytest

from conftest import bar, gb, pooled_interval
from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                             closed, full_line, global_sections_c, half_open,
                             half_open_r, intersect, open_iv, ray_left,
                             ray_right, rgamma_c_interval, singleton)
from thicket import fieldmath, interleave, plmaps, zigzag
from thicket.corpus import rand_bounded_barcode, rand_plmap
from thicket.interleave import verify_certificate
from thicket.model import LineModel, Rep
from thicket.plmaps import (NonProperError, PLMap, abs_map, compose_pl,
                            constant_map, identity_map, lipschitz_constant,
                            lipschitz_experiment, offset_map,
                            pushforward_shriek, scale_map, stability_experiment,
                            sup_distance, translate_map)
from thicket.scalars import NEG_INF, POS_INF, is_finite
from thicket.thicken import thicken


class TestPLMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            PLMap((0, 0), (1, 2))
        with pytest.raises(ValueError):
            PLMap((0,), (1,), "weird", "affine")

    def test_value(self):
        f = abs_map()
        assert f.value(-3) == 3 and f.value(Fr(1, 2)) == Fr(1, 2)

    def test_value_bisection_agrees_with_the_scan(self, rng):
        # every breakpoint, both tails, the finite domain ends (closed and
        # open) and points between, on maps with and without a domain
        maps = [PLMap((0,), (Fr(3, 2),), domain=closed(0, 0)),
                PLMap((Fr(1, 2),), (-2,), "constant", "affine",
                      closed(Fr(1, 2), Fr(1, 2)))]
        for k in range(80):
            f = _rand_map(rng)
            maps.append(_with_domain(rng, f) if k % 2 else f)
        raised = open_ends = 0
        for f in maps:
            xs = f.xs
            points = set(xs) | {xs[0] - 1, xs[0] - 7, xs[-1] + 1, xs[-1] + 7}
            points |= {(x + y) / 2 for x, y in zip(xs, xs[1:])}
            points |= {Fr(rng.randint(-20, 20), 4) for _ in range(6)}
            if f.domain is not None:
                points |= {e for e in (f.domain.left, f.domain.right)
                           if is_finite(e)}
                points |= {e + d for e in points for d in (Fr(-1, 8), Fr(1, 8))}
            for x in sorted(points):
                want = _outcome(_value_by_scan, f, x)
                assert _outcome(PLMap.value, f, x) == want, (f, x)
                if isinstance(want, tuple):
                    raised += 1
                    continue
                # on the domain's closure, the map is its breakpoint
                # interpolation: the limit value at an open domain end
                assert want == _eval_by_interpolation(f, x), (f, x)
                open_ends += f.domain is not None and not f.domain.contains(x)
        assert raised >= 20 and open_ends >= 5

    def test_sup_distance(self):
        f = abs_map()
        assert sup_distance(f, f) == 0
        assert sup_distance(f, offset_map(f, Fr(1, 8))) == Fr(1, 8)
        assert sup_distance(identity_map(), scale_map(2)) == POS_INF

    def test_lipschitz_constants(self):
        assert lipschitz_constant(identity_map()) == 1
        assert lipschitz_constant(scale_map(Fr(1, 2))) == Fr(1, 2)
        assert lipschitz_constant(abs_map()) == 1
        assert lipschitz_constant(constant_map(3)) == 0

    def test_document_roundtrip_and_hash(self, rng):
        # neither the slopes derived at construction nor the pieces built
        # on demand take part in == or hash
        from thicket.docio import parse, plmap_doc, serialize
        for k in range(40):
            f = rand_plmap(rng)
            exts = ("affine", "constant")
            f = PLMap(f.xs, f.ys, exts[k % 2], exts[k // 2 % 2])
            if k % 5 < 2:
                f = _with_domain(rng, f)
            g = parse(serialize(plmap_doc(f))).payload
            assert g == f
            h = PLMap(f.xs, f.ys, f.left_ext, f.right_ext, f.domain)
            h.pieces()
            assert h == f and hash(h) == hash(f) == hash(g)
            assert len({f, g, h}) == 1


class TestPushforward:
    def test_identity(self, rng):
        for _ in range(15):
            F = rand_bounded_barcode(rng)
            assert pushforward_shriek(identity_map(), F) == F

    def test_abs_on_line(self):
        from thicket.barcode import CLOSED, OPEN
        got = pushforward_shriek(abs_map(), gb(bar(full_line(), 0)))
        assert got == gb(bar(ray_right(0, CLOSED), 0), bar(ray_right(0, OPEN), 0))

    def test_constant_collapse(self):
        assert pushforward_shriek(constant_map(5), gb(bar(closed(0, 1)))) == \
            gb(bar(singleton(5), 0))
        assert pushforward_shriek(constant_map(5), gb(bar(open_iv(0, 1)))) == \
            gb(bar(singleton(5), 1))
        assert pushforward_shriek(constant_map(5), gb(bar(half_open(0, 1)))) == gb()

    def test_scale(self):
        assert pushforward_shriek(scale_map(Fr(1, 2)), gb(bar(closed(0, 2)))) == \
            gb(bar(closed(0, 1)))

    def test_abs_halves(self):
        assert pushforward_shriek(abs_map(), gb(bar(closed(-2, 2), 0))) == \
            gb(bar(closed(0, 2), 0), bar(half_open_r(0, 2), 0))
        assert pushforward_shriek(abs_map(), gb(bar(open_iv(-1, 1), 0))) == \
            gb(bar(half_open(0, 1), 0), bar(open_iv(0, 1), 0))

    def test_nonproper_detected(self):
        with pytest.raises(NonProperError):
            pushforward_shriek(constant_map(0), gb(bar(ray_right(0), 0)))

    def test_rgamma_c_preserved(self, rng):
        for _ in range(30):
            F = rand_bounded_barcode(rng, max_bars=3)
            f = rand_plmap(rng)
            got = pushforward_shriek(f, F)
            assert global_sections_c(got) == global_sections_c(F), (f, F)

    def test_functoriality(self, rng):
        maps = [abs_map(), scale_map(2), translate_map(Fr(1, 2)),
                PLMap((-1, 0, 1), (0, 1, 0))]
        for _ in range(10):
            F = rand_bounded_barcode(rng, max_bars=2)
            f = maps[rng.randrange(len(maps))]
            g = maps[rng.randrange(len(maps))]
            assert pushforward_shriek(compose_pl(g, f), F) == \
                pushforward_shriek(g, pushforward_shriek(f, F))

    def test_fiberwise_stalks(self, rng):
        # stalk dims of the pushforward match direct fiber cohomology
        from thicket.barcode import stalk_dims, rgamma_c_interval
        clamp = PLMap((0, 1), (0, 1), "constant", "constant")
        cases = [(clamp, gb(bar(closed(-2, 3), 0), bar(open_iv(-1, 2), 1),
                            bar(half_open(-2, 0), 0), bar(half_open_r(1, 3), 1)))]
        for _ in range(20):
            cases.append((rand_plmap(rng), rand_bounded_barcode(rng, max_bars=2)))
        for _ in range(10):
            cases.append((_with_domain(rng, rand_plmap(rng)),
                          rand_bounded_barcode(rng, max_bars=2)))
        for _ in range(10):
            f = rand_plmap(rng)
            cases.append((PLMap(f.xs, f.ys, "constant", "constant"),
                          rand_bounded_barcode(rng, max_bars=2)))
        for f, F in cases:
            got = pushforward_shriek(f, F)
            ts = {Fr(x, 2) for x in range(-6, 7)} | set(f.ys)
            for t in sorted(ts):
                want = {}
                for b in F.bars:
                    for comp in _fiber_components(f, b.iv, t):
                        for off, n in rgamma_c_interval(comp).items():
                            want[b.degree + off] = want.get(b.degree + off, 0) + n
                want = {d: n for d, n in sorted(want.items()) if n}
                assert stalk_dims(got, t) == want, (f, F, t)

    # Pairings that a stalk check cannot tell apart: each of these has the
    # stalks of a wrong barcode too (an elder rule without the ground, or
    # with ties broken by attainment, gives [0,2] + (1,2) for the first).
    def test_open_end_below_the_maximum(self):
        f = PLMap((0, 1, 2, 3), (0, 1, 2, 1))
        assert pushforward_shriek(f, gb(bar(half_open(0, 3), 0))) == \
            gb(bar(half_open(0, 2), 0), bar(half_open_r(1, 2), 0))
        assert pushforward_shriek(f, gb(bar(open_iv(0, 3), 0))) == \
            gb(bar(open_iv(0, 2), 0), bar(half_open_r(1, 2), 0))

    def test_open_end_and_infinite_tail(self):
        f = PLMap((-2, Fr(-3, 2), 1), (0, Fr(-3, 2), 1), "affine", "constant")
        assert pushforward_shriek(f, gb(bar(ray_left(0, OPEN), 0))) == \
            gb(bar(half_open(Fr(-3, 2), 0), 0),
               bar(ray_right(Fr(-3, 2), OPEN), 0))

    def test_plateau_at_an_open_end(self):
        f = PLMap((0, 1, 2), (0, 1, 1))
        assert pushforward_shriek(f, gb(bar(half_open(0, 2), 0))) == \
            gb(bar(half_open(0, 1), 0))

    def test_two_minima_two_maxima(self):
        f = PLMap((0, 1, 2, 3, 4), (2, 0, 1, 0, 2))
        assert pushforward_shriek(f, gb(bar(closed(0, 4), 0))) == \
            gb(bar(half_open(0, 1), 0), bar(closed(0, 2), 0),
               bar(half_open_r(0, 1), 0), bar(half_open_r(0, 2), 0))


def _affine_lines(f):
    """(x0, y0, slope) of the left tail, each segment and the right tail,
    from the breakpoints and extensions alone."""
    xs, ys = f.xs, f.ys
    segs = [(x1, y1, (y2 - y1) / (x2 - x1))
            for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])]
    left = segs[0][2] if segs and f.left_ext == "affine" else 0
    right = segs[-1][2] if segs and f.right_ext == "affine" else 0
    return [(xs[0], ys[0], left)] + segs + [(xs[-1], ys[-1], right)]


def _eval_by_interpolation(f, x):
    xs, ys = f.xs, f.ys
    lines = _affine_lines(f)
    if x <= xs[0]:
        x0, y0, s = lines[0]
    elif x >= xs[-1]:
        x0, y0, s = lines[-1]
    else:
        x0, y0, s = lines[max(i for i in range(len(xs)) if xs[i] <= x) + 1]
    return y0 + s * (x - x0)


def _fiber_components(f, iv, t):
    """Components of {x in iv : f(x) = t}, found by sampling f at every
    breakpoint, bar endpoint and solution of f(x) = t on each affine
    formula, and between and beyond them."""
    from thicket.barcode import CLOSED, OPEN, Interval
    from thicket.scalars import NEG_INF
    cands = set(f.xs) | {e for e in (iv.left, iv.right) if e not in (NEG_INF, POS_INF)}
    cands |= {x0 + (t - y0) / s for x0, y0, s in _affine_lines(f) if s != 0}
    zs = sorted(cands)
    # (sample, endpoint if a run starts here, endpoint if a run ends here)
    samples = [(zs[0] - 1, (NEG_INF, OPEN), None)]
    for k, z in enumerate(zs):
        samples.append((z, (z, CLOSED), (z, CLOSED)))
        if k + 1 < len(zs):
            samples.append(((z + zs[k + 1]) / 2, (z, OPEN), (zs[k + 1], OPEN)))
    samples.append((zs[-1] + 1, None, (POS_INF, OPEN)))
    inside = [iv.contains(x) and _eval_by_interpolation(f, x) == t
              for x, _, _ in samples]
    comps = []
    k = 0
    while k < len(samples):
        if not inside[k]:
            k += 1
            continue
        start = k
        while k + 1 < len(samples) and inside[k + 1]:
            k += 1
        left, lkind = samples[start][1]
        right, rkind = samples[k][2]
        comps.append(Interval(left, lkind, right, rkind))
        k += 1
    return comps


def _value_by_scan(f, x):
    """``PLMap.value`` as the linear scan over the pieces that it replaced,
    kept as the oracle of the bisection."""
    x = Fraction(x)
    if f.domain is not None and not (f.domain.left <= x <= f.domain.right):
        raise ValueError(f"{x} lies outside the domain {f.domain}")
    for lo, hi, s, b in f.pieces():
        if lo <= x <= hi:
            return s * x + b
    raise AssertionError("pieces do not cover the domain")


def _with_domain(rng, f):
    """f on a random domain containing [-3, 3], the span of the random
    maps' breakpoints and bounded bars."""
    dom = rng.choice([closed(-3, 3), ray_right(-3), ray_left(3),
                      open_iv(Fr(-7, 2), Fr(7, 2))])
    return PLMap(f.xs, f.ys, f.left_ext, f.right_ext, dom)


# ---------------------------------------------------------------------------
# The zigzag route, kept as the pushforward's oracle: fiberwise compactly
# supported cohomology over a target stratification refined by all critical
# values, generization maps from slab components, and the rank-invariant
# decomposition of the resulting zigzag per degree.

def _merge_components(parts: list[Interval]) -> list[Interval]:
    parts = sorted(parts, key=Interval.sort_key)
    out: list[Interval] = []
    for iv in parts:
        if out:
            prev = out[-1]
            touch = (prev.right > iv.left or
                     (prev.right == iv.left and
                      (prev.rkind is CLOSED or iv.lkind is CLOSED)))
            if touch:
                right, rkind = ((iv.right, iv.rkind)
                                if iv.right > prev.right else (prev.right, prev.rkind))
                if iv.right == prev.right and iv.rkind is CLOSED:
                    rkind = CLOSED
                out[-1] = Interval(prev.left, prev.lkind, right, rkind)
                continue
        out.append(iv)
    return out


def _bar_pieces(f: PLMap, iv: Interval):
    """Affine pieces of f restricted to the bar support, kinds inherited:
    (sub-interval, slope, intercept) in increasing order."""
    out = []
    for lo, hi, s, b in f.pieces():
        piece = Interval(lo, CLOSED if is_finite(lo) else OPEN,
                         hi, CLOSED if is_finite(hi) else OPEN)
        sub = intersect(piece, iv)
        if sub is not None:
            out.append((sub, s, b))
    return out


def _preimage_in_piece(sub: Interval, s: Fraction, b: Fraction, lo, hi,
                       lo_closed=True, hi_closed=True):
    """Component(s) of {x in sub : f(x) in [lo, hi]} for one affine piece."""
    if s == 0:
        if (lo < b < hi) or (b == lo and lo_closed) or (b == hi and hi_closed):
            return [sub]
        return []
    x1 = (lo - b) / s
    x2 = (hi - b) / s
    if x1 > x2:
        x1, x2 = x2, x1
        k1, k2 = hi_closed, lo_closed
    else:
        k1, k2 = lo_closed, hi_closed
    if x2 < sub.left or x1 > sub.right:
        return []
    window = Interval(x1, CLOSED if k1 else OPEN, x2, CLOSED if k2 else OPEN)
    inter = intersect(window, sub)
    return [inter] if inter is not None else []


def _fiber(pieces, t: Fraction) -> list[Interval]:
    """Components of the fiber over t, from a bar's restricted pieces."""
    return _slab(pieces, t, t)


def _slab(pieces, lo: Fraction, hi: Fraction) -> list[Interval]:
    """Components of the preimage of [lo, hi], from a bar's restricted
    pieces."""
    parts = []
    for sub, s, b in pieces:
        parts.extend(_preimage_in_piece(sub, s, b, lo, hi))
    return _merge_components(parts)


def _is_cc(iv: Interval) -> bool:
    return iv.is_bounded and iv.lkind is CLOSED and iv.rkind is CLOSED


def _is_open_comp(iv: Interval) -> bool:
    return iv.is_bounded and iv.lkind is OPEN and iv.rkind is OPEN


def _critical_values(pieces):
    """Images of the restricted pieces' finite ends: the breakpoints in the
    bar and the bar's finite endpoints."""
    vals = set()
    for sub, s, b in pieces:
        for e in (sub.left, sub.right):
            if is_finite(e):
                vals.add(s * e + b)
    return sorted(vals)


def _zigzag_pushforward_bar(f: PLMap, bar: Bar, char: int) -> list[Bar]:
    iv, d = bar.iv, bar.degree
    plmaps._check_proper(f, iv)
    pieces = _bar_pieces(f, iv)
    model = LineModel(_critical_values(pieces))
    fibers = [_fiber(pieces, s.sample()) for s in model.strata]
    cc = [[c for c in comps if _is_cc(c)] for comps in fibers]
    opens = [[c for c in comps if _is_open_comp(c)] for comps in fibers]
    for idx, comps in enumerate(fibers):
        for c in comps:
            if not (_is_cc(c) or _is_open_comp(c)):
                off = rgamma_c_interval(c)
                if off:
                    raise AssertionError(f"unclassified fiber component {c}")
        if model.strata[idx].kind == "open" and opens[idx]:
            raise AssertionError("open fiber component over a non-critical value")

    dims0 = [len(comps) for comps in cc]
    mats0 = []
    for (pt, op, _side) in model.edges:
        c = model.strata[pt].left
        t = model.strata[op].sample()
        slab = _slab(pieces, min(c, t), max(c, t))
        mat = [[0] * dims0[pt] for _ in range(dims0[op])]
        for j, K in enumerate(cc[pt]):
            B = next((s for s in slab if intersect(s, K) is not None), None)
            if B is None:
                raise AssertionError("fiber component escapes its slab")
            if not _is_cc(B):
                continue
            for i, K2 in enumerate(cc[op]):
                if intersect(B, K2) is not None:
                    mat[i][j] = 1
        mats0.append(mat)
    rep0 = Rep(model, dims0, mats0, char)
    out = [Bar(interval, d) for interval in zigzag.decompose_line(rep0)]
    # An open component lies over a critical value c and generizes to zero,
    # so each one is the point bar [c, c] one degree up.
    for s, comps in zip(model.strata, opens):
        out.extend(Bar(singleton(s.left), d + 1) for _ in comps)
    return out


def _zigzag_pushforward(f: PLMap, F: GradedBarcode) -> GradedBarcode:
    bars = []
    for b in F.bars:
        bars.extend(_zigzag_pushforward_bar(f, b, F.char))
    return GradedBarcode(bars, F.char)


def _rand_map(rng):
    """1-8 breakpoints on the 1/2 grid in [-3, 3] with values from five,
    so that plateaus and repeated values are common; a constant tail one
    time in four; now and then a domain."""
    xs = sorted(Fr(x, 2) for x in rng.sample(range(-6, 7), rng.randint(1, 8)))
    ys = [Fr(rng.randint(-2, 2), 2) for _ in xs]
    exts = ("affine",) * 3 + ("constant",)
    f = PLMap(tuple(xs), tuple(ys), rng.choice(exts), rng.choice(exts))
    return _with_domain(rng, f) if rng.random() < 0.3 else f


def _rand_bar(rng, f):
    """A point, a bounded bar of any end kinds, a ray of either kind or the
    line, with ends at f's breakpoints or on the 1/2 grid in [-4, 4] (so
    that some bars leave a domain), in degree 0, 1 or 2."""
    pool = list(f.xs) + [Fr(rng.randint(-8, 8), 2) for _ in range(3)]
    a, b = sorted((rng.choice(pool), rng.choice(pool)))
    kind = lambda: rng.choice((CLOSED, OPEN))
    shape = rng.choice(("point", "bounded", "bounded", "left", "right", "line"))
    if shape == "point" or (shape == "bounded" and a == b):
        iv = singleton(a)
    elif shape == "bounded":
        iv = Interval(a, kind(), b, kind())
    elif shape == "left":
        iv = ray_left(b, kind())
    elif shape == "right":
        iv = ray_right(a, kind())
    else:
        iv = full_line()
    return Bar(iv, rng.randint(0, 2))


def _rand_case(rng, p):
    f = _rand_map(rng)
    return f, GradedBarcode([_rand_bar(rng, f)
                             for _ in range(rng.randint(1, 3))], p)


def _many_bar_case(rng, p):
    """10-24 bars with ends from the map's breakpoints and three points of
    the 1/2 grid in [-3, 3], so that many bars share ends and most ends are
    breakpoints.  In three cases of four, the bars that are not proper or
    leave the domain are dropped (the check is the one both routes run),
    so that most cases push; else the first of them names the error."""
    f = _rand_map(rng)
    pool = list(f.xs) + [Fr(rng.randint(-6, 6), 2) for _ in range(3)]
    bars = [Bar(pooled_interval(rng, pool), rng.randint(0, 2))
            for _ in range(rng.randint(10, 24))]
    if rng.random() < 0.75:
        bars = [b for b in bars
                if not isinstance(_outcome(plmaps._check_proper, f, b.iv), tuple)]
    return f, GradedBarcode(bars, p)


def _coprime_value(rng, lo, hi):
    """A rational in [lo, hi] over 1, 3, 7, 10, 100 or 1000."""
    q = rng.choice((1, 3, 7, 10, 100, 1000))
    return Fr(rng.randint(lo * q, hi * q), q)


def _coprime_case(rng, p):
    """A map whose breakpoints in [-3, 3] and values in [-2, 2] mix thirds,
    sevenths and powers of 1/10, and 1-8 bars with ends at its breakpoints
    or at such points of [-4, 4].  One map in four has a single breakpoint
    (no piece width, both tails constant); a tail is constant one time in
    three, and a domain comes now and then.  The values come from a pool of
    three, so that plateaus and repeated values are common.  In three cases
    of four, the bars that are not proper or leave the domain are dropped,
    as in ``_many_bar_case``."""
    k = 1 if rng.random() < 0.25 else rng.randint(2, 6)
    xs = set()
    while len(xs) < k:
        xs.add(_coprime_value(rng, -3, 3))
    xs = sorted(xs)
    pool = [_coprime_value(rng, -2, 2) for _ in range(3)]
    exts = ("affine", "affine", "constant")
    f = PLMap(tuple(xs), tuple(rng.choice(pool) for _ in xs),
              rng.choice(exts), rng.choice(exts))
    if rng.random() < 0.3:
        f = _with_domain(rng, f)
    ends = xs + [_coprime_value(rng, -4, 4) for _ in range(3)]
    bars = [Bar(pooled_interval(rng, ends), rng.randint(0, 2))
            for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.75:
        bars = [b for b in bars
                if not isinstance(_outcome(plmaps._check_proper, f, b.iv), tuple)]
    return f, GradedBarcode(bars, p)


def _outcome(push, f, F):
    try:
        return push(f, F)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [2, 3, 5])
class TestZigzagOracle:
    """The extrema route against the zigzag route it replaced."""

    def test_matches_zigzag_route(self, rng, p):
        compared = 0
        for _ in range(150):
            f, F = _rand_case(rng, p)
            want = _outcome(_zigzag_pushforward, f, F)
            assert _outcome(pushforward_shriek, f, F) == want, (f, F)
            compared += isinstance(want, GradedBarcode)
        assert compared >= 50

    def test_many_bars_sharing_ends(self, rng, p):
        compared = errors = 0
        for _ in range(30):
            f, F = _many_bar_case(rng, p)
            want = _outcome(_zigzag_pushforward, f, F)
            assert _outcome(pushforward_shriek, f, F) == want, (f, F)
            if isinstance(want, GradedBarcode):
                compared += len(F) >= 10
            else:
                errors += 1
        assert compared >= 12 and errors >= 3

    def test_coprime_denominators(self, rng, p):
        """The integer frame against the zigzag route on ends and values
        over coprime denominators, single-breakpoint maps, constant tails
        and domains."""
        seen = dict.fromkeys(("pushed", "single", "constant", "domain"), 0)
        for _ in range(80):
            f, F = _coprime_case(rng, p)
            want = _outcome(_zigzag_pushforward, f, F)
            assert _outcome(pushforward_shriek, f, F) == want, (f, F)
            if isinstance(want, GradedBarcode) and len(want):
                seen["pushed"] += 1
                seen["single"] += len(f.xs) == 1
                seen["constant"] += "constant" in (f.left_ext, f.right_ext)
                seen["domain"] += f.domain is not None
        assert seen["pushed"] >= 40 and min(seen.values()) >= 5, seen

    def test_a_frame_past_64_bits_stays_exact(self, p):
        # breakpoints over 2^61 - 1 and values over 10^20: Lx Ly D passes
        # 2^64, and the frame has no cap and no other route
        M, T = 2**61 - 1, 10**20
        f = PLMap((-1, Fr(1, M), 2), (1, Fr(-1, T), 1))
        F = GradedBarcode([Bar(closed(Fr(-1, 3), 1), 0),
                           Bar(open_iv(Fr(1, T), 3), 1)], p)
        frame = plmaps._Frame(f, F.bars)
        assert frame.lx * frame.scale > 2**64
        m = Fr(-1, T)
        a, b = (_eval_by_interpolation(f, x) for x in (Fr(-1, 3), 1))
        c, d = (_eval_by_interpolation(f, x) for x in (Fr(1, T), 3))
        assert a < b and c < d and m < a and m < c
        want = GradedBarcode([Bar(closed(m, b), 0), Bar(half_open_r(m, a), 0),
                              Bar(half_open(m, c), 1), Bar(open_iv(m, d), 1)], p)
        assert pushforward_shriek(f, F) == want
        assert _zigzag_pushforward(f, F) == want

    def test_the_first_bad_bar_names_the_error(self, p):
        # a bar that leaves the domain and a non-proper one among proper
        # bars: whichever comes first in canonical order names the error
        f = PLMap((-1, 0, 1), (0, 1, 1), "affine", "constant", ray_right(-3))
        out, tail = closed(-4, 0), ray_right(0, OPEN)
        good = [Bar(closed(-1, 1), 0), Bar(open_iv(0, 1), 1),
                Bar(half_open(1, 3), 2)]
        cases = (((0, 1), ValueError, f"{out} leaves the map domain"),
                 ((1, 0), NonProperError, f"unbounded bar {tail}"))
        for (d_out, d_tail), kind, message in cases:
            F = GradedBarcode(good + [Bar(out, d_out), Bar(tail, d_tail)], p)
            got = _outcome(pushforward_shriek, f, F)
            assert got == _outcome(_zigzag_pushforward, f, F)
            assert got[0] is kind and message in got[1], got

    def test_push_runs_no_oracle(self, rng, p, monkeypatch):
        calls = []
        for module, name in ((zigzag, "decompose_line"), (fieldmath, "rref")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k:
                                calls.append(name) or fn(*a, **k))
        pushes = 0
        for _ in range(60):
            pushes += isinstance(_outcome(pushforward_shriek, *_rand_case(rng, p)),
                                 GradedBarcode)
        assert calls == [] and pushes >= 20
        # the patched functions do count a call: the oracle makes them
        _zigzag_pushforward(abs_map(), gb(bar(closed(-1, 1), 0), char=p))
        assert {"decompose_line", "rref"} <= set(calls)

    def test_push_scales_and_sorts_once(self, rng, p, monkeypatch):
        """One ``int_frame`` call scales f's breakpoints and every bar end,
        and the output is ordered by one ``rows_barcode`` call on the
        frame's rows: nothing is scaled or sorted again."""
        from thicket import barcode, scalars
        pushed = 0
        for _ in range(40):
            f, F = _many_bar_case(rng, p)
            want = _outcome(_zigzag_pushforward, f, F)
            frames, orders = [], []
            real_frame, real_rows = scalars.int_frame, barcode.rows_barcode
            monkeypatch.setattr(plmaps, "int_frame", lambda v, *a: frames.append(
                list(v)) or real_frame(v, *a))
            monkeypatch.setattr(barcode, "int_frame", None)
            monkeypatch.setattr(barcode, "canonical_indices", None)
            monkeypatch.setattr(plmaps, "rows_barcode", lambda rows, *a: (
                orders.append(rows) or real_rows(rows, *a)))
            got = _outcome(pushforward_shriek, f, F)
            monkeypatch.undo()
            assert got == want, (f, F)
            if not isinstance(got, GradedBarcode):
                continue
            pushed += 1
            ends = [e for b in F.bars for e in (b.iv.left, b.iv.right)]
            assert frames == [[*f.xs, *ends], list(f.ys)]
            assert len(orders) == 1 and len(orders[0]) == len(got)
        assert pushed >= 20


# ---------------------------------------------------------------------------
# The sorted union-find route, kept as the elder rule's oracle: the vertex
# list of f's extrema along a bar, and one union-find sweep over it in an
# order of the values.

def _extrema(frame, k: int, iv: Interval) -> list:
    """(value, attained) of f at the ends of bar k, on iv, and at the
    breakpoints strictly inside it, in the call's frame, with runs of equal
    value merged (attained only if every vertex of the run is) and the
    vertices f passes monotonically dropped.  An infinite end takes the
    limit of the tail and is not attained; a finite end is attained when
    the bar is closed there."""
    if is_finite(iv.left):
        value, first, _ = frame.end(frame.ends[2 * k])
        left = (value, iv.lkind is CLOSED)
    else:
        left = (NEG_INF if frame.lines[0][0] > 0 else POS_INF, False)
        first = 0
    if is_finite(iv.right):
        value, _, stop = frame.end(frame.ends[2 * k + 1])
        right = (value, iv.rkind is CLOSED)
    else:
        right = (POS_INF if frame.lines[-1][0] > 0 else NEG_INF, False)
        stop = len(frame.xs)
    runs = [left]
    for value, attained in [(v, True) for v in frame.vs[first:stop]] + [right]:
        if runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] and attained)
        else:
            runs.append((value, attained))
    verts = runs[:1]
    for prev, (value, attained), nxt in zip(runs, runs[1:], runs[2:]):
        if (prev[0] < value) != (value < nxt[0]):
            verts.append((value, attained))
    if len(runs) > 1:
        verts.append(runs[-1])
    return verts


def _deaths(verts: list, order: list) -> list:
    """(birth, death) values of one elder-rule sweep over the path of
    extrema, visited in ``order``.  An attained vertex with no visited
    neighbour starts a component; an unattained one (an end that f
    approaches) belongs to the ground, which is older than every component.
    Where components meet, all but the eldest die.  Parents and ages are
    lists indexed by vertex, the ground last; -1 marks a vertex not yet
    visited."""
    ground = len(verts)
    parent = [-1] * ground + [ground]
    age = [0] * ground + [-1]
    out = []
    for step, i in enumerate(order):
        here, attained = verts[i]
        met = []
        for j in (i - 1, i + 1):
            if 0 <= j < ground and parent[j] >= 0:
                while parent[j] != j:
                    j = parent[j]
                if j not in met:
                    met.append(j)
        if not attained and ground not in met:
            met.append(ground)
        if not met:
            parent[i], age[i] = i, step
            continue
        eldest = min(met, key=age.__getitem__)
        for r in met:
            if r != eldest:
                parent[r] = eldest
                out.append((verts[r][0], here))
        parent[i] = eldest
    return out


def _union_find_sweeps(vals, first, last):
    """Both sweeps of ``_deaths`` over a path, rising and falling, as
    multisets: the values sorted stably, and that order reversed."""
    verts = [(v, True) for v in vals]
    verts[0], verts[-1] = (vals[0], first), (vals[-1], last)
    rising = sorted(range(len(vals)), key=vals.__getitem__)
    return (Counter(_deaths(verts, rising)),
            Counter(_deaths(verts, rising[::-1])))


def _union_find_bar(frame, k: int, bar: Bar) -> list:
    """The rows of bar k by the route that ``plmaps._elder`` replaced:
    ``_extrema``, a sort of its values and two ``_deaths`` sweeps, with the
    same rules for a constant f and for the essential class."""
    iv, d = bar.iv, bar.degree
    verts = _extrema(frame, k, iv)
    if len(verts) == 1:
        v, attained = verts[0]
        if attained:
            return [(v, CLOSED, v, CLOSED, d)]
        if iv.lkind is OPEN and iv.rkind is OPEN:
            return [(v, CLOSED, v, CLOSED, d + 1)]
        return []
    rising = sorted(range(len(verts)), key=lambda i: verts[i][0])
    out = [(b, CLOSED, h, OPEN, d) for b, h in _deaths(verts, rising)]
    out += [(h, OPEN, b, CLOSED, d) for b, h in _deaths(verts, rising[::-1])]
    lo, hi = verts[rising[0]][0], verts[rising[-1]][0]
    ends = (verts[0][1], verts[-1][1])
    if ends == (True, True):
        out.append((lo, CLOSED, hi, CLOSED, d))
    elif ends == (False, False):
        out.append((lo, OPEN, hi, OPEN, d))
    return out


def _rand_path(rng):
    """An alternating path of 2-12 extrema with values in [-4, 4], so that
    non-adjacent values repeat, each end attained or not; an unattained end
    is now and then the infinite limit of a tail."""
    vals = [rng.randint(-3, 3)]
    rise = rng.random() < 0.5
    for _ in range(rng.randint(1, 11)):
        vals.append(rng.randint(vals[-1] + 1, 4) if rise
                    else rng.randint(-4, vals[-1] - 1))
        rise = not rise
    first, last = rng.random() < 0.5, rng.random() < 0.5
    if not first and rng.random() < 0.3:
        vals[0] = NEG_INF if vals[0] < vals[1] else POS_INF
    if not last and rng.random() < 0.3:
        vals[-1] = NEG_INF if vals[-1] < vals[-2] else POS_INF
    return vals, first, last


class TestElderRule:
    """The nearest-older elder rule of ``plmaps._elder`` and the bar rows
    of ``plmaps._pushforward_bar`` against the union-find route."""

    def test_sweeps_match_the_union_find(self, rng):
        shapes = set()
        for _ in range(3000):
            vals, first, last = _rand_path(rng)
            rising, falling = plmaps._elder(vals, first, last)
            want = _union_find_sweeps(vals, first, last)
            assert (Counter(rising), Counter(falling)) == want, (vals, first, last)
            repeated = len(set(vals)) < len(vals)
            shapes.add((first, last, repeated, not all(map(is_finite, vals))))
        # an infinite end is never attained: 14 of the 16 shapes
        assert len(shapes) == 14, shapes

    @pytest.mark.parametrize("first, last", [(True, True), (False, False),
                                             (True, False), (False, True)])
    def test_falling_staircase(self, first, last):
        # 8,000 vertices whose maxima and minima both fall: the rising
        # stack pops at every minimum, the falling one holds every maximum
        vals = [v for k in range(4000, 0, -1) for v in (2 * k, 2 * k - 3)]
        rising, falling = plmaps._elder(vals, first, last)
        assert (Counter(rising), Counter(falling)) == \
            _union_find_sweeps(vals, first, last)
        # every attained maximum but the essential class's dies
        assert len(falling) == 4000 - (not first) - (first and last)

    @pytest.mark.parametrize("case", [_rand_case, _many_bar_case, _coprime_case])
    def test_bar_rows_match_the_union_find_route(self, rng, case):
        kinds = Counter()
        for _ in range(150):
            f, F = case(rng, 2)
            bars = [b for b in F.bars
                    if not isinstance(_outcome(plmaps._check_proper, f, b.iv),
                                      tuple)]
            frame = plmaps._Frame(f, bars)
            for k, b in enumerate(bars):
                want = _union_find_bar(frame, k, b)
                got = plmaps._pushforward_bar(frame, k, b)
                assert Counter(got) == Counter(want), (f, b)
                kinds[min(len(_extrema(frame, k, b.iv)), 3)] += 1
        assert min(kinds[n] for n in (1, 2, 3)) >= 20, kinds


def test_plmaps_imports_neither_model_nor_zigzag():
    tree = ast.parse(inspect.getsource(plmaps))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "model" not in imported and "zigzag" not in imported, imported


class TestStability:
    def test_equal_maps(self, rng):
        F = rand_bounded_barcode(rng, max_bars=2)
        rep = stability_experiment(identity_map(), identity_map(), F)
        assert rep.passed and rep.bound == 0

    def test_fixed_offset_instance(self):
        rep = stability_experiment(abs_map(), offset_map(abs_map(), Fr(1, 8)),
                                   gb(bar(closed(-1, 1), 0)))
        assert rep.passed and rep.bound == Fr(1, 8)

    def test_translated_skyscraper(self):
        rep = stability_experiment(identity_map(),
                                   offset_map(identity_map(), 5),
                                   gb(bar(singleton(0), 0)))
        assert rep.passed and rep.bound == 5

    def test_seeded_corpus(self, rng):
        inconclusive = 0
        for _ in range(25):
            f = rand_plmap(rng)
            g = rand_plmap(rng, match_tails_with=f)
            F = rand_bounded_barcode(rng, max_bars=2)
            rep = stability_experiment(f, g, F)
            assert rep.verdict != "fail", (f, g, F)
            inconclusive += rep.verdict == "inconclusive"
        assert inconclusive <= 1


class TestLipschitz:
    def test_identity(self):
        F1 = gb(bar(closed(0, 2)))
        F2 = gb(bar(singleton(1)))
        rep = lipschitz_experiment(identity_map(), F1, F2, 1)
        assert rep.passed and rep.bound == 1

    def test_halving_map(self):
        rep = lipschitz_experiment(scale_map(Fr(1, 2)), gb(bar(closed(0, 2))),
                                   gb(bar(singleton(1))), 1)
        assert rep.passed and rep.bound == Fr(1, 2)

    def test_abs_collapse(self):
        rep = lipschitz_experiment(abs_map(), gb(bar(closed(-2, 2))),
                                   gb(bar(singleton(0))), 2)
        assert rep.passed and rep.bound == 2

    def test_seeded_corpus(self, rng):
        inconclusive = 0
        for _ in range(20):
            f = rand_plmap(rng)
            F = rand_bounded_barcode(rng, max_bars=1)
            a = Fr(rng.randint(0, 4), 4)
            G = thicken(F, a)          # certificate at a exists by construction
            rep = lipschitz_experiment(f, F, G, a)
            assert rep.verdict != "fail", (f, F, a)
            inconclusive += rep.verdict == "inconclusive"
        assert inconclusive <= 1

    @pytest.mark.parametrize("f", [abs_map(), constant_map(1)],
                             ids=["abs", "constant"])
    def test_negative_shift_rejected(self, f):
        # delta = 0 for the constant map, so delta * a alone hides the sign
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            lipschitz_experiment(f, gb(bar(closed(0, 2))),
                                 gb(bar(singleton(1))), Fr(-1, 2))


class TestVerdicts:
    """A certificate is pass and a refuted shift fail; the matching decides
    every shift on the line, so no search is left inconclusive."""

    def test_lipschitz(self, monkeypatch):
        F1, F2 = gb(bar(closed(0, 2))), gb(bar(singleton(1)))   # distance 1
        rep = lipschitz_experiment(identity_map(), F1, F2, 1)
        assert rep.verdict == "pass"
        assert verify_certificate(F1, F2, rep.certificate)
        for cap in (24, 0):
            monkeypatch.setattr(interleave, "MAX_UNKNOWNS", cap)
            rep = lipschitz_experiment(identity_map(), F1, F2, Fr(1, 2))
            assert (rep.verdict, rep.certificate) == ("fail", None)

    def test_stability(self, monkeypatch):
        f, g = identity_map(), offset_map(identity_map(), 5)
        F = gb(bar(singleton(0)))
        monkeypatch.setattr(interleave, "MAX_UNKNOWNS", 0)
        rep = stability_experiment(f, g, F)
        assert rep.verdict == "pass" and rep.bound == 5
        # The stability theorem puts a certificate at the sup distance, so
        # a refuted search is stood in for.
        monkeypatch.setattr(plmaps, "check_interleaving",
                            lambda *args, **kwargs: None)
        rep = stability_experiment(f, g, F)
        assert (rep.verdict, rep.certificate) == ("fail", None)


class TestDomains:
    def test_sup_on_interval_domain(self):
        dom = closed(-1, 1)
        f = PLMap((-1, 0, 1), (1, 0, 1), domain=dom)
        g = PLMap((-1, 0, 1), (Fr(9, 8), Fr(1, 8), Fr(9, 8)), domain=dom)
        assert sup_distance(f, g) == Fr(1, 8)
        # an offset keeps the domain
        assert offset_map(f, Fr(1, 8)) == g
        assert sup_distance(f, offset_map(f, Fr(1, 8))) == Fr(1, 8)

    def test_domain_mismatch(self):
        f = PLMap((-1, 0, 1), (1, 0, 1), domain=closed(-1, 1))
        with pytest.raises(ValueError):
            sup_distance(f, abs_map())

    def test_divergent_slopes_bounded_domain_finite(self):
        dom = closed(0, 4)
        f = PLMap((0, 4), (0, 4), domain=dom)
        g = PLMap((0, 4), (0, 8), domain=dom)
        assert sup_distance(f, g) == 4

    def test_pushforward_respects_domain(self):
        dom = closed(-1, 1)
        f = PLMap((-1, 0, 1), (1, 0, 1), domain=dom)
        got = pushforward_shriek(f, gb(bar(closed(-1, 1), 0)))
        assert got == gb(bar(closed(0, 1), 0), bar(half_open_r(0, 1), 0))
        with pytest.raises(ValueError):
            pushforward_shriek(f, gb(bar(closed(-2, 2), 0)))

    def test_evaluation_outside_domain(self):
        f = PLMap((0, 1), (0, 1), domain=closed(0, 1))
        with pytest.raises(ValueError):
            f.value(2)

    def test_domain_roundtrip_via_documents(self):
        from thicket.docio import parse, plmap_doc, serialize
        f = PLMap((-1, 0, 1), (1, 0, 1), "constant", "affine", closed(-1, 1))
        assert parse(serialize(plmap_doc(f))).payload == f
