"""PL maps, pushforward, and the experiment harness."""

from fractions import Fraction as Fr

import pytest

from conftest import bar, gb
from thicket.barcode import (closed, full_line, global_sections_c, half_open,
                             half_open_r, open_iv, ray_left, ray_right,
                             singleton)
from thicket import interleave, plmaps
from thicket.corpus import rand_bounded_barcode, rand_plmap
from thicket.interleave import verify_certificate
from thicket.plmaps import (NonProperError, PLMap, abs_map, compose_pl,
                            constant_map, identity_map, lipschitz_constant,
                            lipschitz_experiment, offset_map,
                            pushforward_shriek, scale_map, stability_experiment,
                            sup_distance, translate_map)
from thicket.scalars import POS_INF
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
        # the pieces built at construction take no part in == or hash
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


def _with_domain(rng, f):
    """f on a random domain containing [-3, 3], the span of the random
    maps' breakpoints and bounded bars."""
    dom = rng.choice([closed(-3, 3), ray_right(-3), ray_left(3),
                      open_iv(Fr(-7, 2), Fr(7, 2))])
    return PLMap(f.xs, f.ys, f.left_ext, f.right_ext, dom)


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
