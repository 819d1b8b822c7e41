"""Document round trips, parse errors, SVG output."""

import random
import sys
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bar, gb, mixed_bar
from oracles import parse_per_bar
from thicket.barcode import (_KEY_MIN_BARS, Bar, GradedBarcode, Interval,
                             closed, half_open, open_iv,
                             ray_left, singleton)
from thicket.circle import CircleSheaf
from thicket.corpus import rand_circle_sheaf
from thicket.docio import (Document, DocumentError, barcode_doc, circle_doc,
                           parse, plmap_doc, report_doc, serialize)
from thicket.plmaps import PLMap, abs_map
from thicket.scalars import (MAX_EXPONENT, NEG_INF, POS_INF, parse_extended,
                             parse_rational)
from thicket.svgplot import barcode_svg, circle_svg, emit_plot


class TestRoundTrip:
    def test_barcode(self):
        F = gb(bar(closed(0, 1)), bar(open_iv(Fr(1, 2), 3), 1),
               bar(ray_left(Fr(-7, 3)), -1), bar(singleton(2), 0))
        doc = barcode_doc(F)
        assert parse(serialize(doc)).payload == F

    def test_circle(self):
        F = CircleSheaf(4, [Bar(half_open(0, Fr(3, 2)), 0)],
                        [(2, [[0, 1], [1, 0]], 1)])
        assert parse(serialize(circle_doc(F))).payload == F

    def test_plmap(self):
        f = PLMap((-1, 0, 2), (1, 0, 4), "constant", "affine")
        assert parse(serialize(plmap_doc(f))).payload == f

    def test_report(self):
        doc = report_doc({"name": "x", "verdict": "pass"})
        got = parse(serialize(doc))
        assert got.payload["verdict"] == "pass"

    def test_char_preserved(self):
        F = gb(bar(closed(0, 1)), char=3)
        assert parse(serialize(barcode_doc(F))).payload.char == 3


def _assert_round_trip(doc):
    text = serialize(doc)
    back = parse(text)
    assert back.payload == doc.payload
    assert back.char == doc.char and back.space == doc.space
    assert serialize(back) == text


@pytest.mark.parametrize("p", [2, 3, 5])
class TestRoundTripProperties:
    def test_random_barcodes(self, p):
        rng = random.Random(100 + p)
        for n in list(range(8)) + [60]:
            for _ in range(6):
                F = GradedBarcode([mixed_bar(rng, (1, 3, 5, 7, 12))
                                   for _ in range(n)], p)
                _assert_round_trip(barcode_doc(F))

    def test_random_circle_sheaves(self, p):
        rng = random.Random(200 + p)
        ranks = set()
        for _ in range(40):
            C = rng.choice((Fr(4), Fr(3), Fr(7, 2)))
            F = rand_circle_sheaf(rng, C, max_spirals=5, with_bands=True,
                                  char=p)
            ranks.update(b.rank for b in F.bands)
            _assert_round_trip(circle_doc(F))
        assert ranks == {1, 2}


class TestErrors:
    def test_unknown_version(self):
        with pytest.raises(DocumentError):
            parse("thicket/9\nkind: barcode\n")

    def test_reversed_interval(self):
        text = "thicket/1\nkind: barcode\nchar: 2\nbar: 0 [2, 1]\n"
        with pytest.raises(DocumentError):
            parse(text)

    def test_open_singleton(self):
        text = "thicket/1\nkind: barcode\nchar: 2\nbar: 0 (1, 1)\n"
        with pytest.raises(DocumentError):
            parse(text)

    def test_error_carries_line_number(self):
        text = "thicket/1\nkind: barcode\nchar: 2\nbar: 0 [garbled\n"
        with pytest.raises(DocumentError) as exc:
            parse(text)
        assert "line 4" in str(exc.value)

    def test_missing_kind(self):
        with pytest.raises(DocumentError):
            parse("thicket/1\nchar: 2\n")

    @pytest.mark.skipif(not sys.get_int_max_str_digits(),
                        reason="the interpreter writes ints of any length")
    def test_value_past_the_digit_limit_is_one_error(self):
        """``serialize`` refuses a number whose numerator or denominator has
        more digits than the interpreter writes with one ``DocumentError``
        that names the limit, for every kind that writes numbers."""
        limit = sys.get_int_max_str_digits()
        big = 1 + Fr(1, 10 ** limit)
        docs = [barcode_doc(gb(bar(closed(0, big)))),
                circle_doc(CircleSheaf(big, [Bar(closed(0, 1), 0)])),
                plmap_doc(PLMap((Fr(0), big), (Fr(0), Fr(1)))),
                report_doc({"value": big})]
        for doc in docs:
            with pytest.raises(DocumentError) as exc:
                serialize(doc)
            assert str(exc.value) == (
                f"a number has more than {limit} digits, the interpreter's "
                "limit for writing an integer"), doc.kind
        with pytest.raises(DocumentError, match="unknown document kind"):
            serialize(Document("sheaf", None))
        with pytest.raises(DocumentError, match="seed document is read"):
            serialize(Document("seed", None))

    @pytest.mark.parametrize("line, start", [
        (f"bar: 0 [0, {'1' * 4301}]", "invalid interval '[0, " + "1" * 36),
        (f"bar: 0 [0, {'1' * 5000}x]", "invalid interval '[0, " + "1" * 36),
        ("char: " + "1" * 4000, "field characteristic must be prime and "
         "below 65536, got 111"),
    ], ids=["past-the-digit-limit", "not-a-number", "characteristic"])
    def test_long_literal_is_quoted_by_its_start(self, line, start):
        """An error on a literal of thousands of characters quotes only its
        start and stays one short line."""
        with pytest.raises(DocumentError) as exc:
            parse(f"thicket/1\nkind: barcode\n{line}\n")
        msg = str(exc.value)
        assert msg.startswith(start) and "..." in msg
        assert msg.endswith("(line 3)") and len(msg) < 400, len(msg)
        assert "\n" not in msg

    @pytest.mark.skipif(not sys.get_int_max_str_digits(),
                        reason="the interpreter reads ints of any length")
    @pytest.mark.parametrize("value", ["1" * 4301, "1" * 4301 + "/3",
                                       "1" * 4301 + ".5", "0." + "1" * 4301],
                             ids=["integer", "p/q", "decimal", "fraction"])
    def test_document_past_the_digit_limit_is_one_short_error(self, value):
        """A document end past the digit limit is one ``DocumentError`` line
        that quotes the end's start and names the limit."""
        with pytest.raises(DocumentError) as exc:
            parse(f"thicket/1\nkind: barcode\nchar: 2\nbar: 0 [0, {value}]\n")
        msg = str(exc.value)
        assert msg.startswith("invalid interval '[0, " + value[:20])
        assert msg.endswith(f": {_READ_LIMIT} (line 4)"), msg
        assert "set_int_max_str_digits" not in msg and len(msg) < 200

    def test_report_takes_any_key(self):
        doc = parse("thicket/1\nkind: report\nverdict: pass\nbars: 3\n"
                    "verdict: fail\n")
        assert doc.payload == {"verdict": "fail", "bars": "3"}


def _literal_oracle(text):
    """What ``parse_extended`` gave before it read ``p/q`` itself: the
    infinities by name, everything else through ``Fraction(str)``, with a
    zero denominator reported as a ``ValueError``, and the interpreter's
    refusal of a run of digits past its limit in ``serialize``'s words."""
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    try:
        return Fr(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {t!r}") from None
    except ValueError as exc:
        if "sys.set_int_max_str_digits" not in str(exc):
            raise
        raise ValueError(_READ_LIMIT) from None


_READ_LIMIT = (f"a number has more than {sys.get_int_max_str_digits()} "
               "digits, the interpreter's limit for reading an integer")


def _outcome(fn, text):
    """(type, value) of a parse, or (error class, message) of its failure."""
    try:
        x = fn(text)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return type(x), x


# ---------------------------------------------------------------------------
# The framed read of barcode documents against the per-bar route.

# Primes just below 2^32: the ends of three of them put the frame past
# 2^64, where the read stays in the identity frame.
_BIG_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189)


def _literal(rng, x) -> str:
    """One of the ways to write the extended rational x: ``p/q``, ``p/q``
    times k over k, a decimal where x has one, an integer, a sign."""
    if x == POS_INF:
        return rng.choice(("+inf", "inf", "oo", "+oo"))
    if x == NEG_INF:
        return rng.choice(("-inf", "-oo"))
    forms = [str(x), f"{2 * x.numerator}/{2 * x.denominator}",
             f"{x.numerator}/{x.denominator}"]
    q = x.denominator
    while q % 2 == 0:
        q //= 2
    while q % 5 == 0:
        q //= 5
    if q == 1:                          # a terminating decimal
        forms.append(str(float(x)) if x.denominator < 10 ** 6 else str(x))
    if x.numerator >= 0:
        forms.append("+" + str(x))
    return rng.choice(forms)


# Bar lines that ``Interval`` or the line format refuses: empty, closed at
# an infinite end, a bad literal, malformed.
_BAD_BARS = ("0 (1, 1)", "0 [1, 1)", "1 [2, 1]", "0 (3/2, 1/2]",
             "0 [-inf, 1)", "0 (0, +inf]", "0 (+inf, +inf)", "0 (1, -inf)",
             "0 [0, 1/0]", "0 [0, abc]", "0 [1, 2, 3]", "0 [0, 1",
             "x [0, 1]", "0", "0 <0, 1>", "2 []")


def _value(rng, dens):
    return Fr(rng.randint(-40, 40), rng.choice(dens))


def _bar_text(rng, dens) -> str:
    """A valid bar line: any shape, ends drawn from ``dens``."""
    lk, rk = rng.choice("[("), rng.choice("])")
    shape = rng.random()
    lo, hi = sorted((_value(rng, dens), _value(rng, dens)))
    if shape < 0.1:
        lo, lk = NEG_INF, "("
    elif shape < 0.2:
        hi, rk = POS_INF, ")"
    elif shape < 0.25:
        lo, lk, hi, rk = NEG_INF, "(", POS_INF, ")"
    elif shape < 0.35 or lo == hi:
        hi, lk, rk = lo, "[", "]"       # a point
    degree = rng.choice(("0", "1", "-1", "+2", "3"))
    space = rng.choice((" ", "  "))
    return (f"bar: {degree} {lk}{_literal(rng, lo)},{space}"
            f"{_literal(rng, hi)}{rk}")


def _document(rng, p, n, dens, bad=0.0) -> str:
    lines = ["thicket/1", "kind: barcode", f"char: {p}", "space: line"]
    for _ in range(n):
        if rng.random() < bad:
            lines.append("bar: " + rng.choice(_BAD_BARS))
        else:
            lines.append(_bar_text(rng, dens))
        if rng.random() < 0.05:
            lines.append(rng.choice(("", "# a comment")))
    return "\n".join(lines) + "\n"


def _parsed(read, text):
    """("ok", payload) or ("error", message, line) of one read."""
    try:
        return "ok", read(text)
    except DocumentError as exc:
        return "error", str(exc), exc.line


@pytest.mark.parametrize("p", [2, 3, 5])
class TestFramedParse:
    """``parse`` reads a barcode document's bars in one frame; the per-bar
    route, each bar a checked ``Interval``, gives the same payload, or the
    same error on the same line."""

    @staticmethod
    def _check(text):
        got = _parsed(lambda t: parse(t).payload, text)
        assert got == _parsed(parse_per_bar, text), text
        if got[0] == "ok":
            for b in got[1].bars:
                iv = b.iv
                assert type(iv) is Interval and all(
                    type(x) is Fr or x in (NEG_INF, POS_INF)
                    for x in (iv.left, iv.right)), b
                assert Interval(iv.left, iv.lkind, iv.right, iv.rkind) == iv
        return got[0]

    def test_valid_documents_match_the_per_bar_route(self, p):
        rng = random.Random(80 + p)
        sizes = (0, 1, 2, _KEY_MIN_BARS - 1, _KEY_MIN_BARS, _KEY_MIN_BARS + 1,
                 60)
        for n in sizes:
            for dens in ((1, 2, 4), (1, 2, 3, 5, 8, 10), _BIG_PRIMES):
                for _ in range(3):
                    assert self._check(_document(rng, p, n, dens)) == "ok"

    def test_one_value_in_three_spellings(self, p):
        """``1/2``, ``2/4`` and ``0.5`` are three literals of one value:
        one end in the frame, one bar."""
        lines = ["thicket/1", "kind: barcode", f"char: {p}"]
        lines += [f"bar: 0 [{x}, 3]" for x in ("1/2", "2/4", "0.5") * 7]
        text = "\n".join(lines) + "\n"
        assert self._check(text) == "ok"
        F = parse(text).payload
        assert len(F) == 21 and len(set(F.bars)) == 1
        assert F.bars[0].iv == closed(Fr(1, 2), 3)

    def test_errors_match_the_per_bar_route(self, p):
        """Documents with bad bars here and there: the first offending line
        in document order names the error, malformed, a bad literal or
        empty alike."""
        rng = random.Random(90 + p)
        seen = set()
        for n in (1, 5, _KEY_MIN_BARS, 40, 60):
            for dens in ((1, 2, 4), _BIG_PRIMES):
                for _ in range(12):
                    seen.add(self._check(_document(rng, p, n, dens, bad=0.04)))
        assert seen == {"ok", "error"}

    def test_the_first_offending_line_names_the_error(self, p):
        """An empty bar on line 6 comes before a bad literal on line 9: the
        frame check of the empty bar would run only after every literal is
        read, and line 6 still names the error, with or without line 9, and
        in or out of a frame."""
        lines = ["thicket/1", "kind: barcode", f"char: {p}", "space: line",
                 "bar: 0 [0, 1]", "bar: 0 (1, 1)", "bar: 1 [0, 2)",
                 "bar: 0 (1/3, 2]", "bar: 0 [0, 1/0]"]
        lines += [f"bar: 0 [{k}, {k + 1}]" for k in range(20)]
        fixed = lines[:8] + ["bar: 0 [0, 1/2]"] + lines[9:]
        for text in ("\n".join(lines) + "\n", "\n".join(lines[:9]) + "\n",
                     "\n".join(fixed) + "\n", "\n".join(fixed[:9]) + "\n"):
            assert self._check(text) == "error"
            with pytest.raises(DocumentError) as exc:
                parse(text)
            assert exc.value.line == 6
            assert str(exc.value) == ("invalid interval '(1, 1)': empty "
                                      "degenerate interval: (1, 1) (line 6)")


class TestLiterals:
    """``parse_extended`` reads ``p/q`` and integers directly and hands
    every other shape to ``Fraction``: on each shape it must agree with
    ``Fraction(str)`` in value, type, error class and message."""

    @pytest.mark.parametrize("text", [
        # p/q and integers, signs on either part
        "1/2", "-1/2", "+1/2", "1/-2", "1/+2", "-1/-2", "--1/2", "+-1/2",
        "3", "-3", "+3", "0", "-0", "+0", "007/010", "-0/5", "12/8",
        # zero denominators
        "1/0", "-1/0", "+1/0", "0/0", "-0/00",
        # spaces inside and around
        "1 /2", "1/ 2", "1 / 2", "- 1/2", " 1/2 ", "\t-3/4\n", "1 2",
        # empty parts
        "/2", "1/", "/", "+", "-", "", "   ", "+/2", "-/2",
        # more than one slash, decimals, exponents, underscores
        "1/2/3", "1//2", "1.5", ".5", "5.", "-1.25", "1.5/2", "1/2.5",
        "1e3", "1E-3", "-2.5e+2", "1e", "e3", "1e3/2", "1/2e3",
        "1_000", "1_000/3", "1/1_0", "1__0", "_1", "1_", "-1_0/2_0",
        # non-ASCII digits: decimal ones are digits, superscripts are not
        "\u0663/\u0664", "-\u0663/\u0664", "\u0661\u0662",
        "1/\u0664", "\u00b3/4", "\uff11/\uff12",
        # names and garbage
        "inf", "-inf", "+inf", "oo", "-oo", "+oo", "nan", "Infinity",
        "abc", "1/2x", "0x10", "1j",
        # past the interpreter's int-digit limit, signed or not
        "1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301,
    ])
    def test_agrees_with_fraction(self, text):
        assert _outcome(parse_extended, text) == _outcome(_literal_oracle,
                                                          text)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123456789+-/ ._\u0663\u00b3", max_size=8))
    def test_agrees_with_fraction_on_random_text(self, text):
        assert _outcome(parse_extended, text) == _outcome(_literal_oracle,
                                                          text)

    @pytest.mark.parametrize("text", [
        f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}", "1E+10000000",
        "-2.5e10000000", "1e4_301", "1e000010000000", "3e" + "9" * 5000])
    def test_exponent_past_the_bound_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            parse_extended(text)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == (f"exponent of {text!r} is past "
                                  f"{MAX_EXPONENT} in magnitude")

    @pytest.mark.parametrize("text", [
        f"1e{MAX_EXPONENT}", f"-1e-{MAX_EXPONENT}", "1e0004300", "2.5e-3"])
    def test_exponent_within_the_bound_is_read(self, text):
        assert parse_rational(text) == Fr(text)

    @pytest.mark.skipif(not sys.get_int_max_str_digits(),
                        reason="the interpreter reads ints of any length")
    @pytest.mark.parametrize("shape", ["{}", "-{}", "{}/3", "3/{}", "{}.5",
                                       "0.{}", "{}e2"])
    def test_digits_past_the_limit_name_it(self, shape):
        """A run of more digits than the interpreter reads, on the fast
        path or through ``Fraction``, is one ``ValueError`` that names the
        limit and gives no hint on raising it; one digit fewer is read."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as exc:
            parse_extended(shape.format("1" * (limit + 1)))
        assert str(exc.value) == _READ_LIMIT
        assert parse_extended(shape.format("1" * limit)) == \
            Fr(shape.format("1" * limit))


class TestSvg:
    def test_empty_framed(self):
        text = barcode_svg(gb())
        assert "<svg" in text and "empty barcode" in text

    def test_two_degree_rows_labeled(self):
        text = barcode_svg(gb(bar(closed(0, 1), 0), bar(open_iv(1, 2), 1)))
        assert "deg 0" in text and "deg 1" in text

    def test_endpoint_caps_distinct(self):
        text = barcode_svg(gb(bar(half_open(0, 1), 0)))
        assert 'fill="white"' in text          # hollow open cap
        assert 'fill="#1f77b4"' in text        # filled closed cap

    def test_circle_annulus(self):
        F = CircleSheaf(4, [Bar(closed(0, 1), 0)], [(1, [[1]], 0)])
        text = circle_svg(F)
        assert "<path" in text and "band" in text

    def test_emit_to_file(self, tmp_path):
        p = tmp_path / "x.svg"
        emit_plot(gb(bar(closed(0, 1))), p)
        assert p.read_text().startswith("<svg")

    def test_barcode_space_tag_enforced(self):
        text = "thicket/1\nkind: barcode\nchar: 2\nspace: circle C=4\nbar: 0 [0, 1]\n"
        with pytest.raises(DocumentError):
            parse(text)
