"""Document round trips, parse errors, SVG output."""

import random
from fractions import Fraction as Fr

import pytest

from conftest import bar, gb, mixed_bar
from thicket.barcode import (Bar, GradedBarcode, closed, half_open, open_iv,
                             ray_left, singleton)
from thicket.circle import CircleSheaf
from thicket.corpus import rand_circle_sheaf
from thicket.docio import (Document, DocumentError, barcode_doc, circle_doc,
                           parse, plmap_doc, report_doc, serialize)
from thicket.plmaps import PLMap, abs_map
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
