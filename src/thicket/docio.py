"""Plain-text document format, version header ``thicket/1``.

One value per file: a barcode, a circle sheaf, a PL map, an experiment
report, or a synthetic extension seed (read only).  Rational literals are
written ``p/q``; interval endpoints carry their kind through bracket shape,
with ``-inf``/``+inf`` for rays.  Parsing validates every module invariant
on load and reports offending lines.

The ``bar:`` lines of a barcode document are read in one integer frame
(``_framed_barcode``): each distinct literal is read once, the distinct
values are scaled into one frame (``barcode.value_frame``), each bar is
checked on its frame values, and ``barcode.rows_barcode`` orders the bars
on those values and builds them without checking them again.  A document
with a bad bar line is read again one checked bar at a time
(``_parse_bar``), so the error and its line are those of the first
offending line in document order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                      rows_barcode, value_frame)
from .circle import CircleSheaf
from .extend import check_seed, synthetic_scalar_seed
from .fieldmath import check_char
from .plmaps import PLMap
from .scalars import parse_extended, parse_rational

VERSION = "thicket/1"

# The keys each kind reads, and those it reads at most once (``kind`` is
# checked on its own); a report document takes any key.
_KEYS = {"barcode": {"kind", "char", "space", "bar"},
         "circle": {"kind", "char", "space", "spiral", "band"},
         "plmap": {"kind", "char", "extend", "domain", "pt"},
         "seed": {"kind", "alpha", "mode", "restrict-default", "restrict"}}
_SINGLE_KEYS = {"char", "space", "extend", "domain", "alpha", "mode",
                "restrict-default"}


def _clip(text: str, limit: int = 40) -> str:
    """``text`` cut after ``limit`` characters: an error message quotes a
    bounded prefix of a long literal."""
    return text if len(text) <= limit else text[:limit] + "..."


class DocumentError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class Document:
    kind: str               # 'barcode' | 'circle' | 'plmap' | 'report' | 'seed'
    payload: object
    char: int = 2
    space: object = "line"


def parse_interval(text: str, line=None) -> Interval:
    t = text.strip()
    if len(t) < 2 or t[0] not in "[(" or t[-1] not in "])":
        raise DocumentError(f"malformed interval {_clip(text)!r}", line)
    lk = CLOSED if t[0] == "[" else OPEN
    rk = CLOSED if t[-1] == "]" else OPEN
    inner = t[1:-1].split(",")
    if len(inner) != 2:
        raise DocumentError(f"malformed interval {_clip(text)!r}", line)
    try:
        left = parse_extended(inner[0])
        right = parse_extended(inner[1])
        return Interval(left, lk, right, rk)
    except ValueError as exc:
        raise DocumentError(f"invalid interval {_clip(text)!r}: "
                            f"{_clip(str(exc), 200)}", line) from None


def _parse_bar(key: str, text: str, line) -> Bar:
    """``<degree> <interval>``, the value of a ``bar:`` or ``spiral:`` line."""
    words = text.split(None, 1)
    try:
        degree = int(words[0])
        iv_txt = words[1]
    except (IndexError, ValueError):
        raise DocumentError(
            f"malformed {key} {_clip(text)!r}: expected '<degree> <interval>'",
            line) from None
    return Bar(parse_interval(iv_txt, line), degree)


# The kind of an interval end by its bracket.
_LEFT_KINDS = {"[": CLOSED, "(": OPEN}
_RIGHT_KINDS = {"]": CLOSED, ")": OPEN}


def _framed_barcode(fields, char: int):
    """The barcode of the ``bar:`` lines of ``fields``, read in one frame,
    or None when one of them is malformed, has a bad literal or is empty.

    Each distinct literal is read once (``parse_extended``), the distinct
    values are put in one frame (``barcode.value_frame``), and each bar is
    checked on its frame values: left < right, or equal with both ends
    closed, and no closed infinite end.  These are the checks of
    ``Interval``, and the frame keeps the order of the values, so the rows
    are valid intervals and ``barcode.rows_barcode`` orders them and reads
    each end back to the value its literal was read as."""
    literals, rows = {}, []
    try:
        for key, text, _ in fields:
            if key != "bar":
                continue
            degree, iv = text.split(None, 1)
            left, right = iv[1:-1].split(",")
            left, right = left.strip(), right.strip()
            if left not in literals:
                literals[left] = parse_extended(left)
            if right not in literals:
                literals[right] = parse_extended(right)
            rows.append((left, _LEFT_KINDS[iv[0]], right, _RIGHT_KINDS[iv[-1]],
                         int(degree)))
    except (KeyError, ValueError):
        return None
    values, back = value_frame(list(literals.values()), len(rows))
    at = dict(zip(literals, values))
    rows = [(at[left], lk, at[right], rk, d) for left, lk, right, rk, d in rows]
    for left, lk, right, rk, _ in rows:
        if left < right:
            if (lk is CLOSED and type(left) is float
                    or rk is CLOSED and type(right) is float):
                return None
        elif (left != right or lk is not CLOSED or rk is not CLOSED
              or type(left) is float):
            return None
    return rows_barcode(rows, back, char)


def _parse_band(text: str, line) -> tuple:
    """``<degree> rank=<n> monodromy=<row>;<row>...`` as (rank, rows, degree);
    the matrix itself is checked by ``circle.make_band``."""
    words = text.split()
    try:
        degree = int(words[0])
        parts = dict(w.split("=", 1) for w in words[1:])
        rank = int(parts["rank"])
        mono = [[int(x) for x in row.split(",")]
                for row in parts["monodromy"].split(";")]
    except (IndexError, KeyError, ValueError):
        raise DocumentError(
            f"malformed band {_clip(text)!r}: expected "
            "'<degree> rank=<n> monodromy=<row>;<row>...'", line) from None
    return rank, mono, degree


def serialize(doc: Document) -> str:
    if doc.kind == "seed":
        raise DocumentError("a seed document is read, never written")
    if doc.kind not in _KEYS and doc.kind != "report":
        raise DocumentError(f"unknown document kind {doc.kind!r}")
    lines = [VERSION, f"kind: {doc.kind}"]
    # str() refuses an int of more digits than the interpreter's limit
    # with a ValueError, and nothing else here raises one
    try:
        if doc.kind == "barcode":
            F: GradedBarcode = doc.payload
            lines.append(f"char: {F.char}")
            lines.append("space: line")
            # ``!s`` calls ``Interval.__str__`` without the format()
            # dispatch, which costs about a tenth of the time of a bar line
            for b in F.bars:
                lines.append(f"bar: {b.degree} {b.iv!s}")
        elif doc.kind == "circle":
            F: CircleSheaf = doc.payload
            lines.append(f"char: {F.char}")
            lines.append(f"space: circle C={F.C}")
            for b in F.spirals:
                lines.append(f"spiral: {b.degree} {b.iv!s}")
            for band in F.bands:
                rows = ";".join(",".join(str(x) for x in row)
                                for row in band.monodromy)
                lines.append(f"band: {band.degree} rank={band.rank} "
                             f"monodromy={rows}")
        elif doc.kind == "plmap":
            f: PLMap = doc.payload
            lines.append(f"extend: {f.left_ext} {f.right_ext}")
            if f.domain is not None:
                lines.append(f"domain: {f.domain!s}")
            for x, y in zip(f.xs, f.ys):
                lines.append(f"pt: {x} {y}")
        else:
            for k, v in doc.payload.items():
                lines.append(f"{k}: {v}")
    except ValueError:
        raise DocumentError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for writing an integer") from None
    return "\n".join(lines) + "\n"


def parse(text: str) -> Document:
    """The document of ``text``, every invariant of its kind checked; a
    ``DocumentError`` names the first offending line where there is one.

    A barcode document's bars are read in one integer frame
    (``_framed_barcode``); if a bar line is malformed, has a bad literal or
    is empty, they are read again one checked ``Interval`` at a time
    (``_parse_bar``), which raises on the first such line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VERSION:
        raise DocumentError(
            f"unrecognized version header {lines[0].strip() if lines else ''!r}",
            1)
    fields = []
    for i, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if ":" not in s:
            raise DocumentError(f"expected 'key: value', got {_clip(s)!r}", i)
        key, val = s.split(":", 1)
        fields.append((key.strip(), val.strip(), i))
    kinds = [v for k, v, _ in fields if k == "kind"]
    if len(kinds) != 1:
        raise DocumentError("document must declare exactly one kind")
    kind = kinds[0]
    known = _KEYS.get(kind)
    if known is not None:
        seen = set()
        for k, _, i in fields:
            if k not in known:
                raise DocumentError(f"unknown key {k!r} in a {kind} document",
                                    i)
            if k in _SINGLE_KEYS:
                if k in seen:
                    raise DocumentError(f"repeated key {k!r}", i)
                seen.add(k)
    char = 2
    space = "line"
    for k, v, i in fields:
        if k == "char":
            try:
                char = int(v)
            except ValueError:
                raise DocumentError(f"invalid characteristic {_clip(v)!r}",
                                    i) from None
            try:
                check_char(char)
            except ValueError as exc:
                raise DocumentError(_clip(str(exc), 200), i) from None
        if k == "space":
            if v == "line":
                space = "line"
            elif v.startswith("circle"):
                try:
                    space = ("circle", parse_rational(v.split("C=", 1)[1]))
                except (IndexError, ValueError):
                    raise DocumentError(f"invalid space tag {_clip(v)!r}",
                                        i) from None
            else:
                raise DocumentError(f"unknown space tag {_clip(v)!r}", i)
    try:
        if kind == "barcode":
            if space != "line":
                raise DocumentError("barcode documents live on the line")
            F = _framed_barcode(fields, char)
            if F is None:
                # one bar at a time, checked, so the first offending line
                # in document order names the error
                F = GradedBarcode([_parse_bar(k, v, i) for k, v, i in fields
                                   if k == "bar"], char)
            return Document("barcode", F, char, "line")
        if kind == "circle":
            if not (isinstance(space, tuple) and space[0] == "circle"):
                raise DocumentError("circle document needs 'space: circle C=<rat>'")
            spirals, bands = [], []
            for k, v, i in fields:
                if k == "spiral":
                    spirals.append(_parse_bar(k, v, i))
                elif k == "band":
                    bands.append(_parse_band(v, i))
            return Document("circle", CircleSheaf(space[1], spirals, bands, char),
                            char, space)
        if kind == "plmap":
            xs, ys = [], []
            lext = rext = "affine"
            domain = None
            for k, v, i in fields:
                if k == "extend":
                    parts = v.split()
                    if len(parts) != 2 or not set(parts) <= {"affine", "constant"}:
                        raise DocumentError(
                            f"invalid extension spec {_clip(v)!r}", i)
                    lext, rext = parts
                elif k == "domain":
                    domain = parse_interval(v, i)
                elif k == "pt":
                    try:
                        x, y = map(parse_rational, v.split())
                    except ValueError:
                        raise DocumentError(f"invalid point {_clip(v)!r}",
                                            i) from None
                    xs.append(x)
                    ys.append(y)
            return Document("plmap",
                            PLMap(tuple(xs), tuple(ys), lext, rext, domain),
                            char, "line")
        if kind == "report":
            payload = {k: v for k, v, _ in fields if k != "kind"}
            return Document("report", payload, char, space)
        if kind == "seed":
            alpha = default = Fraction(1)
            mode = "nonnegative"
            table, restricts = {}, []
            for k, v, i in fields:
                # alpha and mode are checked as they come, at their line
                try:
                    if k == "alpha":
                        alpha = parse_rational(v)
                    elif k == "restrict-default":
                        default = parse_rational(v)
                    elif k == "mode":
                        mode = v
                    elif k == "restrict":
                        words = v.split()
                        if len(words) != 3:
                            raise ValueError(
                                f"malformed seed line {_clip(f'restrict: {v}')!r}: "
                                "expected 'restrict: <a> <b> <value>'")
                        a, b, value = map(parse_rational, words)
                        restricts.append((a, b, v, i))
                        table[(a, b)] = value
                    check_seed(alpha, mode)
                except ValueError as exc:
                    raise DocumentError(_clip(str(exc), 200), i) from None
            seed = synthetic_scalar_seed(alpha, table, default, mode)
            for a, b, v, i in restricts:    # after the loop: alpha may come late
                if not 0 <= a <= b <= alpha:
                    raise DocumentError(
                        f"seed line {_clip(f'restrict: {v}')!r} needs "
                        f"0 <= a <= b <= alpha = {alpha}", i)
            return Document("seed", seed)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"semantic error: {exc}") from None
    raise DocumentError(f"unknown document kind {kind!r}")


def barcode_doc(F: GradedBarcode) -> Document:
    return Document("barcode", F, F.char, "line")


def circle_doc(F: CircleSheaf) -> Document:
    return Document("circle", F, F.char, ("circle", F.C))


def plmap_doc(f: PLMap) -> Document:
    return Document("plmap", f)


def report_doc(payload: dict) -> Document:
    return Document("report", payload)
