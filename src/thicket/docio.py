"""Plain-text document format, version header ``thicket/1``.

One value per file: a barcode, a circle sheaf, a PL map, or an experiment
report.  Rational literals are written ``p/q``; interval endpoints carry
their kind through bracket shape, with ``-inf``/``+inf`` for rays.  Parsing
validates every module invariant on load and reports offending lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barcode import CLOSED, OPEN, Bar, GradedBarcode, Interval
from .circle import CircleSheaf
from .plmaps import PLMap
from .scalars import parse_extended, parse_rational

VERSION = "thicket/1"

# The keys each kind reads, and those it reads at most once (``kind`` is
# checked on its own); a report document takes any key.
_KEYS = {"barcode": {"kind", "char", "space", "bar"},
         "circle": {"kind", "char", "space", "spiral", "band"},
         "plmap": {"kind", "char", "extend", "domain", "pt"}}
_SINGLE_KEYS = {"char", "space", "extend", "domain"}


class DocumentError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class Document:
    kind: str                     # 'barcode' | 'circle' | 'plmap' | 'report'
    payload: object
    char: int = 2
    space: object = "line"


def parse_interval(text: str, line=None) -> Interval:
    t = text.strip()
    if len(t) < 2 or t[0] not in "[(" or t[-1] not in "])":
        raise DocumentError(f"malformed interval {text!r}", line)
    lk = CLOSED if t[0] == "[" else OPEN
    rk = CLOSED if t[-1] == "]" else OPEN
    inner = t[1:-1].split(",")
    if len(inner) != 2:
        raise DocumentError(f"malformed interval {text!r}", line)
    try:
        left = parse_extended(inner[0])
        right = parse_extended(inner[1])
        return Interval(left, lk, right, rk)
    except ValueError as exc:
        raise DocumentError(f"invalid interval {text!r}: {exc}", line) from None


def _parse_bar(key: str, text: str, line) -> Bar:
    """``<degree> <interval>``, the value of a ``bar:`` or ``spiral:`` line."""
    words = text.split(None, 1)
    try:
        degree = int(words[0])
        iv_txt = words[1]
    except (IndexError, ValueError):
        raise DocumentError(
            f"malformed {key} {text!r}: expected '<degree> <interval>'",
            line) from None
    return Bar(parse_interval(iv_txt, line), degree)


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
            f"malformed band {text!r}: expected "
            "'<degree> rank=<n> monodromy=<row>;<row>...'", line) from None
    return rank, mono, degree


def serialize(doc: Document) -> str:
    lines = [VERSION, f"kind: {doc.kind}"]
    if doc.kind == "barcode":
        F: GradedBarcode = doc.payload
        lines.append(f"char: {F.char}")
        lines.append("space: line")
        # ``!s`` calls ``Interval.__str__`` without the format() dispatch,
        # which costs about a tenth of the time of a bar line
        for b in F.bars:
            lines.append(f"bar: {b.degree} {b.iv!s}")
    elif doc.kind == "circle":
        F: CircleSheaf = doc.payload
        lines.append(f"char: {F.char}")
        lines.append(f"space: circle C={F.C}")
        for b in F.spirals:
            lines.append(f"spiral: {b.degree} {b.iv!s}")
        for band in F.bands:
            rows = ";".join(",".join(str(x) for x in row) for row in band.monodromy)
            lines.append(f"band: {band.degree} rank={band.rank} monodromy={rows}")
    elif doc.kind == "plmap":
        f: PLMap = doc.payload
        lines.append(f"extend: {f.left_ext} {f.right_ext}")
        if f.domain is not None:
            lines.append(f"domain: {f.domain!s}")
        for x, y in zip(f.xs, f.ys):
            lines.append(f"pt: {x} {y}")
    elif doc.kind == "report":
        for k, v in doc.payload.items():
            lines.append(f"{k}: {v}")
    else:
        raise DocumentError(f"unknown document kind {doc.kind!r}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Document:
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
            raise DocumentError(f"expected 'key: value', got {s!r}", i)
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
                raise DocumentError(f"invalid characteristic {v!r}", i) from None
        if k == "space":
            if v == "line":
                space = "line"
            elif v.startswith("circle"):
                try:
                    space = ("circle", parse_rational(v.split("C=", 1)[1]))
                except (IndexError, ValueError):
                    raise DocumentError(f"invalid space tag {v!r}", i) from None
            else:
                raise DocumentError(f"unknown space tag {v!r}", i)
    try:
        if kind == "barcode":
            if space != "line":
                raise DocumentError("barcode documents live on the line")
            bars = []
            for k, v, i in fields:
                if k != "bar":
                    continue
                bars.append(_parse_bar(k, v, i))
            return Document("barcode", GradedBarcode(bars, char), char, "line")
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
                    if len(parts) != 2:
                        raise DocumentError(f"invalid extension spec {v!r}", i)
                    lext, rext = parts
                elif k == "domain":
                    domain = parse_interval(v, i)
                elif k == "pt":
                    try:
                        x, y = map(parse_rational, v.split())
                    except ValueError:
                        raise DocumentError(f"invalid point {v!r}", i) from None
                    xs.append(x)
                    ys.append(y)
            return Document("plmap",
                            PLMap(tuple(xs), tuple(ys), lext, rext, domain),
                            char, "line")
        if kind == "report":
            payload = {k: v for k, v, _ in fields if k != "kind"}
            return Document("report", payload, char, space)
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
