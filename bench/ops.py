"""One operation per workload item, its correctness check and its canonical
output.

``execute`` is the timed part.  ``check`` runs outside the timed span and
returns ``None`` or a one-line reason; ``canonical`` turns an output into
text for the result digest, identical between traced and untraced runs.
"""

from __future__ import annotations

from thicket import (GradedBarcode, circle_distance, circle_thicken, distance,
                     dualize, fourier_sato, global_sections, global_sections_c,
                     pushforward_shriek, thicken, verify_certificate)
from thicket.circle import circle_ops
from thicket.docio import barcode_doc, parse, serialize


def execute(op):
    tag = op[0]
    if tag == "line":
        return distance(op[1], op[2])
    if tag == "circle":
        return circle_distance(op[1], op[2])
    if tag == "fs":
        forward = fourier_sato(op[1])
        return forward, fourier_sato(forward, "inverse")
    if tag == "thicken":
        return circle_thicken(op[1], op[2])
    if tag == "push":
        return pushforward_shriek(op[1], op[2])
    if tag == "pipeline":
        return _pipeline(op[1], op[2])
    raise ValueError(f"unknown operation {tag!r}")


def _pipeline(text: str, a):
    """parse -> thicken at +a and -a -> direct sum -> dualize -> sections ->
    serialize."""
    F = parse(text).payload
    P = thicken(F, a)
    N = thicken(F, -a)
    S = GradedBarcode(P.bars + N.bars, F.char)
    D = dualize(S)
    return F, D, global_sections(D), serialize(barcode_doc(D))


def check(op, out) -> str | None:
    tag = op[0]
    if tag in ("line", "circle"):
        F, G = op[1], op[2]
        if not out.lower <= out.upper:
            return f"lower {out.lower} > upper {out.upper}"
        if out.exact and out.lower != out.upper:
            return f"exact but lower {out.lower} != upper {out.upper}"
        if out.witness is not None:
            if tag == "line":
                ok = verify_certificate(F, G, out.witness)
            else:
                ok = verify_certificate(F.spiral_barcode(), G.spiral_barcode(),
                                        out.witness, circle_ops(F.C, F.char))
            if not ok:
                return "witness fails verify_certificate"
        return None
    if tag == "fs":
        if out[1] != op[1]:
            return "fourier_sato inverse does not undo forward"
        return None
    if tag == "thicken":
        if circle_thicken(out, -op[2]) != op[1]:
            return "circle_thicken by -a does not undo a"
        return None
    if tag == "push":
        if global_sections_c(out) != global_sections_c(op[2]):
            return "pushforward changed compactly supported sections"
        return None
    if tag == "pipeline":
        F, D, _, text = out
        if parse(text).payload != D:
            return "parse(serialize(x)) != x"
        a = op[2]
        if dualize(thicken(F, a)) != thicken(dualize(F), -a):
            return "dualize(thicken(F, a)) != thicken(dualize(F), -a)"
        return None
    raise ValueError(f"unknown operation {tag!r}")


def is_exact(op, out) -> bool:
    """Distance results carry an exactness flag; every other operation
    returns an exact canonical form."""
    return out.exact if op[0] in ("line", "circle") else True


def canonical(op, out) -> str:
    tag = op[0]
    if tag in ("line", "circle"):
        a = None if out.witness is None else out.witness.a
        return f"{tag} {out.lower} {out.upper} {out.exact} {out.conclusive} {a}"
    if tag == "fs":
        return f"fs {out[0]!r}"
    if tag in ("thicken", "push"):
        return f"{tag} {out!r}"
    if tag == "pipeline":
        return f"pipeline {out[2]} {out[3]}"
    raise ValueError(f"unknown operation {tag!r}")
