"""Exact rational scalars and their two-point extension by -inf/+inf.

Finite scalars are ``fractions.Fraction``; the infinities are the float
infinities, which order correctly against Fractions and never mix into
finite arithmetic (guarded by the helpers here).
"""

from __future__ import annotations

import math
from fractions import Fraction

NEG_INF = float("-inf")
POS_INF = float("inf")

Extended = object  # Fraction | float(+-inf); alias for documentation only


def is_finite(x) -> bool:
    return isinstance(x, Fraction)


def check_extended(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and math.isinf(x):
        return x
    raise TypeError(f"not an extended rational: {x!r}")


def parse_extended(text: str):
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    return Fraction(t)


def format_extended(x) -> str:
    if is_finite(x):
        return str(x)
    return "+inf" if x == POS_INF else "-inf"
