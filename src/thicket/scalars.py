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
    """An extended rational literal from outside text: ``p/q``, an integer,
    or one of the infinities.  A malformed literal and a zero denominator
    both raise ``ValueError``."""
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {t!r}") from None


def parse_rational(text: str) -> Fraction:
    """A finite rational literal from outside text (``parse_extended``
    without the infinities)."""
    x = parse_extended(text)
    if not is_finite(x):
        raise ValueError(f"not a finite rational: {text.strip()!r}")
    return x


def format_extended(x) -> str:
    if is_finite(x):
        return str(x)
    return "+inf" if x == POS_INF else "-inf"
