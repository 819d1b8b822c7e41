"""Exact rational scalars and their two-point extension by -inf/+inf.

Finite scalars are ``fractions.Fraction``; the infinities are the float
infinities, which order correctly against Fractions and never mix into
finite arithmetic (guarded by the helpers here).  Inside an integer frame
(``int_frame``) finite values are ints, read over the frame's M, and
``from_frame`` (or its memo, ``FrameReader``) turns them back into
Fractions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

NEG_INF = float("-inf")
POS_INF = float("inf")

Extended = object  # Fraction | float(+-inf); alias for documentation only


def is_finite(x) -> bool:
    """Whether an extended scalar is finite.  The infinities are the only
    floats: a finite value is a Fraction, or an int inside an integer frame.
    So the test is on the type, and the rules that read it (the bar rules,
    the costs, the line Hom calculus) run unchanged on both kinds of ends."""
    return type(x) is not float


def int_frame(values, factor: int = 1, max_bits=None):
    """(M, ints): M is ``factor`` times the lcm of the finite values'
    denominators, ``ints[k]`` is ``values[k] * M``; infinities pass through.
    None when ``max_bits`` is given and M has more bits: no value of such a
    frame is scaled, nor read back through a big-int gcd."""
    m = factor * math.lcm(*[x.denominator for x in values if isinstance(x, Fraction)])
    if max_bits is not None and m.bit_length() > max_bits:
        return None
    return m, [x.numerator * (m // x.denominator) if isinstance(x, Fraction)
               else x for x in values]


def from_frame(m: int, x):
    """The value of the frame value ``x``, where ``m`` is the M of its
    ``int_frame``: the Fraction x / m, or an infinity unchanged."""
    return x if type(x) is float else Fraction(x, m)


class FrameReader(dict):
    """``from_frame`` over one frame's M, kept: ``reader[x]`` is the value
    of the frame value ``x``, made once per distinct x, so that equal ends
    read back to one Fraction.  ``known`` seeds it with (x, value) pairs
    whose values exist already."""

    __slots__ = ("m",)

    def __init__(self, m: int, known=()):
        super().__init__(known)
        self.m = m

    def __missing__(self, x):
        q = self[x] = from_frame(self.m, x)
        return q


def check_extended(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and math.isinf(x):
        return x
    raise TypeError(f"not an extended rational: {x!r}")


# Largest decimal exponent a literal may carry, in magnitude.  Fraction
# builds 10**exponent before anything can refuse it, which takes about 11 s
# at 10**7; 4300 is CPython's default limit on the digits of an int written
# as a string.
MAX_EXPONENT = 4300


def parse_extended(text: str):
    """An extended rational literal from outside text: ``p/q``, an integer,
    any other literal ``Fraction`` reads, or one of the infinities.  A
    malformed literal, a zero denominator, an exponent past
    ``MAX_EXPONENT`` and a run of digits past the interpreter's limit all
    raise ``ValueError``."""
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    # ``p/q`` and integers, optionally signed, are read here; every other
    # shape goes through Fraction, whose grammar and messages are the rule
    num, slash, den = t.partition("/")
    digits = num[1:] if num[:1] in ("-", "+") else num
    try:
        if digits.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        _check_exponent(t)
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {t!r}") from None
    except ValueError as exc:
        # int() refuses a run of more digits than the interpreter's limit
        # with a hint on how to raise it; name the limit instead
        if not str(exc).startswith("Exceeds the limit"):
            raise
        raise ValueError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for reading an integer") from None


def _check_exponent(t: str):
    """Refuse a decimal exponent past ``MAX_EXPONENT`` in magnitude."""
    _, e, exp = t.lower().partition("e")
    if not e:
        return
    digits = (exp[1:] if exp[:1] in ("-", "+") else exp).replace("_", "")
    digits = digits.lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT))
                               or int(digits) > MAX_EXPONENT):
        raise ValueError(f"exponent of {t!r} is past {MAX_EXPONENT} "
                         "in magnitude")


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
