import random

import pytest

from fractions import Fraction

from thicket.barcode import (CLOSED, OPEN, Bar, GradedBarcode, Interval,
                             closed, full_line, half_open, half_open_r,
                             open_iv, ray_left, ray_right, singleton)


def gb(*bars, char=2):
    return GradedBarcode(list(bars), char)


def bar(iv, d=0):
    return Bar(iv, d)


def mixed_bar(rng, denoms):
    """A random bar of any shape: rays, the full line, points and all four
    kinds, with ends in [-40, 40] over the given denominators."""
    def end():
        return Fraction(rng.randint(-40, 40), rng.choice(denoms))
    shape = rng.randrange(8)
    if shape == 0:
        iv = full_line()
    elif shape == 1:
        iv = ray_left(end(), rng.choice((CLOSED, OPEN)))
    elif shape == 2:
        iv = ray_right(end(), rng.choice((CLOSED, OPEN)))
    elif shape == 3:
        iv = singleton(end())
    else:
        lo, hi = end(), end()
        while lo == hi:
            hi = end()
        kinds = [(CLOSED, CLOSED), (OPEN, OPEN), (CLOSED, OPEN),
                 (OPEN, CLOSED)][shape - 4]
        iv = Interval(min(lo, hi), kinds[0], max(lo, hi), kinds[1])
    return Bar(iv, rng.randint(-2, 3))


def pooled_interval(rng, pool):
    """An interval of any shape (rays, the full line, points, all four
    bounded kinds) with its ends drawn from ``pool``, so that ends often
    coincide when the pool is small."""
    shape = rng.randrange(8)
    x, y = rng.choice(pool), rng.choice(pool)
    if shape == 0:
        return full_line()
    if shape == 1:
        return ray_left(x, rng.choice((CLOSED, OPEN)))
    if shape == 2:
        return ray_right(x, rng.choice((CLOSED, OPEN)))
    if shape == 3 or x == y:
        return singleton(x)
    kinds = [(CLOSED, CLOSED), (OPEN, OPEN), (CLOSED, OPEN),
             (OPEN, CLOSED)][shape - 4]
    return Interval(min(x, y), kinds[0], max(x, y), kinds[1])


# one representative per interval shape class
SHAPE_REPRESENTATIVES = [
    closed(0, 2),
    open_iv(0, 2),
    half_open(0, 2),
    half_open_r(0, 2),
    singleton(1),
    ray_right(0, CLOSED),
    ray_right(0, OPEN),
    ray_left(0, CLOSED),
    ray_left(0, OPEN),
    full_line(),
]


@pytest.fixture
def rng():
    return random.Random(20260811)
