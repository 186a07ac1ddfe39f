"""The torsion round trip at every degree the genus scan reaches.

`genus-scan` accepts pmax up to 720, which admits the genera 1..60, and the
scan hands `alex_from_torsion` p // 2 + 1 torsion entries, so zeros past the
support are the rule there, not the exception.
"""

import random

from lenslab.alexobstruct import AlexPoly, alex_from_torsion, torsion_from_alex


def torsion_by_definition(poly: AlexPoly) -> tuple[int, ...]:
    """T_i = sum_{j >= 1} j * a_{i+j} for 0 <= i < g, term by term."""
    g = poly.degree
    a = poly.full_coeffs()[g:]  # a_0, ..., a_g
    return tuple(sum(j * a[i + j] for j in range(1, g - i + 1)) for i in range(g))


def test_torsion_round_trip_at_every_degree_up_to_60():
    rng = random.Random(6037)
    for degree in range(1, 61):
        for _ in range(50):
            data = {degree: rng.choice([-3, -2, -1, 1, 2, 3])}
            for i in range(1, degree):
                data[i] = rng.randrange(-3, 4)
            data[0] = 1 - 2 * sum(data.values())
            poly = AlexPoly.from_dict(data)
            torsion = torsion_from_alex(poly)
            assert torsion == torsion_by_definition(poly), data
            assert alex_from_torsion(torsion) == poly, data
            padded = torsion + (0,) * rng.randrange(1, 2 * degree + 3)
            assert alex_from_torsion(padded) == poly, data


def test_torsion_of_the_inverse_is_the_sequence_without_trailing_zeros():
    # so two sequences of one length give the same polynomial only when they
    # are equal, which is why the scan dedups its t-vectors alone
    rng = random.Random(4703)
    for _ in range(3000):
        length = rng.randrange(1, 61)
        seq = tuple(rng.choice((0, 0, 1, 2, rng.randrange(100))) for _ in range(length))
        while length and not seq[length - 1]:
            length -= 1
        assert torsion_from_alex(alex_from_torsion(seq)) == seq[:length], seq
