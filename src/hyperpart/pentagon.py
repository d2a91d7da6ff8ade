"""A six-point reference configuration: near-regular pentagon plus center.

The exact regular pentagon has irrational vertices, so we ship a rational
approximation (denominators 1000) and pin its order type: the orientation sign
of every point triple must equal the exact pentagon's sign, which is what the
table below records.  Since every quantity this package computes from a
configuration depends only on the order type, the approximation is a faithful
stand-in.  The table is re-derived symbolically in the test suite.

Ids: 0 is the center, 1..5 walk the vertices counterclockwise from the top.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import VerificationError
from .geometry import PointConfig, make_config

CENTER_ID = 0
VERTEX_IDS = (1, 2, 3, 4, 5)

CENTER_VERTEX_PAIR = (0, 1)
ADJACENT_VERTEX_PAIR = (1, 2)
NONADJACENT_VERTEX_PAIR = (2, 5)

_COORDS = (
    (0, 0),
    (0, 1),
    (Fraction(-951, 1000), Fraction(309, 1000)),
    (Fraction(-588, 1000), Fraction(-809, 1000)),
    (Fraction(588, 1000), Fraction(-809, 1000)),
    (Fraction(951, 1000), Fraction(309, 1000)),
)

# orientation signs of the exact pentagon-plus-center, triple -> sign
_ORDER_TYPE = {
    (0, 1, 2): 1, (0, 1, 3): 1, (0, 1, 4): -1, (0, 1, 5): -1,
    (0, 2, 3): 1, (0, 2, 4): 1, (0, 2, 5): -1, (0, 3, 4): 1,
    (0, 3, 5): 1, (0, 4, 5): 1, (1, 2, 3): 1, (1, 2, 4): 1,
    (1, 2, 5): 1, (1, 3, 4): 1, (1, 3, 5): 1, (1, 4, 5): 1,
    (2, 3, 4): 1, (2, 3, 5): 1, (2, 4, 5): 1, (3, 4, 5): 1,
}


def pentagon_config() -> PointConfig:
    """The reference configuration, with its order type checked on the way out."""
    config = make_config(2, _COORDS)
    if config.orientations != _ORDER_TYPE:
        raise VerificationError("rational approximation broke the pentagon order type")
    return config
