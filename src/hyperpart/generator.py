"""Seeded random configurations for the verification campaigns.

Coordinates are drawn as exact fractions with bounded numerator and
denominator, then the whole draw is resampled until it is in general position
(or, in degenerate mode, until it is valid after planting one collinear
triple).  Every instance is a pure function of ``(suite, seed, trial)`` plus
the shape parameters, so campaign reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvalidConfig
from .geometry import PointConfig, general_position, make_config

COORD_RANGE = 8
DENOMINATOR_BOUND = 4
_MAX_DRAWS = 1000


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of one verification campaign: what to generate and how often."""

    suite: str
    dim: int
    n: int
    colors: int = 0  # 0 = uncolored
    trials: int = 1
    seed: int = 0
    degenerate: bool = False
    coord_range: int = COORD_RANGE
    denominator_bound: int = DENOMINATOR_BOUND

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.colors < 0:
            raise DomainError(f"colors must be >= 0, got {self.colors}")
        if self.colors > self.n:
            raise DomainError(
                f"need at least one point per color: n={self.n} < colors={self.colors}"
            )
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.coord_range < 1 or self.denominator_bound < 1:
            raise DomainError("coordinate bounds must be >= 1")
        if self.degenerate and (self.dim < 2 or self.n < 3):
            raise DomainError(
                "degenerate mode plants a collinear triple and needs dim >= 2, n >= 3"
            )


def _draw_coords(rng: random.Random, spec: CampaignSpec) -> tuple[Fraction, ...]:
    top = spec.coord_range * spec.denominator_bound
    return tuple(
        Fraction(rng.randint(-top, top), rng.randint(1, spec.denominator_bound))
        for _ in range(spec.dim)
    )


def generate_instance(spec: CampaignSpec, trial: int = 0) -> PointConfig:
    """The deterministic instance for one trial of a campaign."""
    rng = random.Random(f"{spec.suite}:{spec.seed}:{trial}")
    for _ in range(_MAX_DRAWS):
        coords = [_draw_coords(rng, spec) for _ in range(spec.n)]
        if spec.degenerate:
            # Plant points 0..2 on a line: the midpoint is exactly rational.
            coords[2] = tuple(
                (a + b) / 2 for a, b in zip(coords[0], coords[1])
            )
        try:
            config = make_config(spec.dim, coords)
        except InvalidConfig:
            continue  # coincident points; redraw
        if not spec.degenerate and not general_position(config):
            continue
        if spec.colors:
            labels = [i % spec.colors for i in range(spec.n)]
            rng.shuffle(labels)
            config = config.with_colors(labels)
        return config
    raise DomainError(
        f"could not draw a valid configuration in {_MAX_DRAWS} attempts "
        f"(dim={spec.dim}, n={spec.n}, range={spec.coord_range})"
    )


def generate_pair(spec: CampaignSpec, trial: int, config: PointConfig) -> tuple[int, int]:
    """A deterministic distinct id pair for per-trial pair operations."""
    if len(config) < 2:
        raise DomainError("need at least two points to pick a pair")
    rng = random.Random(f"{spec.suite}:pair:{spec.seed}:{trial}")
    a, b = rng.sample(config.ids, 2)
    return (a, b) if a < b else (b, a)
