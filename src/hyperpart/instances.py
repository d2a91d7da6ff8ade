"""Instance documents: exact-rational JSON in, canonical JSON out.

Schema: ``{"dim": int, "points": [{"id": int, "coords": [rational ...],
"color"?: str}, ...]}``.  Rationals travel as strings matching
``-?[0-9]+(/[1-9][0-9]*)?`` (plain JSON integers are also accepted); anything
with a decimal point is rejected — there is no rounding anywhere.  Either all
points carry a color or none do; labels become dense numeric color ids in
first-appearance order.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .errors import DomainError, InvalidConfig
from .geometry import Hyperplane, Point, PointConfig
from .partitions import Partition

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
# Python refuses to convert longer integers to and from decimal text.
_TOO_LONG = f"an integer has more than {sys.get_int_max_str_digits()} digits"


def parse_rational(text: Any, where: str = "value") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise InvalidConfig(
            f"{where}: {text!r} is not an exact rational (use 'p' or 'p/q')"
        )
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as err:
        raise InvalidConfig(f"{where}: {_TOO_LONG}") from err


def rational_str(value: Fraction) -> str:
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as err:
        raise DomainError(f"cannot print a result: {_TOO_LONG}") from err


def parse_instance(text: str) -> PointConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"not valid JSON: {err}") from err
    except ValueError as err:
        raise InvalidConfig(_TOO_LONG) from err
    except RecursionError as err:
        raise InvalidConfig("JSON nested too deeply") from err
    if not isinstance(doc, dict):
        raise InvalidConfig("top level must be an object with 'dim' and 'points'")
    unknown = set(doc) - {"dim", "points"}
    if unknown:
        raise InvalidConfig(f"unknown top-level fields: {sorted(unknown)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidConfig(f"'dim' must be a positive integer, got {dim!r}")
    raw_points = doc.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise InvalidConfig("'points' must be a nonempty list")

    points: list[Point] = []
    labels: list[Optional[str]] = []
    for slot, entry in enumerate(raw_points):
        where = f"point #{slot}"
        if not isinstance(entry, dict):
            raise InvalidConfig(f"{where}: must be an object")
        unknown = set(entry) - {"id", "coords", "color"}
        if unknown:
            raise InvalidConfig(f"{where}: unknown fields {sorted(unknown)}")
        pid = entry.get("id")
        if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
            raise InvalidConfig(f"{where}: 'id' must be a nonnegative integer")
        coords = entry.get("coords")
        if not isinstance(coords, list) or len(coords) != dim:
            raise InvalidConfig(
                f"{where} (id {pid}): 'coords' must be a list of {dim} rationals"
            )
        parsed = tuple(
            parse_rational(c, f"{where} (id {pid}), coordinate {i}")
            for i, c in enumerate(coords)
        )
        points.append(Point(pid, parsed))
        color = entry.get("color")
        if color is not None and not isinstance(color, str):
            raise InvalidConfig(f"{where} (id {pid}): 'color' must be a string")
        labels.append(color)

    colored = [c is not None for c in labels]
    if any(colored) and not all(colored):
        raise InvalidConfig("either every point has a color or none does")
    order = sorted(range(len(points)), key=lambda i: points[i].id)
    colors = tuple(labels[i] for i in order) if all(colored) else None
    return PointConfig(dim, tuple(points), colors)  # type: ignore[arg-type]


def config_doc(config: PointConfig) -> dict:
    """The JSON-able document for a configuration; round-trips exactly."""
    entries = []
    for slot, p in enumerate(config.points):
        entry: dict[str, Any] = {
            "id": p.id,
            "coords": [rational_str(x) for x in p.coords],
        }
        if config.colors is not None:
            entry["color"] = f"c{config.colors[slot]}"
        entries.append(entry)
    return {"dim": config.dim, "points": entries}


def emit_instance(config: PointConfig) -> str:
    return dumps_doc(config_doc(config))


def hyperplane_doc(plane: Hyperplane) -> dict:
    return {
        "normal": [rational_str(x) for x in plane.normal],
        "offset": rational_str(plane.offset),
    }


def partition_doc(partition: Partition) -> list[list[int]]:
    return [list(block) for block in partition.blocks]


def dumps_doc(doc: Any) -> str:
    """Canonical serialization: same document, same bytes."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
