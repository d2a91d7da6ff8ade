"""Instance documents: exact-rational JSON in, canonical JSON out.

Schema: ``{"dim": int, "points": [{"id": int, "coords": [rational ...],
"color"?: str}, ...]}``.  Rationals travel as strings matching
``-?[0-9]+(/[1-9][0-9]*)?`` (plain JSON integers are also accepted); anything
with a decimal point is rejected — there is no rounding anywhere.  Either all
points carry a color or none do; labels become dense numeric color ids in
first-appearance order.

Reports go out through ``dumps_doc``, one join-based encoder whose bytes are
``json.dumps`` with an indent of 2, newline-terminated.
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
_QUOTE = json.encoder.encode_basestring_ascii
_INTS = frozenset((int,))


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
    """Canonical serialization: same document, same bytes.

    The bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=True)``
    and a newline, written by joins: strings go through the C routine
    ``json`` quotes them with, and a list of ints is one join.  Any other
    list seen a second time at one depth (its text depends on the indent)
    is read from then on from a memo keyed by identity and depth, so a
    report that lists one member's partition doc in many transversals
    encodes it twice, however many transversals list it.  A report holds dicts with
    str keys, lists, tuples, strs, ints, bools and None; no report holds a
    float, a ``Fraction`` or a set, and those, like a key that is not a
    str, are a TypeError.
    """
    return _encode(doc, 0, {}) + "\n"


def _encode(value: Any, depth: int, memo: dict[tuple[int, int], Optional[str]]) -> str:
    if isinstance(value, str):
        return _QUOTE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        outer = inner[:-2]
        if _INTS.issuperset(map(type, value)):
            return f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{outer}]"
        key = (id(value), depth)
        text = memo.get(key)
        if text is None:
            items = (',' + inner).join([_encode(item, depth + 1, memo) for item in value])
            text = f"[{inner}{items}{outer}]"
            # kept from the second sighting on: keeping the text at the first
            # would hold every unshared list's text to the end of the call
            memo[key] = text if key in memo else None
        return text
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = "\n" + "  " * (depth + 1)
        outer = inner[:-2]
        items = []
        for name, item in value.items():
            if not isinstance(name, str):
                raise TypeError(f"keys must be str, not {type(name).__name__}")
            items.append(f"{_QUOTE(name)}: {_encode(item, depth + 1, memo)}")
        return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
