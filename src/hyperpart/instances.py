"""Instance documents: exact-rational JSON in, canonical JSON out.

Schema: ``{"dim": int, "points": [{"id": int, "coords": [rational ...],
"color"?: str}, ...]}``.  Rationals travel as strings matching
``-?[0-9]+(/[1-9][0-9]*)?`` (plain JSON integers are also accepted); anything
with a decimal point is rejected — there is no rounding anywhere.  Either all
points carry a color or none do; labels become dense numeric color ids in
first-appearance order.

Reports go out through ``dumps_doc``, one join-based encoder whose bytes are
``json.dumps`` with an indent of 2, newline-terminated, and which encodes a
list that a report lists many times (a member in many transversals) once
per call.
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
    and a newline.  Each value is written by its exact type, and each list
    or dict by one join of its pieces, with the indent of each depth made
    once per call: strings go through the C routine ``json`` quotes them
    with, and a list of ints is one join.  A list that is an item of a list
    goes, at its first sighting, into its depth's memo (its text depends on
    the indent), keyed by identity, and a list looks each of its items up
    there before it encodes one.  So a report that lists one member's
    partition doc in many transversals encodes it once and then takes one
    dict lookup per listing; no other list's text is kept.  A report holds
    dicts with str keys, lists, tuples, strs, ints, bools and None; no
    report holds a float, a ``Fraction``, a set or a subclass of a type it
    holds, and those, like a key that is not a str, are a TypeError.
    """
    return _encode(doc, 0, _Levels()) + "\n"


class _Levels(dict):
    """Per depth, made at its first use: the indent (a newline and two spaces
    per level) and the memo of the texts of list items by identity."""

    def __missing__(self, depth: int) -> tuple[str, dict[int, str]]:
        self[depth] = level = ("\n" + "  " * depth, {})
        return level


def _encode(
    value: Any, depth: int, levels: _Levels, memo: Optional[dict[int, str]] = None
) -> str:
    """The text of ``value`` at ``depth``; ``memo``, given for an item of a
    list, is the depth's memo, which keeps the text of a list."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner, below = levels[depth + 1]
        outer = levels[depth][0]
        if _INTS.issuperset(map(type, value)):
            text = f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{outer}]"
        else:
            look = below.get
            pieces = ["," + inner] * (2 * len(value) + 1)
            pieces[0], pieces[-1] = "[" + inner, outer + "]"
            depth += 1
            pieces[1::2] = [look(id(item)) or _encode(item, depth, levels, below) for item in value]
            text = "".join(pieces)
        if memo is not None:
            memo[id(value)] = text
        return text
    if kind is str:
        return _QUOTE(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = levels[depth + 1][0]
        pieces = ["{" + inner]
        for name, item in value.items():
            if not isinstance(name, str):
                raise TypeError(f"keys must be str, not {type(name).__name__}")
            pieces += (_QUOTE(name), ": ", _encode(item, depth + 1, levels), "," + inner)
        pieces[-1] = levels[depth][0] + "}"
        return "".join(pieces)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
