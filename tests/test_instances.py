"""Instance document parsing, emission, and the rational grammar."""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperpart.cli as cli
import hyperpart.instances as instances
from hyperpart import (
    CampaignSpec,
    InvalidConfig,
    PointConfig,
    emit_instance,
    generate_instance,
    make_config,
    parse_instance,
)
from hyperpart.cli import main
from hyperpart.instances import _TOO_LONG, dumps_doc, parse_rational, rational_str


def test_rational_grammar():
    assert parse_rational("3") == 3
    assert parse_rational("-3") == -3
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(4) == 4
    for bad in ("0.5", "1e3", "+3", "1/0", "1/-2", " 1", "3/02", "", "a"):
        with pytest.raises(InvalidConfig):
            parse_rational(bad)
    with pytest.raises(InvalidConfig):
        parse_rational(0.5)
    with pytest.raises(InvalidConfig):
        parse_rational(True)


def test_rational_str_round_trip():
    for f in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-5, 4)):
        assert parse_rational(rational_str(f)) == f


_DIGITS = st.text("0123456789", min_size=1, max_size=400)
_GRAMMAR = st.builds(
    lambda minus, num, den: minus + num + den,
    st.sampled_from(("", "-")),
    _DIGITS,
    st.one_of(st.just(""), st.builds(lambda lead, rest: f"/{lead}{rest}",
                                     st.sampled_from("123456789"), st.text("0123456789", max_size=399))),
)


@settings(max_examples=200)
@example("-0")
@example("0/7")
@example("-000120/8")
@example("0000")
@example("9" * 300 + "/" + "7" * 350)
@given(_GRAMMAR)
def test_grammar_strings_parse_as_fraction_does(text):
    """Every string of the grammar, leading zeros and integers of hundreds
    of digits included, is the ``Fraction`` that ``Fraction`` reads."""
    assert parse_rational(text) == Fraction(text)


def test_rational_digit_limit_and_what_int_alone_would_accept():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * (limit + 1), "1/" + "1" * (limit + 1)):
        with pytest.raises(InvalidConfig, match=re.escape(_TOO_LONG)):
            parse_rational(text)
    # int() reads both; the grammar does not
    assert int("1_0") == 10 and int("\u0661") == 1
    for text in ("1_0", "\u0661", "1/1_0", "\u0661/2"):
        with pytest.raises(InvalidConfig, match="not an exact rational"):
            parse_rational(text)


def test_parse_minimal_document():
    cfg = parse_instance(
        '{"dim": 2, "points": [{"id": 4, "coords": ["1/2", "-3"]},'
        ' {"id": 1, "coords": [0, "1"]}]}'
    )
    assert cfg.dim == 2
    assert cfg.ids == (1, 4)
    assert cfg.point(4).coords == (Fraction(1, 2), Fraction(-3))
    assert cfg.colors is None


def test_parse_colored_document():
    cfg = parse_instance(
        '{"dim": 1, "points": ['
        '{"id": 0, "coords": ["0"], "color": "red"},'
        '{"id": 1, "coords": ["1"], "color": "blue"},'
        '{"id": 2, "coords": ["2"], "color": "red"}]}'
    )
    assert cfg.colors == (0, 1, 0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nonsense", "not valid JSON"),
        ("[]", "top level"),
        ('{"dim": 2}', "'points'"),
        ('{"dim": 0, "points": []}', "'dim'"),
        ('{"dim": 2, "points": [], "extra": 1}', "unknown top-level"),
        ('{"dim": 1, "points": [{"id": -1, "coords": ["0"]}]}', "'id'"),
        ('{"dim": 1, "points": [{"id": 0, "coords": ["0", "1"]}]}', "list of 1"),
        ('{"dim": 1, "points": [{"id": 0, "coords": [0.5]}]}', "exact rational"),
        ('{"dim": 1, "points": [{"id": 0, "coords": ["0"], "note": 1}]}', "unknown fields"),
        (
            '{"dim": 1, "points": [{"id": 0, "coords": ["0"]},'
            ' {"id": 0, "coords": ["1"]}]}',
            "id",
        ),
        (
            '{"dim": 1, "points": [{"id": 0, "coords": ["2"]},'
            ' {"id": 1, "coords": ["2"]}]}',
            "coordinates",
        ),
        (
            '{"dim": 1, "points": [{"id": 0, "coords": ["0"], "color": "r"},'
            ' {"id": 1, "coords": ["1"]}]}',
            "every point",
        ),
        ('{"dim": 1, "points": [{"id": 0, "coords": ["0"], "color": 3}]}', "string"),
    ],
)
def test_parse_rejections_carry_diagnostics(text, fragment):
    with pytest.raises(InvalidConfig) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_round_trip_uncolored():
    cfg = make_config(2, {3: (Fraction(1, 2), Fraction(-7)), 9: (0, 4)})
    assert parse_instance(emit_instance(cfg)) == cfg


def test_round_trip_colored_and_generated():
    for seed in range(4):
        spec = CampaignSpec(suite="io", dim=2, n=6, colors=3, trials=1, seed=seed)
        cfg = generate_instance(spec)
        again = parse_instance(emit_instance(cfg))
        assert again == cfg


def test_emit_is_deterministic_and_readable():
    cfg = make_config(1, [(0,), (Fraction(1, 3),)], colors=["u", "v"])
    text = emit_instance(cfg)
    assert text == emit_instance(cfg)
    doc = json.loads(text)
    assert doc["points"][1] == {"id": 1, "coords": ["1/3"], "color": "c1"}


# Report-shaped documents: every scalar a report holds (big and negative
# ints, bools beside 0 and 1, None, strings with non-ASCII and control
# characters) in nested dicts, lists and tuples, empty ones included.
_REPORT_SCALARS = (
    st.none() | st.booleans() | st.integers(-1, 1) | st.integers(-(10**40), 10**40)
    | st.text(max_size=8) | st.sampled_from(["\x00\x1f\t\n\"\\", "é≠😀", "\u2028"])
)
_REPORT_DOCS = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)
_BLOCKS = st.lists(st.lists(st.integers(-3, 20), min_size=1, max_size=4), min_size=1, max_size=3)


@st.composite
def _shared_docs(draw):
    """A report-shaped document holding one list of int lists (a member's
    partition doc) three times at one depth, and another at three depths,
    as a list item, a dict value and a tuple item, next to an equal but
    distinct list at the depths where a list looks its items up in the
    memo."""
    same, mixed = draw(_BLOCKS), draw(_BLOCKS)
    twin = [list(block) for block in mixed]
    return {
        "rest": draw(_REPORT_DOCS),
        "same": [same, same, {"again": None}, same],
        "mixed": [mixed, [mixed, [mixed]]],
        "placed": {"value": mixed, "beside": [twin, (mixed, twin), [twin, mixed]]},
        "after": [twin, mixed, (twin, mixed, (mixed,))],
    }


@settings(max_examples=300)
@given(_REPORT_DOCS | _shared_docs())
def test_dumps_doc_writes_the_bytes_of_json_dumps(doc):
    """The encoder's bytes are ``json.dumps(indent=2, ensure_ascii=True)``'s
    and a newline, with shared lists too: a memo keyed by identity alone
    would write the list at its first depth's indent at the others."""
    assert dumps_doc(doc) == json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _report(config: PointConfig, argv: list[str]) -> dict:
    """The document a subcommand reports on ``config``, before it is encoded."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(emit_instance(config))
        with mock.patch.object(cli, "_emit", lambda args, doc: reports.append(doc)):
            assert main(argv + ["--input", str(path)]) == 0
    return reports[0]


def _listed_only(doc: Any) -> set[tuple[int, int]]:
    """(identity, depth) of each nonempty list or tuple that ``doc`` holds
    as an item of a list at that depth, and not also as a dict value or
    the whole document there."""
    listed: set[tuple[int, int]] = set()
    placed: set[tuple[int, int]] = set()

    def walk(value: Any, depth: int, into: set) -> None:
        if type(value) in (list, tuple):
            if value:
                into.add((id(value), depth))
            for item in value:
                walk(item, depth + 1, listed)
        elif type(value) is dict:
            for item in value.values():
                walk(item, depth + 1, placed)

    walk(doc, 0, placed)
    return listed - placed


def _assert_lists_encoded_once(doc: Any) -> None:
    """One ``dumps_doc`` call encodes each list that ``doc`` holds only as
    list items once per depth, counted at every entry to ``_encode``."""
    encodes: Counter = Counter()
    encode = instances._encode

    def counted(value, depth, *rest):
        encodes[id(value), depth] += 1
        return encode(value, depth, *rest)

    with mock.patch.object(instances, "_encode", counted):
        dumps_doc(doc)
    listed = _listed_only(doc)
    assert listed and {encodes[key] for key in listed} == {1}


@settings(max_examples=200)
@given(_shared_docs())
def test_dumps_doc_encodes_each_listed_list_once(doc):
    """A list shared as an item of lists is encoded at its first sighting
    at a depth and read from the memo at every later one."""
    _assert_lists_encoded_once(doc)


def test_dumps_doc_encodes_each_member_of_a_transversals_report_once():
    """The degenerate n=8 transversals report lists each member's partition
    doc in many transversals; each is encoded once."""
    config = generate_instance(CampaignSpec(suite="phi", dim=3, n=8, seed=0, degenerate=True), 0)
    doc = _report(config, ["transversals"])
    listings = [id(m) for t in doc["minimal_transversals"] for m in t["members"]]
    assert len(listings) > len(set(listings))
    _assert_lists_encoded_once(doc)


def test_dumps_doc_holds_no_unshared_list_to_the_end():
    """Memory guard: the largest report at the caps (phi d=3 n=16
    transversals, 9.38 MiB) encodes with a traced peak of at most 2.5 times
    its length.  Keeping every list's text to the end of the call instead
    of only the texts of list items reads about 3 times."""
    config = generate_instance(CampaignSpec(suite="phi", dim=3, n=16, seed=0), 0)
    doc = _report(config, ["transversals"])
    tracemalloc.start()
    try:
        text = dumps_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 9 * 2**20
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, 0.5, float("nan"), {1: "one"}])
def test_dumps_doc_refuses_what_no_report_holds(value):
    """A Fraction, a set, a float or a dict with a key that is not a str,
    alone or nested, is a TypeError."""
    for doc in (value, {"a": [1, value]}, [[value]]):
        with pytest.raises(TypeError):
            dumps_doc(doc)


# --- fuzzing ---------------------------------------------------------------

_SCALARS = (
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers()
    | st.floats() | st.text(max_size=6)
)
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_COORD = st.integers(-9, 9) | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _documents(draw, max_points=4):
    """Instance documents: a valid one, left alone half the time and
    otherwise hit by up to three edits.  An edit puts any JSON value, or a
    string that is nearly a rational, in place of a field or a coordinate,
    adds a field or drops one."""
    dim = draw(st.integers(1, 3))
    colored = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(1, max_points))):
        entry = {"id": draw(st.integers(0, 5)), "coords": draw(st.lists(_COORD, min_size=dim, max_size=dim))}
        if colored:
            entry["color"] = draw(st.sampled_from(["r", "g", "b"]))
        points.append(entry)
    doc = {"dim": dim, "points": points}
    junk = _ANY_JSON | st.sampled_from(["1/0", "0.5", "-", "1e3", " 2", "3/02", "+1"])
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        target = draw(st.sampled_from([doc, *points]))
        coords = target.get("coords")
        if isinstance(coords, list) and coords and draw(st.booleans()):
            target = coords
        if isinstance(target, list):
            target[draw(st.integers(0, len(target) - 1))] = draw(junk)
        elif draw(st.booleans()) and target:
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            keys = ["dim", "points", "extra"] if target is doc else ["id", "coords", "color", "note"]
            target[draw(st.sampled_from(keys))] = draw(junk)
    return json.dumps(doc)


def _parses_or_rejects(text):
    try:
        cfg = parse_instance(text)
    except InvalidConfig:
        return None
    assert isinstance(cfg, PointConfig)
    return cfg


@settings(max_examples=300)
@given(st.text(max_size=40) | _ANY_JSON.map(json.dumps))
def test_parse_instance_fuzz_arbitrary_text(text):
    _parses_or_rejects(text)


@settings(max_examples=300)
@given(_documents())
def test_parse_instance_fuzz_documents(text):
    cfg = _parses_or_rejects(text)
    if cfg is not None:
        assert parse_instance(emit_instance(cfg)) == cfg


@settings(max_examples=60)
@given(_documents(max_points=4) | st.text(max_size=20))
def test_cli_enumerate_fuzz_exits_0_or_1(text):
    """Drawn files through the whole command: a report or a diagnostic,
    never a traceback and never a verification failure."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "instance.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["enumerate", "--input", str(path)])
    assert code in (0, 1)
    if code == 0:
        assert json.loads(out.getvalue())["command"] == "enumerate"
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


_NOW_AND_THEN = st.sampled_from([False, False, False, True])


@st.composite
def _tiny_runs(draw):
    """An argument list for a subcommand that reads a file, and a document of
    at most six points in dimension 1 to 3 with small rational coordinates;
    now and then with a repeated id, a repeated coordinate vector or colours
    on some points only, and point ids in the arguments that are absent or
    equal."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    ids = list(range(n))
    vectors = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=n, max_size=n, unique=True))
    if draw(_NOW_AND_THEN):
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ids))
    if draw(_NOW_AND_THEN):
        vectors[draw(st.integers(0, n - 1))] = draw(st.sampled_from(vectors))
    points = [{"id": i, "coords": v} for i, v in zip(ids, vectors)]
    coloring = draw(st.sampled_from(["none", "all", "all", "some"]))
    palette = st.sampled_from(["r", "g", "b"][: draw(st.integers(2, 3))])
    for point in points:
        if coloring == "all" or (coloring == "some" and draw(st.booleans())):
            point["color"] = draw(palette)

    command = draw(st.sampled_from(
        ["sep", "transversals", "flip", "shrink", "perturb", "partitionable", "witness", "kirchberger"]
    ))
    some_id = st.integers(0, n if draw(_NOW_AND_THEN) else n - 1).map(str)
    argv = [command]
    if command in ("sep", "flip", "shrink"):
        a = draw(some_id)
        b = draw(some_id if draw(_NOW_AND_THEN) else some_id.filter(lambda b: b != a))
        argv += ["--a", a, "--b", b]
    if command == "flip" and draw(st.booleans()):
        argv += ["--base-index", str(draw(st.integers(-1, 3)))]
    if command == "perturb":
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    if command == "kirchberger" and draw(st.booleans()):
        argv += ["--p", draw(some_id)]
    return json.dumps({"dim": dim, "points": points}), argv


@settings(max_examples=150)
@given(_tiny_runs())
def test_cli_subcommands_fuzz_exit_0_or_1(run):
    """Every subcommand that reads a file, on drawn tiny files: a report or a
    one-line diagnostic, never a traceback and never a verification
    failure."""
    text, argv = run
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "instance.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", str(path)])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == argv[0]
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(("error: ", "usage error: "))
