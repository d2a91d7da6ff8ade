"""The command-line surface: reports, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from hyperpart import (
    CampaignSpec,
    VerificationError,
    emit_instance,
    generate_instance,
    make_config,
    parse_instance,
)
from hyperpart.cli import main
from hyperpart.instances import config_doc


@pytest.fixture
def quad_file(tmp_path, quad):
    path = tmp_path / "quad.json"
    path.write_text(emit_instance(quad))
    return str(path)


@pytest.fixture
def colored_file(tmp_path):
    cfg = make_config(1, [(0,), (1,), (2,)], colors=["r", "b", "r"])
    path = tmp_path / "rbr.json"
    path.write_text(emit_instance(cfg))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_enumerate(capsys, quad_file):
    doc = _run_json(capsys, ["enumerate", "--input", quad_file])
    assert doc["count"] == 7
    assert doc["formula_count"] == 7
    assert doc["general_position"] is True
    assert doc["matches_formula"] is True
    assert len(doc["members"]) == 7
    # every member carries a witness hyperplane with exact rational entries
    assert all(m["witness"] is not None for m in doc["members"])


def test_sep_and_transversals(capsys, quad_file):
    doc = _run_json(capsys, ["sep", "--input", quad_file, "--a", "0", "--b", "1"])
    assert doc["separating_count"] == 3
    assert doc["nonseparating_count"] == 4

    doc = _run_json(capsys, ["transversals", "--input", quad_file])
    assert doc["min_size"] == 3
    assert doc["max_size"] == 4


def test_flip_shrink_perturb(capsys, quad_file):
    doc = _run_json(capsys, ["flip", "--input", quad_file, "--a", "0", "--b", "1"])
    assert doc["separating_before"] + doc["separating_after"] == 7

    doc = _run_json(capsys, ["shrink", "--input", quad_file, "--a", "0", "--b", "1"])
    assert doc["separating_size"] == doc["formula_min"] == 3

    doc = _run_json(capsys, ["perturb", "--input", quad_file, "--seed", "5"])
    assert doc["count_after"] == doc["formula_count"] == 7


def test_partitionable_and_witness(capsys, colored_file):
    doc = _run_json(capsys, ["partitionable", "--input", colored_file])
    assert doc["partitionable"] is False
    assert doc["routes_agree"] is True
    assert doc["certificate"] is None

    doc = _run_json(capsys, ["witness", "--input", colored_file])
    assert doc["witness"] == [0, 1, 2]
    assert doc["size_bound"] == 4


def test_kirchberger(capsys, colored_file):
    doc = _run_json(capsys, ["kirchberger", "--input", colored_file, "--p", "2"])
    assert doc["separable"] is False
    assert doc["routes_agree"] is True
    assert 2 in doc["witness"]


def test_kirchberger_on_one_color(tmp_path, capsys):
    # the Helly dual used to build a hyperplane from the zero normal and exit 1
    path = tmp_path / "one-color.json"
    path.write_text(emit_instance(
        make_config(2, [(3, 0), (0, 0), (0, 1), (6, 1)], colors=["c0"] * 4)
    ))
    doc = _run_json(capsys, ["kirchberger", "--input", str(path)])
    assert doc["separable"] is True
    assert doc["routes_agree"] is True
    assert doc["witness"] is None


def test_formulas(capsys):
    doc = _run_json(capsys, ["formulas", "--dim", "2", "--colors", "6"])
    assert doc["partition_count"] == 16
    assert doc["min_transversal_size"] == 5
    assert doc["max_transversal_size"] == 11
    assert doc["witness_size_bound"] == 39


def test_demo_pentagon(capsys):
    doc = _run_json(capsys, ["demo", "pentagon"])
    assert doc["count"] == 16
    assert doc["separating_sizes"] == {
        "center-vertex": 6,
        "adjacent-vertices": 6,
        "nonadjacent-vertices": 10,
    }
    assert doc["min_transversal_size"] == 6
    assert doc["shrink"]["separating_size"] == 5


def test_verify_suite(capsys):
    doc = _run_json(capsys, ["verify", "--suite", "phi", "--trials", "3", "--n", "6"])
    assert doc["ok"] is True
    assert doc["passed"] == 3


def test_bound_search(capsys):
    doc = _run_json(
        capsys,
        ["bound-search", "--trials", "2", "--n", "7", "--colors", "3", "--seed", "5"],
    )
    assert doc["ok"] is True
    assert doc["size_bound"] == 9
    for r in doc["results"]:
        assert r["partitionable"] or r["threshold"] <= 9


def test_bound_search_runs_to_the_cli_point_cap(capsys):
    """The library sets no cap of its own: n=13 runs, and n=17 is refused by
    the CLI's desk-scale cap unless --unsafe-large is given."""
    doc = _run_json(capsys, ["bound-search", "--dim", "2", "--n", "13", "--colors", "3", "--trials", "1"])
    assert doc["ok"] is True
    code, out, err = _run(capsys, ["bound-search", "--dim", "2", "--n", "17", "--colors", "3", "--trials", "1"])
    assert code == 1 and out == ""
    assert "--unsafe-large" in err


def test_bound_search_records_a_failed_trial(monkeypatch, capsys):
    """A trial that raises VerificationError is listed with its message and
    its instance document, the other trials read as they do without it, and
    the CLI exits 2."""
    import hyperpart.campaigns as campaigns

    argv = ["bound-search", "--trials", "3", "--n", "7", "--colors", "3", "--seed", "5"]
    clean = _run_json(capsys, argv)
    decide = campaigns.smallest_blocked_subset_size
    calls = []

    def fails_on_trial_1(config):
        calls.append(config)
        if len(calls) == 2:
            raise VerificationError("synthetic postcondition breach")
        return decide(config)

    monkeypatch.setattr(campaigns, "smallest_blocked_subset_size", fails_on_trial_1)
    code, out, _ = _run(capsys, argv)
    doc = json.loads(out)
    assert code == 2
    assert doc["results"][1] == {
        "trial": 1, "ok": False, "error": "synthetic postcondition breach",
        "instance": config_doc(calls[1]),
    }
    assert [doc["results"][t] for t in (0, 2)] == [clean["results"][t] for t in (0, 2)]
    assert clean["ok"] and (doc["passed"], doc["failed"], doc["ok"]) == (2, 1, False)


def test_failed_trials_replay_from_their_instance_documents(monkeypatch, capsys):
    """A trial whose record reads ``ok`` false without raising carries its
    instance too, and the document parses back to the configuration the
    trial ran on: the eta-bound suite's degenerate instance, against a bound
    of 0 that every trial exceeds."""
    import hyperpart.campaigns as campaigns

    monkeypatch.setattr(campaigns, "max_transversal_size", lambda dim, n: 0)
    argv = ["verify", "--suite", "eta-bound", "--dim", "2", "--n", "5", "--trials", "2", "--seed", "3"]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    spec = CampaignSpec(suite="eta-bound", dim=2, n=5, trials=2, seed=3, degenerate=True)
    for trial, record in enumerate(json.loads(out)["results"]):
        assert record["ok"] is False and "error" not in record
        assert parse_instance(json.dumps(record["instance"])) == generate_instance(spec, trial)


def test_output_file(tmp_path, capsys, quad_file):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["enumerate", "--input", quad_file, "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 7


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_output_is_a_one_line_error(tmp_path, capsys, where):
    target = tmp_path if where == "a directory" else tmp_path / "missing" / "report.json"
    argv = ["formulas", "--dim", "2", "--colors", "3", "--output", str(target)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_byte_identical_reports(capsys, quad_file):
    _, first, _ = _run(capsys, ["enumerate", "--input", quad_file])
    _, second, _ = _run(capsys, ["enumerate", "--input", quad_file])
    assert first == second
    _, third, _ = _run(
        capsys, ["verify", "--suite", "duality", "--trials", "2", "--n", "5"]
    )
    _, fourth, _ = _run(
        capsys, ["verify", "--suite", "duality", "--trials", "2", "--n", "5"]
    )
    assert third == fourth


def test_usage_errors_exit_1(capsys, quad_file):
    code, _, err = _run(capsys, ["sep", "--input", quad_file, "--a", "0"])
    assert code == 1
    assert "--b" in err

    code, _, err = _run(capsys, ["enumerate", "--input", "/does/not/exist.json"])
    assert code == 1

    code, _, err = _run(capsys, ["verify", "--suite", "nope"])
    assert code == 1


def test_domain_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "points": [{"id": 0, "coords": ["0.25"]}]}')
    code, _, err = _run(capsys, ["enumerate", "--input", str(bad)])
    assert code == 1
    assert "exact rational" in err

    code, _, err = _run(capsys, ["witness", "--input", str(bad)])
    assert code == 1

    # degenerate mode plants a collinear triple, which a flip cannot take
    code, out, err = _run(capsys, ["verify", "--suite", "duality", "--degenerate"])
    assert code == 1 and out == ""
    assert "'duality'" in err and "general position" in err

    for colors in ("0", "1"):
        code, out, err = _run(capsys, ["formulas", "--dim", "2", "--colors", colors])
        assert code == 1 and out == ""
        assert "colors" in err and "points" not in err


@pytest.mark.parametrize("dim, n", [("1", "5"), ("2", "2")])
def test_eta_bound_shape_error_names_the_suite(capsys, dim, n):
    # eta-bound always plants a collinear triple, --degenerate or not
    code, out, err = _run(capsys, ["verify", "--suite", "eta-bound", "--dim", dim, "--n", n])
    assert code == 1 and out == ""
    assert "'eta-bound'" in err and "degenerate mode" not in err


_HUGE = "1" + "0" * 5000  # more digits than Python converts from text


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 1, "points": [{"id": 0, "coords": [%s]}]}' % _HUGE,
        '{"dim": 1, "points": [{"id": 0, "coords": ["1/%s"]}]}' % _HUGE,
        '{"dim": 1, "points": [{"id": %s, "coords": ["0"]}]}' % _HUGE,
    ],
    ids=["json-number", "rational-string", "id"],
)
def test_overlong_integers_exit_1(tmp_path, capsys, text):
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, out, err = _run(capsys, ["enumerate", "--input", str(path)])
    assert code == 1 and out == ""
    assert "more than" in err and "digits" in err


def test_overlong_results_exit_1(tmp_path, capsys):
    # 4,000-digit coordinates parse, but the witness planes are longer
    cfg = make_config(2, [(7 * 10**3999, 0), (1, 3 * 10**3999), (3, Fraction(1, 9 * 10**3999))])
    path = tmp_path / "long.json"
    path.write_text(emit_instance(cfg))
    code, out, err = _run(capsys, ["enumerate", "--input", str(path)])
    assert code == 1 and out == ""
    assert "cannot print a result" in err


def test_non_utf8_input_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "points": [{"id": 0, "coords": ["0"], "color": "\xff"}]}')
    code, out, err = _run(capsys, ["enumerate", "--input", str(path)])
    assert code == 1 and out == ""
    assert "not UTF-8" in err


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 1, "points": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = _run(capsys, ["enumerate", "--input", str(path)])
    assert code == 1 and out == ""
    assert "nested too deeply" in err


def test_enumerate_reports_dependent_points_out_of_general_position(tmp_path, capsys):
    # three collinear points in space used to read as in general position
    path = tmp_path / "line.json"
    path.write_text(emit_instance(make_config(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])))
    doc = _run_json(capsys, ["enumerate", "--input", str(path)])
    assert doc["general_position"] is False
    assert doc["count"] == 3 and doc["formula_count"] == 4


def test_desk_scale_caps(tmp_path, capsys):
    big = make_config(1, [(i,) for i in range(17)])
    path = tmp_path / "big.json"
    path.write_text(emit_instance(big))
    code, _, err = _run(capsys, ["enumerate", "--input", str(path)])
    assert code == 1
    assert "--unsafe-large" in err

    code, _, err = _run(capsys, ["formulas", "--dim", "9", "--colors", "4"])
    assert code == 1
    code, out, err = _run(
        capsys, ["formulas", "--dim", "9", "--colors", "4", "--unsafe-large"]
    )
    assert code == 0


def test_verification_failures_exit_2(monkeypatch, capsys, quad_file):
    from hyperpart import cli

    def boom(args):
        raise VerificationError("synthetic postcondition breach")

    monkeypatch.setattr(cli, "_cmd_enumerate", boom)
    code = cli.main(["enumerate", "--input", quad_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "verification failure" in err


def test_partitionable_routes_disagreeing_print_the_report_and_exit_2(
    monkeypatch, capsys, colored_file
):
    from hyperpart import cli

    monkeypatch.setattr(
        cli, "is_partitionable_by_enumeration", lambda config: cli.is_partitionable(config) is None
    )
    code, out, _ = _run(capsys, ["partitionable", "--input", colored_file])
    assert code == 2
    doc = json.loads(out)
    assert doc["partitionable"] is False and doc["routes_agree"] is False


def test_kirchberger_routes_disagreeing_print_the_report_and_exit_2(
    monkeypatch, capsys, colored_file
):
    from hyperpart import cli
    from hyperpart.colorful import KirchbergerReport

    monkeypatch.setattr(
        cli,
        "kirchberger_routes",
        lambda config, anchor: KirchbergerReport(hyperplane=None, routes_agree=False, witness=None),
    )
    code, out, _ = _run(capsys, ["kirchberger", "--input", colored_file])
    assert code == 2
    doc = json.loads(out)
    assert doc["separable"] is False and doc["routes_agree"] is False


def test_parser_is_built_once_per_process(monkeypatch, capsys, quad_file):
    from hyperpart import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    try:
        first = _run(capsys, ["enumerate", "--input", quad_file])
        assert _run(capsys, ["formulas", "--dim", "2", "--colors", "3"])[0] == 0
        assert _run(capsys, ["enumerate", "--input", quad_file]) == first
        assert _run(capsys, ["enumerate"])[0] == 1  # a usage error leaves it usable
        assert _run(capsys, ["enumerate", "--input", quad_file]) == first
    finally:
        cli._shared_parser.cache_clear()
    assert built == [1]


def test_no_color_is_a_no_op(monkeypatch, capsys, quad_file):
    _, plain, _ = _run(capsys, ["enumerate", "--input", quad_file])
    monkeypatch.setenv("NO_COLOR", "1")
    _, under_no_color, _ = _run(capsys, ["enumerate", "--input", quad_file])
    assert plain == under_no_color


# Four clusters, one per color: several planes in the certificate.
_FOUR_CLUSTERS = make_config(
    2,
    [(0, 0), (1, 0), (10, 0), (11, 1), (0, 10), (1, 11), (10, 10), (11, 12)],
    colors=["a", "a", "b", "b", "c", "c", "d", "d"],
)
# Two colors that cross on a square and straddle it in space: inseparable.
_CROSSED_IN_SPACE = make_config(
    3,
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1), (1, 1, -1), (3, 1, 2)],
    colors=[0, 1, 1, 0, 0, 1, 1],
)

# d=2, n=11, k=4: not partitionable, so both routes answer "no"
_BLOCKED_ELEVEN = generate_instance(
    CampaignSpec(suite="main", dim=2, n=11, colors=4, seed=0), 0
)
# Reports that print back-substituted witness values and moved coordinates.
_PHI_D3 = generate_instance(CampaignSpec(suite="phi", dim=3, n=8, seed=0), 0)
_DEGENERATE_D2 = generate_instance(
    CampaignSpec(suite="phi", dim=2, n=9, seed=0, degenerate=True), 0
)
_GENERAL_D2 = generate_instance(CampaignSpec(suite="phi", dim=2, n=8, seed=0), 0)
_DEGENERATE_D3 = generate_instance(
    CampaignSpec(suite="phi", dim=3, n=9, seed=0, degenerate=True), 0
)
# The phi instances at the caps: the largest transversals reports (9.8 and
# 9.5 MB), where each member is listed in many transversals.
_PHI_CAP = generate_instance(CampaignSpec(suite="phi", dim=3, n=16, seed=0), 0)
_DEGENERATE_CAP = generate_instance(
    CampaignSpec(suite="phi", dim=3, n=16, seed=0, degenerate=True), 0
)
# Degenerate main at the caps: its witness cores come from the degenerate scan.
_DEGENERATE_MAIN_CAP = generate_instance(
    CampaignSpec(suite="main", dim=3, n=16, colors=8, seed=0, degenerate=True), 0
)
# Two-color instances for both Kirchberger routes: inseparable in general
# position (a five-point witness), separable, and inseparable and separable
# on a planted collinear triple.
_KIRCHBERGER_D3 = generate_instance(
    CampaignSpec(suite="kirchberger", dim=3, n=12, colors=2, seed=0), 0
)
_SEPARABLE_D2 = generate_instance(
    CampaignSpec(suite="kirchberger", dim=2, n=8, colors=2, seed=0), 8
)
_DEGENERATE_TWO_COLOR = generate_instance(
    CampaignSpec(suite="kirchberger", dim=2, n=9, colors=2, seed=0, degenerate=True), 0
)
_SEPARABLE_DEGENERATE = generate_instance(
    CampaignSpec(suite="kirchberger", dim=2, n=9, colors=2, seed=0, degenerate=True), 32
)


@pytest.mark.parametrize(
    "config, argv, digest",
    [
        (
            _FOUR_CLUSTERS,
            ["partitionable"],
            "f6b93952e7329d819366009abc127f7353c9cd87b96f041cffa999e0f3b9feb6",
        ),
        (
            generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0),
            ["witness"],
            "ce2b3926e75b7172e2b494dd17e12f31366639447f47b8c1a199a737dfa2f733",
        ),
        (
            _CROSSED_IN_SPACE,
            ["kirchberger", "--p", "4"],
            "8ef57726d91cabf33c5f3b86e066a4593f4b7d81c9c9d089b042b4b700b68949",
        ),
        (
            None,
            ["verify", "--suite", "main"],
            "6a343faa380c1d91b8504b6bbf34515f02c524bdababd69895536df86f191c96",
        ),
        (
            None,
            ["verify", "--suite", "kirchberger"],
            "f36166379dcef7413724ef2724fefb9a5575920b4792b1e026edc8293dc0a783",
        ),
        (
            generate_instance(CampaignSpec(suite="duality", dim=2, n=8, seed=0), 0),
            ["flip", "--a", "0", "--b", "1"],
            "cc6c58df5140011597b847d01d10704ee2c7b17e856e7fb8c3719746a03ab66c",
        ),
        (
            None,
            ["verify", "--suite", "duality"],
            "dee116d496b8281b27c8100aa3d9f739b8991681fbe24e5e2bf3b107efb08878",
        ),
        (
            None,
            ["bound-search", "--dim", "2", "--n", "8", "--colors", "3", "--trials", "3"],
            "a398f92ce71a62cd9e51e3fd018c0528a667c2abf787d160c2f3bbc26c07fe8b",
        ),
        (
            _BLOCKED_ELEVEN,
            ["partitionable"],
            "fd2c9fc6b35d969a0201b7246d0ef53da7304ca35f01b727ed37bd5483893b95",
        ),
        (
            _PHI_D3,
            ["enumerate"],
            "2d6f7530babd7158c0e92da3b29aa112f6ea8eadfce3df767ec67f987c7e6291",
        ),
        (
            _DEGENERATE_D2,
            ["enumerate"],
            "d97a7f21b7f6df7ea6a9d4724c490ff4aa892cba7b85bb63d77a0f06f8e2abbd",
        ),
        (
            _PHI_D3,
            ["sep", "--a", "0", "--b", "1"],
            "2017888e7854e8d0b58ac8b89ced874277402fc4e0bffffccb0de5a5d5757e4a",
        ),
        (
            _GENERAL_D2,
            ["shrink", "--a", "0", "--b", "1"],
            "ebfc4791b7184fa10892d40e859062d6d1d7c57cf75c955f2c64109274896852",
        ),
        (
            _DEGENERATE_D2,
            ["perturb", "--seed", "0"],
            "b8a98dafd7633e2e841c3eb4e3ea711966044160cd3717d63eb4b52228bc2960",
        ),
        (
            None,
            ["demo", "pentagon"],
            "d658830bcc3b9f17cd672eef2ddaa408a9a1932d379a23a0ef38f8f919f0d787",
        ),
        (
            None,
            ["verify", "--suite", "phi", "--dim", "2", "--n", "8", "--trials", "5"],
            "572b708db316cd06a36f1ad006348cb3b81f0ee31225c08e7c58d18fd28eb9df",
        ),
        (
            None,
            ["verify", "--suite", "eta-bound", "--dim", "3", "--n", "6", "--trials", "4"],
            "1d39ab3d37056af8c30a64e89bd7a11af6fc52fb3f1f7a121225613ffc6d4593",
        ),
        (
            _KIRCHBERGER_D3,
            ["kirchberger"],
            "e0d026a3d94cc55ffd3c295e13cba46acf3d06488fc8495d254c6e3682e86052",
        ),
        (
            _SEPARABLE_D2,
            ["kirchberger"],
            "30a14b5fcab60e504e9b4a658b6adf9256abf59ffd9ff5d33d4ab18365ffa855",
        ),
        (
            _DEGENERATE_TWO_COLOR,
            ["kirchberger"],
            "2f854e3ffe65f8190dfb6d09367cf3147c5fede2c28f320012f0e894e151bdb0",
        ),
        (
            _SEPARABLE_DEGENERATE,
            ["kirchberger"],
            "fd6a1d6d609278e4357a395642f2d421043e74c9d9059fdf3a9ef514ef91ffbc",
        ),
        (
            generate_instance(CampaignSpec(suite="main", dim=3, n=10, colors=4, seed=0), 0),
            ["witness"],
            "8b30ee605998509dfe168549a238fe6319feb79e01db5cc8d6ec87213f32e9d5",
        ),
        (
            generate_instance(CampaignSpec(suite="main", dim=3, n=16, colors=8, seed=0), 0),
            ["witness"],
            "4f8b4db8db6311c6e2974beeb695bf1b611e11c289fb206ea89c4765394ebaa4",
        ),
        (
            _PHI_D3,
            ["transversals"],
            "1b4f58f62c8fa025385cff7a100db990078b63e4becbc15cbc6a051cb568b605",
        ),
        (
            _DEGENERATE_D2,
            ["transversals"],
            "214a744faed6462b1ea52eb7d2eeae7786a2bf6f23d41b458a40b35f12672e19",
        ),
        (
            _DEGENERATE_D3,
            ["sep", "--a", "0", "--b", "1"],
            "9da7b6bd2512e0de0d6dec8aeb7d7a8ba672648e733fb8898e73ffd7ed5b9a52",
        ),
        (
            _PHI_CAP,
            ["transversals"],
            "2ee548728e15e74b9a73087331b3b94c3e1eeb185b995491034f8aadfa4ed396",
        ),
        (
            _DEGENERATE_CAP,
            ["transversals"],
            "f183ef70193e0d9e6ac7876ea0acbd71ce56d2664e6009c23839b20186f2c343",
        ),
        (
            _PHI_CAP,
            ["sep", "--a", "0", "--b", "1"],
            "86bb21360ca9845717dac0228a5c6b36ede4981a6853fb9ada080205070af4d2",
        ),
        (
            _DEGENERATE_CAP,
            ["sep", "--a", "0", "--b", "1"],
            "05a3d0a740c899ce2d5facc0a4de5a0632e1d11cb10043f5e30d891c9ed9ba71",
        ),
        (
            _DEGENERATE_MAIN_CAP,
            ["witness"],
            "c47cb62d67863aa7c3b15eb6493d4b38fb2d9fb658e3472b2b117b38852db223",
        ),
        (
            None,
            ["verify", "--suite", "kirchberger", "--dim", "3", "--n", "16", "--trials", "10",
             "--degenerate"],
            "ed20b8f1325a3b7a679becaa5b23a35b7fe5b11825c39ef87ba4dd12e33e9b2c",
        ),
    ],
    ids=[
        "partitionable",
        "witness",
        "kirchberger",
        "verify-main",
        "verify-kirchberger",
        "flip",
        "verify-duality",
        "bound-search",
        "partitionable-blocked",
        "enumerate-d3",
        "enumerate-degenerate",
        "sep",
        "shrink",
        "perturb",
        "demo",
        "verify-phi",
        "verify-eta-bound",
        "kirchberger-d3",
        "kirchberger-separable",
        "kirchberger-degenerate",
        "kirchberger-degenerate-separable",
        "witness-d3",
        "witness-d3-cap",
        "transversals-d3",
        "transversals-degenerate",
        "sep-degenerate-d3",
        "transversals-cap",
        "transversals-degenerate-cap",
        "sep-cap",
        "sep-degenerate-cap",
        "witness-degenerate-cap",
        "verify-kirchberger-degenerate-cap",
    ],
)
def test_golden_report_bytes(tmp_path, capsys, config, argv, digest):
    """Reports pinned byte for byte, not only run against run: a faster
    search must return the same certificates, witnesses and verdicts."""
    if config is not None:
        path = tmp_path / "instance.json"
        path.write_text(emit_instance(config))
        argv = argv + ["--input", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
