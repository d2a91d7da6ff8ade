"""Command-line front end.

Every subcommand body reads exact-rational JSON (or generates seeded
instances) and returns one JSON-able report.  ``main`` alone prints it, as
deterministic JSON to stdout (or ``--output``), and sets the exit status: 1
on bad input or usage, 2 on a failed verification (raised, or recorded in the
report as a top-level ``routes_agree`` or ``ok`` that is false), else 0.
Output is plain JSON with no terminal styling, so ``NO_COLOR`` has nothing to
override.  ``sep`` and ``transversals`` read the member masks directly and
build no ``Partition``: each member's partition doc is built once, and every
place the report lists the member refers to that one list.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .campaigns import SUITES, bound_search, run_suite
from .colorful import (
    is_partitionable,
    is_partitionable_by_enumeration,
    kirchberger_routes,
    witness_nonpartitionable,
)
from .counting import counting_summary, min_transversal_size, partition_count
from .errors import DomainError, HyperpartError, InvalidConfig, VerificationError
from .generator import CampaignSpec
from .geometry import PointConfig, general_position
from .hdivision import (
    hyperplane_division,
    ordered_members,
    perturb,
    projective_flip,
    shrink_to_min,
)
from .instances import (
    config_doc,
    dumps_doc,
    hyperplane_doc,
    parse_instance,
    partition_doc,
    rational_str,
)
from .partitions import (
    at_bits,
    minimal_separating_sets,
    minimal_transversals,
    pair_positions,
    separating_sets,
    separating_members,
)
from .pentagon import (
    ADJACENT_VERTEX_PAIR,
    CENTER_VERTEX_PAIR,
    NONADJACENT_VERTEX_PAIR,
    pentagon_config,
)

MAX_POINTS = 16
MAX_DIM = 3
MAX_COLORS = 8

_SUITE_DEFAULT_COLORS = {"phi": 0, "duality": 0, "eta-bound": 0, "kirchberger": 2, "main": 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 is reserved for failed
    verification, so usage problems are rethrown and mapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _check_scale(
    unsafe: bool, *, n: Optional[int] = None, dim: Optional[int] = None, colors: Optional[int] = None
) -> None:
    if unsafe:
        return
    if n is not None and n > MAX_POINTS:
        raise DomainError(
            f"n={n} exceeds the desk-scale cap of {MAX_POINTS} points "
            f"(enumeration is exponential); pass --unsafe-large to proceed"
        )
    if dim is not None and dim > MAX_DIM:
        raise DomainError(
            f"dim={dim} exceeds the desk-scale cap of {MAX_DIM}; "
            f"pass --unsafe-large to proceed"
        )
    if colors is not None and colors > MAX_COLORS:
        raise DomainError(
            f"colors={colors} exceeds the desk-scale cap of {MAX_COLORS}; "
            f"pass --unsafe-large to proceed"
        )


def _load(args: argparse.Namespace) -> PointConfig:
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DomainError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise InvalidConfig(f"{path} is not UTF-8 text: {err}") from err
    config = parse_instance(text)
    _check_scale(args.unsafe_large, n=len(config), dim=config.dim, colors=config.k or None)
    return config


def _emit(args: argparse.Namespace, doc: dict) -> None:
    text = dumps_doc(doc)
    if getattr(args, "output", None):
        path = Path(args.output)
        try:
            path.write_text(text)
        except OSError as err:
            raise DomainError(f"cannot write {path}: {err}") from err
    else:
        sys.stdout.write(text)


# --- subcommand bodies -----------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> dict:
    config = _load(args)
    hd = hyperplane_division(config)
    expected = partition_count(config.dim, len(config))
    return {
        "command": "enumerate",
        "dim": config.dim,
        "n": len(config),
        "general_position": general_position(config),
        "count": len(hd),
        "formula_count": expected,
        "matches_formula": len(hd) == expected,
        "members": [
            {"blocks": partition_doc(member), "witness": hyperplane_doc(hd.witness(member))}
            for member in hd.members
        ],
    }


def _cmd_sep(args: argparse.Namespace) -> dict:
    config = _load(args)
    members = ordered_members(config)
    p, q = pair_positions(config.ids, args.a, args.b)
    separating, nonseparating = [], []
    for first, blocks in members:
        (separating if (first >> p ^ first >> q) & 1 else nonseparating).append(blocks)
    return {
        "command": "sep",
        "pair": [args.a, args.b],
        "separating_count": len(separating),
        "nonseparating_count": len(nonseparating),
        "separating": separating,
        "nonseparating": nonseparating,
    }


def _cmd_transversals(args: argparse.Namespace) -> dict:
    config = _load(args)
    firsts, docs = zip(*ordered_members(config))
    found = minimal_separating_sets(separating_sets(firsts, config.ids))
    sizes = [members.bit_count() for _, members in found]
    return {
        "command": "transversals",
        "count": len(firsts),
        "min_size": min(sizes),
        "max_size": max(sizes),
        "minimal_transversals": [
            {"pair": list(pair), "size": size, "members": at_bits(docs, members)}
            for (pair, members), size in zip(found, sizes)
        ],
    }


def _cmd_flip(args: argparse.Namespace) -> dict:
    result = projective_flip(_load(args), args.a, args.b, args.base_index)
    return {
        "command": "flip",
        "pair": [args.a, args.b],
        "base": partition_doc(result.base),
        "separating_before": result.separating_before,
        "separating_after": result.separating_after,
        "total": result.total,
        "map": [  # in the division's canonical order
            {"from": partition_doc(src), "to": partition_doc(dst)}
            for src, dst in result.partition_map.items()
        ],
        "config": config_doc(result.config),
    }


def _cmd_shrink(args: argparse.Namespace) -> dict:
    config = _load(args)
    result = shrink_to_min(config, args.a, args.b)
    return {
        "command": "shrink",
        "moved": result.moved_id,
        "toward": result.toward_id,
        "scale": rational_str(result.scale),
        "attempts": result.attempts,
        "separating_size": result.separating_size,
        "formula_min": min_transversal_size(config.dim, len(config)),
        "config": config_doc(result.config),
    }


def _cmd_perturb(args: argparse.Namespace) -> dict:
    config = _load(args)
    result = perturb(config, args.seed)
    return {
        "command": "perturb",
        "seed": args.seed,
        "attempts": result.attempts,
        "count_before": result.count_before,
        "count_after": result.count_after,
        "formula_count": partition_count(config.dim, len(config)),
        "config": config_doc(result.config),
    }


def _cmd_partitionable(args: argparse.Namespace) -> dict:
    config = _load(args)
    certificate = is_partitionable(config)
    agree = (certificate is not None) == is_partitionable_by_enumeration(config)
    return {
        "command": "partitionable",
        "partitionable": certificate is not None,
        "routes_agree": agree,
        "certificate": None
        if certificate is None
        else [
            {"hyperplane": hyperplane_doc(h), "partition": partition_doc(p)}
            for h, p in certificate.family
        ],
    }


def _cmd_witness(args: argparse.Namespace) -> dict:
    config = _load(args)
    report = witness_nonpartitionable(config)
    return {
        "command": "witness",
        "witness": list(report.witness_ids),
        "size": len(report.witness_ids),
        "size_bound": report.size_bound,
        "representatives": list(report.representatives),
        "transversal_pairs": [list(p) for p in report.transversal_pairs],
        "transversal": [
            {
                "blocks": partition_doc(member),
                "core": list(report.per_member_sets[member]),
            }
            for member in report.transversal
        ],
    }


def _cmd_kirchberger(args: argparse.Namespace) -> dict:
    config = _load(args)
    anchor = args.p if args.p is not None else config.ids[0]
    routes = kirchberger_routes(config, anchor)
    direct = routes.hyperplane
    return {
        "command": "kirchberger",
        "anchor": anchor,
        "separable": direct is not None,
        "routes_agree": routes.routes_agree,
        "hyperplane": hyperplane_doc(direct) if direct is not None else None,
        "witness": list(routes.witness) if routes.witness is not None else None,
    }


def _cmd_formulas(args: argparse.Namespace) -> dict:
    if args.colors < 2:
        raise DomainError(f"formulas need at least 2 colors, got {args.colors}")
    _check_scale(args.unsafe_large, dim=args.dim, colors=args.colors)
    summary = counting_summary(args.dim, args.colors)
    return {
        "command": "formulas",
        "dim": summary.dim,
        "colors": summary.k,
        "partition_count": summary.partition_count,
        "min_transversal_size": summary.min_transversal_size,
        "max_transversal_size": summary.max_transversal_size,
        "witness_size_bound": summary.witness_size_bound,
    }


def _spec_from_args(args: argparse.Namespace, suite: str) -> CampaignSpec:
    colors = args.colors
    if colors is None:
        colors = _SUITE_DEFAULT_COLORS.get(suite, 2)
    _check_scale(args.unsafe_large, n=args.n, dim=args.dim, colors=colors or None)
    return CampaignSpec(
        suite=suite,
        dim=args.dim,
        n=args.n,
        colors=colors,
        trials=args.trials,
        seed=args.seed,
        degenerate=args.degenerate,
    )


def _cmd_verify(args: argparse.Namespace) -> dict:
    return run_suite(_spec_from_args(args, args.suite))


def _cmd_bound_search(args: argparse.Namespace) -> dict:
    return bound_search(_spec_from_args(args, "bound-search"))


# The demo report's fields other than command, name and ok, frozen.
_PENTAGON_EXPECTED = {
    "count": 16,
    "separating_sizes": {"center-vertex": 6, "adjacent-vertices": 6, "nonadjacent-vertices": 10},
    "min_transversal_size": 6,
    "max_minimal_transversal_size": 10,
    "shrink": {
        "pair": list(CENTER_VERTEX_PAIR),
        "scale": "1/4",
        "separating_size": 5,
        "min_transversal_size_after": 5,
    },
}


def _cmd_demo(args: argparse.Namespace) -> dict:
    shrunk = shrink_to_min(pentagon_config(), *CENTER_VERTEX_PAIR)
    division = shrunk.input_division
    sizes = [t.size for t in minimal_transversals(division)]
    report = {
        "command": "demo",
        "name": "pentagon",
        "count": len(division),
        "separating_sizes": {
            "center-vertex": len(separating_members(division, *CENTER_VERTEX_PAIR)),
            "adjacent-vertices": len(separating_members(division, *ADJACENT_VERTEX_PAIR)),
            "nonadjacent-vertices": len(separating_members(division, *NONADJACENT_VERTEX_PAIR)),
        },
        "min_transversal_size": min(sizes),
        "max_minimal_transversal_size": max(sizes),
        "shrink": {
            "pair": list(CENTER_VERTEX_PAIR),
            "scale": rational_str(shrunk.scale),
            "separating_size": shrunk.separating_size,
            "min_transversal_size_after": min(t.size for t in minimal_transversals(shrunk.division)),
        },
        "ok": True,
    }
    got = {key: report[key] for key in _PENTAGON_EXPECTED}
    if got != _PENTAGON_EXPECTED:
        raise VerificationError(f"pentagon demo deviates from the frozen values: {got}")
    return report


# --- parser wiring ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperpart",
        description="Hyperplane partitions of finite point sets, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    common.add_argument(
        "--unsafe-large",
        action="store_true",
        help=f"lift the desk-scale caps (n<={MAX_POINTS}, dim<={MAX_DIM}, colors<={MAX_COLORS})",
    )

    reading = _Parser(add_help=False, parents=[common])
    reading.add_argument("--input", required=True, help="instance JSON file")

    pair = _Parser(add_help=False)
    pair.add_argument("--a", type=int, required=True, help="first point id")
    pair.add_argument("--b", type=int, required=True, help="second point id")

    generating = _Parser(add_help=False, parents=[common])
    generating.add_argument("--dim", type=int, default=2, help="ambient dimension")
    generating.add_argument("--n", type=int, default=8, help="number of points")
    generating.add_argument(
        "--colors", type=int, default=None, help="number of colors (0 = uncolored)"
    )
    generating.add_argument("--trials", type=int, default=20, help="instances to run")
    generating.add_argument("--seed", type=int, default=0, help="campaign seed")
    generating.add_argument(
        "--degenerate",
        action="store_true",
        help="plant a collinear triple instead of requiring general position",
    )

    sub.add_parser(
        "enumerate", parents=[reading], help="all hyperplane-realizable partitions"
    )

    sub.add_parser(
        "sep", parents=[reading, pair], help="members separating a point pair"
    )

    sub.add_parser(
        "transversals", parents=[reading], help="all minimal transversals"
    )

    p = sub.add_parser(
        "flip",
        parents=[reading, pair],
        help="projective reflection through a separating member",
    )
    p.add_argument(
        "--base-index",
        type=int,
        default=0,
        help="index into the pair's separating members (canonical order)",
    )

    sub.add_parser(
        "shrink",
        parents=[reading, pair],
        help="move --a toward --b until the pair's separating count is minimal",
    )

    p = sub.add_parser(
        "perturb", parents=[reading], help="nudge into general position, exactly"
    )
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")

    sub.add_parser(
        "partitionable",
        parents=[reading],
        help="decide hyperplane partitionability along colors (both routes)",
    )

    sub.add_parser(
        "witness",
        parents=[reading],
        help="small non-partitionable subset of a non-partitionable instance",
    )

    p = sub.add_parser(
        "kirchberger",
        parents=[reading],
        help="two-color separation with an anchored inseparable witness",
    )
    p.add_argument(
        "--p", type=int, default=None, help="anchor point id (default: lowest id)"
    )

    p = sub.add_parser(
        "formulas", parents=[common], help="the closed-form counts for (dim, colors)"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)

    p = sub.add_parser(
        "verify", parents=[generating], help="run a seeded verification suite"
    )
    p.add_argument("--suite", required=True, choices=SUITES)

    sub.add_parser(
        "bound-search",
        parents=[generating],
        help="exhaustive smallest non-partitionable subset per trial",
    )

    p = sub.add_parser("demo", parents=[common], help="built-in worked example")
    p.add_argument("name", choices=["pentagon"])

    return parser


@cache
def _shared_parser() -> _Parser:
    """``build_parser`` once per process: building it takes milliseconds."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # looked up per call, so the subcommand bodies can be replaced
        report = globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
        _emit(args, report)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except VerificationError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 2
    except HyperpartError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    failed = report.get("routes_agree") is False or report.get("ok") is False
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
