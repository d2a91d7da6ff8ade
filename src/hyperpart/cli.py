"""Command-line front end.

Every subcommand reads exact-rational JSON (or generates seeded instances),
prints one deterministic JSON report to stdout (or ``--output``), and exits
with 0 on success, 1 on bad input or usage, 2 on a failed verification.
Output is plain JSON with no terminal styling, so ``NO_COLOR`` has nothing to
override.
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
from .generator import CampaignSpec, generate_instance
from .geometry import PointConfig, general_position
from .hdivision import hyperplane_division, perturb, projective_flip, shrink_to_min
from .instances import (
    config_doc,
    dumps_doc,
    hyperplane_doc,
    parse_instance,
    partition_doc,
    rational_str,
)
from .partitions import minimal_transversals
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
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _member_docs(hd) -> list[dict]:
    return [
        {
            "blocks": partition_doc(member),
            "witness": hyperplane_doc(hd.witness(member)),
        }
        for member in hd.members
    ]


# --- subcommand bodies -----------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    config = _load(args)
    hd = hyperplane_division(config)
    expected = partition_count(config.dim, len(config))
    doc = {
        "command": "enumerate",
        "dim": config.dim,
        "n": len(config),
        "general_position": general_position(config),
        "count": len(hd),
        "formula_count": expected,
        "matches_formula": len(hd) == expected,
        "members": _member_docs(hd),
    }
    _emit(args, doc)
    return 0


def _cmd_sep(args: argparse.Namespace) -> int:
    config = _load(args)
    hd = hyperplane_division(config)
    separating = hd.separating(args.a, args.b)
    nonseparating = hd.nonseparating(args.a, args.b)
    doc = {
        "command": "sep",
        "pair": [args.a, args.b],
        "separating_count": len(separating),
        "nonseparating_count": len(nonseparating),
        "separating": [partition_doc(m) for m in separating],
        "nonseparating": [partition_doc(m) for m in nonseparating],
    }
    _emit(args, doc)
    return 0


def _cmd_transversals(args: argparse.Namespace) -> int:
    config = _load(args)
    hd = hyperplane_division(config)
    found = minimal_transversals(hd.division)
    sizes = [t.size for t in found]
    doc = {
        "command": "transversals",
        "count": len(hd),
        "min_size": min(sizes) if sizes else None,
        "max_size": max(sizes) if sizes else None,
        "minimal_transversals": [
            {
                "pair": list(t.pair),
                "size": t.size,
                "members": [partition_doc(m) for m in t.members],
            }
            for t in found
        ],
    }
    _emit(args, doc)
    return 0


def _cmd_flip(args: argparse.Namespace) -> int:
    config = _load(args)
    hd = hyperplane_division(config)
    separating = hd.separating(args.a, args.b)
    if not separating:
        raise DomainError(f"no member separates {args.a} and {args.b}")
    if not 0 <= args.base_index < len(separating):
        raise DomainError(
            f"--base-index {args.base_index} out of range "
            f"(pair has {len(separating)} separating members)"
        )
    result = projective_flip(hd, args.a, args.b, separating[args.base_index])
    doc = {
        "command": "flip",
        "pair": [args.a, args.b],
        "base": partition_doc(result.base),
        "separating_before": result.separating_before,
        "separating_after": result.separating_after,
        "total": result.total,
        "map": [
            {"from": partition_doc(src), "to": partition_doc(dst)}
            for src, dst in sorted(
                result.partition_map.items(), key=lambda kv: kv[0].blocks
            )
        ],
        "config": config_doc(result.config),
    }
    _emit(args, doc)
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    config = _load(args)
    result = shrink_to_min(hyperplane_division(config), args.a, args.b)
    doc = {
        "command": "shrink",
        "moved": result.moved_id,
        "toward": result.toward_id,
        "scale": rational_str(result.scale),
        "attempts": result.attempts,
        "separating_size": result.separating_size,
        "formula_min": min_transversal_size(config.dim, len(config)),
        "config": config_doc(result.config),
    }
    _emit(args, doc)
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    config = _load(args)
    result = perturb(config, args.seed)
    doc = {
        "command": "perturb",
        "seed": args.seed,
        "attempts": result.attempts,
        "count_before": result.count_before,
        "count_after": result.count_after,
        "formula_count": partition_count(config.dim, len(config)),
        "config": config_doc(result.config),
    }
    _emit(args, doc)
    return 0


def _cmd_partitionable(args: argparse.Namespace) -> int:
    config = _load(args)
    certificate = is_partitionable(config)
    agree = (certificate is not None) == is_partitionable_by_enumeration(config)
    doc = {
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
    _emit(args, doc)
    return 0 if agree else 2


def _cmd_witness(args: argparse.Namespace) -> int:
    config = _load(args)
    report = witness_nonpartitionable(config)
    doc = {
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
    _emit(args, doc)
    return 0


def _cmd_kirchberger(args: argparse.Namespace) -> int:
    config = _load(args)
    anchor = args.p if args.p is not None else config.ids[0]
    routes = kirchberger_routes(config, anchor)
    direct = routes.hyperplane
    doc = {
        "command": "kirchberger",
        "anchor": anchor,
        "separable": direct is not None,
        "routes_agree": routes.routes_agree,
        "hyperplane": hyperplane_doc(direct) if direct is not None else None,
        "witness": list(routes.witness) if routes.witness is not None else None,
    }
    _emit(args, doc)
    return 0 if routes.routes_agree else 2


def _cmd_formulas(args: argparse.Namespace) -> int:
    _check_scale(args.unsafe_large, dim=args.dim, colors=args.colors)
    summary = counting_summary(args.dim, args.colors)
    doc = {
        "command": "formulas",
        "dim": summary.dim,
        "colors": summary.k,
        "partition_count": summary.partition_count,
        "min_transversal_size": summary.min_transversal_size,
        "max_transversal_size": summary.max_transversal_size,
        "witness_size_bound": summary.witness_size_bound,
    }
    _emit(args, doc)
    return 0


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


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(_spec_from_args(args, args.suite))
    _emit(args, report)
    return 0 if report["ok"] else 2


def _cmd_bound_search(args: argparse.Namespace) -> int:
    report = bound_search(_spec_from_args(args, "bound-search"))
    _emit(args, report)
    return 0 if report["ok"] else 2


_PENTAGON_EXPECTED = {
    "count": 16,
    "center_vertex": 6,
    "adjacent_vertices": 6,
    "nonadjacent_vertices": 10,
    "min_transversal": 6,
    "max_minimal_transversal": 10,
    "shrink_separating": 5,
    "shrink_min_transversal": 5,
}


def _cmd_demo(args: argparse.Namespace) -> int:
    config = pentagon_config()
    hd = hyperplane_division(config)
    found_transversals = minimal_transversals(hd.division)
    sizes = [t.size for t in found_transversals]
    shrunk = shrink_to_min(hd, *CENTER_VERTEX_PAIR)
    after = minimal_transversals(shrunk.division.division)
    got = {
        "count": len(hd),
        "center_vertex": len(hd.separating(*CENTER_VERTEX_PAIR)),
        "adjacent_vertices": len(hd.separating(*ADJACENT_VERTEX_PAIR)),
        "nonadjacent_vertices": len(hd.separating(*NONADJACENT_VERTEX_PAIR)),
        "min_transversal": min(sizes),
        "max_minimal_transversal": max(sizes),
        "shrink_separating": shrunk.separating_size,
        "shrink_min_transversal": min(t.size for t in after),
    }
    if got != _PENTAGON_EXPECTED:
        raise VerificationError(
            f"pentagon demo deviates from the frozen values: {got}"
        )
    doc = {
        "command": "demo",
        "name": "pentagon",
        "count": got["count"],
        "separating_sizes": {
            "center-vertex": got["center_vertex"],
            "adjacent-vertices": got["adjacent_vertices"],
            "nonadjacent-vertices": got["nonadjacent_vertices"],
        },
        "min_transversal_size": got["min_transversal"],
        "max_minimal_transversal_size": got["max_minimal_transversal"],
        "shrink": {
            "pair": list(CENTER_VERTEX_PAIR),
            "scale": rational_str(shrunk.scale),
            "separating_size": got["shrink_separating"],
            "min_transversal_size_after": got["shrink_min_transversal"],
        },
        "ok": True,
    }
    _emit(args, doc)
    return 0


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
        return globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except VerificationError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 2
    except HyperpartError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
