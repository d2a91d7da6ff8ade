"""Exact hyperplane partitions of finite point sets.

Everything runs on rational arithmetic: enumeration of hyperplane-realizable
bipartitions, their transversal structure, projective counting arguments, and
the colored separation theory built on top (two-color separation with small
inseparable witnesses, multi-color partitionability with certificates, and
bounded non-partitionable witnesses).
"""

from .campaigns import SUITES, bound_search, run_suite
from .colorful import (
    Certificate,
    HalfspaceSystem,
    InstanceReport,
    WitnessReport,
    color_separating_hyperplane,
    extend_partition,
    helly_dual,
    is_partitionable,
    is_partitionable_by_enumeration,
    kirchberger_witness,
    smallest_blocked_subset_size,
    validate_certificate,
    verify_instance,
    witness_nonpartitionable,
)
from .counting import (
    CountingSummary,
    counting_summary,
    max_transversal_size,
    min_transversal_size,
    partition_count,
    witness_size_bound,
)
from .errors import DomainError, HyperpartError, InvalidConfig, VerificationError
from .generator import CampaignSpec, generate_instance
from .geometry import (
    Hyperplane,
    Point,
    PointConfig,
    general_position,
    make_config,
    one_side_hyperplane,
    orient,
    radon_signs,
    realize,
    strict_separate,
)
from .hdivision import (
    FlipResult,
    HyperplaneDivision,
    PerturbResult,
    ShrinkResult,
    hyperplane_division,
    perturb,
    projective_flip,
    shrink_to_min,
)
from .instances import emit_instance, parse_instance
from .partitions import (
    Division,
    MinimalTransversal,
    Partition,
    is_full,
    is_transversal,
    minimal_transversals,
    minimalize_transversal,
    nonseparating_members,
    restrict,
    separating_members,
)
from .pentagon import pentagon_config

__all__ = [
    "SUITES",
    "CampaignSpec",
    "Certificate",
    "CountingSummary",
    "Division",
    "DomainError",
    "FlipResult",
    "HalfspaceSystem",
    "HyperpartError",
    "Hyperplane",
    "HyperplaneDivision",
    "InstanceReport",
    "InvalidConfig",
    "MinimalTransversal",
    "Partition",
    "PerturbResult",
    "Point",
    "PointConfig",
    "ShrinkResult",
    "VerificationError",
    "WitnessReport",
    "bound_search",
    "color_separating_hyperplane",
    "counting_summary",
    "emit_instance",
    "extend_partition",
    "general_position",
    "generate_instance",
    "helly_dual",
    "hyperplane_division",
    "is_full",
    "is_partitionable",
    "is_partitionable_by_enumeration",
    "is_transversal",
    "kirchberger_witness",
    "make_config",
    "max_transversal_size",
    "min_transversal_size",
    "minimal_transversals",
    "minimalize_transversal",
    "nonseparating_members",
    "one_side_hyperplane",
    "orient",
    "parse_instance",
    "partition_count",
    "pentagon_config",
    "perturb",
    "projective_flip",
    "radon_signs",
    "realize",
    "restrict",
    "run_suite",
    "separating_members",
    "shrink_to_min",
    "smallest_blocked_subset_size",
    "strict_separate",
    "validate_certificate",
    "verify_instance",
    "witness_nonpartitionable",
    "witness_size_bound",
]

__version__ = "0.1.0"
