"""Closed-form counts for hyperplane-realizable partitions and transversals.

For k points in general position in R^d:

* ``partition_count(d, k)``       — number of partitions realizable by a
  hyperplane (including the trivial one): sum_{i=0..d} C(k-1, i).
* ``min_transversal_size(d, k)``  — least possible cardinality of a minimal
  transversal: sum_{i=1..d} C(k-2, i-1).
* ``max_transversal_size(d, k)``  — largest possible cardinality of a minimal
  transversal: sum_{i=0..d} C(k-2, i); this also bounds degenerate configs.
* ``witness_size_bound(d, k)``    — (d+1) * max_transversal_size + k, the
  subset size that controls k-color partitionability.

The three counts satisfy min + max = total, via Pascal's rule
C(k-1, i) = C(k-2, i) + C(k-2, i-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DomainError


def _check(dim: int, k: int, least_k: int) -> None:
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    if k < least_k:
        raise DomainError(f"need at least {least_k} points, got {k}")


def partition_count(dim: int, k: int) -> int:
    _check(dim, k, 1)
    return sum(comb(k - 1, i) for i in range(dim + 1))


def min_transversal_size(dim: int, k: int) -> int:
    _check(dim, k, 2)
    return sum(comb(k - 2, i - 1) for i in range(1, dim + 1))


def max_transversal_size(dim: int, k: int) -> int:
    _check(dim, k, 2)
    return sum(comb(k - 2, i) for i in range(dim + 1))


def witness_size_bound(dim: int, k: int) -> int:
    _check(dim, k, 2)
    return (dim + 1) * max_transversal_size(dim, k) + k


@dataclass(frozen=True)
class CountingSummary:
    dim: int
    k: int
    partition_count: int
    min_transversal_size: int
    max_transversal_size: int
    witness_size_bound: int


def counting_summary(dim: int, k: int) -> CountingSummary:
    return CountingSummary(
        dim=dim,
        k=k,
        partition_count=partition_count(dim, k),
        min_transversal_size=min_transversal_size(dim, k),
        max_transversal_size=max_transversal_size(dim, k),
        witness_size_bound=witness_size_bound(dim, k),
    )
