"""Union-size calculus: k-overlaps, Theorem 3, Equation 1 and cover sizes.

Section 4 of the paper reduces the set-union size of joins to smaller-unit
statistics: the *k-overlaps* ``A^k_j`` of each join (tuples of ``J_j`` shared
with exactly ``k-1`` other joins).  Given a way to evaluate the overlap
``|O_Δ|`` of any subset Δ of joins, the k-overlaps follow from the top-down
recursion of Theorem 3,

    |A^k_j| = Σ_{Δ ∈ P_k, J_j ∈ Δ} |O_Δ|  −  Σ_{r=k+1}^{n} C(r-1, k-1) · |A^r_j|,

and the union size from Equation 1,

    |U| = Σ_j Σ_k |A^k_j| / k.

The cover sizes ``|J'_i|`` of §3.1 follow from inclusion–exclusion over the
joins preceding ``J_i`` in the declared order.

All functions take an ``overlap_of`` callback mapping a frozenset of join
names to ``|O_Δ|`` (with singletons mapping to ``|J_j|``), so the same calculus
serves the exact, histogram and random-walk instantiations.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Dict, FrozenSet, List, Mapping, Sequence

OverlapFunction = Callable[[FrozenSet[str]], float]

#: Number of joins above which the exponential powerset enumeration is refused.
MAX_JOINS_FOR_EXACT_LATTICE = 16


def powerset(names: Sequence[str], min_size: int = 1) -> List[FrozenSet[str]]:
    """All subsets of ``names`` with at least ``min_size`` elements."""
    subsets: List[FrozenSet[str]] = []
    for size in range(min_size, len(names) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(names, size))
    return subsets


def pivot_readers(
    names: Sequence[str], pivot_of: Callable[[FrozenSet[str]], str]
) -> Dict[str, List[str]]:
    """Join -> the pivots whose samples are probed against it: every overlap
    set of two or more of ``names`` estimates its size from its pivot's
    samples (``pivot_of``), asking each other member which it contains."""
    readers: Dict[str, List[str]] = {name: [] for name in names}
    for subset in powerset(names, min_size=2):
        pivot = pivot_of(subset)
        for name in subset:
            if name != pivot and pivot not in readers[name]:
                readers[name].append(pivot)
    return readers


def compute_all_overlaps(
    names: Sequence[str], overlap_of: OverlapFunction
) -> Dict[FrozenSet[str], float]:
    """Evaluate ``|O_Δ|`` for every non-empty subset Δ (bottom-up over the lattice)."""
    if len(names) > MAX_JOINS_FOR_EXACT_LATTICE:
        raise ValueError(
            f"{len(names)} joins would require {2 ** len(names)} overlap evaluations; "
            "reduce the number of joins or use a sparser estimator"
        )
    overlaps: Dict[FrozenSet[str], float] = {}
    for subset in powerset(names, min_size=1):
        value = float(overlap_of(subset))
        if value < 0:
            value = 0.0
        overlaps[subset] = value
    return _enforce_monotonicity(names, overlaps)


def _enforce_monotonicity(
    names: Sequence[str], overlaps: Dict[FrozenSet[str], float]
) -> Dict[FrozenSet[str], float]:
    """Clamp overlap estimates so that Δ ⊆ Δ' implies |O_Δ'| ≤ |O_Δ|.

    Estimated overlaps (histogram bounds, random-walk estimates) can violate
    the set-theoretic monotonicity that the k-overlap recursion assumes;
    clamping each subset against its immediate sub-subsets restores it.
    """
    adjusted = dict(overlaps)
    for size in range(2, len(names) + 1):
        for subset in (frozenset(c) for c in itertools.combinations(names, size)):
            cap = min(adjusted[subset - {name}] for name in subset)
            if adjusted[subset] > cap:
                adjusted[subset] = cap
    return adjusted


def compute_k_overlaps(
    names: Sequence[str], overlaps: Mapping[FrozenSet[str], float]
) -> Dict[str, Dict[int, float]]:
    """``|A^k_j|`` for every join ``j`` and ``k = 1..n`` via Theorem 3."""
    n = len(names)
    result: Dict[str, Dict[int, float]] = {}
    subsets_by_size: Dict[int, List[FrozenSet[str]]] = {
        size: [frozenset(c) for c in itertools.combinations(names, size)]
        for size in range(1, n + 1)
    }
    for name in names:
        areas: Dict[int, float] = {}
        for k in range(n, 0, -1):
            total = sum(
                overlaps[subset]
                for subset in subsets_by_size[k]
                if name in subset
            )
            correction = sum(
                comb(r - 1, k - 1) * areas[r] for r in range(k + 1, n + 1)
            )
            areas[k] = max(total - correction, 0.0)
        result[name] = areas
    return result


def union_size_from_k_overlaps(k_overlaps: Mapping[str, Mapping[int, float]]) -> float:
    """Equation 1: ``|U| = Σ_j Σ_k |A^k_j| / k``."""
    total = 0.0
    for areas in k_overlaps.values():
        for k, size in areas.items():
            total += size / k
    return total


def cover_sizes_from_overlaps(
    names: Sequence[str], overlaps: Mapping[FrozenSet[str], float]
) -> Dict[str, float]:
    """Cover sizes ``|J'_i|`` via inclusion–exclusion (§3.1).

    ``|J'_i| = Σ_{Δ ⊆ S_i} (−1)^{|Δ|} |O_{Δ ∪ {J_i}}|`` where ``S_i`` is the set
    of joins declared before ``J_i``; the empty Δ contributes ``+|J_i|``.
    Results are clamped to be non-negative (estimation noise can push the
    alternating sum slightly below zero).
    """
    covers: Dict[str, float] = {}
    for position, name in enumerate(names):
        earlier = list(names[:position])
        total = 0.0
        for size in range(0, len(earlier) + 1):
            for delta in itertools.combinations(earlier, size):
                subset = frozenset(delta) | {name}
                total += ((-1) ** size) * overlaps[subset]
        covers[name] = max(total, 0.0)
    return covers


def union_size_inclusion_exclusion(
    names: Sequence[str], overlaps: Mapping[FrozenSet[str], float]
) -> float:
    """Classical inclusion–exclusion union size (used as a cross-check)."""
    total = 0.0
    for subset, value in overlaps.items():
        total += ((-1) ** (len(subset) + 1)) * value
    return max(total, 0.0)


__all__ = [
    "OverlapFunction",
    "MAX_JOINS_FOR_EXACT_LATTICE",
    "powerset",
    "pivot_readers",
    "compute_all_overlaps",
    "compute_k_overlaps",
    "union_size_from_k_overlaps",
    "cover_sizes_from_overlaps",
    "union_size_inclusion_exclusion",
]
