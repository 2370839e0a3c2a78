"""Exact Pareto dominance over 2-D integer objective vectors.

Vectors are pairs of non-negative ints: (path length, terrain cost). The
kernel is 2-D only, like the database format and the build's packed heap key;
`nondominated` and `insert_nondominated` reject vectors of any other length.
A "label set" (or front) is a deduplicated, mutually non-dominated collection
kept in lexicographic order: first components strictly increasing, second
components strictly decreasing.

This module is the only Pareto code the build, the verifier and MOA* share:
`skyline` reduces a batch, `insert_front` updates a front in place, and
`strictly_dominated` probes one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

Vector = tuple[int, int]
LabelSet = tuple[Vector, ...]

# Component ceiling for objective vectors. Python ints never wrap, so this is
# a declared storage width: maps whose worst-case path sums could pass it are
# rejected up front instead of silently producing out-of-range values.
MAX_COMPONENT = 2**63 - 1


class CostOverflowError(OverflowError):
    """A cost component would exceed MAX_COMPONENT."""


def dominates(a: Vector, b: Vector) -> bool:
    """True iff `a` is componentwise <= `b` and differs from it somewhere."""
    if len(a) != len(b):
        raise ValueError("vectors must have the same number of components")
    return a != b and all(x <= y for x, y in zip(a, b))


def add(a: Vector, b: Vector) -> Vector:
    """Componentwise sum, guarded against exceeding MAX_COMPONENT."""
    out = tuple(x + y for x, y in zip(a, b))
    if any(c > MAX_COMPONENT for c in out):
        raise CostOverflowError(f"cost component exceeds {MAX_COMPONENT}")
    return out


def skyline(cands: list[Vector]) -> LabelSet:
    """Non-dominated subset of the 2-vectors in `cands`, in canonical order.

    Sorts `cands` in place. Lex order makes this a single scan: keep a vector
    iff its second component beats everything already kept, which also drops
    duplicates.
    """
    cands.sort()
    out = []
    best = None
    for v in cands:
        if best is None or v[1] < best:
            out.append(v)
            best = v[1]
    return tuple(out)


def nondominated(vectors: Iterable[Vector]) -> LabelSet:
    """Reduce `vectors` to their non-dominated subset, deduplicated and sorted.

    Idempotent and insensitive to input order. Every discarded vector is
    dominated by (or equal to) some retained one. Raises ValueError unless
    every vector has two components.
    """
    vs = [tuple(v) for v in vectors]
    if any(len(v) != 2 for v in vs):
        raise ValueError("vectors must have two components")
    return skyline(vs)


def strictly_dominated(front: list[Vector], v: Vector) -> bool:
    """True iff some member of the canonical front dominates `v`.

    A member equal to `v` does not count.
    """
    pos = bisect_left(front, v)
    return pos > 0 and front[pos - 1][1] <= v[1]


def insert_front(front: list[Vector], v: Vector):
    """Insert `v` into a canonical front list in place, in time linear in its length.

    Returns ("dominated", ()) | ("present", ()) | ("inserted", removed)
    where `removed` lists the members `v` strictly dominates.
    """
    pos = bisect_left(front, v)
    if pos < len(front) and front[pos] == v:
        return "present", ()
    if pos > 0 and front[pos - 1][1] <= v[1]:
        # The lex predecessor dominates v.
        return "dominated", ()
    k = pos
    while k < len(front) and front[k][1] >= v[1]:
        k += 1
    removed = front[pos:k]
    front[pos:k] = [v]
    return "inserted", removed


def insert_nondominated(labels: LabelSet, v: Vector) -> tuple[LabelSet, bool]:
    """Insert `v` into a canonical label set; returns (new set, changed).

    Behaves exactly like nondominated(labels + (v,)).
    """
    v = tuple(v)
    if len(v) != 2:
        raise ValueError("vectors must have two components")
    front = list(labels)
    status, _removed = insert_front(front, v)
    if status != "inserted":
        return labels, False
    return tuple(front), True
