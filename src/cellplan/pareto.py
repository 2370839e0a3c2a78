"""Exact Pareto dominance over 2-D integer objective vectors.

Vectors are pairs of non-negative ints: (path length, terrain cost). The
kernel is 2-D only, like the database format and the build's packed heap key;
`nondominated` rejects vectors of any other length. A "label set" (or front)
is a deduplicated, mutually non-dominated collection kept in lexicographic
order: first components strictly increasing, second components strictly
decreasing.

This module is the only 2-D Pareto code: `skyline` reduces a batch (the
build's sweep and the verifier use it). MOA* needs no front per cell: its pop
order lets one best g2 per cell stand in for one.
"""

from __future__ import annotations

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
