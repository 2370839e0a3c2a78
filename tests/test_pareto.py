"""Dominance kernel tests: examples plus property checks over random vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellplan.pareto import dominates, nondominated

vec2 = st.tuples(st.integers(0, 60), st.integers(0, 60))
vec3 = st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))


def test_dominates_examples():
    assert dominates((10, 0), (14, 0))
    assert not dominates((10, 5), (10, 5))
    assert not dominates((10, 5), (14, 3))
    assert not dominates((14, 3), (10, 5))


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


@given(vec2)
def test_dominates_irreflexive(a):
    assert not dominates(a, a)


@given(vec2, vec2)
def test_dominates_asymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(vec2, vec2, vec2)
def test_dominates_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_nondominated_examples():
    assert nondominated([(10, 5), (14, 3), (20, 6)]) == ((10, 5), (14, 3))
    assert nondominated([]) == ()
    assert nondominated([(10, 5), (10, 5)]) == ((10, 5),)


@given(st.lists(vec2, max_size=12))
def test_nondominated_idempotent(vs):
    front = nondominated(vs)
    assert nondominated(front) == front


@given(st.lists(vec2, max_size=10), st.randoms(use_true_random=False))
def test_nondominated_order_insensitive(vs, rnd):
    shuffled = list(vs)
    rnd.shuffle(shuffled)
    assert nondominated(shuffled) == nondominated(vs)


@given(st.lists(vec2, max_size=12))
def test_nondominated_covers_discards(vs):
    front = nondominated(vs)
    front_set = set(front)
    for v in vs:
        if v not in front_set:
            assert any(dominates(w, v) for w in front)
        assert any(w == v or dominates(w, v) for w in front)


@given(st.lists(vec2, max_size=12))
def test_nondominated_canonical_order(vs):
    front = nondominated(vs)
    for a, b in zip(front, front[1:]):
        assert a[0] < b[0]
        assert a[1] > b[1]


@given(st.lists(vec3, min_size=1, max_size=10), vec2)
def test_nondominated_three_components(vs, v):
    # The kernel is 2-D only: 3-vectors are rejected, never silently reduced.
    with pytest.raises(ValueError):
        nondominated(vs)
    with pytest.raises(ValueError):
        nondominated([v] + vs)

