from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evaluate

from mvjacobi.polyspace import BasisIndex, PolySpace, enumerate_basis
from mvjacobi.rational import ONE, Rat, ZERO

rationals = st.builds(Rat, st.integers(-5, 5), st.integers(1, 4))


def brute_force_multi_indices(d, n):
    # every exponent tuple of total degree n, by raw product scan
    return {m for m in product(range(n + 1), repeat=d) if sum(m) == n}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dimension_and_exhaustiveness(d, n):
    space = enumerate_basis(d, n)
    assert space.N == d * comb(n + d - 1, d - 1)
    ms = {b.m for b in space.basis}
    assert ms == brute_force_multi_indices(d, n)
    assert {b.j for b in space.basis} == set(range(1, d + 1))
    # no duplicates
    assert len(set(space.basis)) == space.N


def test_ordering_contract():
    space = enumerate_basis(3, 2)
    # descending lexicographic on m, slot index innermost ascending
    assert space.basis[0] == BasisIndex((2, 0, 0), 1)
    assert space.basis[1] == BasisIndex((2, 0, 0), 2)
    assert space.basis[2] == BasisIndex((2, 0, 0), 3)
    assert space.basis[3].m == (1, 1, 0)
    ms = [b.m for b in space.basis[:: space.d]]
    assert ms == sorted(ms, reverse=True)
    assert space.basis[-1] == BasisIndex((0, 0, 2), 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ordering_is_descending_lexicographic_with_slots_inside(d, n):
    ms = sorted(brute_force_multi_indices(d, n), reverse=True)
    assert enumerate_basis(d, n).basis == tuple(
        BasisIndex(m, j) for m in ms for j in range(1, d + 1))


def test_space_is_immutable_with_value_equality():
    space = enumerate_basis(2, 2)
    for name in ("d", "n", "basis", "position", "N", "other"):
        with pytest.raises(AttributeError):
            setattr(space, name, 1)
    with pytest.raises(AttributeError):
        del space.basis
    copy = PolySpace(2, 2, space.basis)
    assert copy == space and copy is not space
    assert hash(copy) == hash(space) == hash((2, 2, space.basis))
    assert copy != enumerate_basis(2, 3) and space != (2, 2, space.basis)
    assert len({space, copy, enumerate_basis(2, 3)}) == 2


def test_space_builds_positions_once():
    space = enumerate_basis(3, 2)
    assert space.position is space.position
    assert space.position == {b: i for i, b in enumerate(space.basis)}
    assert [space.index_of(b.m, b.j) for b in space.basis] == list(range(space.N))
    assert space.index_of([1, 1, 0], 2) == space.position[BasisIndex((1, 1, 0), 2)]
    with pytest.raises(KeyError):
        space.index_of((1, 0, 0), 1)


def test_enumerate_basis_is_cached_and_validates():
    assert enumerate_basis(2, 3) is enumerate_basis(2, 3)
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        enumerate_basis(2, 0)


def test_index_of():
    space = enumerate_basis(2, 2)
    for i, b in enumerate(space.basis):
        assert space.index_of(b.m, b.j) == i
    assert space.index_of([2, 0], 1) == 0  # list form accepted
    with pytest.raises(KeyError):
        space.index_of((1, 0), 1)  # wrong total degree
    with pytest.raises(KeyError):
        space.index_of((2, 0), 3)  # slot out of range


def test_evaluate_monomials_exact():
    space = enumerate_basis(2, 3)
    q = [ZERO] * space.N
    q[space.index_of((2, 1), 2)] = Rat(3, 2)
    w = (Rat(1, 2), Rat(-2))
    got = evaluate(space, q, w)
    assert got == (ZERO, Rat(3, 2) * Rat(1, 4) * Rat(-2))


def test_evaluate_validates_lengths():
    space = enumerate_basis(2, 2)
    with pytest.raises(ValueError):
        evaluate(space, (ONE,), (ONE, ONE))
    with pytest.raises(ValueError):
        evaluate(space, (ZERO,) * space.N, (ONE,))


@settings(max_examples=30)
@given(
    st.lists(rationals, min_size=6, max_size=6),
    st.lists(rationals, min_size=6, max_size=6),
    st.lists(rationals, min_size=2, max_size=2),
    rationals,
)
def test_evaluate_linear_in_coefficients(q1, q2, w, c):
    space = enumerate_basis(2, 2)
    combined = [a + c * b for a, b in zip(q1, q2)]
    lhs = evaluate(space, combined, w)
    e1 = evaluate(space, q1, w)
    e2 = evaluate(space, q2, w)
    assert lhs == tuple(a + c * b for a, b in zip(e1, e2))


@settings(max_examples=30)
@given(
    st.lists(rationals, min_size=8, max_size=8),
    st.lists(rationals, min_size=2, max_size=2),
    rationals,
)
def test_evaluate_homogeneous_of_degree_n(q, w, t):
    space = enumerate_basis(2, 3)
    scaled = [t * wi for wi in w]
    lhs = evaluate(space, q, scaled)
    rhs = tuple(t**space.n * v for v in evaluate(space, q, w))
    assert lhs == rhs
