import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import linalg
from verlinde.family import context, is_generic_type, sample_line, verlinde_pencil, zero_count
from verlinde.linalg import ExactMatrix, kernel_basis, random_unimodular, rank
from verlinde.pencils import splitting_type

from conftest import naive_rank


def test_identity_rank_and_kernel():
    m = ExactMatrix.identity(3)
    assert rank(m) == 3
    assert kernel_basis(m) == []


def test_zero_matrix_rank_and_kernel():
    m = ExactMatrix.zero(2, 5)
    assert rank(m) == 0
    ker = kernel_basis(m)
    assert len(ker) == 5


def test_empty_shapes():
    assert rank(ExactMatrix.zero(0, 0)) == 0
    assert rank(ExactMatrix.zero(3, 0)) == 0
    assert rank(ExactMatrix.zero(0, 4)) == 0


def test_rank_with_fractions():
    proportional = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                          [Fraction(3, 2), Fraction(1)],
                                          [Fraction(1), Fraction(2, 3)]])
    assert rank(proportional) == naive_rank(proportional) == 1
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), Fraction(1)],
                               [Fraction(1), Fraction(1)]])
    assert rank(m) == naive_rank(m) == 2


def _random_matrix(rng, rows, cols, target):
    if target == 0:
        return ExactMatrix.zero(rows, cols)
    left = ExactMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9)) for _ in range(target)] for _ in range(rows)],
        cols=target)
    right = ExactMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(target)],
        cols=cols)
    return left @ right


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_naive_gauss(seed):
    rng = random.Random(f"rank:{seed}")
    m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5))
    assert rank(m) == naive_rank(m)


@pytest.mark.parametrize("seed", range(15))
def test_rank_invariances(seed):
    rng = random.Random(f"inv:{seed}")
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    m = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
    r = rank(m)
    assert rank(m.transpose()) == r
    perm = list(range(rows))
    rng.shuffle(perm)
    assert rank(ExactMatrix(rows, cols, [m.entries[p] for p in perm])) == r
    conj = random_unimodular(rows, rng) @ m @ random_unimodular(cols, rng)
    assert rank(conj) == r


@pytest.mark.parametrize("seed", range(15))
def test_kernel_rank_nullity_and_membership(seed):
    rng = random.Random(f"ker:{seed}")
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
    ker = kernel_basis(m)
    assert len(ker) == cols - rank(m)
    for v in ker:
        assert all(x == 0 for x in m.apply_to_vector(v))
    # kernel vectors are independent: stacking them gives full rank
    if ker:
        assert rank(ExactMatrix.from_rows(ker, cols=cols)) == len(ker)


@given(st.integers(2, 5), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_unimodular_has_full_rank(n, seed):
    rng = random.Random(seed)
    m = random_unimodular(n, rng)
    assert rank(m) == n


def test_matmul_and_stacking():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == [[2, 1], [4, 3]]
    assert a.hstack(b).cols == 4
    assert a.vstack(b).rows == 4
    with pytest.raises(ValueError):
        a.hstack(ExactMatrix.zero(3, 1))


def test_json_round_trip():
    m = ExactMatrix.from_rows([[Fraction(3, 2), -1], [0, Fraction(7)]])
    again = ExactMatrix.from_json(2, 2, m.to_json())
    assert again == m


# ------------------------------------------------------- the modular engine

@st.composite
def _rational_matrices(draw):
    """Rational matrices of every shape: wide, tall, empty, zero, and
    rank-deficient products of low-rank factors."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    bound = draw(st.sampled_from((1, 9, 10**6, 2**40)))
    entry = st.fractions(min_value=-bound, max_value=bound, max_denominator=12)
    if draw(st.booleans()) or not rows or not cols:
        grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return ExactMatrix(rows, cols, grid)
    inner = draw(st.integers(0, min(rows, cols)))
    if inner == 0:
        return ExactMatrix.zero(rows, cols)
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    return ExactMatrix(rows, inner, left) @ ExactMatrix(inner, cols, right)


@given(_rational_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_naive_on_every_shape(m):
    assert rank(m) == naive_rank(m)


def test_engine_prime_is_a_word_size_prime():
    p = linalg._PRIME
    assert 2**29 < p < 2**30
    assert all(p % q for q in range(2, math.isqrt(p) + 1))


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []
    original = linalg._bareiss_rank

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_bareiss_rank", counting)
    return calls


def test_bad_prime_falls_back_to_bareiss(bareiss_calls):
    # rank 2 over Q, rank 1 modulo the engine's prime
    m = ExactMatrix.from_rows([[linalg._PRIME, 0], [0, 1]])
    assert rank(m) == naive_rank(m) == 2
    assert rank(m.transpose()) == 2
    assert len(bareiss_calls) == 2


def test_kernel_past_reconstruction_bound_falls_back(bareiss_calls):
    # The engine takes kernel vectors on the short side (rows when square).
    # Third row 2^40 times the first: that kernel is spanned by
    # (2^40, 0, -1), past the reconstruction bound.
    big = 2**40
    square = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 7], [big, 2 * big, 3 * big]])
    assert rank(square) == naive_rank(square) == 2
    assert len(bareiss_calls) == 1
    # tall, third column 2^40 times the first: the same kernel on the columns
    tall = ExactMatrix.from_rows([[1, 4, big], [2, 5, 2 * big], [3, 7, 3 * big], [1, 1, big]])
    assert rank(tall) == naive_rank(tall) == 2
    assert len(bareiss_calls) == 2


def test_deficient_rank_certified_without_fallback(bareiss_calls):
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [5, 7, 9], [Fraction(1, 2), 1, Fraction(3, 2)]])
    assert rank(m) == rank(m.transpose()) == 2
    assert bareiss_calls == []


def test_line_queries_stay_modular(bareiss_calls):
    ctx = context(2, 3, 5)
    line = sample_line(ctx, "random", seed="modular-only")
    splitting_type(verlinde_pencil(ctx, line))
    zero_count(ctx, line)
    is_generic_type(ctx, line)
    assert bareiss_calls == []
