import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.polynomials import (
    DegenerateSubstitutionError,
    HomogeneousPolynomial,
    gcd_degree,
    monomial_basis,
    mult_matrix,
    parse_form,
    random_form,
    restrict_to_line,
)

from conftest import naive_rank


def x(n, i):
    return HomogeneousPolynomial.variable(n + 1, i)


def test_monomial_basis_small_cases():
    assert monomial_basis(1, 1) == ((1, 0), (0, 1))
    assert len(monomial_basis(2, 2)) == 6
    assert monomial_basis(2, 0) == ((0, 0, 0),)
    assert monomial_basis(2, -1) == ()


@given(st.integers(1, 4), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_monomial_basis_count_and_order(n, m):
    basis = monomial_basis(n, m)
    assert len(basis) == comb(m + n, n)
    assert len(set(basis)) == len(basis)
    assert all(sum(mono) == m for mono in basis)
    assert list(basis) == sorted(basis, reverse=True)  # graded lex, descending


def test_poly_mul_examples():
    f, g = x(2, 0), x(2, 1)
    assert (f * g).terms == {(1, 1, 0): Fraction(1)}
    zero = HomogeneousPolynomial.zero(3, 1)
    assert (f * zero).is_zero
    diff = (f + g) * (f - g)
    assert diff == f * f - g * g


@st.composite
def small_polys(draw, num_vars=3, degree=None):
    d = draw(st.integers(0, 2)) if degree is None else degree
    basis = monomial_basis(num_vars - 1, d)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
    return HomogeneousPolynomial(num_vars, d, dict(zip(basis, coeffs)))


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_poly_mul_commutative(f, g):
    assert f * g == g * f


@given(small_polys(degree=1), small_polys(degree=1), small_polys(degree=1))
@settings(max_examples=40, deadline=None)
def test_poly_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


def test_mult_matrix_shapes_and_columns():
    m = mult_matrix(x(1, 0), 1)  # n = 1, f = x0, source degree 1
    assert (m.rows, m.cols) == (3, 2)
    # columns are x0*x0 = x0^2 and x0*x1 in basis order (x0^2, x0x1, x1^2)
    assert m.column(0) == [1, 0, 0]
    assert m.column(1) == [0, 1, 0]


def test_mult_matrix_x0x1_supports():
    f = x(2, 0) * x(2, 1)
    m = mult_matrix(f, 1)
    assert (m.rows, m.cols) == (10, 3)
    basis3 = monomial_basis(2, 3)
    supports = [{basis3[i] for i in range(10) if m[i, j]} for j in range(3)]
    assert supports == [{(2, 1, 0)}, {(1, 2, 0)}, {(1, 1, 1)}]


@pytest.mark.parametrize("seed", range(10))
def test_mult_matrix_injective(seed):
    rng = random.Random(f"inj:{seed}")
    f = random_form(2, rng.randint(1, 3), rng, bound=9)
    m = mult_matrix(f, rng.randint(0, 2))
    assert m.rank() == m.cols


def test_concat_rank_overlap():
    f = x(2, 0) * x(2, 1)
    g = x(2, 0) * x(2, 2)
    concat = mult_matrix(f, 1).hstack(mult_matrix(g, 1))
    # single relation x2*(x0x1) = x1*(x0x2)
    assert naive_rank(concat) == 5
    assert concat.rank() == 5


def test_restrict_to_line_examples():
    f = x(2, 0)
    s_only = [(1, 0), (0, 0), (0, 0)]
    assert restrict_to_line(f, s_only).terms == {(1, 0): Fraction(1)}
    g = x(2, 0) * x(2, 1)
    st_line = [(1, 0), (0, 1), (0, 0)]
    assert restrict_to_line(g, st_line).terms == {(1, 1): Fraction(1)}


@pytest.mark.parametrize("seed", range(8))
def test_restriction_degree(seed):
    rng = random.Random(f"deg:{seed}")
    f = random_form(2, 3, rng, bound=9)
    pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
    r = restrict_to_line(f, pairs)
    if not r.is_zero:
        assert r.degree == f.degree


def test_gcd_degree_examples():
    f = x(2, 0) * x(2, 1)
    g = x(2, 0) * x(2, 2)
    assert gcd_degree(f, g, trials=3, seed=1) == 1
    assert gcd_degree(f, f, trials=2, seed=1) == f.degree
    sq0 = x(2, 0) * x(2, 0)
    sq1 = x(2, 1) * x(2, 1)
    assert gcd_degree(sq0, sq1, trials=2, seed=1) == 0


@pytest.mark.parametrize("seed", range(10))
def test_gcd_degree_planted_factor(seed):
    rng = random.Random(f"plant:{seed}")
    n = rng.choice((2, 3))
    h = random_form(n, rng.randint(1, 2), rng, bound=9)
    g1 = random_form(n, 2, rng, bound=9)
    g2 = random_form(n, 2, rng, bound=9)
    inner = gcd_degree(g1, g2, trials=3, seed=seed)
    assert gcd_degree(h * g1, h * g2, trials=3, seed=seed) == h.degree + inner


def test_gcd_degree_validates_inputs():
    f = x(2, 0)
    with pytest.raises(ValueError):
        gcd_degree(f, HomogeneousPolynomial.zero(3, 1))
    with pytest.raises(ValueError):
        gcd_degree(f, x(2, 0) * x(2, 1))  # degree mismatch


@pytest.mark.parametrize("trials", [0, -1])
def test_gcd_degree_rejects_no_trials(trials):
    # trials = 0 returned None: the minimum over no trials
    with pytest.raises(ValueError, match="trials"):
        gcd_degree(x(2, 0), x(2, 1), trials=trials)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(3, 2, {(1, 0, 0): 1})


def test_json_round_trip_and_rejection():
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): Fraction(3, 2), (0, 1, 1): -1})
    assert HomogeneousPolynomial.from_json(f.to_json()) == f
    bad = {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [2, 0, 1]}]}
    with pytest.raises(ValueError, match="term 0"):
        HomogeneousPolynomial.from_json(bad)
    with pytest.raises(ValueError):
        HomogeneousPolynomial.from_json({"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1, 1]}]})


def test_parse_form():
    p = parse_form("3/2*x0^2 - x1*x2", 2, 2)
    assert p.coefficient((2, 0, 0)) == Fraction(3, 2)
    assert p.coefficient((0, 1, 1)) == -1
    with pytest.raises(ValueError):
        parse_form("x0 + x1^2", 1)  # inhomogeneous
    with pytest.raises(ValueError):
        parse_form("x5", 2, 1)  # variable out of range
    with pytest.raises(ValueError):
        parse_form("x0*y1", 2, 2)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_parse_round_trips_str(f):
    if f.is_zero:
        return
    assert parse_form(str(f), f.n, f.degree) == f


@st.composite
def rational_polys(draw):
    """Forms in 2 to 5 variables of degree up to 4, sparse or dense, with
    rational coefficients of any size."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 4))
    basis = monomial_basis(n, d)
    coeff = st.fractions(min_value=-2**70, max_value=2**70, max_denominator=10**9)
    terms = draw(st.dictionaries(st.sampled_from(basis), coeff, max_size=len(basis)))
    return HomogeneousPolynomial(n + 1, d, terms)


@given(rational_polys())
@settings(max_examples=150, deadline=None)
def test_wire_format_and_inline_grammar_round_trip(f):
    assert HomogeneousPolynomial.from_json(json.loads(json.dumps(f.to_json()))) == f
    assert parse_form(str(f), f.n) == f


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["1/2", "-3", "2/0", "0.5"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12)
_json_terms = st.lists(st.fixed_dictionaries({"c": _json_values, "e": _json_values})
                       | _json_values, max_size=3)


@given(st.one_of(
    _json_values,
    st.fixed_dictionaries({"n": _json_values, "degree": _json_values, "terms": _json_values}),
    st.fixed_dictionaries({"n": st.integers(0, 3), "degree": st.integers(-1, 3),
                           "terms": _json_terms})))
@settings(max_examples=200, deadline=None)
def test_from_json_raises_only_value_error(obj):
    try:
        HomogeneousPolynomial.from_json(obj)
    except ValueError:
        pass


@pytest.mark.parametrize("obj", [
    {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1.9, 1, 0]}]},
    {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1.0, 1, 0]}]},
    {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [True, 1, 0]}]},
    {"n": 2, "degree": 2, "terms": [{"c": "1", "e": "110"}]},
    {"n": 2, "degree": 2, "terms": [{"c": 0.1, "e": [1, 1, 0]}]},
    {"n": 2, "degree": 2, "terms": [{"c": True, "e": [1, 1, 0]}]},
    {"n": 2, "degree": 2, "terms": [{"c": "0.5", "e": [1, 1, 0]}]},
    {"n": 2.5, "degree": 2, "terms": []},
    {"n": 2, "degree": 2.0, "terms": []},
    {"n": "2", "degree": 2, "terms": []},
])
def test_from_json_takes_only_exact_numbers(obj):
    with pytest.raises(ValueError):
        HomogeneousPolynomial.from_json(obj)


def test_from_json_coefficient_forms():
    f = HomogeneousPolynomial.from_json(
        {"n": 1, "degree": 1, "terms": [{"c": 3, "e": [1, 0]}, {"c": "-7/4", "e": [0, 1]}]})
    assert f.terms == {(1, 0): 3, (0, 1): Fraction(-7, 4)}


def test_degenerate_substitution_error():
    # forms in the ideal of every sampled line cannot occur for nonzero
    # input, but the retry bound must exist; exercise the internal helper
    f = x(2, 0)
    with pytest.raises(DegenerateSubstitutionError):
        gcd_degree(f, f, trials=1, seed=0, bound=0)  # all-zero substitutions
