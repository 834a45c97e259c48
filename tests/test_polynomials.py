import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from verlinde import family, polynomials
from verlinde.polynomials import (
    COEFF_BOUND,
    DegenerateSubstitutionError,
    _binary_gcd_degree,
    HomogeneousPolynomial,
    gcd_degree,
    monomial_basis,
    mult_matrix,
    parse_form,
    random_form,
    restrict_to_line,
)

from conftest import binary_coeffs, naive_rank


def x(n, i):
    return HomogeneousPolynomial(n + 1, 1, {tuple(int(j == i) for j in range(n + 1)): 1})


def column(m, j):
    """Column j of an ExactMatrix, as a list."""
    return [row[j] for row in m.entries]


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
    zero = HomogeneousPolynomial(3, 1, {})
    assert (f * zero).is_zero
    diff = (f + g) * (f + g.scale(-1))
    assert diff == f * f + (g * g).scale(-1)
    # a scalar multiple is spelled f.scale(c): * takes two forms only
    for c in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            f * c
        with pytest.raises(TypeError):
            c * f


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


@st.composite
def _sparse_form_pairs(draw):
    """Two sparse forms in 1-4 variables of degrees 0-4 each."""
    nv = draw(st.integers(1, 4))

    def form():
        d = draw(st.integers(0, 4))
        monomials = st.sampled_from(polynomials._compositions(nv, d))
        return HomogeneousPolynomial(nv, d, draw(st.dictionaries(monomials, st.integers(-9, 9),
                                                                 max_size=6)))

    return form(), form()


@given(_sparse_form_pairs())
@settings(max_examples=200, deadline=None)
def test_poly_mul_adds_exponents(fg):
    # the tabulated product against the exponent-wise sum of every pair of terms
    f, g = fg
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    assert (f * g).terms == {m: c for m, c in terms.items() if c}
    assert (f * g).degree == f.degree + g.degree


def test_mult_matrix_shapes_and_columns():
    m = mult_matrix(x(1, 0), 1)  # n = 1, f = x0, source degree 1
    assert (m.rows, m.cols) == (3, 2)
    # columns are x0*x0 = x0^2 and x0*x1 in basis order (x0^2, x0x1, x1^2)
    assert column(m, 0) == [1, 0, 0]
    assert column(m, 1) == [0, 1, 0]


def test_mult_matrix_x0x1_supports():
    f = x(2, 0) * x(2, 1)
    m = mult_matrix(f, 1)
    assert (m.rows, m.cols) == (10, 3)
    basis3 = monomial_basis(2, 3)
    supports = [{basis3[i] for i in range(10) if m.entries[i][j]} for j in range(3)]
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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("src_deg", range(4))
def test_mult_matrix_columns_are_products(n, src_deg):
    rng = random.Random(f"mult:{n}:{src_deg}")
    for keep in (2, None):  # sparse, then dense
        f = random_form(n, rng.randint(0, 3), rng, bound=9)
        f = HomogeneousPolynomial(n + 1, f.degree, dict(list(f.terms.items())[:keep]))
        m = mult_matrix(f, src_deg)
        for j, theta in enumerate(monomial_basis(n, src_deg)):
            assert column(m, j) == (f * HomogeneousPolynomial(n + 1, src_deg, {theta: 1})).coeff_vector()
        # the row targets are cached, the grid is not
        again = mult_matrix(f, src_deg)
        assert again == m
        assert {id(row) for row in m.entries}.isdisjoint(id(row) for row in again.entries)


def _binary_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _restriction_reference(f, pairs):
    """The reference: f's restriction expanded monomial by monomial,
    c*prod (a_i s + b_i t)^(e_i), as dense (s, t) coefficients."""
    coeffs = [0] * (f.degree + 1)
    for m, c in f.terms.items():
        prod = [c]
        for (a, b), e in zip(pairs, m):
            for _ in range(e):
                prod = _binary_mul(prod, [a, b])
        coeffs = [x + y for x, y in zip(coeffs, prod)]
    return coeffs


# small values, and values near +-2**64, which push the packed slots' bound
_big_or_small = (st.integers(-9, 9) | st.integers(2**64 - 9, 2**64 + 9)
                 | st.integers(-2**64 - 9, -2**64 + 9))
_rationals = _big_or_small | st.builds(Fraction, _big_or_small, st.integers(1, 12))


@st.composite
def restriction_cases(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    basis = monomial_basis(n, d)
    terms = draw(st.dictionaries(st.sampled_from(basis), _rationals, max_size=min(len(basis), 16)))
    pair = st.just((0, 0)) | st.tuples(_rationals, _rationals)
    pairs = draw(st.lists(pair, min_size=n + 1, max_size=n + 1))
    return HomogeneousPolynomial(n + 1, d, terms), pairs


@given(restriction_cases())
@settings(max_examples=150, deadline=None)
def test_restrict_to_line_matches_expansion(case):
    f, pairs = case
    assert binary_coeffs(restrict_to_line(f, pairs)) == _restriction_reference(f, pairs)


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


def _planted_factor(seed):
    """(h, g1, g2): a seeded common factor h of degree 1 or 2 and two quadrics."""
    rng = random.Random(f"plant:{seed}")
    n = rng.choice((2, 3))
    h = random_form(n, rng.randint(1, 2), rng, bound=9)
    return h, random_form(n, 2, rng, bound=9), random_form(n, 2, rng, bound=9)


@pytest.mark.parametrize("seed", range(10))
def test_gcd_degree_planted_factor(seed):
    h, g1, g2 = _planted_factor(seed)
    inner = gcd_degree(g1, g2, trials=3, seed=seed)
    assert gcd_degree(h * g1, h * g2, trials=3, seed=seed) == h.degree + inner


def _euclid_gcd_degree(c1, c2):
    """The reference: deg gcd of two binary forms by Euclid in Fractions on
    the dehomogenized cores, with powers of s and t counted apart."""
    if not any(c1) or not any(c2):
        return len(c1) - 1

    def split(c):
        nz = [j for j, v in enumerate(c) if v]
        return len(c) - 1 - nz[-1], nz[0], [Fraction(v) for v in c[nz[0]:nz[-1] + 1]]

    (s1, t1, a), (s2, t2, b) = split(c1), split(c2)
    while b:
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
        while a and not a[0]:
            a.pop(0)
        a, b = b, a
    return min(s1, s2) + min(t1, t2) + len(a) - 1


_binary_factor = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.integers(-9, 9) | st.just(0), min_size=k + 1, max_size=k + 1))


_contents = (st.integers(-9, 9).filter(bool)
             | st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))


@given(_binary_factor, _binary_factor, _binary_factor, st.integers(0, 2), st.integers(0, 2),
       st.lists(_contents, min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_remainder_sequence_matches_euclid(h, g1, g2, s_power, t_power, contents):
    """Planted common factor h (with s^i t^j), negative and non-primitive
    coefficients, and the two forms' own degree drops at s = 0 and at
    infinity, which zero leading or trailing coefficients make."""
    h = _binary_mul(h, _binary_mul([1] + [0] * s_power, [0] * t_power + [1]))  # h*s^i*t^j
    if len(g2) < len(g1):
        g1, g2 = g2, g1
    g1 = _binary_mul(g1, [1] + [0] * (len(g2) - len(g1)))  # a factor s^k evens the degrees
    c1 = [contents[0] * v for v in _binary_mul(h, g1)]
    c2 = [contents[1] * v for v in _binary_mul(h, g2)]
    assume(any(c1) or any(c2))
    assert _binary_gcd_degree(c1, c2) == _euclid_gcd_degree(c1, c2)


def test_gcd_degree_validates_inputs():
    f = x(2, 0)
    with pytest.raises(ValueError):
        gcd_degree(f, HomogeneousPolynomial(3, 1, {}))
    with pytest.raises(ValueError):
        gcd_degree(f, x(2, 0) * x(2, 1))  # degree mismatch


@pytest.mark.parametrize("trials", [0, -1])
def test_gcd_degree_rejects_no_trials(trials):
    # trials = 0 returned None: the minimum over no trials
    with pytest.raises(ValueError, match="trials"):
        gcd_degree(x(2, 0), x(2, 1), trials=trials)


@pytest.mark.parametrize("args,message", [
    ((0, 0, {}), "at least one variable"),
    ((2, -1, {}), "nonnegative"),
    ((3, 2, {(1, 1): 1}), "expected 3 exponents, got 2"),
    ((3, 2, {(3, -1, 0): 1}), "negative exponent"),
    ((3, 2, {(1, 0, 0): 1}), "sum to 1, expected degree 2"),
])
def test_checked_constructor_refuses_malformed_shapes(args, message):
    with pytest.raises(ValueError, match=message):
        HomogeneousPolynomial(*args)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(3, 2, {(1, 0, 0): 1})


@pytest.mark.parametrize("terms", [
    {(2.5, -0.5, 0): 1},  # int() would read x0^2
    {(1.0, 1, 0): 1},
    {(True, 1, 0): 1},
    {(1, 1, 0): 0.1},  # Fraction() would read its binary fraction
    {(1, 1, 0): 2.0},
])
def test_checked_constructor_refuses_inexact_input(terms):
    with pytest.raises(ValueError):
        HomogeneousPolynomial(3, 2, terms)


def test_scalings_and_substitutions_refuse_floats():
    with pytest.raises(ValueError):
        x(2, 0).scale(0.1)
    with pytest.raises(ValueError):
        restrict_to_line(x(2, 0), [(0.1, 0), (0, 1), (0, 0)])


def _assert_normal(f):
    """f's terms are what the checked constructor makes of them, types included."""
    checked = HomogeneousPolynomial(f.num_vars, f.degree, f.terms)
    assert ([(m, c, type(c)) for m, c in checked.terms.items()]
            == [(m, c, type(c)) for m, c in f.terms.items()])


_small_rationals = st.integers(-4, 4) | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def builder_cases(draw):
    """Forms f, g of one degree and h of another, a scalar and a line, all
    integral or all with small rational coefficients, so that sums cancel
    and products come out integral."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    coeff = draw(st.sampled_from([st.integers(-4, 4), _small_rationals]))

    def form(degree):
        basis = monomial_basis(n, degree)
        terms = draw(st.dictionaries(st.sampled_from(basis), coeff, max_size=len(basis)))
        return HomogeneousPolynomial(n + 1, degree, terms)

    f, g, h = form(d), form(d), form(draw(st.integers(0, 2)))
    pairs = draw(st.lists(st.tuples(coeff, coeff), min_size=n + 1, max_size=n + 1))
    return f, g, h, draw(coeff), pairs


@given(builder_cases())
@settings(max_examples=150, deadline=None)
def test_trusted_builders_return_normal_forms(case):
    f, g, h, c, pairs = case
    for out in (f + g, f + g.scale(-1), f + f.scale(-1), f.scale(-1), f * h, h * g,
                f.scale(c), restrict_to_line(f, pairs)):
        _assert_normal(out)


@pytest.mark.parametrize("seed", range(6))
def test_random_form_is_normal(seed):
    rng = random.Random(f"normal:{seed}")
    _assert_normal(random_form(rng.randint(1, 3), rng.randint(0, 4), rng, bound=rng.randint(1, 9)))


def test_trusted_builders_normal_form_examples():
    half_x0, two_x1 = x(2, 0).scale(Fraction(1, 2)), x(2, 1).scale(2)
    product = half_x0 * two_x1
    assert product.terms == {(1, 1, 0): 1} and type(product.terms[(1, 1, 0)]) is int
    whole = half_x0 + half_x0
    assert whole.terms == {(1, 0, 0): 1} and type(whole.terms[(1, 0, 0)]) is int
    assert (half_x0 + half_x0.scale(-1)).terms == {}
    x0, x1 = x(2, 0), x(2, 1)
    assert ((x0 + x1) * (x0 + x1.scale(-1))).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    third = parse_form("1/3*x0 + 2/3*x1", 2, 1).scale(Fraction(3, 2))
    assert third.terms == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 1}
    assert type(third.terms[(0, 1, 0)]) is int
    # x0*x1 along x0 = s/2, x1 = 2t: the restriction s*t, cleared over den = 4
    line = restrict_to_line(x(2, 0) * x(2, 1), [(Fraction(1, 2), 0), (0, 2), (0, 0)])
    assert line.terms == {(1, 1): 1} and type(line.terms[(1, 1)]) is int
    for out in (product, whole, third, line):
        _assert_normal(out)


@pytest.mark.parametrize("values", [[], [0], [3, -7, 0, 2**80], [-1] * 5])
def test_cleared_int_fast_path_matches_the_general_path(values):
    c, cleared = polynomials._cleared(values)
    assert (c, cleared) == polynomials._cleared([Fraction(v) for v in values]) == (1, values)
    assert all(type(v) is int for v in cleared)


def test_cleared_clears_a_mixed_list():
    c, cleared = polynomials._cleared([3, Fraction(1, 4), Fraction(-5, 6), 0])
    assert (c, cleared) == (12, [36, 3, -10, 0])
    assert all(type(v) is int for v in cleared)


def test_package_built_forms_skip_the_checked_constructor(spy):
    ctx = family.context(2, 3, 4)
    rational = family.LineInSystem(parse_form("1/2*x0^3 + x1^3", 2, 3),
                                   parse_form("x0*x1*x2 - 2/3*x2^3", 2, 3))
    checked = spy("polynomials.HomogeneousPolynomial.__init__")
    lines = [family.sample_line(ctx, mode, seed) for mode in ("random", "jumping:1")
             for seed in range(3)]
    for line in lines + [rational]:
        family.verlinde_pencil(ctx, line)
        family.predict_by_gcd(ctx, line)
    assert checked == []
    parse_form("1/2*x0^2 - x1*x2", 2, 2)
    assert len(checked) == 1
    # from_json checks each term itself and builds the form as the package does
    HomogeneousPolynomial.from_json({"n": 2, "degree": 1, "terms": [{"c": "1/2", "e": [1, 0, 0]}]})
    assert len(checked) == 1


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
    assert p.terms.get((2, 0, 0), 0) == Fraction(3, 2)
    assert p.terms.get((0, 1, 1), 0) == -1
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


def test_degenerate_substitution_error(monkeypatch):
    # forms in the ideal of every sampled line cannot occur for nonzero
    # input, but the retry bound must exist; exercise the internal helper
    f = x(2, 0)
    monkeypatch.setattr(polynomials, "COEFF_BOUND", 0)  # all-zero substitutions
    with pytest.raises(DegenerateSubstitutionError):
        gcd_degree(f, f, trials=1, seed=0)


def _rational_text(f, rng):
    """f's inline-grammar text with each coefficient over a random denominator."""
    parts = []
    for m, c in f.sorted_terms():
        body = "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e) or "1"
        parts.append(f"{'-' if c < 0 else '+'}{abs(c)}/{rng.randint(1, 12)}*{body}")
    return "".join(parts)


def _oracle_grid():
    """Seeded lines: n = 2, 3, d <= 5, random and planted-gcd pairs,
    integral and rational forms, integer and Fraction substitutions."""
    for i in range(48):
        rng = random.Random(f"oracle-golden:{i}")
        n, d = rng.choice((2, 3)), rng.randint(1, 5)

        def form(degree, bound):
            f = random_form(n, degree, rng, bound=bound)
            return parse_form(_rational_text(f, rng), n, degree) if i % 4 >= 2 else f

        if i % 2:
            e = rng.randint(1, d)
            h = form(e, 9)
            f1, f2 = h * form(d - e, 9), h * form(d - e, 9)
        else:
            f1, f2 = form(d, 50), form(d, 50)
        if i % 3:
            pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n + 1)]
        else:
            pairs = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n + 1)]
        yield i, f1, f2, pairs


# sha256 over the grid's gcd degrees and restricted coefficients, recorded on
# the per-monomial expansion and Fraction Euclid; a change is a change of output
ORACLE_GOLDEN = "80aff8cab225498348fab512483391e1bf834bb39de7737bf8428601d272bf9e"


def test_line_oracle_outputs_are_pinned():
    lines = []
    for i, f1, f2, pairs in _oracle_grid():
        restricted = [[str(c) for c in binary_coeffs(restrict_to_line(f, pairs))]
                      for f in (f1, f2)]
        lines.append(f"{i} {gcd_degree(f1, f2, trials=3, seed=i)} {restricted}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == ORACLE_GOLDEN


def all_trials_gcd_degree(f1, f2, trials, seed):
    """The reference: gcd_degree's value as the least gcd degree of the
    restrictions over every trial, with no early stop."""
    best = f1.degree
    for trial in range(trials):
        for attempt in range(16):
            rng = random.Random(f"{seed}:gcd:{trial}:{attempt}")
            pairs = [(rng.randint(-COEFF_BOUND, COEFF_BOUND),
                      rng.randint(-COEFF_BOUND, COEFF_BOUND)) for _ in range(f1.num_vars)]
            r1, r2 = (binary_coeffs(restrict_to_line(f, pairs)) for f in (f1, f2))
            if any(r1) or any(r2):
                break
        best = min(best, _binary_gcd_degree(r1, r2))
    return best


def _gcd_lines():
    """The pinned grid's lines, then the planted-factor lines of
    test_gcd_degree_planted_factor, each with its seed."""
    for i, f1, f2, _ in _oracle_grid():
        yield i, f1, f2
    for seed in range(10):
        h, g1, g2 = _planted_factor(seed)
        yield seed, h * g1, h * g2


def test_gcd_stop_keeps_every_trial_minimum(monkeypatch):
    # a trial that reads 0 ends the loop; a positive degree runs every trial
    calls = []

    def counted(c1, c2):
        calls.append(None)
        return _binary_gcd_degree(c1, c2)

    monkeypatch.setattr(polynomials, "_binary_gcd_degree", counted)
    seen = set()
    for seed, f1, f2 in _gcd_lines():
        for trials in (1, 2, 3):
            calls.clear()
            got = gcd_degree(f1, f2, trials=trials, seed=seed)
            assert got == all_trials_gcd_degree(f1, f2, trials, seed)
            assert len(calls) == (1 if got == 0 else trials)
            seen.add(got > 0)
    assert seen == {False, True}


@pytest.mark.parametrize("bound", [0, 9, 30, 50, 1000])
def test_draw_is_randint(bound):
    # the same values and the same generator state as randint, draw by draw
    for seed in range(1000):
        ours, theirs = random.Random(f"{seed}:draw"), random.Random(f"{seed}:draw")
        for _ in range(20):
            assert polynomials._draw(ours, bound) == theirs.randint(-bound, bound)
        assert ours.getstate() == theirs.getstate()
