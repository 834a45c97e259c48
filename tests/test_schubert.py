import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.schubert import (
    BidegreeClass,
    GrContext,
    SchubertClass,
    bidegree_degree,
    degree,
    giambelli,
    hyperplane_power,
    pieri,
    product,
    pushforward_factor2,
    sigma,
)


def test_pieri_basics():
    ctx = GrContext(6)
    s1 = sigma(ctx, 1)
    assert product(s1, s1) == SchubertClass(ctx, {(2, 0): 1, (1, 1): 1})
    x = SchubertClass(ctx, {(3, 1): 2, (2, 2): -1})
    assert pieri(0, x) == x


def test_pieri_respects_interlacing():
    # sigma_2 * sigma_{1,1}: the only admissible target is (3,1);
    # (2,2) would need b' = 2 > a = 1
    ctx = GrContext(5)
    assert pieri(2, sigma(ctx, 1, 1)) == sigma(ctx, 3, 1)


def test_pieri_truncates_at_top_index():
    ctx = GrContext(4)  # indices up to 2
    assert pieri(2, sigma(ctx, 2)) == sigma(ctx, 2, 2)
    assert pieri(1, sigma(ctx, 2, 2)).is_zero


def test_giambelli_examples():
    ctx = GrContext(6)
    assert giambelli(ctx, 3, 0) == sigma(ctx, 3)
    assert giambelli(ctx, 2, 1) == sigma(ctx, 2, 1)
    assert giambelli(ctx, 2, 2) == sigma(ctx, 2, 2)


@pytest.mark.parametrize("N", range(2, 9))
def test_giambelli_consistency_exhaustive(N):
    ctx = GrContext(N)
    for a in range(ctx.max_index + 1):
        for b in range(a + 1):
            assert giambelli(ctx, a, b) == sigma(ctx, a, b)


def test_degree_and_duality():
    ctx = GrContext(6)
    assert degree(sigma(ctx, 4, 4)) == 1
    assert degree(product(sigma(ctx, 4), sigma(ctx, 4))) == 1
    assert degree(product(sigma(ctx, 3, 1), sigma(ctx, 3, 1))) == 1
    assert degree(product(sigma(ctx, 3, 1), sigma(ctx, 2, 2))) == 0
    assert degree(product(sigma(ctx, 4, 0), sigma(ctx, 2, 2))) == 0


@pytest.mark.parametrize("N", range(2, 8))
def test_duality_exhaustive(N):
    ctx = GrContext(N)
    top = ctx.max_index
    pairs = [(a, b) for a in range(top + 1) for b in range(a + 1)]
    for a, b in pairs:
        for c, d in pairs:
            if a + b + c + d != ctx.dim:
                continue
            expected = 1 if (c, d) == (top - b, top - a) else 0
            assert degree(product(sigma(ctx, a, b), sigma(ctx, c, d))) == expected


@pytest.mark.parametrize("seed", range(20))
def test_product_associative_commutative(seed):
    ctx = GrContext(8)
    rng = random.Random(f"assoc:{seed}")
    pairs = [(a, b) for a in range(7) for b in range(a + 1)]

    def rand_class():
        picks = rng.sample(pairs, rng.randint(1, 3))
        return SchubertClass(ctx, {p: rng.randint(-9, 9) for p in picks})

    x, y, z = rand_class(), rand_class(), rand_class()
    assert product(product(x, y), z) == product(x, product(y, z))
    assert product(x, y) == product(y, x)


@pytest.mark.parametrize("build,message", [
    (lambda: GrContext(1), "need N >= 2"),
    (lambda: giambelli(GrContext(5), 4, 0), r"invalid index \(4,0\)"),
    (lambda: giambelli(GrContext(5), 1, 2), r"invalid index \(1,2\)"),
])
def test_constructors_refuse_out_of_range_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_schubert_index_validation():
    ctx = GrContext(5)
    with pytest.raises(ValueError):
        SchubertClass(ctx, {(4, 0): 1})
    with pytest.raises(ValueError):
        SchubertClass(ctx, {(1, 2): 1})
    with pytest.raises(ValueError):
        pieri(4, sigma(ctx, 1))


@pytest.mark.parametrize("coeff", [2.7, 2.0, "3", True, Fraction(7, 2), Fraction(4, 1), None])
def test_classes_refuse_coefficients_that_are_not_ints(coeff):
    with pytest.raises(ValueError, match="coefficients must be ints"):
        SchubertClass(GrContext(4), {(1, 0): 1, (2, 1): coeff})
    with pytest.raises(ValueError, match="coefficients must be ints"):
        BidegreeClass(1, 1, {(0, 1): 1, (1, 0): coeff})


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        product(sigma(GrContext(5), 1), sigma(GrContext(6), 1))


def test_bidegree_point_class():
    assert bidegree_degree(BidegreeClass(2, 3, {(2, 3): 1})) == 1
    assert bidegree_degree(BidegreeClass(2, 3, {(1, 3): 5})) == 0


def test_bidegree_truncation_and_product():
    a = BidegreeClass(2, 2, {(1, 0): 1})
    prod = a * a * a
    assert prod.coeffs == {}  # alpha^3 = 0 on P^2
    beta = BidegreeClass(2, 2, {(0, 1): 1})
    assert bidegree_degree(beta * hyperplane_power(2, 2, 3)) == 3


def test_pushforward_factor2():
    lam = pushforward_factor2(hyperplane_power(2, 2, 4))
    assert lam == BidegreeClass(2, 2, {(0, 2): 6})  # C(4,2) * beta^2
    # a + 1 < n: no alpha^n term survives
    assert pushforward_factor2(hyperplane_power(3, 5, 2)).coeffs == {}


@pytest.mark.parametrize("n,M", [(2, 2), (2, 5), (3, 4)])
def test_pushpull_degrees_match_binomials(n, M):
    from math import comb
    dim = 2 * n + M - 2
    for b in range(dim + 1):
        a = dim - b
        lam = pushforward_factor2(hyperplane_power(n, M, a + 1))
        via = bidegree_degree(lam * hyperplane_power(n, M, b + 1))
        assert via == comb(a + 1, n) * comb(b + 1, n)


# ------------------------------------------- the trusted constructors

@st.composite
def _schubert_maps(draw):
    """(ctx, coeffs): valid indices of Gr(2, N), coefficients zero among others."""
    ctx = GrContext(draw(st.integers(2, 8)))
    pairs = [(a, b) for a in range(ctx.max_index + 1) for b in range(a + 1)]
    return ctx, draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from([0, 0, 1, -1])
                                     | st.integers(-2**70, 2**70), max_size=len(pairs)))


@given(_schubert_maps())
@settings(max_examples=200, deadline=None)
def test_schubert_of_is_the_checked_constructor_on_valid_maps(case):
    ctx, coeffs = case
    trusted, checked = SchubertClass._of(ctx, coeffs), SchubertClass(ctx, coeffs)
    assert trusted == checked and trusted.coeffs == checked.coeffs
    assert 0 not in trusted.coeffs.values() and trusted.ctx is ctx


@st.composite
def _bidegree_maps(draw):
    """(r, s, coeffs): exponents within P^r x P^s, coefficients zero among others."""
    r, s = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    keys = st.tuples(st.integers(0, r), st.integers(0, s))
    return r, s, draw(st.dictionaries(keys, st.sampled_from([0, 0, 1, -1])
                                      | st.integers(-2**70, 2**70), max_size=25))


@given(_bidegree_maps())
@settings(max_examples=200, deadline=None)
def test_bidegree_of_is_the_checked_constructor_on_valid_maps(case):
    r, s, coeffs = case
    trusted, checked = BidegreeClass._of(r, s, coeffs), BidegreeClass(r, s, coeffs)
    assert trusted == checked and trusted.coeffs == checked.coeffs
    assert 0 not in trusted.coeffs.values()


def full_loop_hyperplane_power(r, s, m):
    """The loop ``hyperplane_power`` replaced: every i in 0..m, the pairs
    (i, m - i) outside P^r x P^s skipped, through the checked constructor."""
    coeffs = {}
    for i in range(m + 1):
        j = m - i
        if i <= r and j <= s:
            coeffs[(i, j)] = comb(m, i)
    return BidegreeClass(r, s, coeffs)


def test_hyperplane_power_loops_over_its_kept_exponents_only():
    # m up to r + s + 2: the top class at r + s, and empty ones past it
    empty = 0
    for r in range(5):
        for s in range(5):
            for m in range(r + s + 3):
                x = hyperplane_power(r, s, m)
                assert x == full_loop_hyperplane_power(r, s, m) and (x.r, x.s) == (r, s)
                empty += not x.coeffs
    assert empty == 2 * 25
    with pytest.raises(ValueError):
        hyperplane_power(2, 2, -1)
    with pytest.raises(ValueError):
        hyperplane_power(-1, 2, 1)
