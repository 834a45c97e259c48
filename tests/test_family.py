import multiprocessing
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import family, linalg, suites
from verlinde.family import (
    DegenerateLineError,
    GenericTypeUndefinedError,
    LineInSystem,
    context,
    generic_type,
    is_generic_type,
    near_generic_type,
    predict_by_gcd,
    sample_line,
    type_from_gcd,
    verlinde_pencil,
    zero_count,
)
from verlinde.linalg import ExactMatrix, _bareiss_rank
from verlinde.pencils import (Pencil, _section_dims, is_injective, splitting_type,
                              twisted_section_dims)
from verlinde.polynomials import HomogeneousPolynomial, _integral, gcd_degree, mult_matrix

from conftest import per_entry_pack_mod_p


def x(i):
    return HomogeneousPolynomial(3, 1, {tuple(int(j == i) for j in range(3)): 1})


@pytest.fixture
def shared_factor_line():
    return LineInSystem(x(0) * x(1), x(0) * x(2))


def test_context_values():
    ctx = context(2, 2, 3)
    assert (ctx.w, ctx.u, ctx.rank, ctx.degree) == (10, 3, 7, 3)
    ctx5 = context(2, 2, 5)
    assert (ctx5.w, ctx5.u, ctx5.rank, ctx5.degree) == (21, 10, 11, 10)
    for n, d in [(2, 2), (3, 3)]:
        assert context(n, d, d).u == 1
        assert context(n, d, d).degree == 1


def test_context_validation():
    with pytest.raises(ValueError):
        context(1, 2, 3)
    with pytest.raises(ValueError):
        context(2, 0, 3)
    with pytest.raises(ValueError):
        context(2, 2, 0)


@pytest.mark.parametrize("cell", [(2, 2, 1), (2, 2, 2), (3, 4, 3), (3, 4, 4)])
def test_near_generic_type_needs_u_at_least_2(cell):
    with pytest.raises(GenericTypeUndefinedError, match="no near-generic type for u = [01],"):
        near_generic_type(context(*cell))


def test_line_independence_check():
    with pytest.raises(DegenerateLineError):
        LineInSystem(x(0) * x(1), (x(0) * x(1)).scale(3))
    with pytest.raises(DegenerateLineError):
        LineInSystem(x(0), x(0) * x(1))  # degree mismatch


def test_line_independence_with_fraction_coefficients():
    f1 = (x(0) * x(1)).scale(Fraction(1, 2)) + (x(2) * x(2)).scale(Fraction(-3, 4))
    with pytest.raises(DegenerateLineError, match="linearly dependent"):
        LineInSystem(f1, f1.scale(Fraction(2, 7)))
    LineInSystem(f1, f1 + (x(0) * x(0)).scale(Fraction(1, 3)))


@pytest.mark.parametrize("ratio", [-1, -5, Fraction(1, 3), Fraction(-7, 2)])
def test_proportional_lines_with_negative_or_fractional_ratio(ratio):
    f1 = x(0) * x(0) + (x(1) * x(2)).scale(-4) + x(2) * x(2)
    with pytest.raises(DegenerateLineError, match="linearly dependent"):
        LineInSystem(f1, f1.scale(ratio))
    with pytest.raises(DegenerateLineError, match="linearly dependent"):
        LineInSystem(f1.scale(ratio), f1)


def test_f2_zero_at_the_first_nonzero_coefficient_of_f1():
    # f1's first coefficient in monomial order is at x0^2; f2 has none there
    # and agrees with f1 everywhere else, so the two are independent
    f1 = x(0) * x(0) + x(1) * x(1)
    f2 = x(1) * x(1)
    assert f1.coeff_vector()[0] and not f2.coeff_vector()[0]
    LineInSystem(f1, f2)
    LineInSystem(f2, f1)


def test_verlinde_pencil_construction(shared_factor_line):
    ctx = context(2, 2, 3)
    p = verlinde_pencil(ctx, shared_factor_line)
    assert (p.w, p.u) == (10, 3)
    assert is_injective(p)
    swapped = verlinde_pencil(ctx, LineInSystem(shared_factor_line.f2, shared_factor_line.f1))
    assert swapped.A == p.B and swapped.B == p.A


def test_rational_line_reads_as_its_integer_multiple():
    # the pencil multiplies by f1 and -7 f2, the integral multiples of
    # f1/2 and -7/3 f2 on this line; that rescales (s, t), which keeps the
    # type, the zero count and genericity
    ctx = context(2, 3, 4)
    line = sample_line(ctx, "jumping:2", seed=1)
    half, sevenths = line.f1.scale(Fraction(1, 2)), line.f2.scale(Fraction(-7, 3))
    rational = LineInSystem(half, sevenths)
    assert splitting_type(verlinde_pencil(ctx, rational)) == near_generic_type(ctx)
    assert zero_count(ctx, rational) == zero_count(ctx, line)
    assert is_generic_type(ctx, rational) is is_generic_type(ctx, line) is False
    assert (rational.f1, rational.f2) == (half, sevenths)  # forms kept as given


def test_pencil_below_degree_is_trivial(shared_factor_line):
    ctx = context(2, 2, 1)
    assert ctx.u == 0
    p = verlinde_pencil(ctx, shared_factor_line)
    assert p.u == 0
    assert splitting_type(p) == (0,) * ctx.w


def test_zero_count_shared_factor(shared_factor_line):
    # rank [A|B] = 5: the single relation x2*(x0x1) = x1*(x0x2)
    assert zero_count(context(2, 2, 3), shared_factor_line) == 5


def test_zero_count_random_line():
    ctx = context(2, 2, 3)
    line = sample_line(ctx, "random", seed=11)
    assert zero_count(ctx, line) == 4  # w - 2u = 10 - 6


def test_zero_count_at_k_equals_d():
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        ctx = context(n, d, d)
        line = sample_line(ctx, "random", seed=3)
        assert zero_count(ctx, line) == ctx.w - 2


def test_zero_count_matches_splitting_type(shared_factor_line):
    ctx = context(2, 2, 3)
    st_ = splitting_type(verlinde_pencil(ctx, shared_factor_line))
    assert st_ == (2, 1, 0, 0, 0, 0, 0)
    assert zero_count(ctx, shared_factor_line) == st_.zeros()


def test_generic_type_and_guard():
    ctx = context(2, 2, 3)
    assert generic_type(ctx) == (1, 1, 1, 0, 0, 0, 0)
    assert near_generic_type(ctx) == (2, 1, 0, 0, 0, 0, 0)
    bad = context(2, 2, 6)  # degree 15 > rank 13
    with pytest.raises(GenericTypeUndefinedError):
        generic_type(bad)
    with pytest.raises(GenericTypeUndefinedError):
        is_generic_type(bad, sample_line(bad, "random", seed=0))


def test_is_generic(shared_factor_line):
    ctx = context(2, 2, 3)
    assert not is_generic_type(ctx, shared_factor_line)
    assert is_generic_type(ctx, sample_line(ctx, "random", seed=2))


def test_generic_never_occurs_past_2d():
    ctx = context(2, 2, 5)
    assert ctx.degree <= ctx.rank
    for seed in range(8):
        line = sample_line(ctx, "random", seed=seed)
        assert not is_generic_type(ctx, line)


def test_predict_by_gcd_shared_factor(shared_factor_line):
    ctx = context(2, 2, 3)
    pred = predict_by_gcd(ctx, shared_factor_line, trials=3, seed=0)
    assert pred.jumping and pred.gcd_degree == 1
    assert pred.predicted_type == (2, 1, 0, 0, 0, 0, 0)


def test_predict_by_gcd_coprime():
    ctx = context(2, 2, 3)
    line = LineInSystem(x(0) * x(0), x(1) * x(1))
    pred = predict_by_gcd(ctx, line, trials=3, seed=0)
    assert not pred.jumping and pred.gcd_degree == 0
    assert pred.predicted_type == generic_type(ctx)


@pytest.mark.parametrize("trials", [0, -1])
def test_predict_by_gcd_rejects_no_trials(shared_factor_line, trials):
    # trials = 0 raised a bare TypeError comparing None with an int
    with pytest.raises(ValueError, match="trials"):
        predict_by_gcd(context(2, 2, 3), shared_factor_line, trials=trials)


def test_predict_matches_splitting_on_planted_line():
    ctx = context(3, 2, 3)
    line = sample_line(ctx, "jumping:1", seed=4)
    pred = predict_by_gcd(ctx, line, trials=3, seed=4)
    st_ = splitting_type(verlinde_pencil(ctx, line))
    assert pred.jumping
    assert pred.predicted_type == st_ == near_generic_type(ctx)
    assert len(st_) == 16


def test_sample_line_modes():
    ctx = context(2, 3, 4)
    jump = sample_line(ctx, "jumping:2", seed=1)
    assert not is_generic_type(ctx, jump)  # d' = d-1 at k = d+1 always jumps
    coprime = sample_line(ctx, "jumping:0", seed=1)
    assert is_generic_type(ctx, coprime)  # d' = 0 < d-1 for d >= 2
    for seed in range(10):
        assert is_generic_type(ctx, sample_line(ctx, "random", seed=seed))
    with pytest.raises(ValueError):
        sample_line(ctx, "jumping:3", seed=0)
    with pytest.raises(ValueError):
        sample_line(ctx, "bogus", seed=0)


@pytest.mark.parametrize("mode", ["jumping:1_0", "jumping:+10", "jumping: 10", "jumping:10\n",
                                  "jumping:\uff11\uff10", "jumping:010", "jumping:-0", "jumping:",
                                  "jumping:x", "jumping:-", "jumping:--1", "jumping", None, 10])
def test_sample_line_refuses_other_spellings(mode):
    # int() read the first six as 10 and -0 as 0, valid at d = 12, yet the
    # mode seeds the draw, so each drew another line than str(D) does
    with pytest.raises(ValueError, match="unknown sampling mode"):
        sample_line(context(2, 12, 13), mode, seed=0)


def test_sample_line_degree_is_written_as_str_writes_it():
    ctx = context(2, 12, 13)
    line = sample_line(ctx, "jumping:10", seed=0)
    assert gcd_degree(line.f1, line.f2, trials=2, seed=0) >= 10
    for mode in ("jumping:-1", "jumping:12", "jumping:-12"):
        with pytest.raises(ValueError, match=r"must lie in \[0, 11\]"):
            sample_line(ctx, mode, seed=0)


# the table scripts/splitting_survey.py prints: degree <= rank wherever k <= 2d
def test_genericity_range_table():
    ctxs = [context(2, 2, k) for k in range(1, 9)]
    assert [c.degree <= c.rank for c in ctxs[:5]] == [True] * 5  # k = 1..5
    assert ctxs[4].k > 2 * 2  # k = 5 > 2d yet degree <= rank
    assert all(c.degree <= c.rank for c in ctxs if c.k <= 2 * 2)
    ctxs33 = [context(3, 3, k) for k in range(1, 13)]
    assert all(c.degree <= c.rank for c in ctxs33 if c.k <= 2 * 3)


# ---------------------------------------------------------- per-line memo

def _answers(ctx, line):
    p = verlinde_pencil(ctx, line)
    return (p.A.entries, p.B.entries, splitting_type(p),
            zero_count(ctx, line), is_generic_type(ctx, line))


@pytest.mark.parametrize("mode", ["random", "jumping:1", "jumping:2"])
@pytest.mark.parametrize("type_first", [True, False])
def test_line_memo_eliminates_each_h_step_once(monkeypatch, mode, type_first):
    ctx = context(2, 3, 4)
    line = sample_line(ctx, mode, seed=5)
    h = twisted_section_dims(verlinde_pencil(ctx, LineInSystem(line.f1, line.f2)), ctx.u + 1)
    steps = sum(1 for x in h[:-1] if x)  # h(t+1) is computed while h(t) > 0
    builds, ranked, kernels, eliminations, primes = [], [], [], [], set()
    real_build = family._multiplication_pencil
    real_rank, real_kernel = ExactMatrix.rank, ExactMatrix.left_kernel
    real_echelon = linalg._echelon_mod_p

    def counting_build(ctx, line):
        builds.append(ctx.k - ctx.d)
        return real_build(ctx, line)

    def counting_rank(m):
        ranked.append((m.rows, m.cols))
        return real_rank(m)

    def counting_kernel(m):
        kernels.append((m.rows, m.cols))
        return real_kernel(m)

    def counting_echelon(rest, width, c, base=None, keep=None):
        # rows stacked so far, this call's included
        eliminations.append((base is not None, (len(base[1]) if base else 0) + len(rest), width))
        primes.add(c)
        return real_echelon(rest, width, c, base, keep)

    monkeypatch.setattr(family, "_multiplication_pencil", counting_build)
    monkeypatch.setattr(ExactMatrix, "rank", counting_rank)
    monkeypatch.setattr(ExactMatrix, "left_kernel", counting_kernel)
    monkeypatch.setattr(linalg, "_echelon_mod_p", counting_echelon)  # B^T's, then the h-steps'
    if type_first:
        st_ = splitting_type(verlinde_pencil(ctx, line))
    zeros = zero_count(ctx, line)
    generic = is_generic_type(ctx, line)
    if not type_first:
        st_ = splitting_type(verlinde_pencil(ctx, line))
    assert zeros == st_.zeros() == zero_count(ctx, line)
    assert generic is (st_ == generic_type(ctx)) is is_generic_type(ctx, line)
    assert builds == [ctx.k - ctx.d]  # both forms' terms, once per line and twist
    assert ranked == kernels == []
    assert eliminations[0] == (False, ctx.u, ctx.w)  # B^T, once per call that runs steps
    assert eliminations[1] == (True, 2 * ctx.u, ctx.w)  # S_1 = [B^T ; A^T]
    # type first: one call runs every step; else zero_count runs the first
    # and splitting_type the rest, eliminating B^T again; each step runs once
    runs = [steps] if type_first else [1, steps - 1]
    assert steps >= 1 and primes == {linalg._FOLDS[0]}  # one elimination per step, per B^T
    assert [resumed for resumed, _, _ in eliminations] == [
        resumed for n in runs if n for resumed in [False] + [True] * n]


def test_line_memo_is_per_twist():
    ctx3, ctx4 = context(2, 2, 3), context(2, 2, 4)
    for mode in ("random", "jumping:1"):
        line = sample_line(ctx3, mode, seed=8)
        memoized = [_answers(ctx, line) for ctx in (ctx3, ctx4, ctx3)]
        fresh = [_answers(ctx, LineInSystem(line.f1, line.f2)) for ctx in (ctx3, ctx4, ctx3)]
        assert memoized == fresh
        assert memoized[0] != memoized[1]
    with pytest.raises(ValueError):  # a memoized k does not skip the n, d check
        zero_count(context(3, 2, 3), line)


def test_line_memo_outside_equality_hash_and_repr():
    ctx = context(2, 2, 3)
    line = sample_line(ctx, "random", seed=1)
    twin = LineInSystem(line.f1, line.f2)
    before = (repr(line), hash(line))
    _answers(ctx, line)
    assert line._memo and not twin._memo
    assert (repr(line), hash(line)) == before == (repr(twin), hash(twin))
    assert line == twin


def test_shared_pencil_is_not_mutated_by_callers():
    ctx = context(3, 2, 4)
    line = sample_line(ctx, "jumping:1", seed=2)
    p = verlinde_pencil(ctx, line)
    snapshot = ([row[:] for row in p.A.entries], [row[:] for row in p.B.entries])
    splitting_type(p)
    zero_count(ctx, line)
    is_generic_type(ctx, line)
    _bareiss_rank(p.A.hstack(p.B).entries)
    _bareiss_rank(p.A.entries)
    assert verlinde_pencil(ctx, line) is p
    assert (p.A.entries, p.B.entries) == snapshot


@given(st.sampled_from([(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 4), (3, 2, 4),
                         (2, 3, 2), (3, 3, 1), (3, 4, 3)]),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_zero_count_and_genericity_match_bareiss_on_stacked_matrix(cell, type_first, data):
    # fraction-free elimination of [A|B] is independent of the h-sequence
    # that zero_count and is_generic_type read
    ctx = context(*cell)
    mode = data.draw(st.sampled_from(["random"] + [f"jumping:{g}" for g in range(ctx.d)]))
    line = sample_line(ctx, mode, seed=data.draw(st.integers(0, 10**6)))
    p = verlinde_pencil(ctx, line)
    stacked = _bareiss_rank(p.A.hstack(p.B).entries)
    if type_first:
        splitting_type(p)
    assert zero_count(ctx, line) == ctx.w - stacked
    assert is_generic_type(ctx, line) is (stacked == 2 * ctx.u)
    if ctx.k < ctx.d:
        assert ctx.u == stacked == 0


# ------------------------------------------- the splitting type in closed form

def _closed_form_mismatches(ctx, line, seed):
    """[(type, closed form)] if the h-sequence's type differs from
    type_from_gcd at the gcd oracle's d', else []."""
    st_ = splitting_type(verlinde_pencil(ctx, line))
    closed = type_from_gcd(ctx, gcd_degree(line.f1, line.f2, trials=3, seed=seed))
    return [] if st_ == closed else [(st_, closed)]


def test_closed_form_is_the_whole_type_on_the_criteria_lines():
    # every fifth line of the seed-0 criteria suite, random and planted alike
    mismatches = []
    for n, d, k, mode, case_seed in suites._line_specs(0)[::5]:
        ctx = context(n, d, k)
        line = sample_line(ctx, mode, seed=case_seed)
        mismatches += _closed_form_mismatches(ctx, line, case_seed)
    assert mismatches == []


@pytest.mark.parametrize("mode", ["random", "jumping:1", "jumping:2", "jumping:3"])
def test_closed_form_is_the_whole_type_on_planted_lines_at_3_4_10(mode):
    ctx = context(3, 4, 10)
    line = sample_line(ctx, mode, seed=f"closed:{mode}")
    assert _closed_form_mismatches(ctx, line, seed=0) == []


def _r(n, a):
    return comb(a + n, n) if a >= 0 else 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_closed_form_identities(n, d):
    for k in range(1, 2 * d + 4):
        ctx = context(n, d, k)
        for dp in range(d):
            t = type_from_gcd(ctx, dp)
            assert (len(t), t.total) == (ctx.rank, ctx.u)
            assert t.zeros() == ctx.w - 2 * ctx.u + _r(n, k - 2 * d + dp)
            assert t[0] == max((k - dp) // (d - dp), 0)
            if d <= k <= 2 * d:  # jumping iff d' >= 2d - k
                assert (t != generic_type(ctx)) is (dp >= 2 * d - k)
            elif k > 2 * d and ctx.degree <= ctx.rank:  # no line is generic
                assert t != generic_type(ctx)
        # an oracle reading of d or more is read as d - 1
        assert type_from_gcd(ctx, d + 1) == type_from_gcd(ctx, d - 1)
    if d > 1:  # exactly two types at k = d + 1
        ctx = context(n, d, d + 1)
        assert ([type_from_gcd(ctx, dp) for dp in range(d)]
                == [generic_type(ctx)] * (d - 1) + [near_generic_type(ctx)])
    with pytest.raises(ValueError):
        type_from_gcd(context(n, d, d), -1)


def test_criteria_suite_calls_neither_bareiss_nor_a_pool(monkeypatch, spy):
    def refuse(*args, **kwargs):
        raise AssertionError("the criteria suite runs in one process")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    bareiss = spy("linalg._bareiss")
    res = suites.run_criteria_suite(0)
    assert res.passed and bareiss == []


# ------------------------------------ the pencil packed from the forms' terms

def _assert_terms_pencil_is_the_dense_one(ctx, line):
    # A and B are mult_matrix's of the integral forms; the stack packed from
    # the terms holds the rows of Pencil(A, B)'s entries, and the h-sequence
    # is the dense pencil's
    p = verlinde_pencil(ctx, line)
    src = ctx.k - ctx.d
    assert p.A == mult_matrix(_integral(line.f1), src)
    assert p.B == mult_matrix(_integral(line.f2), src)
    dense = Pencil(p.A, p.B)
    rows = p.A.transpose().entries + p.B.transpose().entries
    ours, theirs = (linalg.KernelStack(q.u, 2 * q.u, q.w, q._terms) for q in (p, dense))
    assert ours.top == theirs.top and ours.marks == theirs.marks
    fits = ours.top.bit_length() // linalg._packing(p.w)[0] + 1  # the least slots holding top
    for m in (fits, fits + 1):
        assert ours._exact_rows(m) == theirs._exact_rows(m)
    for c in linalg._FOLDS[:3]:
        assert ours._rows_mod_p(c) == theirs._rows_mod_p(c) == per_entry_pack_mod_p(rows, c)
    assert _section_dims(p, ctx.u + 2) == _section_dims(dense, ctx.u + 2)
    return p


@pytest.mark.parametrize("cell", [cell[:3] for cell in suites._criteria_cells()] + [(3, 4, 8)])
def test_terms_pencil_matches_the_dense_path(cell):
    ctx = context(*cell)
    for mode in ("random", "jumping:1"):
        _assert_terms_pencil_is_the_dense_one(ctx, sample_line(ctx, mode, seed=f"terms:{cell}"))


def test_terms_pencil_of_a_rational_line_is_scaled_to_ints():
    ctx = context(2, 3, 5)
    line = sample_line(ctx, "jumping:1", seed=0)
    rational = LineInSystem(line.f1.scale(Fraction(1, 6)) + HomogeneousPolynomial(
        3, 3, {(3, 0, 0): Fraction(1, 4)}), line.f2.scale(Fraction(-2, 15)))
    p = _assert_terms_pencil_is_the_dense_one(ctx, rational)
    assert {type(t[0]) for t in p._terms} == {int}
    assert splitting_type(p) == splitting_type(verlinde_pencil(ctx, LineInSystem(
        _integral(rational.f1), _integral(rational.f2))))


@pytest.mark.parametrize("scale", [2**29, 2**40 + 1, 3**60])
def test_terms_pencil_scaled_past_2_29_takes_the_per_entry_residues(scale):
    ctx = context(2, 3, 5)
    line = sample_line(ctx, "jumping:1", seed=0)
    scaled = LineInSystem(line.f1.scale(scale), line.f2)
    p = _assert_terms_pencil_is_the_dense_one(ctx, scaled)
    assert linalg.KernelStack(p.u, 2 * p.u, p.w, p._terms).marks is None
    assert splitting_type(p) == splitting_type(verlinde_pencil(ctx, line))
