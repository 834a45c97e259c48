import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import linalg, pencils
from verlinde.family import context, sample_line, verlinde_pencil, zero_count
from verlinde.linalg import ExactMatrix, _bareiss_rank, random_unimodular
from verlinde.pencils import (
    CokernelError,
    NotInjectiveError,
    Pencil,
    PencilError,
    SplittingType,
    dominance,
    dominates,
    is_injective,
    kronecker_pencil,
    splitting_type,
    sylvester_block,
    twisted_section_dims,
)

from conftest import bareiss_left_kernel, primes_used, stack_of


def l_block(b):
    """The (b+1) x b canonical block with cokernel O(b)."""
    return kronecker_pencil(SplittingType((b,)))


@pytest.mark.parametrize("call,message", [
    (lambda p: twisted_section_dims(p, 0), "t_max must be >= 1"),
    (lambda p: sylvester_block(p, -1), "block index must be nonnegative"),
])
def test_out_of_range_twists_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(l_block(1))


def test_l1_block():
    p = l_block(1)
    assert p.A.entries == [[1], [0]]
    assert p.B.entries == [[0], [1]]
    assert is_injective(p)
    assert twisted_section_dims(p, 3) == [1, 0, 0]
    assert splitting_type(p) == (1,)


def test_zero_pencil_not_injective():
    z = ExactMatrix.zero(2, 1)
    p = Pencil(z, z)
    assert not is_injective(p)
    with pytest.raises(NotInjectiveError):
        splitting_type(p)


def test_empty_pencil_is_trivial_bundle():
    p = Pencil(ExactMatrix.zero(2, 0), ExactMatrix.zero(2, 0))
    assert is_injective(p)
    assert twisted_section_dims(p, 4) == [0, 0, 0, 0]
    assert splitting_type(p) == (0, 0)


def test_square_pencil_torsion_cokernel_rejected():
    p = Pencil(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), ExactMatrix.zero(3, 3))
    assert is_injective(p)  # injective as a sheaf map, but cokernel is torsion
    with pytest.raises(CokernelError):
        splitting_type(p)


def test_block_sum_21_0():
    st_ = SplittingType((2, 1, 0))
    p = kronecker_pencil(st_)
    assert splitting_type(p) == st_
    rng = random.Random("mix")
    conj = p.conjugate(random_unimodular(6, rng), random_unimodular(3, rng))
    assert splitting_type(conj) == st_
    assert twisted_section_dims(conj, 4) == [3, 1, 0, 0]


def test_kronecker_example_from_seed():
    st_ = SplittingType((2, 1, 0, 0))
    p = kronecker_pencil(st_, seed=7)
    assert splitting_type(p) == st_


def test_kronecker_zero_columns():
    p = kronecker_pencil(SplittingType((0, 0)))
    assert p.u == 0 and p.w == 2
    assert splitting_type(p) == (0, 0)


def test_sylvester_block_shape():
    p = l_block(2)
    s2 = sylvester_block(p, 2)
    assert (s2.rows, s2.cols) == (6, 6)
    assert s2.rank() == 6
    assert sylvester_block(p, 0).cols == 0


def _random_type(rng, w, u):
    entries = [0] * (w - u)
    for _ in range(u):
        entries[rng.randrange(w - u)] += 1
    entries.sort(reverse=True)
    return SplittingType(entries)


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_and_invariances(seed):
    rng = random.Random(f"pencil:{seed}")
    w = rng.randint(2, 8)
    u = rng.randint(0, w - 1)
    st_ = _random_type(rng, w, u)
    p = kronecker_pencil(st_, seed=seed)
    for q in (p, kronecker_pencil(st_), kronecker_pencil(tuple(st_), seed=seed)):
        assert (q.w, q.u) == (len(st_) + st_.total, st_.total) == (w, u)  # the type's frame
        assert splitting_type(q) == st_
    assert splitting_type(p.swap()) == st_
    a, b, c, d = 1, rng.randint(-3, 3), rng.randint(-3, 3), 1
    if a * d - b * c == 0:
        b = 0
    assert splitting_type(p.coordinate_change(a, b, c, d)) == st_


@pytest.mark.parametrize("seed", range(10))
def test_h_sequence_convex(seed):
    rng = random.Random(f"hconv:{seed}")
    w = rng.randint(3, 8)
    u = rng.randint(1, w - 1)
    p = kronecker_pencil(_random_type(rng, w, u), seed=seed)
    h = twisted_section_dims(p, u + 1)
    diffs = [h[t] - h[t + 1] for t in range(len(h) - 1)]
    assert all(diffs[t] >= diffs[t + 1] for t in range(len(diffs) - 1))


def test_splitting_type_is_its_tuple():
    t = SplittingType([2, 1, 1, 0])
    assert isinstance(t, tuple) and type(t.entries) is tuple
    assert t == (2, 1, 1, 0) == tuple(t) == t.entries and t != [2, 1, 1, 0]
    assert hash(t) == hash(tuple(t)) and {t: 1}[(2, 1, 1, 0)] == 1
    assert repr(t) == "SplittingType(2, 1, 1, 0)" and repr(SplittingType((3,))) == "SplittingType(3,)"
    assert (len(t), t[0], t[-2:], list(t)) == (4, 2, (1, 0), [2, 1, 1, 0])
    assert (t.total, t.zeros()) == (4, 1)
    assert SplittingType(()) == () and SplittingType(()).total == 0


def test_splitting_type_validation():
    with pytest.raises(ValueError):
        SplittingType((2, 0, 1))
    with pytest.raises(ValueError):
        SplittingType((1, -1))


@pytest.mark.parametrize("entries", [[1.7, 0.2], [2.0, 1], [1, True], [Fraction(1), 0], ["1"]])
def test_splitting_type_takes_only_ints(entries):
    with pytest.raises(ValueError):
        SplittingType(entries)


def test_dominance():
    t21 = SplittingType((2, 1, 0))
    t111 = SplittingType((1, 1, 1))
    assert dominates(t21, t111)
    assert not dominates(t111, t21)
    assert dominates(t21, t21)
    assert dominance(t21, t111) == "dominates"
    assert dominance(t111, t21) == "dominated"
    assert dominance(t21, t21) == "equal"
    assert dominance(t21, SplittingType((1, 1))) == "incomparable-frame"
    assert dominance(SplittingType((3, 1, 1, 1)), SplittingType((2, 2, 2, 0))) == "incomparable"


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_dominance_reflexive(entries):
    t = SplittingType(sorted(entries, reverse=True))
    assert dominates(t, t)
    assert dominance(t, t) == "equal"


def test_pencil_shape_validation():
    with pytest.raises(PencilError):
        Pencil(ExactMatrix.zero(2, 1), ExactMatrix.zero(3, 1))
    with pytest.raises(PencilError):
        Pencil(ExactMatrix.zero(1, 2), ExactMatrix.zero(1, 2))  # u > w


# ------------------------------------------- the incremental h-sequence

def _h_by_definition(p, engine=False):
    """h(t) = t*u - rank(S_(t-1)) from the Sylvester blocks themselves, up
    to and including the first zero; ranked by Bareiss, or by the modular
    engine if asked."""
    dims = []
    for t in range(1, p.u + 2):
        block = sylvester_block(p, t - 1)
        dims.append(t * p.u - (block.rank() if engine else _bareiss_rank(block.entries)))
        if dims[-1] == 0:
            break
    return dims


def _assert_recursion_matches(p, engine=False):
    want = _h_by_definition(p, engine)
    want += [0] * (p.u + 1 - len(want))
    assert pencils._section_dims(p, p.u + 1) == want
    if want[p.u] > p.u:
        with pytest.raises(NotInjectiveError):
            twisted_section_dims(p, p.u + 1)
    else:
        assert twisted_section_dims(p, p.u + 1) == want


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_recursion_matches_sylvester_ranks_on_kronecker_pencils(w, data):
    u = data.draw(st.integers(0, w - 1))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = kronecker_pencil(_random_type(rng, w, u), seed=rng.randrange(10**6))
    _assert_recursion_matches(p)


@given(st.sampled_from([(2, 2, 5), (2, 3, 4), (3, 2, 4)]), st.data())
@settings(max_examples=30, deadline=None)
def test_recursion_matches_sylvester_ranks_on_lines(cell, data):
    ctx = context(*cell)
    mode = data.draw(st.sampled_from(["random"] + [f"jumping:{g}" for g in range(1, ctx.d)]))
    line = sample_line(ctx, mode, seed=data.draw(st.integers(0, 10**6)))
    _assert_recursion_matches(verlinde_pencil(ctx, line))


def test_recursion_matches_engine_ranks_on_a_planted_line():
    # Bareiss on this line's S_5 is slow, so the definition side uses the
    # modular engine's rank here
    ctx = context(2, 4, 9)
    p = verlinde_pencil(ctx, sample_line(ctx, "jumping:3", seed=0))
    _assert_recursion_matches(p, engine=True)
    assert twisted_section_dims(p, 7) == [21, 15, 10, 6, 3, 1, 0]


def test_unliftable_kernel_takes_a_second_prime(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    big = 2**40
    left = [[int(i == j) for j in range(6)] for i in range(6)]
    left[0][3], left[2][5] = big, -big
    right = [[int(i == j) for j in range(3)] for i in range(3)]
    right[0][1] = big
    st_ = SplittingType((2, 1, 0))
    p = kronecker_pencil(st_).conjugate(ExactMatrix.from_rows(left),
                                              ExactMatrix.from_rows(right))
    assert splitting_type(p) == st_
    assert primes_used(echelons) >= 2 and bareiss == []
    _assert_recursion_matches(p)


@pytest.mark.parametrize("cell", [(2, 2, 5), (3, 2, 4)])
@pytest.mark.parametrize("seed", range(10))
def test_planted_lines_need_at_most_two_primes(spy, cell, seed):
    # Normalized kernel vectors feed the next step as residues, so their
    # size does not compound: where they pass one prime's reconstruction
    # bound, as at (2,2,5), two primes lift every step.
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    ctx = context(*cell)
    p = verlinde_pencil(ctx, sample_line(ctx, "jumping:1", seed=seed))
    splitting_type(p)
    assert primes_used(echelons) <= 2 and bareiss == []
    want = _h_by_definition(p)
    assert twisted_section_dims(p, len(want)) == want


def _assert_holds_only_its_recursion(p):
    # (dims, T, den): the h values and the last tails L = T / den as ints,
    # no packed rows, residues or echelons
    dims, T, den = p._sections
    assert all(type(h) is int for h in dims) and type(den) is int
    assert T is None or (len(T) == dims[-1] and all(
        len(row) == p.u and all(type(x) is int for x in row) for row in T))


def test_packed_state_is_released_once_h_reaches_0(spy):
    echelons, packs = spy("linalg._echelon_mod_p"), spy("linalg.KernelStack.__init__")
    ctx, big = context(2, 2, 5), context(3, 4, 8)
    random_line = verlinde_pencil(ctx, sample_line(ctx, "random", seed=1))
    planted = verlinde_pencil(ctx, sample_line(ctx, "jumping:1", seed=0))
    reference = verlinde_pencil(big, sample_line(big, "random", seed=0))
    for p, primes in ((random_line, 1), (planted, 2), (reference, 1)):
        echelons.clear()
        packs.clear()
        pencils._section_dims(p, 2)  # one step: only its recursion is kept
        assert len(packs) == 1 and len(p._sections[0]) == 2 and p._sections[0][-1]
        _assert_holds_only_its_recursion(p)
        packs.clear()
        splitting_type(p)
        assert primes_used(echelons) == primes
        assert len(packs) == 1  # packed once by the call that runs the other steps
        assert p._sections == (p._sections[0], [], 1) and p._sections[0][-1] == 0


@pytest.mark.parametrize("kind", ["zero", "through-O", "through-O(-1)", "degree-1-kernel",
                                  "kronecker+torsion"])
@pytest.mark.parametrize("seed", range(6))
def test_resumed_steps_match_sylvester_ranks_on_degenerate_pencils(kind, seed):
    # B^T has zero rows mod p here; they stay zero rows of every step
    rng = random.Random(f"degenerate:{kind}:{seed}")
    if kind == "zero":
        w = rng.randint(1, 5)
        u = rng.randint(1, w)
        p = Pencil(ExactMatrix.zero(w, u), ExactMatrix.zero(w, u))
    else:
        p = _pencil_of_kind(kind, rng)
    _assert_recursion_matches(p)


@pytest.mark.parametrize("seed", range(4))
def test_b_losing_rank_mod_p_takes_a_second_prime(spy, seed):
    # both equivalences over Q keep the type, but leave B^T with zero rows
    # modulo the engine's first prime: all of B, or a column of A and of B
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    prime = 2**30 - linalg._FOLDS[0]
    rng = random.Random(f"bad-prime:{seed}")
    w = rng.randint(3, 7)
    u = rng.randint(1, w - 1)
    st_ = _random_type(rng, w, u)
    p = kronecker_pencil(st_, seed=seed)
    scaled = [[prime if i == j == u - 1 else int(i == j) for j in range(u)]
              for i in range(u)]
    for q in (p.coordinate_change(1, 0, 0, prime),
              p.conjugate(ExactMatrix(w, w, [[int(i == j) for j in range(w)] for i in range(w)]),
                          ExactMatrix.from_rows(scaled))):
        echelons.clear()
        bareiss.clear()
        assert splitting_type(q) == st_
        assert primes_used(echelons) >= 2 and bareiss == []
        _assert_recursion_matches(q)


@pytest.mark.parametrize("mode", ["random", "jumping:1", "jumping:2"])
def test_zero_count_then_type_matches_a_fresh_sequence(mode):
    ctx = context(2, 3, 5)
    for seed in range(3):
        line = sample_line(ctx, mode, seed=seed)
        p = verlinde_pencil(ctx, line)
        zeros = zero_count(ctx, line)  # the first step, on the line's pencil
        assert len(p._sections[0]) == 2
        _assert_holds_only_its_recursion(p)
        fresh = Pencil(p.A, p.B)
        assert splitting_type(p) == splitting_type(fresh)
        assert zeros == splitting_type(p).zeros()
        assert p._sections == fresh._sections  # T = [] and den = 1 once h reaches 0


def test_splitting_type_builds_no_sylvester_block(monkeypatch):
    def refuse(pencil, j):
        raise AssertionError("sylvester_block called")

    monkeypatch.setattr(pencils, "sylvester_block", refuse)
    st_ = SplittingType((2, 1, 0, 0))
    assert splitting_type(kronecker_pencil(st_, seed=7)) == st_
    ctx = context(2, 3, 4)
    splitting_type(verlinde_pencil(ctx, sample_line(ctx, "jumping:1", seed=3)))


# ------------------------------------------- injectivity from the h-sequence

def specialization_injective(pencil):
    """The reference: the generic rank of a pencil is the largest rank of
    s*A + t*B over any u+1 distinct points of P^1, since a nonzero r x r
    minor is a binary form of degree r <= u.  Three pseudo-random points
    first, then the exact set."""
    u = pencil.u
    if u == 0:
        return True
    rng = random.Random("pencil-injectivity")
    for _ in range(3):
        s, t = rng.randint(-99, 99), rng.randint(-99, 99)
        if (s, t) == (0, 0):
            s = 1
        if pencil.at(s, t).rank() == u:
            return True
    for i in range(u):
        if pencil.at(1, i).rank() == u:
            return True
    return pencil.at(0, 1).rank() == u


def _grid(rng, rows, cols, zero_frac=0.0):
    return ExactMatrix(rows, cols, [[0 if rng.random() < zero_frac else rng.randint(-3, 3)
                                     for _ in range(cols)] for _ in range(rows)])


def _diag(x, y):
    return ExactMatrix(x.rows + y.rows, x.cols + y.cols,
                       [row + [0] * y.cols for row in x.entries]
                       + [[0] * x.cols + row for row in y.entries])


def _pencil_of_kind(kind, rng):
    """A small pencil of one of five kinds, conjugated by unimodular maps."""
    if kind in ("random", "sparse"):
        w = rng.randint(1, 6)
        u = rng.randint(0, w)
        frac = 0.75 if kind == "sparse" else 0.0
        p = Pencil(_grid(rng, w, u, frac), _grid(rng, w, u, frac))
    elif kind == "through-O":  # O(-1)^u -> O^w' -> O^w with w' < u
        u = rng.randint(1, 5)
        w = rng.randint(u, 6)
        inner = rng.randint(0, u - 1)
        mid = _grid(rng, w, inner)
        p = Pencil(mid @ _grid(rng, inner, u), mid @ _grid(rng, inner, u))
    elif kind == "through-O(-1)":  # O(-1)^u -> O(-1)^u' -> O^w with u' < u
        u = rng.randint(1, 5)
        w = rng.randint(u, 6)
        inner = rng.randint(0, u - 1)
        mid = _grid(rng, inner, u)
        p = Pencil(_grid(rng, w, inner) @ mid, _grid(rng, w, inner) @ mid)
    elif kind == "degree-1-kernel":  # t*e0 + s*e1 in the kernel
        u = rng.randint(2, 5)
        w = rng.randint(u, 6)
        a, b = _grid(rng, w, u).entries, _grid(rng, w, u).entries
        for row_a, row_b in zip(a, b):
            row_b[0] = row_a[1] = 0
            row_a[0] = -row_b[1]
        p = Pencil(ExactMatrix(w, u, a), ExactMatrix(w, u, b))
    else:  # Kronecker blocks plus a square block: torsion when it is regular
        w1 = rng.randint(1, 4)
        u1 = rng.randint(0, w1 - 1)
        m = rng.randint(1, 3)
        k = kronecker_pencil(_random_type(rng, w1, u1))
        p = Pencil(_diag(k.A, _grid(rng, m, m)), _diag(k.B, _grid(rng, m, m)))
    return p.conjugate(random_unimodular(p.w, rng), random_unimodular(p.u, rng))


PENCIL_KINDS = ["random", "sparse", "through-O", "through-O(-1)", "degree-1-kernel",
                "kronecker+torsion"]


@given(st.sampled_from(PENCIL_KINDS), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_injectivity_from_h_sequence_matches_specialization(kind, seed):
    p = _pencil_of_kind(kind, random.Random(seed))
    want = specialization_injective(p)
    assert is_injective(p) == want
    if kind in ("through-O", "through-O(-1)", "degree-1-kernel"):
        assert not want


@pytest.mark.parametrize("kind", ["through-O", "degree-1-kernel"])
def test_short_sequence_still_refuses_a_non_injective_pencil(kind):
    rng = random.Random(f"short:{kind}")
    p = _pencil_of_kind(kind, rng)
    while p.u < 2:
        p = _pencil_of_kind(kind, rng)
    with pytest.raises(NotInjectiveError):
        twisted_section_dims(p, 1)


def test_splitting_type_makes_no_rank_call(monkeypatch):
    ctx = context(3, 4, 8)
    line = sample_line(ctx, "random", seed=0)

    def refuse(self):
        raise AssertionError("ExactMatrix.rank called")

    monkeypatch.setattr(ExactMatrix, "rank", refuse)
    st_ = splitting_type(verlinde_pencil(ctx, line))
    assert (len(st_), st_.total) == (ctx.rank, ctx.degree)


@pytest.fixture
def fold_primes_only(monkeypatch):
    # The six fold primes are plenty for these pencils; a lift that needs
    # more raises ArithmeticError.
    monkeypatch.setattr(linalg, "_primes", lambda: iter(linalg._FOLDS))


def _certified_kernel_of(rows, k):
    n = min(len(rows), len(rows[0]))
    return stack_of(rows).kernel([], 1, k, n, n)


def _normalized_on(kernel, zero_rows):
    """The basis of kernel's row space over Q that is the identity on the
    coordinates zero_rows, in their order."""
    rows = [[Fraction(x) for x in row] for row in kernel]
    for r, i in enumerate(zero_rows):
        piv = next(s for s in range(r, len(rows)) if rows[s][i])
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][i] for x in rows[r]]
        for s in range(len(rows)):
            if s != r and rows[s][i]:
                rows[s] = [a - rows[s][i] * b for a, b in zip(rows[s], rows[r])]
    return rows


def _assert_one_prime_and_two_lift_the_same_basis(p):
    # the kernel of the first h-step's [B^T ; A^T], lifted from one prime
    # and by CRT from two, against Bareiss up to each vector's scale
    rows = p.B.transpose().entries + p.A.transpose().entries
    if not rows:
        return
    one, _ = _certified_kernel_of(rows, 1)
    two, primes = _certified_kernel_of(rows, 2)
    assert one == two
    assert len(primes) >= 2 if one else len(primes) == 1  # an empty kernel needs one prime
    reference = bareiss_left_kernel(rows)
    assert len(reference) == len(one)
    for (i, vec), want in zip(one.items(), _normalized_on(reference, list(one))):
        assert [Fraction(x, vec[i]) for x in vec] == want


@pytest.mark.parametrize("kind", PENCIL_KINDS)
@pytest.mark.parametrize("seed", range(8))
def test_one_prime_and_two_lift_the_same_basis(kind, seed, fold_primes_only):
    _assert_one_prime_and_two_lift_the_same_basis(
        _pencil_of_kind(kind, random.Random(f"lift:{kind}:{seed}")))


@pytest.mark.parametrize("mode", ["random", "jumping:2", "jumping:3"])
def test_one_prime_and_two_lift_the_same_basis_at_a_reference_cell(mode, fold_primes_only):
    # the whole h-sequence also certifies within the fold primes, every
    # step after the first fed L = T / den modulo each prime, and matches
    # the engine's ranks of the Sylvester blocks
    ctx = context(3, 4, 8)
    p = verlinde_pencil(ctx, sample_line(ctx, mode, seed=0))
    _assert_one_prime_and_two_lift_the_same_basis(p)
    want = _h_by_definition(p, engine=True)
    assert twisted_section_dims(p, len(want)) == want


@st.composite
def _pencils(draw):
    w = draw(st.integers(0, 5))
    u = draw(st.integers(0, w))
    entry = st.integers(-2**40, 2**40)
    grid = st.lists(st.lists(entry, min_size=u, max_size=u), min_size=w, max_size=w)
    return Pencil(ExactMatrix(w, u, draw(grid)), ExactMatrix(w, u, draw(grid)))


# ------------------------------------------- the resumable h-sequence

@st.composite
def _kronecker_pencils(draw):
    w = draw(st.integers(1, 7))
    u = draw(st.integers(0, w - 1))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return kronecker_pencil(_random_type(rng, w, u), seed=rng.randrange(10**6))


def _dims_or_error(p, t):
    try:
        return twisted_section_dims(p, t)
    except PencilError as exc:
        return type(exc)


@given(st.one_of(_pencils(), _kronecker_pencils()), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_resumed_sequence_matches_a_fresh_one(p, rnd):
    snapshot = ([row[:] for row in p.A.entries], [row[:] for row in p.B.entries])
    ts = list(range(1, p.u + 4))
    rnd.shuffle(ts)
    for t in ts:  # partial sequences, each resumed by the next call
        got = pencils._section_dims(p, t)
        assert got == pencils._section_dims(Pencil(p.A, p.B), t)
        got.append(-1)  # the caller's list is its own
    rnd.shuffle(ts)
    for t in ts:
        assert _dims_or_error(p, t) == _dims_or_error(Pencil(p.A, p.B), t)
    assert (p.A.entries, p.B.entries) == snapshot


@given(st.sampled_from(["through-O", "through-O(-1)", "degree-1-kernel"]),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cached_first_step_still_refuses_a_non_injective_pencil(kind, seed):
    p = _pencil_of_kind(kind, random.Random(seed))
    pencils._section_dims(p, 2)
    with pytest.raises(NotInjectiveError):
        twisted_section_dims(p, 1)
    assert not is_injective(p)


def test_derived_pencils_start_with_no_sequence():
    p = kronecker_pencil(SplittingType((2, 1, 0)), seed=5)
    fresh = Pencil(p.A, p.B)
    assert splitting_type(p) == (2, 1, 0)
    assert p._sections is not None and fresh._sections is None
    assert p == fresh and repr(p) == repr(fresh)
    assert (p.A.entries, p.B.entries) == (fresh.A.entries, fresh.B.entries)
    rng = random.Random("derived")
    derived = [p.swap(), p.coordinate_change(1, 2, 1, 3),
               p.conjugate(random_unimodular(6, rng), random_unimodular(3, rng))]
    for q in derived:
        assert q._sections is None
        assert splitting_type(q) == (2, 1, 0)
