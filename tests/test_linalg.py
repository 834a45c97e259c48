import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import linalg, suites
from verlinde.family import (LineInSystem, context, is_generic_type, sample_line, type_from_gcd,
                             verlinde_pencil, zero_count)
from verlinde.jumping import _differential, _trial_point, dim_z_jacobian
from verlinde.linalg import ExactMatrix, random_unimodular
from verlinde.pencils import Pencil, kronecker_pencil, splitting_type, sylvester_block
from verlinde.polynomials import (
    _univariate_gcd_degree,
    mult_matrix,
    parse_form,
    restrict_to_line,
    scalar,
)

from conftest import (bareiss_left_kernel, binary_coeffs, dense_annihilates, entry_terms,
                      naive_rank, per_entry_pack_mod_p, primes_used, stack_of)


@pytest.mark.parametrize("build,message", [
    (lambda: ExactMatrix(-1, 2, []), "nonnegative"),
    (lambda: ExactMatrix(2, -1, [[], []]), "nonnegative"),
    (lambda: ExactMatrix(2, 1, [[1]]), "expected 2 rows, got 1"),
    (lambda: ExactMatrix(1, 2, [[1, 2, 3]]), "expected 2 columns, got 3"),
    (lambda: ExactMatrix.from_rows([]), "cannot infer column count"),
])
def test_matrix_constructors_refuse_malformed_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_identity_rank_and_kernel():
    m = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.rank() == 3
    assert m.transpose().left_kernel() == []


def test_zero_matrix_rank_and_kernel():
    m = ExactMatrix.zero(2, 5)
    assert m.rank() == 0
    ker = m.transpose().left_kernel()
    assert len(ker) == 5


def test_empty_shapes():
    assert ExactMatrix.zero(0, 0).rank() == 0
    assert ExactMatrix.zero(3, 0).rank() == 0
    assert ExactMatrix.zero(0, 4).rank() == 0


def _random_matrix(rng, rows, cols, target):
    if target == 0:
        return ExactMatrix.zero(rows, cols)
    left = ExactMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(target)] for _ in range(rows)],
        cols=target)
    right = ExactMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(target)],
        cols=cols)
    return left @ right


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_naive_gauss(seed):
    rng = random.Random(f"rank:{seed}")
    m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5))
    assert m.rank() == naive_rank(m)


@pytest.mark.parametrize("seed", range(15))
def test_rank_invariances(seed):
    rng = random.Random(f"inv:{seed}")
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    m = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
    r = m.rank()
    assert m.transpose().rank() == r
    perm = list(range(rows))
    rng.shuffle(perm)
    assert ExactMatrix(rows, cols, [m.entries[p] for p in perm]).rank() == r
    conj = random_unimodular(rows, rng) @ m @ random_unimodular(cols, rng)
    assert conj.rank() == r


@pytest.mark.parametrize("seed", range(15))
def test_kernel_rank_nullity_and_membership(seed):
    rng = random.Random(f"ker:{seed}")
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
    ker = m.transpose().left_kernel()
    assert len(ker) == cols - m.rank()
    for v in ker:
        assert (ExactMatrix.from_rows([v]) @ m.transpose()).entries == [[0] * rows]
    # kernel vectors are independent: stacking them gives full rank
    if ker:
        assert ExactMatrix.from_rows(ker, cols=cols).rank() == len(ker)


@given(st.integers(2, 5), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_unimodular_has_full_rank(n, seed):
    rng = random.Random(seed)
    m = random_unimodular(n, rng)
    assert m.rank() == n


def vstack(top, bottom):
    """[top; bottom]; the constructor refuses differing column counts."""
    return ExactMatrix.from_rows(top.entries + bottom.entries, cols=top.cols)


def test_matmul_and_stacking():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == [[2, 1], [4, 3]]
    assert a.hstack(b).cols == 4
    assert vstack(a, b).rows == 4
    with pytest.raises(ValueError):
        a.hstack(ExactMatrix.zero(3, 1))


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3), (1, 1)])
def test_transpose_shapes_and_entries(rows, cols):
    m = ExactMatrix(rows, cols, [[7 * i - j for j in range(cols)] for i in range(rows)])
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.entries == [[7 * i - j for i in range(rows)] for j in range(cols)]
    assert all(type(row) is list for row in t.entries)
    assert t.transpose() == m


# ------------------------------------------------------- the modular engine

@st.composite
def _integer_matrices(draw):
    """Integer matrices of every shape: wide, tall, empty, zero, and
    rank-deficient products of low-rank factors."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    bound = draw(st.sampled_from((1, 9, 10**6, 2**40)))
    entry = st.integers(-bound, bound)
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


@given(_integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_naive_on_every_shape(m):
    assert m.rank() == naive_rank(m)


def _check_left_kernel(m):
    kernel = m.left_kernel()
    for z in kernel:
        assert all(type(x) is int for x in z)
        assert ExactMatrix.from_rows([z], cols=m.rows) @ m == ExactMatrix.zero(1, m.cols)
    assert len(kernel) == m.rows - naive_rank(m)
    if kernel:
        assert naive_rank(ExactMatrix.from_rows(kernel, cols=m.rows)) == len(kernel)
    assert m.rank() == naive_rank(m)


@given(_integer_matrices())
@settings(max_examples=300, deadline=None)
def test_left_kernel_is_a_certified_basis(m):
    _check_left_kernel(m)


def test_left_kernel_past_one_prime_combines_primes(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    big = 2**40
    # the kernel is spanned by (2^40, 0, -1), past one prime's reconstruction bound
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 7], [big, 2 * big, 3 * big]])
    assert m.left_kernel() == [[big, 0, -1]] or m.left_kernel() == [[-big, 0, 1]]
    assert primes_used(echelons) >= 2 and bareiss == []
    _check_left_kernel(m)
    # a bad prime: rank 1 modulo the engine's first prime, 2 over Q
    echelons.clear()
    bad = ExactMatrix.from_rows([[_P, 0], [0, 1], [_P, 1]])
    bad.left_kernel()
    assert primes_used(echelons) >= 2 and bareiss == []
    _check_left_kernel(bad)


@given(_integer_matrices())
@settings(max_examples=200, deadline=None)
def test_left_kernel_spans_the_bareiss_kernel(m):
    kernel = m.left_kernel()
    reference = bareiss_left_kernel(m.entries) if m.rows else []
    assert len(kernel) == len(reference)
    if kernel:  # the same row space: stacking adds no rank
        assert naive_rank(ExactMatrix.from_rows(kernel + reference, cols=m.rows)) == len(kernel)


def test_left_kernel_shapes():
    assert ExactMatrix.zero(0, 3).left_kernel() == []
    assert ExactMatrix.zero(2, 0).left_kernel() == [[1, 0], [0, 1]]
    assert ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).left_kernel() == []
    assert ExactMatrix.from_rows([[1, 2], [2, 4]]).left_kernel() in ([[2, -1]], [[-2, 1]])


def test_engine_prime_is_a_word_size_prime():
    supply = linalg._primes()
    folds = [next(supply) for _ in range(8)]
    assert folds[:6] == list(linalg._FOLDS) and folds == sorted(set(folds))
    for c in folds:
        p = 2**30 - c
        assert 2**29 < p < 2**30
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
    # no prime is skipped between them
    assert all(any(n % q == 0 for q in range(2, math.isqrt(n) + 1))
               for n in range(2**30 - folds[-1] + 1, 2**30) if 2**30 - n not in folds)


@given(st.lists(st.tuples(st.integers(-2**40, 2**40), st.integers(1, 2**40)), max_size=12),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_lift_reconstructs_under_a_common_denominator(fracs, primes):
    # every entry within the bound of the product of the first primes comes
    # back as l * n/d, l the lcm of the reduced denominators
    m = math.prod(2**30 - c for c in linalg._FOLDS[:primes])
    bound = math.isqrt((m - 1) // 2)
    values = [Fraction(n, d) for n, d in fracs]
    residues = [v.numerator * pow(v.denominator, -1, m) % m for v in values]
    lifted = linalg._lift(residues, m)
    if all(abs(v.numerator) <= bound and v.denominator <= bound for v in values):
        l = math.lcm(*[v.denominator for v in values])
        assert lifted == [int(v * l) for v in values]
    elif lifted is not None and math.gcd(residues[0], m) == 1:
        # another vector within the bound: still D times the residues mod m
        scale = lifted[0] * pow(residues[0], -1, m) % m
        assert all(x % m == scale * a % m for x, a in zip(lifted, residues))


def test_lift_keeps_every_entry_within_the_bound():
    # once the common denominator passes the bound (151 * 157 > 23170), an
    # entry x / D with |x| small need not be within the bound in lowest terms
    p = 2**30 - linalg._FOLDS[0]
    bound = math.isqrt((p - 1) // 2)
    for x in range(1, 40):
        residues = [1, pow(151, -1, p), pow(157, -1, p), x * pow(151 * 157, -1, p) % p]
        lifted = linalg._lift(residues, p)
        if lifted is not None:
            for y, a in zip(lifted, residues):
                f = Fraction(y, lifted[0])
                assert abs(f.numerator) <= bound and f.denominator <= bound
                assert f.numerator % p == a * f.denominator % p


def test_a_bad_prime_after_a_good_one_is_skipped(spy):
    # rank 2 over Q and modulo the first prime, rank 1 modulo the second;
    # the kernel vector (-50000, -1, 1) needs two primes: the first and third
    echelons = spy("linalg._echelon_mod_p")
    q = 2**30 - linalg._FOLDS[1]
    m = ExactMatrix.from_rows([[1, 0], [0, q], [50000, q]])
    assert m.left_kernel() in ([[-50000, -1, 1]], [[50000, 1, -1]])
    assert [args[2] for args in echelons] == list(linalg._FOLDS[:3])


def test_each_prime_is_folded_in_once_per_zero_row(spy):
    # the normalized vectors (-b/a, 1, 0) and (-c/a, 0, 1), entries near
    # 2**40, lift from three primes; the running CRT residues of each zero
    # row take one modular kernel vector a prime, not one per agreeing
    # prime again at every new prime
    echelons, vectors = spy("linalg._echelon_mod_p"), spy("linalg._left_kernel_mod_p")
    a, b, c = 2**40 + 15, 3**25, 5**17
    kernel = ExactMatrix.from_rows([[a], [b], [c]]).left_kernel()
    assert kernel == [[-b, a, 0], [-c, 0, a]]
    assert len(echelons) == 3 and len(vectors) <= 2 * 3


def _proven_primes(minors, bits):
    """The module docstring's (B + 1) G: B = minors ceil(bits / 29) bad
    primes, and G good ones whose product passes 2 H**2, H = 2**bits."""
    return (minors * math.ceil(bits / 29) + 1) * math.ceil((2 * bits + 2) / 29)


def test_a_kernel_that_never_certifies_stops_at_the_proven_primes(monkeypatch, spy):
    # no lifted vector ever passes its check: the search gives up after the
    # primes the proof allows, sized from the input, not after every prime
    echelons = spy("linalg._echelon_mod_p")
    m = ExactMatrix.from_rows([[1, 2], [2, 4], [3, 5]])
    bits = linalg._hadamard_bits(2, 5)  # 5 the largest entry
    assert 2**bits >= (5 * math.sqrt(2))**2  # the Hadamard bound
    monkeypatch.setattr(linalg, "_annihilates", lambda packed, vec: False)
    with pytest.raises(ArithmeticError):
        m.left_kernel()
    assert len(echelons) == _proven_primes(2, bits) == 3  # one elimination a prime
    # the first h-step of O(2): S_1 = M = [B^T ; A^T] is 4 x 3 with entries
    # 0 and 1, 3 pivot minors and D = 1; B^T's elimination and the resumed
    # one a prime, under the same failing check (one loop serves both)
    echelons.clear()
    p = kronecker_pencil((2,))
    with pytest.raises(ArithmeticError):
        splitting_type(p)
    bits = linalg._hadamard_bits(3, max(abs(x) for row in p.A.entries + p.B.entries for x in row))
    assert len(echelons) == 2 * _proven_primes(4, bits) == 10


def test_an_empty_kernel_returns_at_its_first_prime(spy):
    # no zero row modulo a prime proves rank = rows over Q: the empty basis
    # is returned there, whatever k asks for
    echelons = spy("linalg._echelon_mod_p")
    stack = stack_of([[1, 2, 3], [0, 1, 4], [5, 6, 0]], split=2)
    assert stack.kernel(None, 1, 4, 4, 3) == ({}, [linalg._FOLDS[0]])
    assert primes_used(echelons) == 1


def test_a_line_s_last_empty_step_runs_one_prime(monkeypatch):
    # the (3,3,9) jumping:2 line's h-steps use three primes each, and its
    # last, empty one stops at the first (it used to run all three)
    calls, kernel = [], linalg.KernelStack.kernel

    def recording(stack, *args):
        calls.append((args[2], kernel(stack, *args)))
        return calls[-1][1]

    monkeypatch.setattr(linalg.KernelStack, "kernel", recording)
    ctx = context(3, 3, 9)
    splitting_type(verlinde_pencil(ctx, sample_line(ctx, "jumping:2", seed=0)))
    *steps, (k, (basis, used)) = calls
    assert [len(u) for _, (_, u) in steps] == [3] * len(steps) and k == 3
    assert basis == {} and used == [linalg._FOLDS[0]]


def test_the_largest_entry_is_read_off_the_terms_once_a_stack(spy):
    # the stack reads its top when it is packed, and each kernel's third
    # prime bounds the minors by it; a stack that needs one prime bounds none
    hadamard = spy("linalg._hadamard_bits")
    a, b, c = 2**40 + 15, 3**25, 5**17
    stack = stack_of([[a], [b], [c]])
    assert stack.top == a
    assert stack.kernel([], 1, 1, 1, 1)[1] == list(linalg._FOLDS[:3])  # three primes
    assert stack.kernel([], 1, 1, 1, 1)[0] == {1: [-b, a, 0], 2: [-c, 0, a]}
    assert hadamard == [(1, a), (1, a)]
    plain = stack_of([[1, 2], [2, 4], [3, 5]])
    assert plain.top == 5 and plain.kernel([], 1, 1, 2, 2)[1] == [linalg._FOLDS[0]]
    assert len(hadamard) == 2


# ------------------------------------------ the packed-row modular kernel

def reference_echelon_mod_p(rows):
    """The list-based elimination the packed-row kernel replaced: one list
    of residues per working row, kept reversed so the current column pops,
    and every nonzero multiplier rebuilds the row entry by entry and is
    recorded as a (pivot number, f) pair."""
    p = _P
    rest_idx = list(range(len(rows)))
    rest = [[x % p for x in reversed(row)] for row in rows]
    mults = [[] for _ in rows]
    pivots = []
    for _ in range(len(rows[0])):
        for at, row in enumerate(rest):
            if row[-1]:
                break
        else:
            for row in rest:
                row.pop()
            continue
        pivots.append(rest_idx.pop(at))
        tail = rest.pop(at)
        inv = pow(tail.pop(), -1, p)
        if not rest:
            break
        for slot, row in enumerate(rest):
            e = row.pop()
            f = e * inv % p
            if f:
                mults[rest_idx[slot]].append((len(pivots) - 1, f))
                rest[slot] = [(x - f * y) % p for x, y in zip(row, tail)]
    return pivots, mults, rest_idx


def residues_mod_p(rows):
    return stack_of(rows)._rows_mod_p(_C)


def resumed(rows, cut):
    """``_echelon_mod_p`` of rows[:cut] as a base, resumed with rows[cut:]
    under the mask of the slots that are not the base's pivot columns; the
    base is left as it was."""
    width = len(rows[0])
    base = linalg._echelon_mod_p(residues_mod_p(rows[:cut]), width, _C)
    snapshot = repr(base)
    bits = linalg._packing(width)[0]
    keep = (1 << bits * width) - 1 - sum(((1 << bits) - 1) << s for s, _, _ in base[3])
    out = (linalg._echelon_mod_p(residues_mod_p(rows[cut:]), width, _C, base, keep)
           if cut < len(rows) else base)
    assert repr(base) == snapshot
    return out


def packed_echelon_mod_p(rows):
    """The packed elimination without a base, in the reference's terms."""
    pivots, mults, zero_rows, _ = linalg._echelon_mod_p(residues_mod_p(rows), len(rows[0]), _C)
    return pivots, mults, zero_rows


_C = linalg._FOLDS[0]  # the engine's first prime, 2**30 - _C
_P = 2**30 - _C
_EDGE_ENTRIES = (0, 1, -1, _P - 1, _P, -_P, 3 * _P, 2**40)


@st.composite
def _echelon_inputs(draw):
    """Nonempty integer row lists: the rank tests' integer matrices, or
    tall, wide, width-0 and width-1 grids of entries at the prime's edges,
    some rows all zero, in slots of 64 bits (widths 1-7) and 72 (8-14)."""
    if draw(st.booleans()):
        m = draw(_integer_matrices())
        if m.rows:
            return m.entries
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(0, 14))
    grid = draw(st.lists(st.lists(st.sampled_from(_EDGE_ENTRIES), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
        grid[i] = [0] * cols
    return grid


@given(_echelon_inputs())
@settings(max_examples=400, deadline=None)
def test_packed_echelon_matches_reference(rows):
    assert packed_echelon_mod_p(rows) == reference_echelon_mod_p(rows)


@pytest.mark.parametrize("rows", [
    [[]], [[], [], []],                                   # width 0
    [[0]], [[_P]], [[-1]], [[0], [3 * _P], [5], [-5]],    # width 1
    [[0, 0, 0], [0, 0, 0]],                               # all zero
    [[1, 2], [2, 4], [0, _P - 1], [_P, 1], [2**40, 7]],  # tall
    [[0, 0, 2**40, -_P, 1, _P - 1, 0, 9]],               # wide, one row
])
def test_packed_echelon_edge_shapes(rows):
    assert packed_echelon_mod_p(rows) == reference_echelon_mod_p(rows)


@given(_echelon_inputs(), st.data())
@settings(max_examples=300, deadline=None)
def test_resumed_echelon_gives_the_stacked_kernel_mod_p(rows, data):
    # eliminating rows[:cut] once and resuming it with rows[cut:] finds the
    # reference's pivot rows and zero rows mod p, and each zero row's
    # vector is the reference's and kills them mod p
    cut = data.draw(st.integers(1, len(rows)))
    width = len(rows[0])
    pivots, mults, zero_rows, _ = resumed(rows, cut)
    ref_pivots, ref_mults, ref_zero_rows = reference_echelon_mod_p(rows)
    assert sorted(pivots) == sorted(ref_pivots) and zero_rows == ref_zero_rows
    assert sorted(pivots + zero_rows) == list(range(len(rows)))
    assert len(zero_rows) == len(packed_echelon_mod_p(rows)[2])
    for i in zero_rows:
        z = linalg._left_kernel_mod_p(i, pivots, mults, _P)
        assert z == linalg._left_kernel_mod_p(i, ref_pivots, ref_mults, _P)
        assert len(z) == len(rows) and [j for j in zero_rows if z[j]] == [i] and z[i] == 1
        for c in range(width):
            assert sum(r * row[c] for r, row in zip(z, rows)) % _P == 0


def test_packed_echelon_on_a_reference_cell_pencil():
    ctx = context(3, 4, 8)
    pencil = verlinde_pencil(ctx, sample_line(ctx, "random", seed=0))
    rows = vstack(pencil.A.transpose(), pencil.B.transpose()).entries
    assert (len(rows), len(rows[0])) == (70, 165)
    assert packed_echelon_mod_p(rows) == reference_echelon_mod_p(rows)


def test_only_updated_pivot_rows_are_folded(monkeypatch):
    # every row of B^T at (3,4,8) becomes a pivot before any update, so
    # its elimination folds nothing; [A^T ; B^T]'s updated pivots fold
    ctx = context(3, 4, 8)
    pencil = verlinde_pencil(ctx, sample_line(ctx, "random", seed=0))
    fold, folds, bt = linalg._fold, [], pencil.B.transpose().entries

    def tail_fold(*args):  # a fold inside _residues is a dead row's, not a pivot tail's
        if sys._getframe(1).f_code.co_name != "_residues":
            folds.append(args)
        return fold(*args)

    monkeypatch.setattr(linalg, "_fold", tail_fold)
    assert packed_echelon_mod_p(bt) == reference_echelon_mod_p(bt)
    assert folds == []
    rows = vstack(pencil.A.transpose(), pencil.B.transpose()).entries
    assert packed_echelon_mod_p(rows) == reference_echelon_mod_p(rows)
    assert 0 < len(folds) < len(rows)


# ------------------------------------------- dead rows cleared in one step

def reference_records(rows, cut):
    """The reference elimination of rows[:cut], resumed with rows[cut:] as
    the packed kernel resumes a base: each later row reduced by the earlier
    pivots in order, then those rows eliminated among themselves, column by
    column, the first row nonzero there pivoting.  Returns the pivots,
    multipliers and zero rows, and each pivot's record (column, residues
    of its row right of that column, inverse)."""
    p, width = _P, len(rows[0])
    pivots, mults, zero_rows, records = [], [[] for _ in rows], [], []
    for part in (range(cut), range(cut, len(rows))):
        rest = []
        for i in part:
            row = [x % p for x in rows[i]]
            for k, (col, tail, inv) in enumerate(records):
                f = row[col] * inv % p
                if f:
                    mults[i].append((k, f))
                    row[col:] = [0] + [(x - f * y) % p for x, y in zip(row[col + 1:], tail)]
            rest.append((i, row))
        for col in range(width):
            at = next((j for j, (_, row) in enumerate(rest) if row[col]), None)
            if at is None:
                continue
            i, prow = rest.pop(at)
            pivots.append(i)
            tail, inv = prow[col + 1:], pow(prow[col], -1, p)
            records.append((col, tail, inv))
            for r, row in rest:
                f = row[col] * inv % p
                if f:
                    mults[r].append((len(pivots) - 1, f))
                    row[col:] = [0] + [(x - f * y) % p for x, y in zip(row[col + 1:], tail)]
        zero_rows += [i for i, _ in rest]
    return pivots, mults, zero_rows, records


def packed_records(rows, cut):
    """``_echelon_mod_p`` of rows[:cut], resumed with rows[cut:], in the
    reference's terms: each record's slot shift as a column, and its tail's
    slots reduced mod p."""
    width = len(rows[0])
    bits = linalg._packing(width)[0]
    pivots, mults, zero_rows, records = resumed(rows, cut)
    columns = []
    for shift, tail, inv in records:
        col = width - 1 - shift // bits
        columns.append((col, [(tail >> bits * (width - 1 - j) & (1 << bits) - 1) % _P
                              for j in range(col + 1, width)], inv))
    return pivots, mults, zero_rows, columns


@st.composite
def _stacks_with_dead_rows(draw):
    """An elimination input with rows planted among its rows that are
    integer combinations of them, so that they die with their slots
    multiples of p, and a cut for resuming."""
    rows = draw(_echelon_inputs())
    width = len(rows[0])
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.sampled_from((0, 1, -1, 2, -3, _P - 1, 2**20)),
                               min_size=len(rows), max_size=len(rows)))
        dead = [sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), dead)
    return rows, draw(st.integers(1, len(rows)))


@given(_stacks_with_dead_rows())
@settings(max_examples=400, deadline=None)
def test_dead_rows_leave_the_whole_records_as_the_reference(stack):
    rows, cut = stack
    assert packed_records(rows, len(rows)) == reference_records(rows, len(rows))
    assert packed_records(rows, cut) == reference_records(rows, cut)


def test_a_dead_row_is_cleared_in_one_step(spy):
    # the third row is 5 r1 + 3 r2: after both updates its slots are
    # nonzero multiples of p, and one exact reduction clears all four
    r1, r2 = [1, 2, 3, 4, 5, 6], [0, 1, 7, 2, 9, 4]
    rows = [r1, r2, [5 * a + 3 * b for a, b in zip(r1, r2)]]
    reductions = spy("linalg._residues")
    records = packed_records(rows, 3)
    assert records == reference_records(rows, 3)
    assert records[2] == [2] and len(reductions) == 1


# p just above 2**31 / 3, and the last prime ``_primes`` reaches, just above
# 2**29: slots below 2**31 take two and three subtractions of p there
_WIDE_FOLDS = (next(c for c in range(2**30 - 2**31 // 3 - 1, 0, -2) if linalg._is_prime_fold(c)),
               next(c for c in range(2**29 - 1, 0, -2) if linalg._is_prime_fold(c)))


@given(st.sampled_from((1, 7, 8, 2048)), st.sampled_from(linalg._FOLDS + _WIDE_FOLDS), st.data())
@settings(max_examples=300, deadline=None)
def test_residues_reduce_every_slot_exactly(width, c, data):
    # slots of every size a packed row holds, in slots of 64, 72 and 80 bits;
    # near the top, the folds can leave a slot at 2p or more when p is near 2**29
    bits, p = linalg._packing(width)[0], 2**30 - c
    value = st.one_of(st.integers(0, 2**bits - 1), st.integers(2**(bits - 2), 2**bits - 1),
                      st.sampled_from((p, 2 * p, 3 * p - 1, 2**31 - 1, 2**31, 2**bits - 1)))
    slots = data.draw(st.dictionaries(st.integers(0, width - 1), value, max_size=6))
    x = sum(v << bits * j for j, v in slots.items())
    assert linalg._residues(x, width, c) == sum(v % p << bits * j for j, v in slots.items())


# ------------------------------------ the exact packing and its uses

_PACK_EDGES = _EDGE_ENTRIES + (2**29 - 1, -(2**29 - 1), 2**29, -2**29, 2**31, -2**31, -2**40,
                               2**28 - 1, -(2**28 - 1), 2**28, -2**28)


@given(st.integers(0, 12).flatmap(lambda cols: st.lists(
           st.lists(st.one_of(st.sampled_from(_PACK_EDGES), st.integers(-2**29, 2**29)),
                    min_size=cols, max_size=cols), min_size=1, max_size=8)),
       st.sampled_from(linalg._FOLDS + (297,)))
@settings(max_examples=200, deadline=None)
def test_pack_is_exact_and_its_residues_match_the_per_entry_packer(rows, c):
    # the stack's one packer: the first prime's residues R from one join,
    # N read off them while every |x| < 2**28, the rows exactly in slots of
    # b and 2b bits, and every prime's residues the per-entry packer's
    stack, width = stack_of(rows), len(rows[0])
    bits = linalg._packing(width)[0]
    narrow = all(abs(x) < 2**28 for row in rows for x in row)
    assert stack.top == max([abs(x) for row in rows for x in row], default=0)
    assert (stack.marks is not None) == narrow
    if narrow:
        assert stack.marks == [sum(1 << bits * (width - 1 - j) for j, x in enumerate(row) if x < 0)
                               for row in rows]
    for m in (1, 2):
        assert stack._exact_rows(m) == [sum(x << m * bits * (width - 1 - j)
                                            for j, x in enumerate(row)) for row in rows]
    assert stack._rows_mod_p(c) == per_entry_pack_mod_p(rows, c)


def test_pack_mod_p_matches_on_a_pencil_and_a_differential():
    # the terms of a line's pencil and of a Jacobian pack as their dense rows
    ctx = context(3, 4, 8)
    pencil = verlinde_pencil(ctx, sample_line(ctx, "random", seed=0))
    count, width, terms = _differential(*_trial_point(3, 5, 0, 0))
    for stack, rows in ((linalg.KernelStack(pencil.u, 2 * pencil.u, pencil.w, pencil._terms),
                         vstack(pencil.A.transpose(), pencil.B.transpose()).entries),
                        (linalg.KernelStack(0, count, width, terms),
                         linalg._dense(count, width, terms))):
        dense = stack_of(rows)
        assert stack.marks is not None and stack.marks == dense.marks  # the fast path
        assert stack._exact_rows(1) == dense._exact_rows(1)
        for c in linalg._FOLDS[:2]:
            assert stack._rows_mod_p(c) == per_entry_pack_mod_p(rows, c)


_RANK_EDGES = _PACK_EDGES + (-2**29 - 1, 2**31 - 1, -2**31 - 1, -_P - 1, -3 * _P)


def _terms_of(rows):
    """``_rank_mod_p``'s terms for int rows: each nonzero cell joins the
    chain of its value that ended in the row above, if one did, else starts
    a chain; a chain is one term over consecutive rows, as a coefficient of
    ``_differential`` spans the rows of its product table."""
    chains, ended = [], {}  # ended: value -> the chain whose last cell is in the row above
    for i, row in enumerate(rows):
        ending = {}
        for j, x in enumerate(row):
            if x:
                chain = ended.pop(x, None) or []
                if not chain:
                    chains.append((x, i, chain))
                chain.append(j)
                ending.setdefault(x, chain)
        ended = ending
    return [(x, i, min(cols), [j - min(cols) for j in cols]) for x, i, cols in chains]


@st.composite
def _rank_rows(draw):
    """Rows for ``_rank_mod_p``: entries at the [-2**29, 2**29) edges, past
    2**31 and below -p, all-zero rows, and rows that repeat the row above
    rotated, so that a value's cells chain over several rows."""
    cols = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from(_RANK_EDGES), st.integers(-2**29, 2**29))
    rows = draw(st.lists(st.one_of(st.just([0] * cols), st.lists(entry, min_size=cols,
                                                                 max_size=cols)),
                         min_size=1, max_size=10))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            shift = draw(st.integers(0, cols - 1))
            rows[i] = rows[i - 1][shift:] + rows[i - 1][:shift]
    return rows


@given(_rank_rows())
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_packs_in_one_pass_what_the_two_packers_give(rows):
    # from its terms it feeds the elimination the per-entry packer's
    # residues, and its rank is theirs and that of a stack's residues
    width, fed, echelon = len(rows[0]), [], linalg._echelon_mod_p
    terms = _terms_of(rows)
    assert linalg._dense(len(rows), width, terms) == rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_echelon_mod_p", lambda rest, *args: fed.append(rest[:]) or echelon(
            rest, *args))
        rank = linalg._rank_mod_p(len(rows), width, terms)
    assert fed == [per_entry_pack_mod_p(rows, _C)]
    assert rank == len(echelon(per_entry_pack_mod_p(rows, _C), width, _C)[0])
    assert rank == len(echelon(stack_of(rows)._rows_mod_p(_C), width, _C)[0])
    assert linalg.KernelStack(0, len(rows), width, terms)._rows_mod_p(_C) == fed[0]


def test_terms_of_chains_repeated_values_over_rows():
    # the test-side term builder makes terms of several slots
    terms = _terms_of([[0, 7, 7], [7, 0, 0], [0, 0, 7]])
    assert sorted(terms) == [(7, 0, 0, [1, 0, 2]), (7, 0, 2, [0])]


@given(_rank_rows(), st.sampled_from(linalg._FOLDS + _WIDE_FOLDS), st.data())
@settings(max_examples=200, deadline=None)
def test_stack_packs_its_terms_as_each_entry_reduced_and_each_column_summed(rows, c, data):
    # from terms of several slots: every prime's residues are the entries'
    # x % p, and vec . (the exact rows in slots of b m bits) is the column
    # sums in those slots, for the m that _annihilates reads
    width = len(rows[0])
    stack = linalg.KernelStack(0, len(rows), width, _terms_of(rows))
    assert stack._rows_mod_p(c) == per_entry_pack_mod_p(rows, c)
    vec = data.draw(st.lists(st.integers(-2**70, 2**70), min_size=len(rows), max_size=len(rows)))
    sums = [sum(map(mul, vec, col)) for col in zip(*rows)]
    bits = linalg._packing(width)[0]
    m = (stack.top * (sum(map(abs, vec)) or 1)).bit_length() // bits + 1
    assert sum(map(mul, vec, stack._exact_rows(m))) == sum(
        s << bits * m * (width - 1 - j) for j, s in enumerate(sums))
    assert linalg._annihilates(stack, vec) == (not any(sums))


@given(_integer_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_annihilates_agrees_with_the_dense_check(m, data):
    if not m.rows:
        return
    stack = stack_of(m.entries)
    coeff = st.integers(-2**120, 2**120) if data.draw(st.booleans()) else st.integers(-9, 9)
    vecs = [data.draw(st.lists(coeff, min_size=m.rows, max_size=m.rows))]
    for z in m.left_kernel():  # kernel vectors, then each with one entry nudged
        i = data.draw(st.integers(0, m.rows - 1))
        vecs += [z, z[:i] + [z[i] + 1] + z[i + 1:]]
    for vec in vecs:
        assert linalg._annihilates(stack, vec) == dense_annihilates(m.entries, vec)


_B = linalg._packing(2)[0]  # the slot size of two columns


@pytest.mark.parametrize("rows,vec", [
    ([[-1, 0], [0, 1]], [1, 2**_B]),                            # small rows, a vector past the bound
    ([[-1, 0], [0, 2**(_B // 2)]], [1, 2**(_B // 2)]),          # a wide row
    ([[-2**28, 0], [0, 2**28]], [2**(_B - 28), 2**(2 * _B - 28)]),  # slot sums past 2**_B
])
def test_annihilates_rejects_slot_sums_that_cancel_by_a_carry(rows, vec):
    # the column sums are (-s, 2**_B s), s != 0, so in one slot of _B bits
    # sum vec_i E_i is 0
    sums = [sum(map(mul, vec, col)) for col in zip(*rows)]
    assert sums[1] == -(sums[0] << _B) != 0
    assert sum(map(mul, vec, linalg._exact(len(rows), 2, entry_terms(rows), 1))) == 0
    assert not linalg._annihilates(stack_of(rows), vec)
    assert not dense_annihilates(rows, vec)


@pytest.mark.parametrize("scale", [1, 2**40, 2**90])
def test_splitting_type_is_scale_invariant_past_the_fast_pack(scale):
    # c (s A + t B) has the cokernel of s A + t B; at 2**40 the nonzero
    # rows are wide, at 2**90 every kernel check also takes wider slots
    ctx = context(2, 3, 5)
    p = verlinde_pencil(ctx, sample_line(ctx, "jumping:1", seed=0))
    scaled = Pencil(p.A.scale(scale), p.B.scale(scale))
    stack = linalg.KernelStack(scaled.u, 2 * scaled.u, scaled.w, scaled._terms)
    assert (stack.marks is None) == (scale > 1)
    assert splitting_type(scaled) == splitting_type(p)
    assert scaled.A.rank() == p.A.rank()


_P0 = 2**30 - linalg._FOLDS[0]


@st.composite
def _kernel_stacks(draw):
    """(A, B, T, den) for ``KernelStack``: entries small, to make rows
    dependent, or up to 2**40, so rows pack wide; T None (L = I) or any
    rows as long as A; den any, or a multiple of the first prime."""
    entry = st.one_of(st.integers(-2, 2), st.integers(-2**40, 2**40))
    width, na = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    nb = draw(st.integers(0 if na else 1, 4))
    a, b = (draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=n, max_size=n))
            for n in (na, nb))
    if draw(st.booleans()):
        return a, b, None, 1
    t = draw(st.lists(st.lists(entry, min_size=na, max_size=na), max_size=4))
    den = draw(st.one_of(st.integers(1, 2**40), st.integers(1, 2**10).map(lambda x: x * _P0)))
    return a, b, t, den


@given(_kernel_stacks())
@settings(max_examples=300, deadline=None)
def test_kernel_stack_matches_bareiss_for_any_feed(stack):
    # M = [B ; (T / den) A]: den M = [den B ; T A] has the same left kernel
    a, b, t, den = stack
    width = len((a or b)[0])
    ta = a if t is None else [[sum(x * row[j] for x, row in zip(r, a)) for j in range(width)]
                              for r in t]
    rows = [[den * x for x in row] for row in b] + ta
    n = len(rows)
    # a generous cap: the test checks the basis, not the proven bound
    kernel, used = stack_of(a + b, len(a)).kernel(t, den, 1, n + 1, 2 * n + 8)
    assert len(kernel) == n - linalg._bareiss_rank(rows)
    for i, vec in kernel.items():
        y, c = vec[:len(b)], vec[len(b):]
        assert len(c) == len(ta) and vec[i] and not any(vec[j] for j in kernel if j != i)
        assert dense_annihilates(rows, y + c)  # den y B + c T A = 0
    assert linalg._FOLDS[0] not in used or den % _P0


def _runs(monkeypatch):
    """The (cuts, result) of each ``KernelStack._certify`` run, as made:
    a kernel's run on its kept slots, then one on full rows if that gave
    way (None)."""
    runs, certify = [], linalg.KernelStack._certify

    def recording(stack, *args):
        runs.append((args[-1], certify(stack, *args)))
        return runs[-1][1]

    monkeypatch.setattr(linalg.KernelStack, "_certify", recording)
    return runs


def test_a_cut_that_loses_rank_is_caught_and_the_kernel_made_on_full_rows(monkeypatch):
    # B = (1, 0, ..., 0) pivots in the top slot, so the two new rows keep
    # the slots down to 2 + c below it and the last c go: there the row
    # (0, ..., 0, 1) reads zero, a spurious zero row beside the true one,
    # (2, 0, ..., 0) = 2 B.  Its vector fails its check, the mod-p check
    # against the full rows at that first failed lift finds the miss, and
    # the kernel is made again on full rows
    c = linalg._MARGIN
    width = 2 * c + 3
    b, a1, a2 = [1] + [0] * (width - 1), [0] * (width - 1) + [1], [2] + [0] * (width - 1)
    fed, echelon = [], linalg._echelon_mod_p

    def feeding(rest, width, c, base=None, keep=None):
        if base is not None:  # the new rows, as they are eliminated
            fed.append(rest[:])
        return echelon(rest, width, c, base, keep)

    monkeypatch.setattr(linalg, "_echelon_mod_p", feeding)
    stack, runs = stack_of([a1, a2, b], split=2), _runs(monkeypatch)
    full = stack._rows_mod_p(linalg._FOLDS[0])[:2]
    cut = [r >> linalg._packing(width)[0] * c for r in full]
    kernel, used = stack.kernel(None, 1, 1, 3, 3)
    assert fed == [cut, full] and not cut[0]
    assert runs == [(True, None), (False, (kernel, used))]
    assert kernel == {2: [-2, 0, 1]} and used == [linalg._FOLDS[0]]
    assert len(kernel) == 3 - linalg._bareiss_rank([b, a1, a2])
    assert stack_of([a1, a2, b], split=2)._certify(None, 1, 1, 3, 3, False) == (kernel, used)
    fed.clear()  # the next kernel cuts again, gives way again and has the same result
    assert stack.kernel([[1, 0], [0, 1]], 1, 1, 3, 3) == (kernel, used) and fed == [cut, full]


@pytest.mark.parametrize("at", [0, 1])
def test_a_cut_that_misses_at_one_prime_is_caught_where_the_loop_leaves_it(at, monkeypatch):
    # (0, q, 0, ..., 0, 1), q the first or second prime, reads zero on its
    # kept slots modulo q only, and k = 2.  At the first, the spurious zero
    # rows start a run that the second prime's starts afresh; at the second,
    # they are more than the run's and that prime is skipped.  Either way
    # the cut gives way, and the kernel is made on full rows, with their
    # primes
    c = linalg._MARGIN
    width = 2 * c + 3
    b, a2 = [1] + [0] * (width - 1), [2] + [0] * (width - 1)
    a1 = [0, 2**30 - linalg._FOLDS[at]] + [0] * (width - 3) + [1]
    expected = ({2: [-2, 0, 1]}, list(linalg._FOLDS[:2]))
    assert stack_of([a1, a2, b], split=2)._certify(None, 1, 2, 3, 3, False) == expected
    runs = _runs(monkeypatch)
    assert stack_of([a1, a2, b], split=2).kernel(None, 1, 2, 3, 3) == expected
    assert runs == [(True, None), (False, expected)]


def test_a_cut_run_that_reaches_the_prime_cap_gives_way_to_full_rows(monkeypatch):
    # (0, ..., 0, q), q the first prime, reads zero on its kept slots at
    # every prime, and at full width modulo q: the check at the first
    # failed lift passes, and the cut run goes on to the prime cap, shrunk
    # to two primes.  It gives way rather than raise, and on full rows the
    # second prime starts afresh and certifies
    c = linalg._MARGIN
    width = 2 * c + 3
    b, a2 = [1] + [0] * (width - 1), [2] + [0] * (width - 1)
    a1 = [0] * (width - 1) + [_P0]
    holds, check = [], linalg.KernelStack._holds
    monkeypatch.setattr(linalg.KernelStack, "_holds",
                        lambda stack, *args: holds.append(check(stack, *args)) or holds[-1])
    monkeypatch.setattr(linalg, "_hadamard_bits", lambda n, top: 0)  # cap = max(k, 1) = 1
    runs = _runs(monkeypatch)
    expected = ({2: [-2, 0, 1]}, [linalg._FOLDS[1]])
    assert stack_of([a1, a2, b], split=2).kernel(None, 1, 1, 3, 3) == expected
    assert runs == [(True, None), (False, expected)] and holds == [True]


@st.composite
def _cut_stacks(draw):
    """(A, B, T, den) whose new rows a cut shrinks: B's row j leads at
    column j, so its pivots are top slots, and the width leaves at least c
    slots to cut.  Entries are mostly 0, small, or 2**28 to 2**40 in size,
    so each prime joins its own residues; a row of A may be nonzero only in
    its last c slots, to make the cut lose rank, or a large multiple of B's
    first row plus one of A's first, whose vector takes several primes."""
    c = linalg._MARGIN
    width, na, nb = draw(st.integers(2 * c + 8, 4 * c + 8)), draw(st.integers(1, 3)), draw(
        st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-2, 2), st.integers(2**28, 2**40),
                      st.integers(-2**40, -2**28))
    row = st.lists(entry, min_size=width, max_size=width)
    b = [[0] * j + [draw(entry.filter(bool))] + draw(row)[j + 1:] for j in range(nb)]
    a = [[0] * (width - c) + draw(row)[-c:] if draw(st.booleans()) else draw(row) for _ in range(na)]
    if draw(st.booleans()):
        s, t = draw(st.integers(2**30, 2**45)), draw(st.integers(2**30, 2**45))
        a.append([s * x + t * y for x, y in zip(b[0], a[0])])
    if draw(st.booleans()):
        return a, b, None, 1
    t = draw(st.lists(st.lists(entry, min_size=len(a), max_size=len(a)), min_size=1, max_size=3))
    return a, b, t, draw(st.one_of(st.integers(1, 2**40), st.just(_P0)))


@given(_cut_stacks())
@settings(max_examples=100, deadline=None)
def test_a_cut_kernel_is_the_full_rows_kernel(stack):
    # the same {zero row: vector} and the same primes as on full rows,
    # whether the cut run stands or gives way (None) and the kernel is
    # made again
    a, b, t, den = stack
    n = len(b) + (len(a) if t is None else len(t))
    args = (t, den, 1, n + 1, 2 * n + 8)
    kernel, used = stack_of(a + b, len(a))._certify(*args, False)
    assert stack_of(a + b, len(a)).kernel(*args) == (kernel, used)
    assert stack_of(a + b, len(a))._certify(*args, True) in (None, (kernel, used))
    ta = a if t is None else [[sum(x * r[j] for x, r in zip(row, a)) for j in range(len(a[0]))]
                              for row in t]
    assert len(kernel) == n - linalg._bareiss_rank([[den * x for x in row] for row in b] + ta)


def test_a_large_planted_line_is_cut_and_keeps_its_type(monkeypatch):
    # (3,4,11) jumping:2, u = 120 and w = 364: its steps cut their rows (a
    # mask shifted right is smaller than the full one), no cut gives way,
    # and its type is type_from_gcd's and that of full rows
    ctx = context(3, 4, 11)
    line = sample_line(ctx, "jumping:2", seed=0)
    keeps, echelon = [], linalg._echelon_mod_p
    monkeypatch.setattr(linalg, "_echelon_mod_p", lambda rest, width, c, base=None, keep=None:
                        keeps.append(keep) or echelon(rest, width, c, base, keep))
    runs = _runs(monkeypatch)
    st_ = splitting_type(verlinde_pencil(ctx, line))
    cut = [keep for keep in keeps if keep is not None]
    assert st_ == type_from_gcd(ctx, 2) and runs and all(result for _, result in runs)
    keeps.clear()
    monkeypatch.setattr(linalg, "_MARGIN", ctx.w)  # no slot cut
    assert splitting_type(verlinde_pencil(ctx, LineInSystem(line.f1, line.f2))) == st_
    full = [keep for keep in keeps if keep is not None]
    assert len(cut) == len(full) and all(x <= y for x, y in zip(cut, full))
    assert any(x < y for x, y in zip(cut, full))


def test_every_kernel_of_the_criteria_lines_is_the_full_rows_kernel(monkeypatch):
    # the seed-0 criteria suite's line specs, whose cells mostly cut
    # nothing, and two (3,4,10) random lines, whose first steps pass the
    # check at their first failed lift: each kernel is also made on full
    # rows alone, on the same stack
    specs = suites._line_specs(0) + [(3, 4, 10, "random", f"cut:{i}") for i in range(2)]
    pairs, kernel = [], linalg.KernelStack.kernel
    holds, check = [], linalg.KernelStack._holds

    def checked(stack, *args):
        found = kernel(stack, *args)
        pairs.append((found, stack._certify(*args, False)))
        return found

    monkeypatch.setattr(linalg.KernelStack, "kernel", checked)
    monkeypatch.setattr(linalg.KernelStack, "_holds",
                        lambda stack, *args: holds.append(check(stack, *args)) or holds[-1])
    for n, d, k, mode, case_seed in specs:
        ctx = context(n, d, k)
        splitting_type(verlinde_pencil(ctx, sample_line(ctx, mode, seed=case_seed)))
    assert len(pairs) > len(specs) and all(found == full for found, full in pairs)
    assert holds and all(holds)


@pytest.mark.parametrize("width,bits", [(1, 64), (7, 64), (8, 72), (2047, 72), (2048, 80)])
def test_slot_size_is_the_fewest_bytes_past_the_carry_bound(width, bits):
    # a slot starts under 2**31 and takes at most width updates under 2**61
    assert linalg._packing(width)[0] == bits
    assert 2**31 + width * 2**61 < 2**bits
    assert not 2**31 + width * 2**61 < 2**(bits - 8)


def test_fold_keeps_packed_slots_apart():
    for width in (7, 8, 2048):  # slots of 64, 72 and 80 bits
        bits, lo, hi, _ = linalg._packing(width)
        for c in linalg._FOLDS + (297, 10**6 + 3):  # the first primes, then larger folds
            p = 2**30 - c
            # 2**30 = c (mod p) is what lets a fold replace a slot's high part
            assert 2**30 % p == c
            # folded slots are < 2**31 and multipliers < p, so a slot takes
            # width updates without carrying into its neighbour
            assert 2**31 + width * (p - 1) * 2**31 < 2**bits
            assert c >= 2**7 or linalg._fold_rounds(c, bits) == (2 if bits <= 72 else 3)
            for full in (2**bits - 1, 2**(bits - 1) + 2**(bits - 30) - 1, 2**31 - 1):
                packed = int.from_bytes(full.to_bytes(bits // 8, "big") * width, "big")
                folded = linalg._fold(packed, lo, hi, c, bits).to_bytes(width * bits // 8, "big")
                for j in range(0, len(folded), bits // 8):
                    s = int.from_bytes(folded[j:j + bits // 8], "big")
                    assert s < 2**31 and s % p == full % p


def test_bad_prime_takes_a_second_prime(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    # rank 2 over Q, rank 1 modulo the engine's first prime
    m = ExactMatrix.from_rows([[_P, 0], [0, 1]])
    assert m.rank() == naive_rank(m) == 2
    assert m.transpose().rank() == 2
    assert primes_used(echelons) == 2 and bareiss == []


def test_kernel_past_reconstruction_bound_combines_primes(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    # The engine takes kernel vectors on the short side (rows when square).
    # Third row 2^40 times the first: that kernel is spanned by
    # (2^40, 0, -1), past one prime's reconstruction bound.
    big = 2**40
    square = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 7], [big, 2 * big, 3 * big]])
    assert square.rank() == naive_rank(square) == 2
    assert primes_used(echelons) >= 2 and bareiss == []
    # tall, third column 2^40 times the first: the same kernel on the columns
    echelons.clear()
    tall = ExactMatrix.from_rows([[1, 4, big], [2, 5, 2 * big], [3, 7, 3 * big], [1, 1, big]])
    assert tall.rank() == naive_rank(tall) == 2
    assert primes_used(echelons) >= 2 and bareiss == []


def test_deficient_rank_certified_without_fallback(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [5, 7, 9], [2, 4, 6]])
    assert m.rank() == m.transpose().rank() == 2
    assert primes_used(echelons) == 1 and bareiss == []


def test_line_queries_stay_modular(spy):
    echelons, bareiss = spy("linalg._echelon_mod_p"), spy("linalg._bareiss")
    ctx = context(2, 3, 5)
    line = sample_line(ctx, "random", seed="modular-only")
    splitting_type(verlinde_pencil(ctx, line))
    zero_count(ctx, line)
    is_generic_type(ctx, line)
    assert primes_used(echelons) == 1 and bareiss == []


# ------------------------------------- the scalar normal form, int matrices

def _all_int(rows):
    return all(type(x) is int for row in rows for x in row)


def test_integer_line_stays_integer(spy):
    ctx = context(2, 3, 5)
    line = sample_line(ctx, "random", seed="normal-form")
    pencil = verlinde_pencil(ctx, line)
    assert _all_int(mult_matrix(line.f1, ctx.k - ctx.d).entries)
    assert _all_int(pencil.at(3, -7).entries)
    assert _all_int(sylvester_block(pencil, 2).entries)
    # the Jacobian's columns as _dim_at packs them, with no constructor check
    packed = spy("linalg._rank_mod_p")
    dim_z_jacobian(2, 3, trials=1)
    assert packed and all(type(x) is int for _, _, terms in packed for x, *_ in terms)


def test_scalar_normal_form():
    assert [type(scalar(x)) for x in (3, Fraction(6, 2), "4/2", True)] == [int] * 4
    assert scalar("3/6") == Fraction(1, 2)
    with pytest.raises(ValueError):
        scalar(0.1)  # Fraction() would read its binary fraction
    # a matrix takes no scalar but an int, not even an integral Fraction
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[Fraction(4, 2), 1]])


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 2.0, True, "3"])
def test_matrix_refuses_non_int_entries(bad):
    with pytest.raises(ValueError, match="must be ints"):
        ExactMatrix(2, 2, [[1, 0], [0, bad]])
    with pytest.raises(ValueError, match="must be ints"):
        ExactMatrix.from_rows([[bad, 1]])


def test_scale_and_specialization_refuse_fractions():
    m = ExactMatrix.from_rows([[1, 0], [0, 1]])
    assert m.scale(-3).entries == [[-3, 0], [0, -3]]
    with pytest.raises(ValueError):
        m.scale(Fraction(1, 2))
    pencil = Pencil(m, ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert pencil.at(2, 1).entries == [[2, 1], [1, 2]]
    with pytest.raises(ValueError):
        pencil.at(Fraction(1, 2), 1)


def test_mult_matrix_refuses_a_rational_form():
    f = parse_form("1/2*x0*x1 + 3*x2^2", 2)
    with pytest.raises(ValueError):
        mult_matrix(f, 1)
    assert _all_int(mult_matrix(f.scale(2), 1).entries)


def test_divisions_stay_exact_on_integer_input():
    # (x + 6)(4x + 3) and (x + 6)(7x - 4): Euclid with float division leaves
    # a rounding residue and reads gcd degree 0; the remainder sequence
    # divides only by contents, exactly
    assert _univariate_gcd_degree([4, 27, 18], [7, 38, -24]) == 1
    # x0 = s/3 + t: the packed evaluation's one division gives exact scalars
    line = [(Fraction(1, 3), 1), (0, 0), (0, 0)]
    r = binary_coeffs(restrict_to_line(parse_form("x0^2", 2), line))
    assert r == [Fraction(1, 9), Fraction(2, 3), 1] and type(r[2]) is int
