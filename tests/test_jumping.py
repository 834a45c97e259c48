from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import jumping, suites
from verlinde.jumping import (
    DESK_SCALE_N,
    _differential,
    _dim_at,
    _middle_record,
    _trial_point,
    bookkeeping_dim,
    class_from_formula,
    class_from_pushpull,
    dim_z_formula,
    dim_z_jacobian,
    reconcile,
)
from verlinde.linalg import ExactMatrix, _bareiss_rank, _dense
from verlinde.polynomials import mult_matrix
from verlinde.schubert import GrContext, SchubertClass

# every (n, d) with n in {2, 3} that reconcile accepts
DESK_PAIRS = [(2, d) for d in range(2, 10)] + [(3, d) for d in range(2, 6)]


def pluecker_dim(g1, g2, h):
    """dim Z at (g1, g2, h) from the Pluecker parametrization itself: the
    rank of the Jacobian of the C(N,2) minors a_i b_j - a_j b_i of
    (a, b) = (h*g1, h*g2) in (g1, g2, h), less the cone direction."""
    mh = mult_matrix(h, 1).entries           # N x (n+1)
    mg1 = mult_matrix(g1, h.degree).entries  # N x D
    mg2 = mult_matrix(g2, h.degree).entries
    n, N, D = h.n, len(mh), len(mg1[0])
    a, b = ([sum(map(mul, row, g.coeff_vector())) for row in mh] for g in (g1, g2))
    rows = []
    for i in range(N):
        for j in range(i + 1, N):
            row = [mh[i][t] * b[j] - mh[j][t] * b[i] for t in range(n + 1)]
            row += [a[i] * mh[j][t] - a[j] * mh[i][t] for t in range(n + 1)]
            row += [mg1[i][t] * b[j] + a[i] * mg2[j][t]
                    - mg1[j][t] * b[i] - a[j] * mg2[i][t] for t in range(D)]
            rows.append(row)
    return ExactMatrix.from_rows(rows, cols=2 * (n + 1) + D).rank() - 1


def test_dim_formula_values():
    assert dim_z_formula(2, 2) == 6
    assert dim_z_formula(3, 2) == 8
    assert dim_z_formula(2, 3) == 9


def test_dim_formula_validation():
    with pytest.raises(ValueError):
        dim_z_formula(4, 2)
    with pytest.raises(ValueError):
        dim_z_formula(2, 1)


def test_jacobian_dimension_22():
    assert dim_z_jacobian(2, 2, trials=3, seed=0) == 4


@pytest.mark.parametrize("trials", [0, -1])
def test_jacobian_rejects_no_trials(trials):
    # trials = 0 returned 0: the maximum over no Jacobian ranks
    with pytest.raises(ValueError, match="trials"):
        dim_z_jacobian(2, 2, trials=trials)


def test_desk_pairs_are_every_pair_reconcile_accepts():
    for n in (2, 3):
        ds = [d for m, d in DESK_PAIRS if m == n]
        assert ds == list(range(2, ds[-1] + 1))
        assert comb(n + ds[-1], n) <= DESK_SCALE_N < comb(n + ds[-1] + 1, n)


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_factored_rank_equals_pluecker_rows_every_trial(n, d):
    # the trials reconcile runs by default, at jumping-class's default seed
    for trial in range(3):
        point = _trial_point(n, d, 0, trial)
        assert _dim_at(*point) == pluecker_dim(*point) == bookkeeping_dim(n, d)


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from([(n, d) for n, d in DESK_PAIRS if comb(n + d, n) <= 21]),
       seed=st.integers(0, 10**9), trial=st.integers(0, 5))
def test_factored_rank_equals_pluecker_rows_any_seed(pair, seed, trial):
    point = _trial_point(*pair, seed, trial)
    assert _dim_at(*point) == pluecker_dim(*point)


def _degenerate_point(n, d):
    """(g1, -3*g1, g1*k), deg k = d - 2.  g2 = -3*g1 makes a ^ b = 0, and
    with g1 | h the kernel of d(phi) holds (dg1, -3*dg1, -k*dg1) for every
    linear dg1: n + 1 directions, so rank d(phi) = cols - n - 1 (g2 = -3*g1
    alone keeps the rank at the ceiling cols - 1)."""
    g1, _, k = _trial_point(n, d - 1, 0, 0)
    return g1, g1.scale(-3), g1 * k


def _jacobian_rows(*point):
    """The rows of d(phi): the transpose of the columns ``_differential``'s
    terms give, densified."""
    return [list(row) for row in zip(*_dense(*_differential(*point)))]


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_differential_is_the_multiplication_blocks(n, d):
    # the columns read off the product tables against [[M_g1, 0, M_h], [M_g2, M_h, 0]]:
    # the g-columns first, then [0; M_h], then [M_h; 0]
    for point in (_trial_point(n, d, 0, 0), _degenerate_point(n, d)):
        g1, g2, h = point
        mh = mult_matrix(h, 1).entries
        zero = [0] * (n + 1)
        rows = ([s + zero + r for r, s in zip(mh, mult_matrix(g1, h.degree).entries)]
                + [s + r + zero for r, s in zip(mh, mult_matrix(g2, h.degree).entries)])
        assert _jacobian_rows(*point) == rows


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_degenerate_point_never_overshoots(n, d):
    # a ^ b = 0 there, where the kernel argument does not apply
    point = _degenerate_point(n, d)
    cols = len(_jacobian_rows(*point)[0])
    assert _dim_at(*point) + 4 == _bareiss_rank(_jacobian_rows(*point)) == cols - n - 1
    assert _dim_at(*point) < bookkeeping_dim(n, d)


def _scaling_vector(g1, g2, h):
    """(g1, g2, -h), in the differential's column order: -h on the
    g-columns, g2 on [0; M_h], g1 on [M_h; 0]."""
    return h.scale(-1).coeff_vector() + g2.coeff_vector() + g1.coeff_vector()


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_scaling_direction_caps_every_trial(n, d):
    # d(phi)(g1, g2, -h) = 0, so rank d(phi) <= cols - 1: the ceiling at
    # which dim_z_jacobian stops, checked at reconcile's default trial
    # points and at the degenerate point, below it
    points = [_trial_point(n, d, 0, trial) for trial in range(3)]
    for g1, g2, h in points + [_degenerate_point(n, d)]:
        rows = _jacobian_rows(g1, g2, h)
        vec = _scaling_vector(g1, g2, h)
        assert len(vec) == len(rows[0]) == 2 * (n + 1) + comb(n + d - 1, n)
        assert all(sum(map(mul, row, vec)) == 0 for row in rows)
        assert _dim_at(g1, g2, h) <= len(rows[0]) - 5


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_ceiling_certificate_agrees_with_bareiss(n, d, spy):
    # a rank mod p of cols - 1 is the rank over Q: no kernel is certified
    kernels = spy("linalg.KernelStack.kernel")
    for seed in range(5):
        for trial in range(3):
            point = _trial_point(n, d, seed, trial)
            assert _dim_at(*point) == _bareiss_rank(_jacobian_rows(*point)) - 4
    assert kernels == []


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_below_the_ceiling_one_exact_rank_runs(n, d, spy):
    ranks = spy("linalg.ExactMatrix.rank")
    point = _degenerate_point(n, d)
    assert _dim_at(*point) == _bareiss_rank(_jacobian_rows(*point)) - 4 < bookkeeping_dim(n, d)
    assert len(ranks) == 1


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_bad_prime_reading_below_the_ceiling_ranks_exactly(n, d, monkeypatch, spy):
    monkeypatch.setattr(jumping, "_rank_mod_p", lambda count, width, terms: count - 2)
    ranks = spy("linalg.ExactMatrix.rank")
    point = _trial_point(n, d, 0, 0)
    assert _dim_at(*point) == _bareiss_rank(_jacobian_rows(*point)) - 4 == bookkeeping_dim(n, d)
    assert len(ranks) == 1


def test_full_rank_is_ranked_exactly_not_capped(monkeypatch, spy):
    # a differential without the scaling direction in its kernel has rank
    # cols; the oracle must report that, and so miss the bookkeeping value:
    # each column gains the scaling vector's entry in one new last row
    def widened(*point):
        count, width, terms = _differential(*point)
        return count, width + 1, terms + [(v, j, width, [0])
                                          for j, v in enumerate(_scaling_vector(*point))]

    monkeypatch.setattr(jumping, "_differential", widened)
    ranks = spy("linalg.ExactMatrix.rank")
    for n, d in DESK_PAIRS:
        assert dim_z_jacobian(n, d, trials=1) == bookkeeping_dim(n, d) + 1
    assert len(ranks) == len(DESK_PAIRS)


def test_jacobian_is_ranked_from_residues_g_columns_first(spy):
    # a rank certifies no kernel: no stack is packed and no exact rows, and
    # the columns reach the rank [M_g1; M_g2] first, then [0; M_h], then
    # [M_h; 0] (``_differential``'s order, pinned against the product tables above)
    packs, exact, ranks = spy("linalg.KernelStack.__init__"), spy("linalg._exact"), spy(
        "linalg._rank_mod_p")
    for n, d in DESK_PAIRS:
        dim_z_jacobian(n, d, trials=1)
        assert ranks[-1] == _differential(*_trial_point(n, d, 0, 0))
    assert len(ranks) == len(DESK_PAIRS) and packs == [] and exact == []


def all_trials_dim(n, d, trials, seed):
    """The reference: dim_z_jacobian's value as the largest _dim_at over
    every trial, with no early stop."""
    return max(0, *(_dim_at(*_trial_point(n, d, seed, trial)) for trial in range(trials)))


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_jacobian_stop_keeps_every_trial_maximum(n, d):
    for seed in range(5):
        for trials in (1, 2, 3):
            assert dim_z_jacobian(n, d, trials=trials, seed=seed) == all_trials_dim(
                n, d, trials, seed)


def _counting_dim_at(monkeypatch, values=None):
    """Patch jumping._dim_at to record its calls; with values, return them
    in turn instead of ranking."""
    calls = []

    def counted(*point):
        calls.append(point)
        return values[len(calls) - 1] if values else _dim_at(*point)

    monkeypatch.setattr(jumping, "_dim_at", counted)
    return calls


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_generic_pair_ranks_one_trial(n, d, monkeypatch):
    calls = _counting_dim_at(monkeypatch)
    assert dim_z_jacobian(n, d, trials=3, seed=0) == bookkeeping_dim(n, d)
    assert len(calls) == 1


def test_trials_below_the_ceiling_keep_running(monkeypatch):
    # at (2, 2) cols = 9, so the ceiling is 4: a trial reading 3 proves nothing
    calls = _counting_dim_at(monkeypatch, values=[3, 2, 3])
    assert dim_z_jacobian(2, 2, trials=3, seed=0) == 3
    assert len(calls) == 3
    calls = _counting_dim_at(monkeypatch, values=[3, 4, 4])
    assert dim_z_jacobian(2, 2, trials=3, seed=0) == 4
    assert len(calls) == 2


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_jacobian_seed_stability_and_bookkeeping(n, d):
    values = {dim_z_jacobian(n, d, trials=2, seed=s) for s in (0, 1, 2)}
    assert len(values) == 1
    dim = values.pop()
    assert dim == bookkeeping_dim(n, d)
    assert dim < GrContext(comb(n + d, n)).dim  # Z is a proper subvariety


def test_class_from_formula_22_at_oracle_dim():
    ev = class_from_formula(2, 2, 4)
    assert ev.cls == SchubertClass(GrContext(6), {(3, 1): 6, (2, 2): 3})
    assert ev.out_of_range == []


def test_class_from_formula_22_at_stated_dim_flags_indices():
    ev = class_from_formula(2, 2, 6)
    # index shift (codim - dim)/2 = -2 pushes b = 1 to b' = -1
    assert ev.out_of_range == [(3, -1, 15)]
    assert ev.cls == SchubertClass(GrContext(6), {(2, 0): 15, (1, 1): 6})


def test_class_from_formula_23():
    # hand-evaluated binomials at the measured dimension 7 (shift 1)
    ev = class_from_formula(2, 3, 7)
    assert ev.cls == SchubertClass(GrContext(10), {(7, 2): 21, (6, 3): 24, (5, 4): 15})
    assert ev.out_of_range == []


@pytest.mark.parametrize("n,d,dim", [(2, 2, 4), (2, 3, 7), (3, 2, 7)])
def test_pushpull_agrees_with_formula(n, d, dim):
    assert class_from_pushpull(n, d, dim).cls == class_from_formula(n, d, dim).cls


def pushpull_reference(n, d, dim_z):
    """class_from_pushpull with every coefficient's two pairings computed
    afresh."""
    M = comb(n + d - 1, n) - 1

    def coefficient(a, b):
        first = 0 if a == b and n == 3 else jumping._pair_degree(n, M, a, b)
        return first - jumping._pair_degree(n, M, a + 1, b - 1)

    return jumping._assemble(n, d, dim_z, coefficient)


@pytest.mark.parametrize("n,d", DESK_PAIRS)
def test_pushpull_computes_each_pairing_once(n, d, spy):
    pairings = spy("jumping._pair_degree")
    reference = pushpull_reference(n, d, bookkeeping_dim(n, d))
    needed = set(pairings)
    assert len(needed) < len(pairings)  # neighbours share a pairing
    pairings.clear()
    rep = reconcile(n, d)
    assert rep.dim_z_oracle == bookkeeping_dim(n, d)
    assert sorted(pairings) == sorted(needed)
    assert rep.class_pushpull.cls == reference.cls
    assert rep.class_pushpull.out_of_range == reference.out_of_range
    oracle = class_from_formula(n, d, rep.dim_z_oracle).cls
    assert rep.coefficient_table == [
        {"a": a, "b": b, "theorem": oracle.coefficient(a, b),
         "pushpull": reference.cls.coefficient(a, b),
         "equal": oracle.coefficient(a, b) == reference.cls.coefficient(a, b)}
        for a, b in sorted(set(oracle.coeffs) | set(reference.cls.coeffs))]


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_pushpull_mismatch_at_any_pairing_shows_in_the_report(n, d, monkeypatch, spy):
    pipeline = spy("jumping.bidegree_degree")
    counted = jumping.bidegree_degree
    assert all(row["equal"] for row in reconcile(n, d).coefficient_table)
    for k in range(len(pipeline)):
        pipeline.clear()
        # the pipeline is off by one at its k-th pairing only
        monkeypatch.setattr(jumping, "bidegree_degree",
                            lambda cls, k=k: counted(cls) + (len(pipeline) == k + 1))
        assert not all(row["equal"] for row in reconcile(n, d).coefficient_table)
    # and as a failing check of the schubert suite, which reads the same pairings
    pipeline.clear()
    monkeypatch.setattr(jumping, "bidegree_degree",
                        lambda cls: counted(cls) + (len(pipeline) == 1))
    assert [f["check"] for f in suites.run_schubert_suite(0).failures] == ["pushpull"]


def test_pushpull_at_a_wrong_dimension_differs_from_formula():
    # bookkeeping_dim(2, 2) is 5
    assert class_from_pushpull(2, 2, 6).cls != class_from_formula(2, 2, 6).cls


def test_middle_term_case_32():
    ev = class_from_formula(3, 2, 8)
    rec = _middle_record(3, ev.cls.ctx, 8)
    assert (rec["index"], rec["stated"]) == ([4, 4], 80)
    assert ev.cls.coefficient(4, 4) == 80


def test_reconcile_22():
    rep = reconcile(2, 2, trials=3, seed=0)
    assert rep.dim_z_stated == 6 and rep.dim_z_oracle == 4
    assert rep.flags == ["DIM_MISMATCH", "OUT_OF_RANGE_INDEX"]
    assert all(row["equal"] for row in rep.coefficient_table)
    assert rep.class_pushpull.cls == SchubertClass(GrContext(6), {(3, 1): 6, (2, 2): 3})


def test_reconcile_32_middle_flags():
    rep = reconcile(3, 2, trials=2, seed=0)
    assert "DIM_MISMATCH" in rep.flags
    assert "MIDDLE_TERM_DISAGREEMENT" in rep.flags
    assert "NEGATIVE_COEFFICIENT" in rep.flags
    (rec,) = rep.middle_terms
    assert rec["stated"] == 80 and rec["from_pairing"] == -80 and not rec["agree"]


def test_reconcile_flags_deterministic_across_seeds():
    reports = [reconcile(2, 3, trials=2, seed=s) for s in (0, 5, 9)]
    assert len({tuple(r.flags) for r in reports}) == 1
    assert len({r.dim_z_oracle for r in reports}) == 1


def test_reconcile_desk_scale_bound():
    with pytest.raises(ValueError, match="desk-scale"):
        reconcile(2, 20)


def test_report_json_schema():
    rep = reconcile(2, 2, trials=2, seed=1)
    obj = rep.to_json()
    assert set(obj) >= {"n", "d", "N", "dim_z", "class_theorem", "class_pushpull",
                        "coefficient_table", "flags"}
    assert obj["dim_z"] == {"paper": 6, "oracle": 4}
    assert {t["a"] for t in obj["class_pushpull"]["terms"]} == {3, 2}
    assert obj["class_theorem"]["paper"]["out_of_range"] == [{"a": 3, "b": -1, "c": 15}]


def test_codimension_consistency():
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        rep = reconcile(n, d, trials=2, seed=0)
        codim = 2 * (rep.N - 2) - rep.dim_z_oracle
        for a, b in rep.class_formula_at_oracle.cls.coeffs:
            assert a + b == codim
        for a, b in rep.class_pushpull.cls.coeffs:
            assert a + b == codim
