"""Acceptance gate: one test per criterion, every comparison exact.

The seeded suites are run once per module and shared; each test filters
the checks it owns, enforces the stated case minimums, and prints one
PASS/FAIL line (visible with `pytest -s` or on failure).
"""

import hashlib
import re

import pytest

from verlinde import cli, suites
from verlinde.suites import (
    run_algebra_suite,
    run_criteria_suite,
    run_jumping_suite,
    run_pencil_suite,
    run_schubert_suite,
)

ACCEPTANCE_SEED = 0

# sha256 of `verlinde verify --suite all --seed 0`'s stdout; a change is a
# change of output
VERIFY_ALL_SEED0 = "5e93ed6b4270110114a20655c4dcd7acdce53ad2a5cffb6ba83c3f9062cb54a5"


@pytest.fixture(scope="module")
def algebra():
    return run_algebra_suite(ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def pencil():
    return run_pencil_suite(ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def criteria():
    return run_criteria_suite(ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def schubert():
    return run_schubert_suite(ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def jumping():
    return run_jumping_suite(ACCEPTANCE_SEED)


def _gate(number, description, result, checks, minimums=None):
    minimums = minimums or {}
    missing = {c: result.checks.get(c, 0) for c in checks
               if result.checks.get(c, 0) < minimums.get(c, 1)}
    failures = [f for f in result.failures if f["check"] in checks]
    passed = not failures and not missing
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert not missing, f"case minimums not met: {missing}"
    assert not failures, failures[:5]


def test_criterion_1_rank_degree_formulas(criteria):
    _gate(1, "rank/degree formulas and k<=2d implication on the full grid",
          criteria, {"rank_degree_table"}, {"rank_degree_table": 150})


def test_criterion_2_zero_count_equality(criteria):
    _gate(2, "zero count equals zeros of the splitting type on >=500 lines",
          criteria, {"zero_count", "frame"}, {"zero_count": 500})


def test_criterion_3_generic_type_criterion(criteria):
    _gate(3, "rank([A|B]) = 2u iff splitting type is generic, all lines",
          criteria, {"generic_iff", "dominance"}, {"generic_iff": 500})


def test_criterion_4_gcd_criterion(criteria):
    _gate(4, "planted-gcd criterion on k in [d,2d] and no generic past 2d",
          criteria, {"gcd_criterion", "gcd_iff", "k_gt_2d_never_generic"},
          {"gcd_criterion": 144, "k_gt_2d_never_generic": 50})


def test_criterion_5_two_type_classification(criteria):
    _gate(5, "only two types at k=d+1; max planted gcd forces (2,1,...)",
          criteria, {"two_type", "predicted_type", "planted_max_gcd", "random_generic"},
          {"two_type": 500})


def test_criterion_6_pencil_engine(pencil):
    _gate(6, "200 Kronecker round trips; equivalence and (s,t) invariance x100",
          pencil, {"roundtrip", "equivalence", "coordinate_change", "swap", "h_convex"},
          {"roundtrip": 200, "equivalence": 100, "coordinate_change": 100})


def test_criterion_7_schubert_engine(schubert):
    _gate(7, "Pieri/Giambelli and duality exhaustive to N=10; assoc x100; push-pull",
          schubert, {"giambelli", "duality", "associativity", "commutativity", "pushpull"},
          {"associativity": 100, "giambelli": 150, "duality": 400})


def test_criterion_8_class_reconciliation(jumping):
    _gate(8, "theorem class at oracle dim equals push-pull class, middle flagged",
          jumping, {"theorem_vs_pushpull", "middle_flagged", "concrete_22",
                    "flag_determinism", "codim_consistency"})


def test_criterion_9_dimension_oracle(jumping):
    _gate(9, "dim oracle stable across seeds and matches slice bookkeeping",
          jumping, {"dim_stability", "bookkeeping", "proper_subvariety"})


def test_supporting_algebra_suite(algebra):
    _gate("A", "core algebra invariants (bases, spans, gcd oracle, rank laws)",
          algebra, set(algebra.checks), {"span_rank": 40})


def test_verify_all_stdout_bytes_are_pinned(algebra, pencil, criteria, schubert, jumping,
                                            monkeypatch, capsys):
    # the CLI writes the document in SUITES' order, and the suites hand
    # back this module's results instead of running again
    for name, result in [("algebra", algebra), ("pencil", pencil), ("criteria", criteria),
                         ("schubert", schubert), ("jumping", jumping)]:
        monkeypatch.setitem(suites.SUITES, name, lambda seed, result=result: result)
    assert cli.main(["verify", "--suite", "all", "--seed", str(ACCEPTANCE_SEED)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == VERIFY_ALL_SEED0
    # one timed summary line a suite, in the same order, on stderr only
    lines = captured.err.splitlines()
    assert [line.split("]")[0][1:] for line in lines] == list(suites.SUITES)
    assert all(re.fullmatch(r"\[\w+\] cases=\d+ ok \(\d+\.\ds\)", line) for line in lines)
