"""Seeded verification suites.

Each suite enumerates a deterministic list of cases from a root seed,
evaluates them in order, and returns a SuiteResult whose JSON form is
byte-identical across reruns with the same seed.  Wall time is reported
separately on stderr by the CLI, never inside the JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from . import jumping as jp
from .family import (
    context,
    generic_type,
    is_generic_type,
    near_generic_type,
    predict_by_gcd,
    sample_line,
    type_from_gcd,
    verlinde_pencil,
)
from .linalg import ExactMatrix, _bareiss_rank, random_unimodular
from .pencils import SplittingType, dominates, kronecker_pencil, splitting_type, twisted_section_dims
from .polynomials import gcd_degree, monomial_basis, mult_matrix, random_form
from .schubert import GrContext, SchubertClass, giambelli, product, sigma
from .schubert import degree as schubert_degree

__all__ = ["SuiteResult", "SUITES"]

JUMPING_PAIRS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
EVEN_CASE_PAIR = (3, 5)  # first n=3 pair whose measured dimension is even


@dataclass
class SuiteResult:
    suite: str
    seed: int
    cases: int = 0
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def record(self, check, case, expected, actual):
        self.checks[check] = self.checks.get(check, 0) + 1
        if expected != actual:
            self.failures.append({
                "check": check,
                "case": case,
                "expected": repr(expected),
                "actual": repr(actual),
            })

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "checks": {k: self.checks[k] for k in sorted(self.checks)},
            "failures": self.failures,
            "passed": self.passed,
        }


# ---------------------------------------------------------------- algebra

def run_algebra_suite(seed=0):
    res = SuiteResult("algebra", seed)
    for n in (1, 2, 3):
        for m in range(0, 9):
            res.record("basis_count", f"basis({n},{m})",
                       comb(m + n, n), len(monomial_basis(n, m)))
            res.cases += 1

    for i in range(40):
        rng = random.Random(f"{seed}:algebra:span:{i}")
        n = rng.choice((2, 3))
        d = rng.choice((1, 2))
        e = rng.choice((0, 1, 2))
        f1 = random_form(n, d, rng, bound=9)
        f2 = random_form(n, d, rng, bound=9)
        m1, m2 = mult_matrix(f1, e), mult_matrix(f2, e)
        concat = m1.hstack(m2)
        res.record("span_rank", f"span({n},{d},{e})#{i}",
                   _bareiss_rank(concat.entries), concat.rank())
        res.record("mult_injective", f"inj({n},{d},{e})#{i}", m1.cols, m1.rank())
        res.cases += 1

    for i in range(25):
        rng = random.Random(f"{seed}:algebra:gcd:{i}")
        n = rng.choice((2, 3))
        dh = rng.choice((1, 2))
        dg = rng.choice((1, 2))
        h = random_form(n, dh, rng, bound=9)
        g1 = random_form(n, dg, rng, bound=9)
        g2 = random_form(n, dg, rng, bound=9)
        inner = gcd_degree(g1, g2, trials=3, seed=i)
        outer = gcd_degree(h * g1, h * g2, trials=3, seed=i)
        res.record("gcd_planted", f"gcd({n},{dh},{dg})#{i}", dh + inner, outer)
        res.cases += 1

    for i in range(25):
        rng = random.Random(f"{seed}:algebra:rank:{i}")
        rows = rng.randint(2, 7)
        cols = rng.randint(2, 7)
        target = rng.randint(0, min(rows, cols))
        # build a matrix of known rank from a product of full-rank factors
        left = [[rng.randint(-9, 9) for _ in range(target)] for _ in range(rows)]
        right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(target)]
        m = (ExactMatrix.from_rows(left, cols=target)
             @ ExactMatrix.from_rows(right, cols=cols)) if target else ExactMatrix.zero(rows, cols)
        # the engine's rank of m against Bareiss on each transformed copy
        r = m.rank()
        res.record("rank_transpose", f"rt#{i}", r, _bareiss_rank(m.transpose().entries))
        perm = list(range(rows))
        rng.shuffle(perm)
        shuffled = ExactMatrix(rows, cols, [m.entries[p] for p in perm])
        res.record("rank_invariance", f"perm#{i}", r, _bareiss_rank(shuffled.entries))
        conj = random_unimodular(rows, rng) @ m @ random_unimodular(cols, rng)
        res.record("rank_invariance", f"unimod#{i}", r, _bareiss_rank(conj.entries))
        # right kernel = left kernel of the transpose, counted against Bareiss
        kernel = m.transpose().left_kernel()
        res.record("kernel", f"nullity#{i}", cols - _bareiss_rank(m.entries), len(kernel))
        images = ExactMatrix.from_rows(kernel, cols=cols) @ m.transpose()
        res.record("kernel", f"kervec#{i}", True, not any(map(any, images.entries)))
        res.cases += 1

    return res


# ----------------------------------------------------------------- pencil

def _random_type(rng, w, u):
    """Random non-increasing tuple of length w-u summing to u."""
    slots = w - u
    entries = [0] * slots
    for _ in range(u):
        entries[rng.randrange(slots)] += 1
    entries.sort(reverse=True)
    return SplittingType(entries)


def run_pencil_suite(seed=0):
    res = SuiteResult("pencil", seed)
    for i in range(200):
        rng = random.Random(f"{seed}:pencil:rt:{i}")
        w = rng.randint(2, 9)
        u = rng.randint(0, w - 1)
        st = _random_type(rng, w, u)
        pencil = kronecker_pencil(st, seed=f"{seed}:{i}")
        res.record("roundtrip", f"rt#{i}(w={w},u={u})", st, splitting_type(pencil))
        res.cases += 1

    for i in range(100):
        rng = random.Random(f"{seed}:pencil:eq:{i}")
        w = rng.randint(2, 8)
        u = rng.randint(1, w - 1)
        st = _random_type(rng, w, u)
        pencil = kronecker_pencil(st, seed=f"{seed}:eq:{i}")
        conj = pencil.conjugate(random_unimodular(w, rng), random_unimodular(u, rng))
        res.record("equivalence", f"eq#{i}", st, splitting_type(conj))
        a, b, c, d = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        if a * d - b * c == 0:
            a, b, c, d = 1, 1, 0, 1
        res.record("coordinate_change", f"cc#{i}",
                   st, splitting_type(pencil.coordinate_change(a, b, c, d)))
        res.record("swap", f"swap#{i}", st, splitting_type(pencil.swap()))
        dims = twisted_section_dims(pencil, u + 1)
        diffs = [dims[t] - dims[t + 1] for t in range(len(dims) - 1)]
        convex = all(diffs[t] >= diffs[t + 1] for t in range(len(diffs) - 1))
        res.record("h_convex", f"hc#{i}", True, convex)
        res.cases += 1

    return res


# --------------------------------------------------------------- criteria

def _criteria_cells():
    """Grid cells with (random, jumping) line counts and planted-gcd caps."""
    cells = []
    for n in (2, 3):
        for d in (2, 3, 4):
            for k in (d, d + 1, 2 * d, 2 * d + 1):
                w = comb(k + n, n)
                if w > 400:
                    continue
                if n == 2:
                    counts, cap = (12, 12), d - 1
                elif w <= 60:
                    counts, cap = (10, 10), d - 1
                elif w <= 130:
                    counts, cap = (4, 4), 1
                else:
                    counts, cap = (3, 3), 1
                cells.append((n, d, k, counts[0], counts[1], cap))
    return cells


def _line_specs(seed):
    """Deterministic list of (n, d, k, mode, case_seed) specs."""
    specs = []
    for n, d, k, n_random, n_jumping, cap in _criteria_cells():
        for i in range(n_random):
            specs.append((n, d, k, "random", f"{seed}:crit:{n}:{d}:{k}:r{i}"))
        for i in range(n_jumping):
            dp = i % (cap + 1)
            specs.append((n, d, k, f"jumping:{dp}", f"{seed}:crit:{n}:{d}:{k}:j{i}"))
    # extra population at k = d + 1 for the two-type classification
    for n in (2, 3):
        for d in (2, 3, 4):
            k = d + 1
            for i in range(64):
                if i % 2 == 0:
                    mode = "random"
                else:
                    mode = f"jumping:{(i // 2) % d}"
                specs.append((n, d, k, mode, f"{seed}:crit2:{n}:{d}:{k}:{i}"))
    return specs


def _line_case(res, spec):
    """Record every per-line criterion of one line into res.  The expected
    zero count and genericity are ``type_from_gcd``'s at the gcd oracle's
    d'; an oracle overshoot that changes them shows as a failure."""
    n, d, k, mode, case_seed = spec
    ctx = context(n, d, k)
    line = sample_line(ctx, mode, seed=case_seed)
    case = f"({n},{d},{k}):{mode}:{case_seed.rsplit(':', 1)[-1]}"
    res.cases += 1

    st = splitting_type(verlinde_pencil(ctx, line))
    pred = predict_by_gcd(ctx, line, trials=3, seed=case_seed)
    closed = type_from_gcd(ctx, pred.gcd_degree)
    res.record("zero_count", case, closed.zeros(), st.zeros())
    res.record("frame", case, (ctx.rank, ctx.degree), (len(st), st.total))
    gen = generic_type(ctx)
    res.record("generic_iff", case, closed == gen, st == gen)
    res.record("dominance", case, True, dominates(st, gen))
    res.record("gcd_iff", case, not is_generic_type(ctx, line), pred.jumping)
    if k == d + 1:
        two = near_generic_type(ctx)
        res.record("two_type", case, True, st in (gen, two))
        res.record("predicted_type", case, pred.predicted_type, st)
        if mode == "random":
            res.record("random_generic", case, True, st == gen)
        if mode == f"jumping:{d - 1}":
            res.record("planted_max_gcd", case, two, st)


def run_criteria_suite(seed=0):
    res = SuiteResult("criteria", seed)
    # rank/degree formulas against enumeration, plus the one-way implication
    for n in (2, 3):
        for d in (2, 3, 4):
            for k in range(1, 2 * d + 3):
                ctx = context(n, d, k)
                if ctx.w > 400:
                    continue
                res.record("rank_degree_table", f"w({n},{d},{k})",
                           len(monomial_basis(n, k)), ctx.w)
                res.record("rank_degree_table", f"u({n},{d},{k})",
                           len(monomial_basis(n, k - d)), ctx.u)
                res.record("rank_degree_table", f"rd({n},{d},{k})",
                           (ctx.w - ctx.u, ctx.u), (ctx.rank, ctx.degree))
                if k <= 2 * d:
                    res.record("rank_degree_table", f"impl({n},{d},{k})",
                               True, ctx.degree <= ctx.rank)
                res.cases += 1

    for spec in _line_specs(seed):
        _line_case(res, spec)

    for n in (2, 3):
        for d in (2, 3, 4):
            for k in range(d, 2 * d + 1):
                ctx = context(n, d, k)
                for dp in range(0, d):
                    for rep in range(3):
                        line = sample_line(ctx, f"jumping:{dp}",
                                           seed=f"{seed}:sweep:{n}:{d}:{k}:{dp}:{rep}")
                        res.record("gcd_criterion", f"({n},{d},{k}):d'={dp}:{rep}",
                                   dp >= 2 * d - k, not is_generic_type(ctx, line))
                        res.cases += 1

    # past k = 2d the generic type never occurs (degree still <= rank here)
    ctx = context(2, 2, 5)
    assert ctx.degree <= ctx.rank
    for i in range(50):
        line = sample_line(ctx, "random", seed=f"{seed}:k2d:{i}")
        res.record("k_gt_2d_never_generic", f"(2,2,5)#{i}",
                   False, is_generic_type(ctx, line))
        res.cases += 1

    return res


# --------------------------------------------------------------- schubert

def run_schubert_suite(seed=0):
    res = SuiteResult("schubert", seed)
    for N in range(2, 11):
        ctx = GrContext(N)
        top = ctx.max_index
        for a in range(top + 1):
            for b in range(a + 1):
                res.record("giambelli", f"N={N}:({a},{b})",
                           sigma(ctx, a, b), giambelli(ctx, a, b))
                res.cases += 1
        pairs = [(a, b) for a in range(top + 1) for b in range(a + 1)]
        for a, b in pairs:
            for c, dd in pairs:
                if a + b + c + dd != ctx.dim:
                    continue
                expected = 1 if (c, dd) == (top - b, top - a) else 0
                res.record("duality", f"N={N}:({a},{b})x({c},{dd})",
                           expected, schubert_degree(product(sigma(ctx, a, b), sigma(ctx, c, dd))))
                res.cases += 1

    ctx8 = GrContext(8)
    pairs8 = [(a, b) for a in range(7) for b in range(a + 1)]
    for i in range(100):
        rng = random.Random(f"{seed}:schubert:assoc:{i}")

        def rand_class():
            picks = rng.sample(pairs8, rng.randint(1, 3))
            return SchubertClass(ctx8, {p: rng.randint(-9, 9) for p in picks})

        x, y, z = rand_class(), rand_class(), rand_class()
        res.record("associativity", f"assoc#{i}",
                   product(product(x, y), z), product(x, product(y, z)))
        res.record("commutativity", f"comm#{i}", product(x, y), product(y, x))
        res.cases += 1

    for n in (2, 3):
        for M in range(2, 8):
            dim = 2 * n + M - 2
            for b in range(0, dim + 1):
                a = dim - b
                if a < 0:
                    continue
                res.record("pushpull", f"P{n}xP{M}:({a},{b})",
                           comb(a + 1, n) * comb(b + 1, n), jp._pair_degree(n, M, a, b))
                res.cases += 1

    return res


# ---------------------------------------------------------------- jumping

def run_jumping_suite(seed=0):
    res = SuiteResult("jumping", seed)
    for n, d in JUMPING_PAIRS + [EVEN_CASE_PAIR]:
        reports = [jp.reconcile(n, d, trials=2, seed=f"{seed}:{s}") for s in range(3)]
        rep = reports[0]
        case = f"({n},{d})"

        res.record("dim_stability", case, 1, len({r.dim_z_oracle for r in reports}))
        res.record("flag_determinism", case, 1, len({tuple(r.flags) for r in reports}))
        res.record("bookkeeping", case, jp.bookkeeping_dim(n, d), rep.dim_z_oracle)
        res.record("proper_subvariety", case, True,
                   rep.dim_z_oracle < GrContext(rep.N).dim)

        mid_idx = None
        if rep.middle_terms:
            recs = [r for r in rep.middle_terms if r["dim_z"] == rep.dim_z_oracle]
            if recs:
                mid_idx = tuple(recs[0]["index"])
        for row in rep.coefficient_table:
            if (row["a"], row["b"]) == mid_idx:
                res.record("middle_flagged", f"{case}:({row['a']},{row['b']})",
                           True, row["equal"] or jp.FLAG_MIDDLE in rep.flags)
            else:
                res.record("theorem_vs_pushpull", f"{case}:({row['a']},{row['b']})",
                           True, row["equal"])
        res.record("codim_consistency", case, True, all(
            a + b == 2 * (rep.N - 2) - rep.dim_z_oracle
            for a, b in list(rep.class_formula_at_oracle.cls.coeffs)
            + list(rep.class_pushpull.cls.coeffs)))
        res.cases += 1

    rep22 = jp.reconcile(2, 2, trials=2, seed=f"{seed}:22")
    expected = SchubertClass(GrContext(6), {(3, 1): 6, (2, 2): 3})
    res.record("concrete_22", "(2,2)", expected, rep22.class_pushpull.cls)
    res.record("concrete_22", "(2,2)formula", expected, rep22.class_formula_at_oracle.cls)
    res.cases += 1

    return res


SUITES = {
    "algebra": run_algebra_suite,
    "pencil": run_pencil_suite,
    "criteria": run_criteria_suite,
    "schubert": run_schubert_suite,
    "jumping": run_jumping_suite,
}
