"""Workload populations, the timed item of each workload, and its checks.

An item is one line (``split-generic`` and ``lines-small``) or one
(n, d) pair (``jumping-class``).  A round is one pass over a workload's
cell mix; round r of seed s draws fresh inputs from the string
``"{s}:{workload}:{r}:{i}"``, so no two items of a run share an input
and every run of a seed sees the same inputs in the same order.  The
program only receives the cell parameters and that case seed; it never
learns which workload it is serving.

Checks compare two different computations of each answer; they run
after each item, outside its timed interval.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb

# One of the three ROADMAP reference cells, random lines: the last h-step
# hits a large full-rank block (S_2 is 105 x 330).  One cell keeps the
# item times one distribution, so the median and tail fall inside it, not
# in the gap between two cells of different cost.  (3,3,7) is about 40%
# cheaper and shows the same path on smaller blocks; (3,4,9) takes about
# 2.9 s a line, too few items per run for a steady median.
SPLIT_GENERIC_CELLS = ((3, 4, 8),)

# Criteria-suite grid population at small cells: (n, d, k, random, planted,
# planted-gcd cap); planted line i gets gcd degree i % (cap + 1).
LINES_SMALL_CELLS = (
    (2, 2, 2, 12, 12, 1),
    (2, 2, 3, 12, 12, 1),
    (2, 2, 4, 12, 12, 1),
    (2, 2, 5, 12, 12, 1),
    (2, 3, 3, 12, 12, 2),
    (2, 3, 4, 12, 12, 2),
    (3, 2, 2, 10, 10, 1),
    (3, 2, 3, 10, 10, 1),
    (3, 2, 4, 10, 10, 1),
)

# The desk-scale pairs with N = C(n+d, n) <= 36.  (2,8), (2,9) and (3,5)
# (N = 45, 55, 56; 3-6 s a pair) are left out: with them a round of 12
# pairs takes about 18 s, and the median item of a run of one round (the
# mean of two different pairs) varied by 38% across seeds.  Without them a
# round takes about 4 s.  (3,3), the median pair, comes five times a round,
# so the median falls in the middle of its spread (+-20% with the random
# point) and rests on many samples.
JUMPING_PAIRS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                 (3, 2), (3, 3), (3, 3), (3, 3), (3, 4), (3, 3), (3, 3))


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class LineSpec:
    n: int
    d: int
    k: int
    mode: str
    case_seed: str

    @property
    def cell(self):
        return f"({self.n},{self.d},{self.k}):{self.mode.split(':')[0]}"


@dataclass(frozen=True)
class PairSpec:
    n: int
    d: int
    case_seed: str

    @property
    def cell(self):
        return f"({self.n},{self.d})"


def _line_round(cells_modes, workload, seed, r):
    return [LineSpec(n, d, k, mode, f"{seed}:{workload}:{r}:{i}")
            for i, ((n, d, k), mode) in enumerate(cells_modes)]


def _lines_small_modes():
    out = []
    for n, d, k, n_random, n_planted, cap in LINES_SMALL_CELLS:
        out += [((n, d, k), "random")] * n_random
        out += [((n, d, k), f"jumping:{i % (cap + 1)}") for i in range(n_planted)]
    return out


def line_item(api, spec):
    """The timed work for one line: sample it, then every per-line query."""
    fam = api.family
    ctx = fam.context(spec.n, spec.d, spec.k)
    line = fam.sample_line(ctx, spec.mode, seed=spec.case_seed)
    st = api.pencils.splitting_type(fam.verlinde_pencil(ctx, line))
    zeros = fam.zero_count(ctx, line)
    generic = fam.is_generic_type(ctx, line)
    pred = fam.predict_by_gcd(ctx, line, trials=3, seed=spec.case_seed)
    return ctx, st, zeros, generic, pred


def check_line(api, spec, out):
    """Cross-check one line's answers; returns (failed check names, digest)."""
    ctx, st, zeros, generic, pred = out
    fam = api.family
    failed = []
    if zeros != st.zeros():
        failed.append("zero_count")
    if (ctx.rank, ctx.degree) != (len(st), st.total):
        failed.append("frame")
    if generic != (st == fam.generic_type(ctx)):
        failed.append("generic_iff")
    if pred.jumping != (not generic):
        failed.append("gcd_iff")
    if spec.k == spec.d + 1 and pred.predicted_type != st:
        failed.append("predicted_type")
    digest = _digest({
        "cell": [spec.n, spec.d, spec.k, spec.mode],
        "type": list(st.entries),
        "zeros": zeros,
        "generic": generic,
        "gcd": pred.gcd_degree,
        "jumping": pred.jumping,
        "predicted": None if pred.predicted_type is None else list(pred.predicted_type.entries),
    })
    return failed, digest


def pair_item(api, spec):
    """The timed work for one pair: the full reconciliation report."""
    return api.jumping.reconcile(spec.n, spec.d, seed=spec.case_seed)


def check_pair(api, spec, rep):
    """Jacobian dimension against the slice bookkeeping, and the theorem
    class against push-pull off the middle index.  The paper's flagged
    discrepancies are reported outputs, not failures."""
    jp = api.jumping
    failed = []
    if rep.dim_z_oracle != jp.bookkeeping_dim(spec.n, spec.d):
        failed.append("bookkeeping_dim")
    middle = {tuple(m["index"]) for m in rep.middle_terms if m["dim_z"] == rep.dim_z_oracle}
    if any(not row["equal"] for row in rep.coefficient_table
           if (row["a"], row["b"]) not in middle):
        failed.append("theorem_vs_pushpull")
    if rep.N != comb(spec.n + spec.d, spec.n):
        failed.append("frame")
    return failed, _digest(rep.to_json())


@dataclass(frozen=True)
class Workload:
    name: str
    round_specs: object  # (seed, r) -> list of specs
    item: object
    check: object
    warm_degrees: tuple  # (n, m) monomial bases the items touch

    def warm(self, api):
        """Fill the package's monomial-basis caches (its only caches)."""
        poly = api.polynomials
        for n, m in self.warm_degrees:
            poly.monomial_basis(n, m)
            poly.basis_index(n, m)


def _line_degrees(cells):
    return tuple(sorted({(n, m) for n, d, k in cells for m in range(0, k + 1)}))


def _make_workloads():
    generic_modes = [(c, "random") for c in SPLIT_GENERIC_CELLS]
    small_modes = _lines_small_modes()
    return {
        "split-generic": Workload(
            "split-generic",
            lambda seed, r: _line_round(generic_modes, "split-generic", seed, r),
            line_item, check_line,
            _line_degrees(SPLIT_GENERIC_CELLS)),
        "lines-small": Workload(
            "lines-small",
            lambda seed, r: _line_round(small_modes, "lines-small", seed, r),
            line_item, check_line,
            _line_degrees(sorted({c for c, _ in small_modes}))),
        "jumping-class": Workload(
            "jumping-class",
            lambda seed, r: [PairSpec(n, d, f"{seed}:jumping-class:{r}:{i}")
                             for i, (n, d) in enumerate(JUMPING_PAIRS)],
            pair_item, check_pair,
            tuple(sorted({(n, m) for n, d in JUMPING_PAIRS for m in range(0, d + 1)}))),
    }


WORKLOADS = _make_workloads()
