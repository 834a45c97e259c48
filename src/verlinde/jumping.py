"""The Chow class of the jumping-line locus of V_(d+1), two ways.

Route one evaluates the closed coefficient formula
C(a+1,n)C(b+1,n) - C(a+2,n)C(b,n) on dual Schubert indices.  Route two
recomputes every pairing degree deg([Z] sigma_a sigma_b) through the
push-pull pipeline on P^n x P^M (M the dimension of the degree-(d-1)
system) and assembles the class by Giambelli.  dim Z itself is measured
independently, as the rank of the differential of (g1, g2, h) ->
(h*g1, h*g2) at seeded random rational points, less 4; the trials stop
at the first point whose rank reaches the proven ceiling.  A reconciliation
report compares everything coefficient by coefficient and records any
discrepancy as a deterministic flag, never as a silent correction.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from math import comb

from .linalg import ExactMatrix, _dense, _rank_mod_p
from .polynomials import _mult_targets, random_form
from .schubert import (
    GrContext,
    SchubertClass,
    bidegree_degree,
    hyperplane_power,
    pushforward_factor2,
)

__all__ = [
    "ClassEval",
    "JumpingClassReport",
    "dim_z_formula",
    "dim_z_jacobian",
    "bookkeeping_dim",
    "class_from_formula",
    "class_from_pushpull",
    "reconcile",
    "DESK_SCALE_N",
]

DESK_SCALE_N = 60
_POINT_BOUND = 30  # coefficient bound of dim_z_jacobian's random points

FLAG_DIM_MISMATCH = "DIM_MISMATCH"
FLAG_NEGATIVE = "NEGATIVE_COEFFICIENT"
FLAG_OUT_OF_RANGE = "OUT_OF_RANGE_INDEX"
FLAG_MIDDLE = "MIDDLE_TERM_DISAGREEMENT"


def _check_params(n, d):
    if n not in (2, 3):
        raise ValueError("the class computation is restricted to n in {2, 3}")
    if d < 2:
        raise ValueError("need hypersurface degree d >= 2")


def dim_z_formula(n, d):
    """Closed-form dimension value for the jumping locus of V_(d+1)."""
    _check_params(n, d)
    return n + 1 + comb(d - 1 + n, n)


def bookkeeping_dim(n, d):
    """The dimension forced by the slice bookkeeping dim Q' = b - n + 1.

    Q has dimension n + M, so a codimension-(a+1) slice has dimension
    n + M - a - 1; equating with b - n + 1 for complementary a + b pins
    a + b = 2n + M - 2, which is also the parameter count of the
    multiplication parametrization (2(n-1) + C(d-1+n, n) - 1).
    """
    _check_params(n, d)
    return 2 * n + comb(n + d - 1, n) - 3


def dim_z_jacobian(n, d, trials=3, seed=0):
    """Dimension of the jumping locus, from the rank of the differential
    of phi(g1, g2, h) = (h*g1, h*g2), g_i linear and deg h = d-1.

    Z's Pluecker parametrization is (a, b) -> a ^ b after phi, and dim Z
    is the rank of its Jacobian J less the cone direction.  At a ^ b != 0
    the kernel of d(^) is K = {(al*a + be*b, ga*a - al*b)}, of dimension
    3.  K lies in span{(a,0), (b,0), (0,a), (0,b)}, which lies in
    Im d(phi) (vary g1 or g2 along g1 or g2).  So rank J = rank d(phi) - 3
    and dim Z = rank J - 1 = rank d(phi) - 4.  Where a ^ b = 0 the value
    still cannot overshoot: rank d(phi) is at most its generic value, the
    dimension dim Z + 4 of the image of phi.  So the maximum over trials
    can only undershoot, on an unlucky sample.  Harris, Algebraic
    Geometry: A First Course, Lecture 16.

    The ceiling: phi is constant along (t*g1, t*g2, h/t), so
    d(phi)(g1, g2, -h) = (h*g1 - g1*h, h*g2 - g2*h) = 0, and h != 0; at
    every point rank d(phi) <= cols - 1, with cols = 2(n+1) + C(n+d-1, n)
    the differential's column count (so a rank mod p of cols - 1 is exact,
    see _dim_at).  No trial returns more than cols - 5, so the trials stop
    once the running maximum reaches it: ``trials`` is the most that run.
    Each trial seeds its own generator from (seed, trial), so the trials
    that run draw what a full run would, and give the full run's maximum.
    """
    _check_params(n, d)
    if trials < 1:
        raise ValueError(f"Jacobian oracle needs trials >= 1, got {trials}")
    ceiling = 2 * (n + 1) + comb(n + d - 1, n) - 5  # cols - 1, less 4
    best = 0
    for trial in range(trials):
        best = max(best, _dim_at(*_trial_point(n, d, seed, trial)))
        if best >= ceiling:
            break
    return best


def _trial_point(n, d, seed, trial):
    rng = random.Random(f"{seed}:dimz:{n}:{d}:{trial}")
    return (random_form(n, 1, rng, _POINT_BOUND), random_form(n, 1, rng, _POINT_BOUND),
            random_form(n, d - 1, rng, _POINT_BOUND))


def _differential(g1, g2, h):
    """d(phi) = [[M_g1, 0, M_h], [M_g2, M_h, 0]], 2N rows, as ``_rank_mod_p``'s
    (count, 2N, terms) for its columns, g-columns first: column j of a block
    M_f holds f's coefficient c at the row of m*theta_j, for each term c*m."""
    n, e = h.n, h.degree
    N, k = comb(n + e + 1, n), comb(n + e, n)  # a block row's height; the g-columns
    terms = [(c, first, top, _mult_targets(n, f.degree, src)[m])
             for f, src, first, top in ((g1, e, 0, 0), (g2, e, 0, N), (h, 1, k, N),
                                        (h, 1, k + n + 1, 0)) for m, c in f.terms.items()]
    return k + 2 * n + 2, 2 * N, terms


def _dim_at(g1, g2, h):
    """rank d(phi) - 4 at (g1, g2, h).  Every minor mod p is the residue of
    the same minor over Z, so rank mod p <= rank over Q <= cols - 1, and a
    rank mod p of cols - 1 is the rank; any other is taken exactly.  Rank
    ignores column order: the g-columns go first, to win the pivot ties."""
    jacobian = _differential(g1, g2, h)
    rank = _rank_mod_p(*jacobian)
    if rank != jacobian[0] - 1:
        rank = ExactMatrix.from_rows(_dense(*jacobian)).rank()
    return rank - 4


@dataclass
class ClassEval:
    """A Schubert class plus any coefficients whose shifted indices left
    the ring."""

    cls: SchubertClass
    dim_z: int
    out_of_range: list = field(default_factory=list)  # (a, b, coeff)

    def all_coefficients(self):
        vals = list(self.cls.coeffs.values())
        vals.extend(c for _, _, c in self.out_of_range)
        return vals

    def to_json(self):
        obj = self.cls.to_json()
        obj["dim_z"] = self.dim_z
        obj["out_of_range"] = [{"a": a, "b": b, "c": c} for a, b, c in self.out_of_range]
        return obj


def _shift(ctx, dim_z):
    """Index shift into the codimension-(2(N-2) - dim_z) graded piece,
    (codim - dim_z) / 2."""
    return ctx.max_index - dim_z


def _stated_middle(n, b):
    """The closed formula's middle coefficient at a = b (n = 3)."""
    return comb(b + 2, n) * comb(b, n)


def _assemble(n, d, dim_z, coefficient):
    """The class with coefficient(a, b) at each pair a + b = dim_z, b <= a.

    Indices are shifted into the codimension-(2(N-2) - dim_z) graded
    piece; a shifted index with b' < 0 and nonzero coefficient is kept in
    the out_of_range list as a discrepancy signal rather than dropped.
    """
    ctx = GrContext(comb(n + d, n))
    if dim_z > ctx.dim:
        raise ValueError(f"dim_z = {dim_z} exceeds the Grassmannian dimension")
    shift = _shift(ctx, dim_z)
    terms = {}
    oor = []
    for b in range(dim_z // 2 + 1):  # b <= a = dim_z - b, the middle b = a included
        a = dim_z - b
        coeff = coefficient(a, b)
        if coeff == 0:
            continue
        a2, b2 = a + shift, b + shift
        if b2 < 0:
            oor.append((a2, b2, coeff))
        else:
            terms[(a2, b2)] = terms.get((a2, b2), 0) + coeff
    return ClassEval(cls=SchubertClass._of(ctx, terms), dim_z=dim_z, out_of_range=oor)


def class_from_formula(n, d, dim_z):
    """Evaluate the closed coefficient formula at an explicitly supplied
    dimension value (indices shifted as in ``_assemble``).

    For n = 3 and even dim_z the stated middle term
    +C(dim/2+2, n)C(dim/2, n) is appended.
    """
    _check_params(n, d)

    def coefficient(a, b):
        if a == b and n == 3:
            return _stated_middle(n, b)
        return comb(a + 1, n) * comb(b + 1, n) - comb(a + 2, n) * comb(b, n)

    return _assemble(n, d, dim_z, coefficient)


def _pair_degree(n, M, a, b):
    """deg([Z] sigma_a sigma_b) by the push-pull pipeline: the slice class
    pushforward_factor2((alpha+beta)^(a+1)) on P^n x P^M, paired with
    (alpha+beta)^(b+1), read at the point class.  A disagreement with the
    closed formula shows in ``reconcile``'s table, not here."""
    if a < 0 or b < 0:
        return 0
    lam = pushforward_factor2(hyperplane_power(n, M, a + 1))
    return bidegree_degree(lam * hyperplane_power(n, M, b + 1))


def class_from_pushpull(n, d, dim_z):
    """Assemble [Z] from push-pull pairing degrees via Giambelli.

    Every coefficient is deg([Z] sigma_a sigma_b) - deg([Z] sigma_(a+1)
    sigma_(b-1)) with both degrees produced by the bidegree pipeline, each
    once per call, as coefficients (a, b) and (a-1, b+1) share one.  For
    n = 3 and even dim_z the middle pairing deg([Z] sigma_b sigma_b) is
    taken to be zero, and the signed middle coefficient is kept.
    """
    _check_params(n, d)
    M = comb(n + d - 1, n) - 1
    pair = functools.cache(lambda a, b: _pair_degree(n, M, a, b))

    def coefficient(a, b):
        first = 0 if a == b and n == 3 else pair(a, b)
        return first - pair(a + 1, b - 1)

    return _assemble(n, d, dim_z, coefficient)


@dataclass
class JumpingClassReport:
    """Reconciliation of the closed formulas against the independent
    pipelines; discrepancies are flags, not failures."""

    n: int
    d: int
    N: int
    dim_z_stated: int
    dim_z_oracle: int
    class_formula_at_stated: ClassEval
    class_formula_at_oracle: ClassEval
    class_pushpull: ClassEval
    coefficient_table: list
    middle_terms: list
    flags: list

    def to_json(self):
        return {
            "n": self.n,
            "d": self.d,
            "N": self.N,
            "dim_z": {"paper": self.dim_z_stated, "oracle": self.dim_z_oracle},
            "class_theorem": {
                "paper": self.class_formula_at_stated.to_json(),
                "oracle": self.class_formula_at_oracle.to_json(),
            },
            "class_pushpull": self.class_pushpull.to_json(),
            "coefficient_table": self.coefficient_table,
            "middle_terms": self.middle_terms,
            "flags": self.flags,
        }


def _middle_record(n, ctx, dim_z):
    """Compare the stated middle coefficient with the pairing-derived one
    (n = 3 and even dim_z only; None otherwise)."""
    if n != 3 or dim_z % 2:
        return None
    mid = dim_z // 2
    index = mid + _shift(ctx, dim_z)
    stated = _stated_middle(n, mid)
    from_pairing = 0 - comb(mid + 2, n) * comb(mid, n)
    return {
        "dim_z": dim_z,
        "index": [index, index],
        "stated": stated,
        "from_pairing": from_pairing,
        "agree": stated == from_pairing,
    }


def reconcile(n, d, trials=3, seed=0):
    """Full reconciliation report for the jumping locus of V_(d+1)."""
    _check_params(n, d)
    N = comb(n + d, n)
    if N > DESK_SCALE_N:
        raise ValueError(f"desk-scale bound exceeded: N = {N} > {DESK_SCALE_N}")
    dim_stated = dim_z_formula(n, d)
    dim_oracle = dim_z_jacobian(n, d, trials=trials, seed=seed)
    ev_stated = class_from_formula(n, d, dim_stated)
    ev_oracle = ev_stated if dim_oracle == dim_stated else class_from_formula(n, d, dim_oracle)
    ev_pushpull = class_from_pushpull(n, d, dim_oracle)

    keys = sorted(set(ev_oracle.cls.coeffs) | set(ev_pushpull.cls.coeffs))
    table = []
    for a, b in keys:
        ct = ev_oracle.cls.coefficient(a, b)
        cp = ev_pushpull.cls.coefficient(a, b)
        table.append({"a": a, "b": b, "theorem": ct, "pushpull": cp, "equal": ct == cp})

    middles = [rec for dim_z in (dim_stated, dim_oracle)
               if (rec := _middle_record(n, ev_stated.cls.ctx, dim_z)) is not None]

    flags = set()
    if dim_stated != dim_oracle:
        flags.add(FLAG_DIM_MISMATCH)
    for ev in (ev_stated, ev_oracle, ev_pushpull):
        if ev.out_of_range:
            flags.add(FLAG_OUT_OF_RANGE)
        if any(c < 0 for c in ev.all_coefficients()):
            flags.add(FLAG_NEGATIVE)
    for rec in middles:
        if not rec["agree"]:
            flags.add(FLAG_MIDDLE)
        if rec["from_pairing"] < 0:
            flags.add(FLAG_NEGATIVE)

    return JumpingClassReport(
        n=n, d=d, N=N,
        dim_z_stated=dim_stated,
        dim_z_oracle=dim_oracle,
        class_formula_at_stated=ev_stated,
        class_formula_at_oracle=ev_oracle,
        class_pushpull=ev_pushpull,
        coefficient_table=table,
        middle_terms=middles,
        flags=sorted(flags),
    )
