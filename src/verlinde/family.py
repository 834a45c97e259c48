"""Verlinde bundles of the universal hypersurface family, restricted to lines.

For the family of degree-d hypersurfaces in P^n, the k-th Verlinde bundle
V_k restricted to the line spanned by forms f1, f2 is the cokernel of the
pencil (A, B) = (mult by f1, mult by f2) acting from degree k-d to degree
k.  Everything here is an executable criterion about that pencil: the
zero count of the splitting type, genericity as a single rank condition,
and the gcd test that predicts jumping behavior; ``type_from_gcd`` gives
the whole type in closed form from deg gcd(f1, f2).

The zero count and the genericity test read the same number, rank [A|B]
= 2u - h(2), from the first step of the pencil's h-sequence, the step the
splitting type takes first.  Each line keeps a private memo of its pencil
per twist k, packed from the forms' terms with no matrix built, and the
pencil keeps its h-sequence's state, so each h-step runs once per line
however many criteria ask; B^T is eliminated once per prime per call that
runs steps.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from math import comb

from .pencils import Pencil, SplittingType, _section_dims
from .polynomials import HomogeneousPolynomial, _integral, _mult_targets, gcd_degree, random_form

_LINE_RETRIES = 16  # draws sample_line makes before giving up on a dependent pair

__all__ = [
    "VerlindeContext",
    "LineInSystem",
    "DegenerateLineError",
    "GenericTypeUndefinedError",
    "context",
    "verlinde_pencil",
    "zero_count",
    "generic_type",
    "near_generic_type",
    "type_from_gcd",
    "is_generic_type",
    "GcdPrediction",
    "predict_by_gcd",
    "sample_line",
]


class DegenerateLineError(ValueError):
    """f1 and f2 do not span a line (linearly dependent)."""


class GenericTypeUndefinedError(ValueError):
    """The generic type (1,...,1,0,...,0) needs degree <= rank."""


@dataclass(frozen=True)
class VerlindeContext:
    """Numerical invariants of V_k for hypersurfaces of degree d in P^n.

    w and u are the dimensions of the degree-k and degree-(k-d) graded
    pieces; rank = w - u and degree = u are the rank and degree of V_k.
    """

    n: int
    d: int
    k: int
    w: int
    u: int
    rank: int
    degree: int


def context(n, d, k):
    if n < 2:
        raise ValueError("ambient dimension n must be >= 2")
    if d < 1:
        raise ValueError("hypersurface degree d must be >= 1")
    if k < 1:
        raise ValueError("twist k must be >= 1")
    w = comb(k + n, n)
    u = comb(k - d + n, n) if k >= d else 0
    return VerlindeContext(n=n, d=d, k=k, w=w, u=u, rank=w - u, degree=u)


@dataclass(frozen=True)
class LineInSystem:
    """A line in the system of degree-d hypersurfaces, spanned by f1, f2."""

    f1: HomogeneousPolynomial
    f2: HomogeneousPolynomial
    # twist k -> pencil; outside equality, hash and repr
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        f1, f2 = self.f1, self.f2
        if f1.num_vars != f2.num_vars:
            raise DegenerateLineError("spanning forms live in different rings")
        if f1.degree != f2.degree:
            raise DegenerateLineError("spanning forms have different degrees")
        if f1.is_zero or f2.is_zero:
            raise DegenerateLineError("spanning forms must be nonzero")
        # f2 = c f1 with c = b[i] / a[i] at f1's first nonzero coefficient
        a, b = f1.coeff_vector(), f2.coeff_vector()
        i = next(j for j, x in enumerate(a) if x)
        if all(y * a[i] == x * b[i] for x, y in zip(a, b)):
            raise DegenerateLineError("f1 and f2 are linearly dependent")


def _check_line(ctx, line):
    if line.f1.n != ctx.n:
        raise ValueError(f"line lives in P^{line.f1.n}, context in P^{ctx.n}")
    if line.f1.degree != ctx.d:
        raise ValueError(f"line has degree {line.f1.degree}, context degree {ctx.d}")


def verlinde_pencil(ctx, line):
    """The pencil presenting V_k on the line; empty (u = 0) when k < d.
    Built once per (line, k) by ``_multiplication_pencil``; do not mutate it."""
    _check_line(ctx, line)  # the memo is keyed by k; this pins n and d
    pencil = line._memo.get(ctx.k)
    if pencil is None:
        pencil = line._memo[ctx.k] = _multiplication_pencil(ctx, line)
    return pencil


def _multiplication_pencil(ctx, line):
    """The pencil (mult by f1, mult by f2) from degree k - d, straight from
    the forms' terms: f1's term c*m is c at the column of m*theta in each
    row theta of A^T, one term over all u rows (``_mult_targets``), and f2's
    are B^T's; so A and B are ``mult_matrix``'s.  None when k < d (u = 0).
    The forms are the integral multiples c1*f1 and c2*f2 (c_i the lcm of
    f_i's denominators, by ``_integral``): (c1 A, c2 B) is (A, B) after
    (s, t) -> (c1 s, c2 t), so the splitting type, rank [A|B] and
    injectivity are those of the line."""
    targets = _mult_targets(ctx.n, ctx.d, ctx.k - ctx.d)
    return Pencil._of_terms(ctx.w, ctx.u, [(c, first, 0, targets[m])
                                           for f, first in ((line.f1, 0), (line.f2, ctx.u))
                                           for m, c in _integral(f).terms.items()])


def _stacked_rank(ctx, line):
    """rank [A | B] = dim(f1*U + f2*U), U the degree-(k-d) graded piece,
    read off the first step of the pencil's h-sequence.

    h(2) is the left kernel dimension of the 2u x w matrix S_1 = [A^T ; B^T]
    (``pencils.twisted_section_dims``), so rank S_1 = 2u - h(2); and S_1
    is the transpose of [A | B], so the two ranks are equal."""
    return 2 * ctx.u - _section_dims(verlinde_pencil(ctx, line), 2)[1]


def zero_count(ctx, line):
    """Number of zero entries of the splitting type, as a single rank:
    w - dim(f1*U + f2*U) with U the degree-(k-d) graded piece."""
    return ctx.w - _stacked_rank(ctx, line)


def _check_generic_defined(ctx):
    if ctx.degree > ctx.rank:
        raise GenericTypeUndefinedError(
            f"generic type undefined: degree {ctx.degree} > rank {ctx.rank}")


def generic_type(ctx):
    """The type (1,...,1,0,...,0) with u ones; needs degree <= rank.  At
    k >= 2d no line attains it (``type_from_gcd`` has more zeros for every
    d'), so there ``split`` reports "generic": false, dominance against it."""
    _check_generic_defined(ctx)
    return SplittingType((1,) * ctx.u + (0,) * (ctx.rank - ctx.u))


def is_generic_type(ctx, line):
    """Whether the products f1*theta, f2*theta are linearly independent,
    i.e. the splitting type is the generic (1,...,1,0,...,0)."""
    _check_generic_defined(ctx)
    return _stacked_rank(ctx, line) == 2 * ctx.u


def near_generic_type(ctx):
    """The type (2,1,...,1,0,...,0); with the generic type, the only one
    attained at k = d + 1.  The degree constraint pins u - 2 ones."""
    if ctx.u < 2 or ctx.rank < ctx.u - 1:
        raise GenericTypeUndefinedError(
            f"no near-generic type for u = {ctx.u}, rank = {ctx.rank}")
    return SplittingType((2,) + (1,) * (ctx.u - 2) + (0,) * (ctx.rank - ctx.u + 1))


def type_from_gcd(ctx, dprime):
    """The splitting type of V_k on a line whose forms have a gcd of degree
    d': with e = d - d', m = k - d' and r(a) = C(a + n, n) (0 for a < 0),
    #{i : a_i >= j} = r(m - je) - r(m - (j+1)e) for j >= 1, zeros elsewhere.

    Proof.  Write f_i = g g_i, g = gcd(f1, f2), g1 and g2 coprime of degree
    e.  V is the cokernel of R_(k-d) (x) O(-1) -> R_k (x) O under
    g (s g1 + t g2); g is a nonzerodivisor, so 0 -> W -> V -> (R_k / g R_m)
    (x) O -> 0 is exact, W the cokernel of R_(m-e) (x) O(-1) -> R_m (x) O
    under s g1 + t g2.  For j >= 1, H^0(W(-j)) is the kernel of
    R_(m-e) (x) H^1(O(-1-j)) -> R_m (x) H^1(O(-j)): the chains
    (c_1, ..., c_j) with g1 c_i + g2 c_(i+1) = 0, up to sign.  By the
    Koszul complex of the coprime g1, g2 (Eisenbud, Commutative Algebra,
    section 17), c_i = +-g1^(i-1) g2^(j-i) q with q in R_(m-je), so
    h^0(W(-j)) = r(m - je).  W and V are quotients of trivial bundles, so
    every a_i >= 0, H^1(W) = 0, the sequence splits, and #{a_i >= j} =
    h^0(W(-j)) - h^0(W(-j-1)) (Okonek, Schneider and Spindler, Vector
    Bundles on Complex Projective Spaces, I.2).

    So the sum is r(k - d) = u, there are w - 2u + r(k - 2d + d') zeros
    (jumping iff d' >= 2d - k), the largest entry is max(0, floor(m / e)),
    and at k = d + 1 the type is generic unless d' = d - 1.  A d' above
    d - 1, which only an overshooting gcd oracle reads on a line, is taken
    as d - 1, still not below the truth."""
    if dprime < 0:
        raise ValueError(f"gcd degree must be >= 0, got {dprime}")
    dprime = min(dprime, ctx.d - 1)
    e, m, n = ctx.d - dprime, ctx.k - dprime, ctx.n
    h = [comb(m - j * e + n, n) for j in range(m // e + 1)] + [0, 0]  # h^0(W(-j))
    entries = []
    for j in range(m // e, 0, -1):  # #{a_i >= j} - #{a_i >= j + 1} entries equal j
        entries += [j] * (h[j] - 2 * h[j + 1] + h[j + 2])
    return SplittingType(entries + [0] * (ctx.rank - len(entries)))


@dataclass(frozen=True)
class GcdPrediction:
    gcd_degree: int
    jumping: bool
    predicted_type: SplittingType | None  # only populated at k = d + 1


def predict_by_gcd(ctx, line, trials=3, seed=0):
    """Predict jumping behavior from deg gcd(f1, f2).

    The line is jumping iff deg gcd >= 2d - k; at k = d + 1 the full type
    is ``type_from_gcd``'s: (2,1,...,1,0,...,0) when jumping, the generic
    type otherwise.
    """
    _check_generic_defined(ctx)
    _check_line(ctx, line)
    dprime = gcd_degree(line.f1, line.f2, trials=trials, seed=seed)
    jumping = dprime >= 2 * ctx.d - ctx.k
    predicted = None
    if ctx.k == ctx.d + 1:
        predicted = type_from_gcd(ctx, dprime)
    return GcdPrediction(gcd_degree=dprime, jumping=jumping, predicted_type=predicted)


def _planted_degree(mode, d):
    """None for mode 'random', D for 'jumping:D', D in [0, d - 1] as str(D) writes it."""
    if mode == "random":
        return None
    if not (isinstance(mode, str) and re.fullmatch(r"jumping:(0|-?[1-9][0-9]*)", mode)):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if not 0 <= (dprime := int(mode[8:])) <= d - 1:
        raise ValueError(f"planted gcd degree must lie in [0, {d - 1}], got {dprime}")
    return dprime


def sample_line(ctx, mode, seed):
    """Draw a line: mode 'random', or 'jumping:D' for a planted gcd of degree D.

    Jumping mode draws h of degree D and g1, g2 of degree d - D and spans
    the line by (h*g1, h*g2); sampling is retried until the two forms are
    independent.
    """
    n, d = ctx.n, ctx.d
    dprime = _planted_degree(mode, d)
    for attempt in range(_LINE_RETRIES):
        rng = random.Random(f"{seed}:line:{mode}:{attempt}")
        try:
            if dprime is None:
                return LineInSystem(random_form(n, d, rng), random_form(n, d, rng))
            h = random_form(n, dprime, rng)
            g1 = random_form(n, d - dprime, rng)
            g2 = random_form(n, d - dprime, rng)
            return LineInSystem(h * g1, h * g2)
        except DegenerateLineError:
            continue
    raise RuntimeError(f"failed to sample an independent line after {_LINE_RETRIES} tries")

