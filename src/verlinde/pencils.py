"""Splitting types of cokernels of injective pencils O(-1)^u -> O^w on P^1.

A pencil is a pair (A, B) of w x u matrices describing the sheaf map
s*A + t*B.  For an injective pencil whose cokernel E is a bundle with
nonnegative splitting entries, the twisted section dimensions
h(t) = h^0(E(-t)) are the left kernel dimensions of the Sylvester blocks
S_(t-1), and the splitting type is the conjugate partition of their
differences.  The blocks are never built: S_t is block upper triangular
over S_(t-1), so a left kernel basis of S_t comes from one of S_(t-1)
and the (u + h(t)) x w matrix [B^T ; L A^T], where L holds the last u
coordinates of that basis, normalized (see ``twisted_section_dims``).
The same sequence decides injectivity: h(u+1) <= u exactly for an
injective pencil (see ``is_injective``).  Its first step eliminates S_1,
so rank [A | B] = 2u - h(2) comes from that one shared step.  Each
pencil keeps only its recursion's state, the h values and the last L, so
a later call runs the missing steps alone and no step runs twice; the
steps of a call share one ``linalg.KernelStack``, packed from the
pencil's terms, the nonzero entries of [A^T ; B^T] (A and B are built
only when read), so B^T is eliminated once per prime per call, and a
step's h new rows on about u + h of the w slots (``linalg``, Kept slots).
This avoids computing any canonical form of the (possibly singular)
pencil; canonical blocks appear only in the forward direction as a
seeded test constructor.
"""

from __future__ import annotations

import math
import random

from .linalg import ExactMatrix, KernelStack, _dense, random_unimodular

__all__ = [
    "Pencil",
    "SplittingType",
    "PencilError",
    "NotInjectiveError",
    "CokernelError",
    "is_injective",
    "sylvester_block",
    "twisted_section_dims",
    "splitting_type",
    "kronecker_pencil",
    "dominates",
    "dominance",
]


class PencilError(ValueError):
    pass


class NotInjectiveError(PencilError):
    """The pencil drops rank identically, so it is not an injective sheaf map."""


class CokernelError(PencilError):
    """The section-dimension sequence is not that of a bundle with
    nonnegative splitting entries (torsion or negative twists)."""


class SplittingType(tuple):
    """Non-increasing tuple of nonnegative integers b_1 >= ... >= b_r;
    equal to, and hashed as, the plain tuple of its entries."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(entries)
        if any(type(b) is not int for b in entries):
            raise ValueError(f"splitting type entries must be ints, got {entries}")
        if any(b < 0 for b in entries):
            raise ValueError(f"negative entry in splitting type {entries}")
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise ValueError(f"splitting type {entries} is not non-increasing")
        return super().__new__(cls, entries)

    @property
    def entries(self):
        return tuple(self)

    @property
    def total(self):
        return sum(self)

    def zeros(self):
        return self.count(0)

    def __repr__(self):
        return f"SplittingType{self.entries}"


def dominates(t1, t2):
    """Prefix-sum dominance; False for mismatched length or total."""
    if len(t1) != len(t2) or t1.total != t2.total:
        return False
    s1 = s2 = 0
    for a, b in zip(t1, t2):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True


def dominance(t1, t2):
    """One of 'equal', 'dominates', 'dominated', 'incomparable',
    'incomparable-frame' (the last when lengths or totals differ)."""
    if len(t1) != len(t2) or t1.total != t2.total:
        return "incomparable-frame"
    if t1 == t2:
        return "equal"
    if dominates(t1, t2):
        return "dominates"
    if dominates(t2, t1):
        return "dominated"
    return "incomparable"


class Pencil:
    """Pair of w x u matrices (A, B) for the map s*A + t*B: O(-1)^u -> O^w,
    held as the nonzero terms of [A^T ; B^T] (``linalg._dense``'s), B's
    rows after A's: a pencil of dense matrices takes its entries as terms,
    and A and B are built from the terms on each read."""

    __slots__ = ("w", "u", "_terms", "_sections")  # _sections: see _section_dims, not the value

    def __init__(self, A, B):
        if (A.rows, A.cols) != (B.rows, B.cols):
            raise PencilError("A and B must have equal shapes")
        if A.cols > A.rows:
            raise PencilError("pencil must have u <= w")
        self.w, self.u, self._sections = A.rows, A.cols, None
        self._terms = [(x, j + first, i, (0,)) for first, m in ((0, A), (A.cols, B))
                       for i, row in enumerate(m.entries) for j, x in enumerate(row) if x]

    @classmethod
    def _of_terms(cls, w, u, terms):  # [A^T ; B^T], 2u x w, of these terms; u <= w
        pencil = object.__new__(cls)
        pencil.w, pencil.u, pencil._terms, pencil._sections = w, u, terms, None
        return pencil

    def _matrix(self, first):  # A (first 0) or B (first u): rows first.. of [A^T ; B^T]
        rows = _dense(2 * self.u, self.w, self._terms)[first:first + self.u]
        return ExactMatrix(self.u, self.w, rows).transpose()

    A = property(lambda self: self._matrix(0))
    B = property(lambda self: self._matrix(self.u))

    def at(self, s, t):
        """The matrix s*A + t*B."""
        return self.A.scale(s) + self.B.scale(t)

    def swap(self):
        return Pencil(self.B, self.A)

    def coordinate_change(self, a, b, c, d):
        """Replace (A, B) by (a*A + b*B, c*A + d*B); needs ad - bc != 0."""
        if a * d - b * c == 0:
            raise PencilError("coordinate change must be invertible")
        return Pencil(self.at(a, b), self.at(c, d))

    def conjugate(self, left, right):
        """Left/right multiply both matrices (an equivalence of pencils)."""
        return Pencil(left @ self.A @ right, left @ self.B @ right)

    def __eq__(self, other):
        if not isinstance(other, Pencil):
            return NotImplemented
        return self.A == other.A and self.B == other.B

    def __repr__(self):
        return f"Pencil(w={self.w}, u={self.u})"


def is_injective(pencil):
    """Whether s*A + t*B is injective as a sheaf map (generic rank u).

    Exactly when h(u+1) <= u in the sequence of ``twisted_section_dims``
    (h(t) is the left kernel dimension of S_(t-1) for any pencil):

    * Not injective: the kernel K != 0 of O(-1)^u -> O^w is a subbundle,
      so K = (+) O(a_i) with every a_i <= -1.  The image I lies in O^w, so
      H^0(I(-t)) = 0 for t >= 1 and H^1(K(-t)) injects into
      H^1(O(-t-1)^u); it maps to zero in H^1(O(-t)^w), since that map
      factors through H^1(I(-t)) and K -> I is zero.  So
      h(t) >= h^1(O(a_1 - t)) = t - a_1 - 1 >= t, and h(u+1) >= u+1.
    * Injective: h(t) = h^0(E(-t)) for the cokernel E, of degree u.  Its
      torsion T gives a bundle E/T, globally generated as a quotient of
      O^w, so its entries are >= 0 and sum to u - len T; none exceeds u,
      and E/T(-u-1) has no sections.  So h(u+1) = len T <= u.
    """
    return _section_dims(pencil, pencil.u + 1)[-1] <= pencil.u


def sylvester_block(pencil, j):
    """Block matrix S_j with (j+1) x j blocks: A^T on the diagonal, B^T below.

    S_j represents the transposed pencil acting
    H^0(O(j-1)) (x) W* -> H^0(O(j)) (x) U*; S_0 is empty.  This is the
    definition behind ``twisted_section_dims``, which never builds it; it
    is kept for the tests that check the recursion against it and for the
    benchmark tracer's layer list.
    """
    if j < 0:
        raise ValueError("block index must be nonnegative")
    u, w = pencil.u, pencil.w
    if j == 0:
        return ExactMatrix.zero(u, 0)
    rows = _dense(2 * u, w, pencil._terms)
    at, bt = rows[:u], rows[u:]
    grid = [[0] * (j * w) for _ in range((j + 1) * u)]
    for block in range(j):
        r0, c0 = block * u, block * w
        for i in range(u):
            grid[r0 + i][c0:c0 + w] = at[i]
            grid[r0 + u + i][c0:c0 + w] = bt[i]
    return ExactMatrix((j + 1) * u, j * w, grid)


def _section_dims(pencil, t_max):
    """h(1), ..., h(t_max) with h(t) the left kernel dimension of S_(t-1),
    as a new list, by the recursion of ``twisted_section_dims``.  The
    pencil keeps (dims, T, den): the values so far and the last step's
    tails L = T / den, normalized, as integer rows over a common
    denominator (T is None for I_u, and empty once h reaches 0).  So no
    step runs twice.  A call that runs steps makes one ``KernelStack`` of
    A^T and B^T, so B^T is eliminated once per prime per call, and starts
    each step with as many primes as the last one used; it keeps none of
    that."""
    u, w = pencil.u, pencil.w
    if pencil._sections is None:
        pencil._sections = ([u], None, 1)
    dims, T, den = pencil._sections
    if not dims[-1] or len(dims) >= t_max:
        return (dims + [0] * t_max)[:t_max]
    stack, k = KernelStack(u, 2 * u, w, pencil._terms), 1
    while dims[-1] and len(dims) < t_max:
        t = len(dims)
        kernel, used = stack.kernel(T, den, k, min(u + dims[-1], w) + 1,  # S_t's minors: M's pivots, D
                                    min((t + 1) * u, t * w))
        dims, k = dims + [len(kernel)], len(used)
        den = math.lcm(*[z[i] for i, z in kernel.items()])  # z / z[i] is normalized
        T = [z[:u] if z[i] == den else [x * (den // z[i]) for x in z[:u]]
             for i, z in kernel.items()]
        pencil._sections = (dims, T, den)
    return (dims + [0] * t_max)[:t_max]


def twisted_section_dims(pencil, t_max):
    """The sequence h^0(E(-t)) for t = 1..t_max.

    Twisting 0 -> O(-1)^u -> O^w -> E -> 0 by O(-t) and taking cohomology
    gives h^0(E(-t)) = ker(H^1(O(-t-1))^u -> H^1(O(-t))^w); by Serre
    duality that connecting map is the transposed Sylvester block S_(t-1),
    so h(t) = h^0(E(-t)) = t*u - rank(S_(t-1)), the dimension of the left
    kernel of S_(t-1).

    No S_j is built.  S_t is block upper triangular,
    [[S_(t-1), R], [0, B^T]], with R zero but for A^T in its last u rows.
    Let K be a basis of the left kernel of S_(t-1) and L its last u
    coordinates, so K R = L A^T.  A row vector (x, y) kills S_t exactly
    when x S_(t-1) = 0, that is x = c K, and c K R + y B^T = 0.  So
    (y, c) -> (c K, y) maps the left kernel of the (u + h(t)) x w matrix
    M = [B^T ; L A^T] one to one onto that of S_t (K has independent
    rows): h(t+1) is the number of left kernel vectors of M, and their y
    parts are the next L.  The start is h(1) = u with L = I_u, since S_0
    is empty.  (Counting ranks, rank S_t = rank S_(t-1) + rank M.)

    Every M starts with the rows B^T, so a call's steps share one
    ``linalg.KernelStack`` of A^T and B^T, which eliminates and certifies
    (see there).  Its vectors z = (y, c) are normalized up to scale, and
    the next L = T / den is their y parts each divided by its entry at its
    zero row: a step is fed normalized vectors, not lifted ones.

    Normalization.  If K is normalized, the identity on a set Z of rows of
    S_(t-1) (K = I_u is), then c K is c on Z: (y, c) are the entries of
    x = (c K, y) on Z and on the last u rows, and x is normalized on the
    new zero rows.  So a step's vectors are entries of the normalized
    kernel basis of S_t, ratios of its minors (Cramer), whose size does
    not grow from step to step as lifted, rescaled L's would.

    Termination.  K's rows are its Z rows plus multiples of the other rows
    P of S_(t-1), so a minor of M times D, a nonzero maximal minor of
    S_(t-1) on P, is a minor of S_t, and D is a multiple of L's
    denominators.  So a prime bad at a step divides D or one of M's pivot
    minors, and the argument of the ``linalg`` docstring holds with
    r = rank M + 1 and H the Hadamard bound of S_t.

    The same sequence decides injectivity, so no other elimination runs:
    the steps go on to t = u+1 at least, and NotInjectiveError is raised
    when h(u+1) > u.  By the proof in ``is_injective``, a pencil with a
    kernel has h(t) >= t, and an injective one has h(u+1) = len T <= u
    for the torsion T of its cokernel E.  So a sequence that reaches zero
    is that of an injective pencil, where h(t) = h^0(E(-t)) does not
    increase with t (multiplying by a linear form that vanishes at no
    point of T is injective on sections); the trailing zeros are filled
    without further elimination.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    u = pencil.u
    dims = _section_dims(pencil, max(t_max, u + 1))
    if dims[u] > u:
        raise NotInjectiveError("pencil is not injective")
    return dims[:t_max]


def splitting_type(pencil):
    """Splitting type of the cokernel bundle of an injective pencil.

    Raises CokernelError when the section dimensions are not those of a
    bundle with nonnegative entries (e.g. torsion in the cokernel).
    """
    u, w = pencil.u, pencil.w
    h = twisted_section_dims(pencil, u + 1)
    if h[-1]:
        raise CokernelError(
            f"h^0(E(-t)) did not reach zero by t = {u + 1}; "
            "cokernel has torsion or negative twists")
    h.append(0)
    counts = [h[t] - h[t + 1] for t in range(len(h) - 1)]  # c_t = #{i : b_i >= t}
    if any(c < 0 for c in counts):
        raise CokernelError("section dimensions are not non-increasing")
    if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
        raise CokernelError("section dimensions are not convex")
    if counts[0] > w - u:
        raise CokernelError("more nonzero entries than the rank allows")
    entries = [sum(1 for c in counts if c >= i) for i in range(1, counts[0] + 1)]
    return SplittingType(entries + [0] * (w - u - counts[0]))


def kronecker_pencil(st, seed=None):
    """Build a pencil with prescribed splitting type from canonical blocks.

    The frame is the type's: u = st.total and w = u + len(st).  For each
    entry b a (b+1) x b block (A = identity over a zero row, B = zero row
    over identity, cokernel O(b)) is placed on the diagonal, so a zero
    entry contributes a zero row.  With a seed, the result is conjugated
    by random unimodular row and column transformations.
    """
    st = SplittingType(st)
    u, w = st.total, st.total + len(st)
    a_rows = [[0] * u for _ in range(w)]
    b_rows = [[0] * u for _ in range(w)]
    r0 = c0 = 0
    for b in st:
        for i in range(b):
            a_rows[r0 + i][c0 + i] = 1
            b_rows[r0 + 1 + i][c0 + i] = 1
        r0 += b + 1
        c0 += b
    pencil = Pencil(ExactMatrix(w, u, a_rows), ExactMatrix(w, u, b_rows))
    if seed is None:
        return pencil
    rng = random.Random(f"{seed}:kronecker")
    left = random_unimodular(w, rng)
    right = random_unimodular(u, rng)
    return pencil.conjugate(left, right)
