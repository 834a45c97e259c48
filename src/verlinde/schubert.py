"""Chow ring of the Grassmannian of lines Gr(2, N) in the two-row Schubert
basis, plus the truncated bidegree ring of a product of projective spaces.

Products are computed by Giambelli reduction to special classes followed
by repeated Pieri multiplication; integer coefficients only.

A caller's coefficients go through the checked constructors, which refuse
an index out of range and, as ``ExactMatrix`` does, a coefficient that is
not an int (a float, a str, a bool, a Fraction, even an integral one).
Classes the package builds (``pieri``, sums, negation, scalar and
bidegree products, ``hyperplane_power``, ``pushforward_factor2``,
``jumping``'s assembly) come from valid classes or ranged indices, so they
go through ``_of``, which only drops zeros: every Pieri step would
otherwise pay checks that cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = [
    "GrContext",
    "SchubertClass",
    "sigma",
    "pieri",
    "giambelli",
    "product",
    "degree",
    "BidegreeClass",
    "bidegree_product",
    "bidegree_degree",
    "pushforward_factor2",
    "hyperplane_power",
]


@dataclass(frozen=True)
class GrContext:
    """Gr(2, N): lines in P^(N-1).  Schubert indices run 0..N-2."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need N >= 2")

    @property
    def max_index(self):
        return self.N - 2

    @property
    def dim(self):
        return 2 * (self.N - 2)


class SchubertClass:
    """Integer combination of two-row Schubert symbols sigma_{a,b}."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=None):
        coeffs = coeffs or {}
        for (a, b), c in coeffs.items():
            if not (ctx.max_index >= a >= b >= 0):
                raise ValueError(f"invalid Schubert index ({a},{b}) for N={ctx.N}")
            if type(c) is not int:
                raise ValueError(f"Schubert coefficients must be ints, got {c!r}")
        self.ctx, self.coeffs = ctx, {k: c for k, c in coeffs.items() if c}

    @classmethod
    def _of(cls, ctx, coeffs):
        """The class of int coefficients at valid indices, zeros dropped."""
        x = object.__new__(cls)
        x.ctx, x.coeffs = ctx, {k: v for k, v in coeffs.items() if v}
        return x

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, a, b):
        return self.coeffs.get((a, b), 0)

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def _require_same(self, other):
        if self.ctx != other.ctx:
            raise ValueError("classes live in different Grassmannians")

    def __add__(self, other):
        if not isinstance(other, SchubertClass):
            return NotImplemented
        self._require_same(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SchubertClass._of(self.ctx, out)

    def __neg__(self):
        return SchubertClass._of(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return SchubertClass._of(self.ctx, {k: scalar * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, SchubertClass):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = [f"s({a},{b})" if c == 1 else f"{c}*s({a},{b})" for (a, b), c in self.sorted_terms()]
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def to_json(self):
        return {"N": self.ctx.N,
                "terms": [{"a": a, "b": b, "c": c} for (a, b), c in self.sorted_terms()]}


def sigma(ctx, a, b=0):
    """The basis class sigma_{a,b}."""
    return SchubertClass(ctx, {(a, b): 1})


def pieri(c, x):
    """Multiply by the special class sigma_c.

    sigma_c * sigma_{a,b} is the sum of sigma_{a',b'} over
    a' + b' = a + b + c with a' >= a >= b' >= b; terms with a' > N-2 drop.
    """
    ctx = x.ctx
    top = ctx.max_index
    if not 0 <= c <= top:
        raise ValueError(f"special class index {c} out of range for N={ctx.N}")
    out = {}
    for (a, b), v in x.coeffs.items():
        total = a + b + c
        for b2 in range(b, a + 1):
            a2 = total - b2
            if a2 < a or a2 < b2 or a2 > top:
                continue
            out[(a2, b2)] = out.get((a2, b2), 0) + v
    return SchubertClass._of(ctx, out)


def _giambelli_apply(a, b, x):
    """(sigma_a*sigma_b - sigma_{a+1}*sigma_{b-1}) * x via Pieri steps."""
    ctx = x.ctx
    out = pieri(a, pieri(b, x))
    if b >= 1 and a + 1 <= ctx.max_index:
        out = out - pieri(a + 1, pieri(b - 1, x))
    return out


def giambelli(ctx, a, b):
    """sigma_{a,b} expanded from special classes; must reproduce sigma(ctx, a, b)."""
    if not ctx.max_index >= a >= b >= 0:
        raise ValueError(f"invalid index ({a},{b}) for N={ctx.N}")
    return _giambelli_apply(a, b, SchubertClass(ctx, {(0, 0): 1}))


def product(x, y):
    """Ring product, by Giambelli reduction of x and Pieri steps on y."""
    x._require_same(y)
    out = SchubertClass.zero(x.ctx)
    for (a, b), v in x.coeffs.items():
        out = out + v * _giambelli_apply(a, b, y)
    return out


def degree(x):
    """Coefficient of the point class sigma_{N-2,N-2}."""
    top = x.ctx.max_index
    return x.coeffs.get((top, top), 0)


class BidegreeClass:
    """Integer class on P^r x P^s: polynomial in hyperplane classes alpha,
    beta, truncated by alpha^(r+1) = beta^(s+1) = 0."""

    __slots__ = ("r", "s", "coeffs")

    def __init__(self, r, s, coeffs=None):
        if r < 0 or s < 0:
            raise ValueError("factor dimensions must be nonnegative")
        coeffs = coeffs or {}
        for (i, j), c in coeffs.items():
            if not (0 <= i <= r and 0 <= j <= s):
                raise ValueError(f"exponent ({i},{j}) outside P^{r} x P^{s}")
            if type(c) is not int:
                raise ValueError(f"bidegree coefficients must be ints, got {c!r}")
        self.r, self.s, self.coeffs = r, s, {k: c for k, c in coeffs.items() if c}

    @classmethod
    def _of(cls, r, s, coeffs):
        """The class of int coefficients at valid exponents, zeros dropped."""
        x = object.__new__(cls)
        x.r, x.s, x.coeffs = r, s, {k: v for k, v in coeffs.items() if v}
        return x

    def _require_same(self, other):
        if (self.r, self.s) != (other.r, other.s):
            raise ValueError("classes live on different products")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BidegreeClass(self.r, self.s, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return BidegreeClass._of(self.r, self.s,
                                     {k: other * v for k, v in self.coeffs.items()})
        self._require_same(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= self.r and j <= self.s:  # truncation
                    out[(i, j)] = out.get((i, j), 0) + c1 * c2
        return BidegreeClass._of(self.r, self.s, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BidegreeClass):
            return NotImplemented
        return (self.r, self.s) == (other.r, other.s) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*a^{i}*b^{j}" for (i, j), c in sorted(self.coeffs.items()))


def hyperplane_power(r, s, m):
    """(alpha + beta)^m on P^r x P^s, truncated."""
    if m < 0 or r < 0 or s < 0:
        raise ValueError("exponent and factor dimensions must be nonnegative")
    return BidegreeClass._of(r, s, {(i, m - i): comb(m, i)  # the kept i: m - i <= s, i <= r
                                    for i in range(max(0, m - s), min(r, m) + 1)})


def bidegree_product(x, y):
    return x * y


def bidegree_degree(x):
    """Coefficient of the point class alpha^r * beta^s."""
    return x.coeffs.get((x.r, x.s), 0)


def pushforward_factor2(x):
    """Integrate out the first factor: keep the alpha^r part, as a class
    pulled back from the second factor (alpha-degree zero)."""
    return BidegreeClass._of(x.r, x.s,
                             {(0, j): c for (i, j), c in x.coeffs.items() if i == x.r})
